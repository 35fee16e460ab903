"""Support polytopes of Spin^c data, their faces and support function,
plus the rank-based depth and disjoint-surface bound calculators.

All hull arithmetic is exact over the rationals.  Support points are
integer vectors in Z^r (classes of supported Spin^c structures pushed to
the free part of H_1 and doubled, following the convention that first
Chern classes double torsor distances).  The hull is computed by facet
enumeration over point subsets, which is perfectly adequate for r <= 6
and the small point sets produced by Euler polynomials.

The polytope of a diagram is computed from Euler-characteristic support.
That is a lower bound for the full homology support: where rank
cancellation occurs in a single Spin^c class the polytope here can be
smaller.  The bundled fixtures all have torsion coefficients +-1, where
the two notions coincide.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import (BadDimension, DimensionTooLarge, EmptySupport,
                     NonPositiveRank)

MAX_DIMENSION = 6


@dataclass(frozen=True)
class SupportData:
    """Distinct integer support points with positive multiplicities."""

    dimension: int
    points: tuple
    multiplicity: dict = None

    def __post_init__(self):
        pts = tuple(tuple(int(x) for x in p) for p in self.points)
        if len(set(pts)) != len(pts):
            raise ValueError("support points must be distinct")
        for p in pts:
            if len(p) != self.dimension:
                raise BadDimension(f"point {p} does not have dimension {self.dimension}")
        object.__setattr__(self, "points", pts)
        mult = dict(self.multiplicity or {})
        clean = {}
        for p in pts:
            m = int(mult.get(tuple(p), 1))
            if m <= 0:
                raise ValueError("multiplicities must be positive")
            clean[tuple(p)] = m
        object.__setattr__(self, "multiplicity", clean)

    @classmethod
    def from_json(cls, data):
        pts = [tuple(p) for p in data["points"]]
        mults = data.get("multiplicities")
        mult = {p: m for p, m in zip(pts, mults)} if mults else None
        return cls(int(data["dimension"]), tuple(pts), mult)

    def to_json(self):
        return {
            "dimension": self.dimension,
            "points": [list(p) for p in self.points],
            "multiplicities": [self.multiplicity[p] for p in self.points],
        }


def _primitive(vec):
    """Scale a rational vector by a positive rational to primitive integers."""
    denom = 1
    for x in vec:
        if isinstance(x, Fraction):
            denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(ints)
    return tuple(x // g for x in ints)


def _rref(rows):
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    rows = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _solve_exact(matrix_cols, target):
    """Solve sum c_j * col_j = target over Q; the system must be consistent."""
    n = len(target)
    k = len(matrix_cols)
    aug = [[Fraction(matrix_cols[j][i]) for j in range(k)] + [Fraction(target[i])]
           for i in range(n)]
    rows, pivots = _rref(aug)
    sol = [Fraction(0)] * k
    for row, p in zip(rows, pivots):
        if p == k:
            raise ValueError("inconsistent system")
        sol[p] = row[k]
    return sol


def _nullspace(rows):
    """Basis of the rational null space of the given row list."""
    if not rows:
        return []
    ncols = len(rows[0])
    rr, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(rr, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis


@dataclass(frozen=True)
class SupportPolytope:
    """Exact convex hull of support points.

    ``facets`` are pairs (normal, offset) with primitive integer normals
    and the convention normal . x >= offset for every point of the hull;
    ``equations`` cut out the affine span the same way with equality, so a
    lower-dimensional hull is fully described.
    """

    ambient_dimension: int
    dim: int
    vertices: tuple
    facets: tuple
    equations: tuple

    def support_value(self, alpha):
        if len(alpha) != self.ambient_dimension:
            raise BadDimension("direction has the wrong length")
        return max(-Fraction(sum(v * a for v, a in zip(vert, alpha)))
                   for vert in self.vertices)

    def min_value(self, alpha):
        if len(alpha) != self.ambient_dimension:
            raise BadDimension("direction has the wrong length")
        return min(Fraction(sum(v * a for v, a in zip(vert, alpha)))
                   for vert in self.vertices)

    def translate(self, shift):
        verts = tuple(tuple(x + s for x, s in zip(v, shift)) for v in self.vertices)
        facets = tuple((n, c + sum(a * s for a, s in zip(n, shift)))
                       for n, c in self.facets)
        eqs = tuple((n, c + sum(a * s for a, s in zip(n, shift)))
                    for n, c in self.equations)
        return SupportPolytope(self.ambient_dimension, self.dim, verts, facets, eqs)

    def canonical_translate(self):
        """Translate the lex-min vertex to the origin (hulls compare up to translation)."""
        v0 = min(self.vertices)
        return self.translate(tuple(-x for x in v0))

    def to_json(self):
        def frac(x):
            f = Fraction(x)
            return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)

        return {
            "dimension": self.dim,
            "vertices": [[frac(x) for x in v] for v in sorted(self.vertices)],
            "facets": [{"normal": list(n), "offset": frac(c)}
                       for n, c in sorted(self.facets)],
            "equations": [{"normal": list(n), "offset": frac(c)}
                          for n, c in sorted(self.equations)],
            "symmetric": is_centrally_symmetric(self),
        }


def hull(s):
    """Exact convex hull of the support points; handles lower dimensions."""
    r = s.dimension
    if r > MAX_DIMENSION:
        raise DimensionTooLarge(f"support dimension {r} exceeds {MAX_DIMENSION}")
    pts = list(s.points)
    if not pts:
        raise EmptySupport("no support points")

    origin = pts[0]
    diffs = [tuple(a - b for a, b in zip(p, origin)) for p in pts]
    basis = []
    basis_rows = []
    for v in diffs:
        if any(v):
            cand = basis_rows + [v]
            rr, piv = _rref(cand)
            if len(piv) > len(basis):
                basis.append(v)
                basis_rows = cand
    d = len(basis)

    # affine-span equations: functionals vanishing on every basis vector
    if d == 0:
        eq_basis = [tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r)]
    elif d < r:
        eq_basis = _nullspace(basis)
    else:
        eq_basis = []
    equations = []
    for u in eq_basis:
        n = _primitive(u)
        c = sum(a * b for a, b in zip(n, origin))
        equations.append((n, c))

    if d == 0:
        return SupportPolytope(r, 0, (tuple(origin),), (), tuple(equations))

    # coordinates of each point in the span: solve B c = p - origin, columns = basis
    coords = [tuple(_solve_exact(basis, v)) for v in diffs]

    # facet enumeration in span coordinates
    span_facets = set()
    for subset in combinations(range(len(pts)), d):
        base = coords[subset[0]]
        rows = [tuple(coords[i][t] - base[t] for t in range(d)) for i in subset[1:]]
        normals = _nullspace(rows) if rows else [(Fraction(1),)]
        if len(normals) != 1:
            continue  # affinely degenerate subset; a facet still shows up elsewhere
        n = normals[0]
        v0 = sum(a * b for a, b in zip(n, base))
        vals = [sum(a * b for a, b in zip(n, c)) for c in coords]
        if all(v >= v0 for v in vals):
            span_facets.add((_primitive(n), True, subset[0]))
        elif all(v <= v0 for v in vals):
            span_facets.add((_primitive(tuple(-x for x in n)), True, subset[0]))

    # normalize: recompute each facet's offset, dedupe by normal
    facet_map = {}
    for n, _, i0 in span_facets:
        vals = [sum(a * b for a, b in zip(n, c)) for c in coords]
        facet_map[n] = min(vals)

    # vertices: points whose tight facet normals span the whole d-space
    vertices = []
    for i, c in enumerate(coords):
        tight = [n for n, off in facet_map.items()
                 if sum(a * b for a, b in zip(n, c)) == off]
        if tight:
            _, piv = _rref(tight)
            if len(piv) == d:
                vertices.append(tuple(pts[i]))
    vertices.sort()

    # lift facet normals: solve B^T w = n via w = B (B^T B)^-1 n
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    facets = []
    for n, _off in facet_map.items():
        w = _solve_exact(gram, n)  # gram is symmetric, columns = rows
        amb = tuple(sum(w[t] * basis[t][j] for t in range(d)) for j in range(r))
        amb = _primitive(amb)
        vals = [sum(a * b for a, b in zip(amb, p)) for p in pts]
        facets.append((amb, min(vals)))
    facets.sort()

    return SupportPolytope(r, d, tuple(vertices), tuple(facets), tuple(equations))


def support_function(p, alpha):
    """y_t(alpha): the maximum of <-c, alpha> over the polytope, exactly."""
    return p.support_value(tuple(alpha))


def face(p, s, alpha):
    """Minimizing face in direction alpha and the support points realizing it.

    Returns (face polytope, tuple of input points attaining the minimum of
    <c, alpha>).  alpha = 0 gives back the whole polytope.
    """
    alpha = tuple(alpha)
    if len(alpha) != p.ambient_dimension:
        raise BadDimension("direction has the wrong length")
    vals = {pt: sum(a * b for a, b in zip(pt, alpha)) for pt in s.points}
    cmin = min(vals.values())
    chosen = tuple(pt for pt in s.points if vals[pt] == cmin)
    sub = SupportData(s.dimension, chosen,
                      {pt: s.multiplicity[pt] for pt in chosen})
    return hull(sub), chosen


def is_centrally_symmetric(p):
    """Vertex set invariant under reflection through the vertex centroid."""
    verts = [tuple(Fraction(x) for x in v) for v in p.vertices]
    n = len(verts)
    centroid = tuple(sum(v[j] for v in verts) / n for j in range(len(verts[0]))) \
        if verts else ()
    vset = set(verts)
    return all(tuple(2 * c - x for c, x in zip(centroid, v)) in vset for v in verts)


def surface_c(chi, index_i, rotation_r):
    """The pairing value chi(S) + I(S) - r(S, t) of a decomposing surface."""
    return Fraction(chi) + Fraction(index_i) - Fraction(rotation_r)


def depth_bound(rank):
    """Depth bound 2k from rank < 2^(k+1); rank 1 detects the product."""
    rank = int(rank)
    if rank < 1:
        raise NonPositiveRank(f"rank must be positive, got {rank}")
    return 2 * (rank.bit_length() - 1)


def seifert_surface_bound(rank_top):
    """Largest guaranteed count n >= 1 of pairwise disjoint non-isotopic
    minimal genus Seifert surfaces: the least n with rank < 2^(n+1)."""
    rank_top = int(rank_top)
    if rank_top < 1:
        raise NonPositiveRank(f"rank must be positive, got {rank_top}")
    return max(1, rank_top.bit_length() - 1)


def support_from_euler_polynomial(elem, group):
    """Project a group-ring element to support data in the free part of H_1.

    Exponents are doubled (Chern classes double torsor distances) and the
    torsion part is discarded; the multiplicity of a point is the sum of
    absolute coefficients landing on it.  Different representatives of the
    same +-h class give translates of the same point set.
    """
    r = group.free_rank
    mult = {}
    for g, c in elem.items():
        pt = tuple(2 * x for x in g.free)
        mult[pt] = mult.get(pt, 0) + abs(c)
    pts = tuple(sorted(mult))
    if not pts:
        raise EmptySupport("zero polynomial has empty support")
    return SupportData(r, pts, mult)
