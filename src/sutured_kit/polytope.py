"""Support polytopes of Spin^c data, their faces and support function,
plus the rank-based depth and disjoint-surface bound calculators.

Support points are integer vectors in Z^r (classes of supported Spin^c
structures pushed to the free part of H_1 and doubled, following the
convention that first Chern classes double torsor distances).  The hull
is exact and uses only integers: every rank and null vector comes from
one fraction-free elimination, ``abelian.echelon``, and every predicate
is the sign of an integer dot product.  It grows by beneath-beyond from a
simplex that spans the points' affine hull: each point beyond some facets
replaces them by the cone from the point over their horizon.  A facet's
normal is the primitive null vector of its edges and the span equations,
oriented inward, so it lies in the span and needs no change of
coordinates.  A point on a facet's hyperplane counts as beneath, so
coplanar simplices merge by primitive normal and the facet set depends
only on the point set.

The polytope of a diagram is computed from Euler-characteristic support.
That is a lower bound for the full homology support: where rank
cancellation occurs in a single Spin^c class the polytope here can be
smaller.  The bundled fixtures all have torsion coefficients +-1, where
the two notions coincide.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .abelian import echelon
from .errors import (BadDimension, DimensionTooLarge, EmptySupport,
                     NonPositiveRank, expect, expect_items)

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
        expect(data, dict, "support JSON")
        pts = [tuple(expect_items(p, int, f"points[{i}]"))
               for i, p in enumerate(expect(data.get("points"), list, "points"))]
        mults = data.get("multiplicities")
        if mults is not None:
            if len(expect_items(mults, int, "multiplicities")) != len(pts):
                raise ValueError(f"multiplicities has {len(mults)} entries "
                                 f"for {len(pts)} points")
            mults = dict(zip(pts, mults))
        return cls(expect(data.get("dimension"), int, "dimension"), tuple(pts), mults)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _primitive(vec):
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g else tuple(vec)


def _kernel(rows, width):
    """One primitive integer null vector of the rows per free column f of
    their echelon form: supported on the pivot columns and f, positive at f."""
    pivots, m, _ = echelon(rows)
    scale = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    out = []
    for f in range(width):
        if f not in pivots:
            n = [0] * width
            n[f] = scale
            for k, c in enumerate(pivots):
                n[c] = -m[k][f]
            out.append(_primitive([-x for x in n] if scale < 0 else n))
    return out


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

    def min_value(self, alpha):
        if len(alpha) != self.ambient_dimension:
            raise BadDimension("direction has the wrong length")
        return min(_dot(vert, alpha) for vert in self.vertices)

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
        return {
            "dimension": self.dim,
            "vertices": [list(map(str, v)) for v in sorted(self.vertices)],
            "facets": [{"normal": list(n), "offset": str(c)}
                       for n, c in sorted(self.facets)],
            "equations": [{"normal": list(n), "offset": str(c)}
                          for n, c in sorted(self.equations)],
            "symmetric": is_centrally_symmetric(self),
        }


def hull(s):
    """Exact convex hull of the support points; handles lower dimensions.

    Beneath-beyond over the integers: a first simplex spanning the points'
    affine hull is grown one point at a time, each point beyond some
    facets replacing them by its cone over their horizon.
    """
    r = s.dimension
    if r > MAX_DIMENSION:
        raise DimensionTooLarge(f"support dimension {r} exceeds {MAX_DIMENSION}")
    pts = list(s.points)
    if not pts:
        raise EmptySupport("no support points")

    # first simplex: the pivot columns of the differences, as columns, are
    # the points that raise the rank, in input order; the span equations
    # are the null vectors of the differences
    origin = pts[0]
    diffs = [tuple(a - b for a, b in zip(p, origin)) for p in pts]
    simplex = [0] + echelon(list(zip(*diffs)))[0]
    d = len(simplex) - 1
    equations = [(n, _dot(n, origin)) for n in _kernel(diffs, r)]

    if d == 0:
        return SupportPolytope(r, 0, (tuple(origin),), (), tuple(equations))

    # facets are d-tuples of point indices with n . x >= c on the hull, n the
    # primitive vector of the span orthogonal to the facet: the cofactors of
    # its edges and the span equations.  A point on a facet's hyperplane is
    # beneath it, so coplanar simplices survive side by side and share n.
    spans = [n for n, _ in equations]
    inside = [sum(pts[i][t] for i in simplex) for t in range(r)]  # (d+1) x interior
    facets, ridges = {}, {}

    def ridges_of(verts):
        return [verts[:k] + verts[k + 1:] for k in range(d)]

    def add_facet(verts):
        base = pts[verts[0]]
        [n] = _kernel([[a - b for a, b in zip(pts[i], base)]
                       for i in verts[1:]] + spans, r)
        c = _dot(n, base)
        if _dot(n, inside) < (d + 1) * c:
            n, c = tuple(-x for x in n), -c
        facets[verts] = (n, c)
        for ridge in ridges_of(verts):
            ridges.setdefault(ridge, set()).add(verts)

    for k in range(d + 1):
        add_facet(tuple(sorted(simplex[:k] + simplex[k + 1:])))
    for i, p in enumerate(pts):
        visible = {f for f, (n, c) in facets.items() if _dot(n, p) < c}
        if not visible:
            continue
        horizon = [ridge for f in visible for ridge in ridges_of(f)
                   if not ridges[ridge] <= visible]
        for f in visible:
            del facets[f]
            for ridge in ridges_of(f):
                ridges[ridge].discard(f)
        for ridge in horizon:
            add_facet(tuple(sorted(ridge + (i,))))
    hyperplanes = sorted(set(facets.values()))

    # vertices: points whose tight facet normals have rank d
    vertices = []
    for i in {i for f in facets for i in f}:
        tight = [n for n, c in hyperplanes if _dot(n, pts[i]) == c]
        if len(echelon(tight)[0]) == d:
            vertices.append(pts[i])
    vertices.sort()

    return SupportPolytope(r, d, tuple(vertices), tuple(hyperplanes), tuple(equations))


def support_function(p, alpha):
    """y_t(alpha): the maximum of <-c, alpha> over the polytope, exactly."""
    return -p.min_value(tuple(alpha))


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
    """Vertex set invariant under reflection through the vertex centroid.

    With n vertices summing to s, the reflection of v is 2s/n - v, so the
    test 2s - n v in {n w} stays in integers.
    """
    n = len(p.vertices)
    total = [sum(col) for col in zip(*p.vertices)]
    scaled = {tuple(n * x for x in w) for w in p.vertices}
    return all(tuple(2 * t - n * x for t, x in zip(total, v)) in scaled for v in p.vertices)


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
