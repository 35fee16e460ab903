"""Support polytopes of Spin^c data, their central symmetry, and the
rank-based depth and disjoint-surface bound calculators.

Support points are integer vectors in Z^r (classes of supported Spin^c
structures pushed to the free part of H_1 and doubled, following the
convention that first Chern classes double torsor distances).  The hull
is exact and uses only integers: every rank and null vector comes from
one fraction-free elimination, ``abelian.echelon``, and every predicate
is the sign of an integer dot product.  It grows by beneath-beyond from a
simplex that spans the points' affine hull, taking the points farthest
from their centroid first, so that the simplex is large and interior
points arrive beneath every facet: each point beyond some facets
replaces them by the cone from the point over their horizon.  Only the
span equations and the first simplex's facets take an elimination: such
a facet's normal is the primitive null vector of its edges and the span
equations, turned toward the simplex's centroid.  A horizon ridge R lies
in exactly two facets, one visible from the new point p, (n1, c1), and
one not, (n2, c2), so b = n1.p - c1 < 0 <= a = n2.p - c2, and the cone
facet over R lies in the pencil of their hyperplanes: n = a n1 - b n2
takes the value a c1 - b c2 = n.p on R, so it is orthogonal to the new
facet's edges and, like n1 and n2, to the span equations, and on the
hull n.x - n.p = a (n1.x - c1) - b (n2.x - c2) >= 0, so it points
inward.  Its primitive vector is thus the inward null vector an
elimination would give, at the cost of O(r) products and one gcd.
Every normal lies in the span and needs no change of coordinates.  A
point on a facet's hyperplane counts as beneath, so coplanar simplices
merge by primitive normal and the facet set depends only on the point
set.  The span equations are the null vectors of the first simplex's
edges alone, and a point is a vertex when no other point lies on every
facet through it, a test of bitmasks with no elimination.

The polytope of a diagram is computed from Euler-characteristic support.
That is a lower bound for the full homology support: where rank
cancellation occurs in a single Spin^c class the polytope here can be
smaller.  On the bundled fixtures the two coincide: every coefficient is
+-1, except on the Hopf link grid, whose coefficients' absolute values
sum to 16, the rank of its SFH.
"""

from functools import reduce
from math import gcd
from operator import and_, mul

from .abelian import echelon
from .errors import (BadDimension, DimensionTooLarge, EmptySupport,
                     NonPositiveRank, expect, expect_items, expect_rows)

MAX_DIMENSION = 6


class SupportData:
    """Distinct integer support points, as tuples of one dimension.

    The hull reads the point set alone.  ``from_json``, the one reader of
    a support document, checks the points and the optional
    ``multiplicities`` field, one positive integer per point, and drops it.
    """

    __slots__ = ("dimension", "points")

    def __init__(self, dimension, points):
        self.dimension = dimension
        self.points = tuple(points)

    @classmethod
    def from_json(cls, data):
        expect(data, dict, "support JSON")
        pts = list(map(tuple, expect_rows(data.get("points"), int, "points")))
        mults = data.get("multiplicities")
        if mults is not None and len(expect_items(mults, int, "multiplicities")) != len(pts):
            raise ValueError(f"multiplicities has {len(mults)} entries for {len(pts)} points")
        dimension = expect(data.get("dimension"), int, "dimension")
        seen = set()
        for i, p in enumerate(pts):
            if len(p) != dimension:
                raise BadDimension(f"points[{i}] does not have dimension {dimension}, "
                                   f"got {list(p)}")
            if p in seen:
                raise ValueError(f"points[{i}] repeats an earlier point, got {list(p)}")
            seen.add(p)
        for i, m in enumerate(mults or ()):
            if m <= 0:
                raise ValueError(f"multiplicities[{i}] must be positive, got {m}")
        return cls(dimension, pts)


def _dot(u, v):
    return sum(map(mul, u, v))


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


class SupportPolytope:
    """Exact convex hull of support points.

    ``facets`` are pairs (normal, offset) with primitive integer normals
    and the convention normal . x >= offset for every point of the hull;
    ``equations`` cut out the affine span the same way with equality, so a
    lower-dimensional hull is fully described.
    """

    __slots__ = ("dim", "vertices", "facets", "equations")

    def __init__(self, dim, vertices, facets, equations):
        self.dim = dim
        self.vertices = vertices
        self.facets = facets
        self.equations = equations

    def canonical_translate(self):
        """Translate the lex-min vertex to the origin (hulls compare up to translation)."""
        v0 = min(self.vertices)
        verts = tuple(tuple(x - s for x, s in zip(v, v0)) for v in self.vertices)
        facets = tuple((n, c - _dot(n, v0)) for n, c in self.facets)
        eqs = tuple((n, c - _dot(n, v0)) for n, c in self.equations)
        return SupportPolytope(self.dim, verts, facets, eqs)

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
    affine hull is grown one point at a time, farthest from the centroid
    first, each point beyond some facets replacing them by its cone over
    their horizon.
    """
    r = s.dimension
    if r > MAX_DIMENSION:
        raise DimensionTooLarge(f"support dimension {r} exceeds {MAX_DIMENSION}")
    if not s.points:
        raise EmptySupport("no support points")

    # farthest from the centroid first (Quickhull's order): |N x - t|^2, t the
    # coordinate sums, is N^2 times the squared distance, in integers.  The
    # first simplex is then large and most interior points arrive beneath
    # every facet.  The sort is stable, and the output does not depend on
    # the order anyway: hyperplanes and vertices are sorted, the equations
    # come from a unique reduced echelon form.
    size = len(s.points)
    total = [sum(col) for col in zip(*s.points)]
    pts = sorted(s.points, reverse=True,
                 key=lambda p: sum((size * x - t) ** 2 for x, t in zip(p, total)))

    # first simplex: the pivot columns of the differences, as columns, are
    # the points that raise the rank, in that order.  Its edges span the
    # differences' row space, so their null vectors are the span equations.
    origin = pts[0]
    diffs = [tuple(a - b for a, b in zip(p, origin)) for p in pts]
    simplex = [0] + echelon(list(zip(*diffs)))[0]
    d = len(simplex) - 1
    equations = [(n, _dot(n, origin)) for n in _kernel([diffs[i] for i in simplex], r)]

    if d == 0:
        return SupportPolytope(0, (tuple(origin),), (), tuple(equations))

    # facets are d-tuples of point indices with n . x >= c on the hull, n the
    # primitive vector of the span orthogonal to the facet.  A point on a
    # facet's hyperplane is beneath it, so coplanar simplices survive side
    # by side and share n.
    facets, ridges = {}, {}

    def ridges_of(verts):
        return [verts[:k] + verts[k + 1:] for k in range(d)]

    def add_facet(verts, n, c):
        facets[verts] = (n, c)
        for ridge in ridges_of(verts):
            ridges.setdefault(ridge, set()).add(verts)

    # the first simplex's facets: null vectors of their edges and the span
    # equations, turned toward the simplex's centroid
    spans = [n for n, _ in equations]
    inside = [sum(pts[i][t] for i in simplex) for t in range(r)]  # (d+1) x centroid
    for k in range(d + 1):
        verts = tuple(sorted(simplex[:k] + simplex[k + 1:]))
        base = pts[verts[0]]
        [n] = _kernel([[a - b for a, b in zip(pts[i], base)]
                       for i in verts[1:]] + spans, r)
        c = _dot(n, base)
        if _dot(n, inside) < (d + 1) * c:
            n, c = tuple(-x for x in n), -c
        add_facet(verts, n, c)

    # a cone facet over the horizon ridge R takes the pencil normal
    # a n1 - b n2 of R's visible facet (n1, c1) and its other facet (n2, c2),
    # b = n1 . p - c1 < 0 <= a = n2 . p - c2 (see the module docstring)
    for i, p in enumerate(pts):
        visible = {f for f, (n, c) in facets.items() if sum(map(mul, n, p)) < c}
        if not visible:
            continue
        horizon = []
        for f in visible:
            for ridge in ridges_of(f):
                [g] = ridges[ridge] - {f}
                if g not in visible:
                    horizon.append((ridge, facets[f], facets[g]))
        for f in visible:
            del facets[f]
            for ridge in ridges_of(f):
                ridges[ridge].discard(f)
        for ridge, (n1, c1), (n2, c2) in horizon:
            a, b = _dot(n2, p) - c2, _dot(n1, p) - c1
            n = _primitive([a * x - b * y for x, y in zip(n1, n2)])
            add_facet(tuple(sorted(ridge + (i,))), n, _dot(n, p))
    hyperplanes = sorted(set(facets.values()))

    # vertices: the facets through a point p cut out the smallest face
    # containing it, and a face other than {p} has another vertex, an input
    # point on each of those facets.  So p is a vertex exactly when no other
    # point lies on every facet hyperplane through p: the AND of the masks
    # of the points on those hyperplanes is p's own bit.  Every vertex is a
    # corner of some facet simplex, so only those points are tried.
    corners = {i for f in facets for i in f}
    masks = [sum(1 << i for i in corners if _dot(n, pts[i]) == c) for n, c in hyperplanes]
    vertices = sorted(pts[i] for i in corners
                      if reduce(and_, (m for m in masks if m >> i & 1)) == 1 << i)

    return SupportPolytope(d, tuple(vertices), tuple(hyperplanes), tuple(equations))


def is_centrally_symmetric(p):
    """Vertex set invariant under reflection through the vertex centroid.

    With n vertices summing to s, the reflection of v is 2s/n - v, so the
    test 2s - n v in {n w} stays in integers.
    """
    n = len(p.vertices)
    total = [sum(col) for col in zip(*p.vertices)]
    scaled = {tuple(n * x for x in w) for w in p.vertices}
    return all(tuple(2 * t - n * x for t, x in zip(total, v)) in scaled for v in p.vertices)


def depth_bound(rank):
    """Depth bound 2k from rank < 2^(k+1); rank 1 detects the product."""
    if rank < 1:
        raise NonPositiveRank(f"rank must be positive, got {rank}")
    return 2 * (rank.bit_length() - 1)


def seifert_surface_bound(rank_top):
    """Largest guaranteed count n >= 1 of pairwise disjoint non-isotopic
    minimal genus Seifert surfaces: the least n with rank < 2^(n+1)."""
    if rank_top < 1:
        raise NonPositiveRank(f"rank must be positive, got {rank_top}")
    return max(1, rank_top.bit_length() - 1)


def support_from_euler_polynomial(elem, group):
    """Project a group-ring element to support data in the free part of H_1.

    Exponents are doubled (Chern classes double torsor distances) and the
    torsion part is discarded; the points are the distinct results, sorted.
    Different representatives of the same +-h class give translates of the
    same point set.
    """
    pts = sorted({tuple(2 * x for x in free) for (free, _), _ in elem.items()})
    if not pts:
        raise EmptySupport("zero polynomial has empty support")
    return SupportData(group.free_rank, pts)
