"""Test-side oracles for the support polytope.

``subset_hull`` is the hull the library computed before its
beneath-beyond construction, kept here as an independent check: every
d-subset of the points is tried as a facet in rational span coordinates,
coplanar candidates are merged by primitive normal, a vertex is a point
whose tight normals have rank d, and normals are lifted to ambient
coordinates by a Gram solve.  All arithmetic is exact over the
rationals; the cost is O(C(N, d) * N), so it serves only small sets.

``kernel_hull`` is the beneath-beyond hull as it was before its cone step
took each new facet from the pencil at the horizon ridge: every facet,
first simplex and cone alike, is the primitive null vector of its edges
and the span equations (one integer elimination each), turned toward the
first simplex's centroid.  It reaches the sizes the library serves.

``rank_vertices`` is the vertex test both used, and the library too
before it tested point masks: a point is a vertex when the normals of
the facet hyperplanes through it have rank d, one elimination per point.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from sutured_kit.abelian import echelon
from sutured_kit.errors import DimensionTooLarge, EmptySupport
from sutured_kit.polytope import (MAX_DIMENSION, SupportData, SupportPolytope,
                                  _dot, _kernel)


def primitive(vec):
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


def rref(rows):
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


def solve_exact(matrix_cols, target):
    """Solve sum c_j * col_j = target over Q; the system must be consistent."""
    n = len(target)
    k = len(matrix_cols)
    aug = [[Fraction(matrix_cols[j][i]) for j in range(k)] + [Fraction(target[i])]
           for i in range(n)]
    rows, pivots = rref(aug)
    sol = [Fraction(0)] * k
    for row, p in zip(rows, pivots):
        if p == k:
            raise ValueError("inconsistent system")
        sol[p] = row[k]
    return sol


def nullspace(rows):
    """Basis of the rational null space of the given row list."""
    if not rows:
        return []
    ncols = len(rows[0])
    rr, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(rr, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis


def subset_hull(s):
    """Exact convex hull by facet enumeration over point subsets."""
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
            _, piv = rref(cand)
            if len(piv) > len(basis):
                basis.append(v)
                basis_rows = cand
    d = len(basis)

    if d == 0:
        eq_basis = [tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r)]
    elif d < r:
        eq_basis = nullspace(basis)
    else:
        eq_basis = []
    equations = []
    for u in eq_basis:
        n = primitive(u)
        equations.append((n, sum(a * b for a, b in zip(n, origin))))

    if d == 0:
        return SupportPolytope(0, (tuple(origin),), (), tuple(equations))

    coords = [tuple(solve_exact(basis, v)) for v in diffs]

    facet_map = {}
    for subset in combinations(range(len(pts)), d):
        base = coords[subset[0]]
        rows = [tuple(coords[i][t] - base[t] for t in range(d)) for i in subset[1:]]
        normals = nullspace(rows) if rows else [(Fraction(1),)]
        if len(normals) != 1:
            continue  # affinely degenerate subset; a facet still shows up elsewhere
        n = normals[0]
        v0 = sum(a * b for a, b in zip(n, base))
        vals = [sum(a * b for a, b in zip(n, c)) for c in coords]
        if all(v >= v0 for v in vals):
            n = primitive(n)
        elif all(v <= v0 for v in vals):
            n = primitive(tuple(-x for x in n))
        else:
            continue
        facet_map[n] = min(sum(a * b for a, b in zip(n, c)) for c in coords)

    vertices = []
    for i, c in enumerate(coords):
        tight = [n for n, off in facet_map.items()
                 if sum(a * b for a, b in zip(n, c)) == off]
        if tight and len(rref(tight)[1]) == d:
            vertices.append(tuple(pts[i]))
    vertices.sort()

    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    facets = []
    for n in facet_map:
        w = solve_exact(gram, n)  # gram is symmetric, columns = rows
        amb = primitive(tuple(sum(w[t] * basis[t][j] for t in range(d))
                              for j in range(r)))
        facets.append((amb, min(sum(a * b for a, b in zip(amb, p)) for p in pts)))
    facets.sort()

    return SupportPolytope(d, tuple(vertices), tuple(facets), tuple(equations))


def subset_face(s, alpha):
    """The library's ``face`` with the oracle hull underneath."""
    vals = {pt: sum(a * b for a, b in zip(pt, alpha)) for pt in s.points}
    cmin = min(vals.values())
    chosen = tuple(pt for pt in s.points if vals[pt] == cmin)
    sub = SupportData(s.dimension, chosen)
    return subset_hull(sub), chosen


def kernel_hull(s):
    """Beneath-beyond hull with one null-vector elimination per facet."""
    r = s.dimension
    if r > MAX_DIMENSION:
        raise DimensionTooLarge(f"support dimension {r} exceeds {MAX_DIMENSION}")
    pts = list(s.points)
    if not pts:
        raise EmptySupport("no support points")

    origin = pts[0]
    diffs = [tuple(a - b for a, b in zip(p, origin)) for p in pts]
    simplex = [0] + echelon(list(zip(*diffs)))[0]
    d = len(simplex) - 1
    equations = [(n, _dot(n, origin)) for n in _kernel(diffs, r)]

    if d == 0:
        return SupportPolytope(0, (tuple(origin),), (), tuple(equations))

    spans = [n for n, _ in equations]
    inside = [sum(pts[i][t] for i in simplex) for t in range(r)]  # (d+1) x centroid
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

    vertices = rank_vertices(pts, hyperplanes, d)
    return SupportPolytope(d, tuple(vertices), tuple(hyperplanes), tuple(equations))


def rank_vertices(points, hyperplanes, d):
    """The points whose tight facet normals have rank d, sorted."""
    return sorted(p for p in points
                  if len(echelon([n for n, c in hyperplanes if _dot(n, p) == c])[0]) == d)
