"""Test-side oracles for H_1(M), eps, domains and the unit normal form.

The Smith-normal-form path that the library used before its tree-cotree
decomposition, kept here as an independent check: a dense boundary
matrix d1 of the cell structure, an SNF for the kernel basis of d1, an
SNF of that basis, and one solve per relation and per 1-cycle.  The
periodic and connecting domains as the library found them before it
lifted them along the dual tree: an SNF kernel and an SNF solve on the
(#arcs) x (#internal regions + #curves) boundary system.  Next to
it, the quadratic ``doteq_normalize`` that translates by every support
element, the explicit path chains of eps walked in either direction, the
Euler polynomial as the signed sum over every generator (the Leibniz
expansion that the library's alpha x beta determinant replaces), and
builders for the parametric families T(p,1;2), T(1,0;2k+2) and L(p,1)
minus a ball.  Also the integer matrix product and determinant that the
Smith-form tests check against, which the library does not need, and the
tree-cotree H_1 path as the library ran it one coordinate at a time
before it worked on whole tuples, and then on sparse vectors: the edge
images, the point potentials, eps and the Spin^c classes, all dense, with
``dense`` to compare the library's sparse vectors against them.  The
Spin^c partition as the library found it before it packed the
potentials: one tuple sum per generator, reduced one by one, and one
``FinAbGroup.sub`` per ordered pair of classes.  The union-find with one
method call per find and union.  The generators as the recursive
backtrack listed them before the walk over completable beta masks, and
the number of calls it makes.
"""

from operator import mul, neg

from ring_oracle import from_ambient, group_neg, group_sub, identity, ring_neg, ring_translate
from snf_oracle import smith_normal_form as oracle_smith_normal_form
from sutured_kit.abelian import (GroupRingElem, IntMatrix, cokernel, echelon, smith_cokernel,
                                 smith_normal_form)
from sutured_kit.diagram import (_check_generator, _eps_chain, epsilon, generator_sign,
                                 generators, h1_of_M, internal_regions)
from sutured_kit.errors import InvalidDiagram


def matmul(a, b):
    """The product of two IntMatrix."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    cols = [b.column(j) for j in range(b.cols)]
    return IntMatrix([[sum(map(mul, row, col)) for col in cols] for row in a.entries],
                     a.rows, b.cols)


def det(a):
    """Exact determinant: the row-swap sign times the last pivot of ``echelon``."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    pivots, m, sign = echelon(a.entries)
    if len(pivots) < a.rows:
        return 0
    return sign * m[-1][-1] if m else 1


def diagonal(d, rows, cols):
    """The rows x cols entries with d on the diagonal and 0 elsewhere."""
    return tuple(tuple(d[i] if i == j else 0 for j in range(cols)) for i in range(rows))


def kernel_basis(a):
    """Basis of the integer kernel {x : a*x = 0}, as a list of column vectors."""
    _, d, v = smith_normal_form(a)
    rank = sum(1 for x in d if x != 0)
    return [v.column(j) for j in range(rank, a.cols)]


def solve_integer(a, b):
    """One integer solution x of a*x = b, or None when there is none."""
    u, d, v = smith_normal_form(a)
    c = u @ tuple(b)
    y = [0] * a.cols
    for i in range(a.rows):
        di = d[i] if i < len(d) else 0
        if di != 0:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
        elif c[i] != 0:
            return None
    return v @ y


class SnfSkeleton:
    """CW structure of the surface with dense d1, d2 columns and curve chains.

    Vertices are integer ids: a point is keyed by its name, the vertex of an
    empty curve by (family, curve) and a boundary circle by ("o", region,
    k), so no synthetic vertex shares a key with a point.
    """

    def __init__(self, d):
        self.vertex_index = {}
        self.edges = []
        self.arc_edge = {}

        def vertex(key):
            if key not in self.vertex_index:
                self.vertex_index[key] = len(self.vertex_index)
            return self.vertex_index[key]

        def add_edge(tail, head):
            self.edges.append((tail, head))
            return len(self.edges) - 1

        def endpoints(arc):
            fam, i, k = arc
            pts = (d.alpha if fam == "a" else d.beta)[i]
            if not pts:
                return vertex((fam, i)), vertex((fam, i))
            return vertex(pts[k]), vertex(pts[(k + 1) % len(pts)])

        for arc in d.arcs():
            self.arc_edge[arc] = add_edge(*endpoints(arc))

        def walk_start(cyc):
            arc, sign = cyc[0]
            t, h = endpoints(arc)
            return t if sign > 0 else h

        raw_columns = []
        for rid, region in enumerate(d.regions):
            col = {}
            anchors = []
            for cyc in region.cycles:
                anchors.append(walk_start(cyc))
                for arc, sign in cyc:
                    e = self.arc_edge[arc]
                    col[e] = col.get(e, 0) + sign
            circle_vertices = []
            for k in range(region.boundary_circles):
                v = vertex(("o", rid, k))
                circle_vertices.append(v)
                e = add_edge(v, v)
                col[e] = col.get(e, 0) + 1
            base = anchors[0] if anchors else (circle_vertices[0] if circle_vertices else None)
            extra = anchors[1:] + (circle_vertices if anchors else circle_vertices[1:])
            for v in extra:
                add_edge(base, v)
            raw_columns.append(col)
        ne = len(self.edges)
        self.n_edges = ne
        self.d2_columns = [tuple(col.get(e, 0) for e in range(ne)) for col in raw_columns]
        nv = len(self.vertex_index)
        d1 = [[0] * ne for _ in range(nv)]
        for e, (t, h) in enumerate(self.edges):
            d1[h][e] += 1
            d1[t][e] -= 1
        self.d1 = IntMatrix(d1, nv, ne)
        self.curve_chain = {}
        for fam, curves in (("a", d.alpha), ("b", d.beta)):
            for i, pts in enumerate(curves):
                vec = [0] * ne
                for k in range(max(1, len(pts))):
                    vec[self.arc_edge[(fam, i, k)]] = 1
                self.curve_chain[(fam, i)] = tuple(vec)


class SnfH1:
    """H_1(M) = ker d1 / (im d2 + curve classes), with a solver for 1-cycles."""

    def __init__(self, d):
        self.skeleton = sk = SnfSkeleton(d)
        kb = kernel_basis(sk.d1)
        self.k = len(kb)
        self.kmat = IntMatrix(tuple(tuple(col[e] for col in kb) for e in range(sk.n_edges)),
                              sk.n_edges, self.k)
        self.u, self.diag, self.v = smith_normal_form(self.kmat)
        relations = list(sk.d2_columns) + list(sk.curve_chain.values())
        cols = [self._coords(vec) for vec in relations]
        rel = IntMatrix(tuple(tuple(col[i] for col in cols) for i in range(self.k)),
                        self.k, len(cols))
        self.group = cokernel(rel)

    def _coords(self, vec):
        c = self.u @ tuple(vec)
        y = [0] * self.k
        for i in range(self.kmat.rows):
            di = self.diag[i] if i < len(self.diag) else 0
            if di != 0:
                if c[i] % di != 0:
                    raise InvalidDiagram("chain is not an integral 1-cycle")
                y[i] = c[i] // di
            elif c[i] != 0:
                raise InvalidDiagram("chain is not a 1-cycle")
        return self.v @ y

    def class_of_arcs(self, chain):
        """Class of a chain {arc: coefficient}."""
        vec = [0] * self.skeleton.n_edges
        for arc, c in chain.items():
            vec[self.skeleton.arc_edge[arc]] += c
        return from_ambient(self.group, self._coords(vec))


def _boundary_rows(d, internal):
    """Per-arc boundary multiplicity as a row over internal-region coefficients."""
    rows = {arc: [0] * len(internal) for arc in d.arcs()}
    for k, ridx in enumerate(internal):
        for cyc in d.regions[ridx].cycles:
            for arc, sign in cyc:
                rows[arc][k] += sign
    return rows


def snf_periodic_lattice(d):
    """Integer basis of the periodic domains.

    A domain is periodic when its boundary multiplicity is constant along
    every curve, so the lattice is the kernel of the map sending region
    coefficients to per-arc jumps relative to a reference arc on each
    curve.
    """
    d.require_valid()
    internal = internal_regions(d)
    rows = _boundary_rows(d, internal)
    constraints = []
    for fam, curves in (("a", d.alpha), ("b", d.beta)):
        for i, pts in enumerate(curves):
            ref = rows[(fam, i, 0)]
            for k in range(1, len(pts)):
                cur = rows[(fam, i, k)]
                constraints.append(tuple(a - b for a, b in zip(cur, ref)))
    if not internal:
        return []
    mat = IntMatrix(tuple(constraints) if constraints else ((0,) * len(internal),),
                    len(constraints) if constraints else 1, len(internal))
    return [tuple(col) for col in kernel_basis(mat)]


def snf_connecting_domains(d, x, y):
    """A domain joining two generators, if any.

    Solves the integer system saying the domain boundary runs along the
    alpha curves from x to y and along the beta curves from y to x, up to
    adding full curves.  Returns (particular domain, periodic basis), as
    coefficient tuples over the internal regions, or None; None happens
    exactly when eps(x, y) != 0.
    """
    d.require_balanced()
    _check_generator(d, x)
    _check_generator(d, y)
    internal = internal_regions(d)
    rows = _boundary_rows(d, internal)
    curves = [("a", i) for i in range(len(d.alpha))] + [("b", j) for j in range(len(d.beta))]
    curve_col = {c: len(internal) + t for t, c in enumerate(curves)}
    ncols = len(internal) + len(curves)
    path = _eps_chain(d, x, y)
    arc_list = list(d.arcs())
    mat_rows = []
    rhs = []
    for arc in arc_list:
        row = [0] * ncols
        row[:len(internal)] = rows[arc]
        row[curve_col[(arc[0], arc[1])]] = -1
        mat_rows.append(tuple(row))
        rhs.append(path.get(arc, 0))
    if not mat_rows:
        return (), snf_periodic_lattice(d)
    sol = solve_integer(IntMatrix(tuple(mat_rows), len(mat_rows), ncols), rhs)
    if sol is None:
        return None
    return tuple(sol[:len(internal)]), snf_periodic_lattice(d)


def curve_walk(d, fam, i, p, q, backward=False):
    """Arc chain along a curve from p to q; backward is the negative of the
    complementary walk, which differs by the full curve class."""
    pts = (d.alpha if fam == "a" else d.beta)[i]
    pos = {name: k for k, name in enumerate(pts)}
    n = len(pts)
    chain = {}
    k, stop, step = (pos[q], pos[p], -1) if backward else (pos[p], pos[q], 1)
    while k != stop:
        arc = (fam, i, k)
        chain[arc] = chain.get(arc, 0) + step
        k = (k + 1) % n
    return chain


def eps_chain(d, x, y, backward=False):
    chain = {}
    parts = [curve_walk(d, "a", i, x[i][1], y[i][1], backward) for i in range(len(d.alpha))]
    beta_x = dict(x)
    beta_y = dict(y)
    parts += [curve_walk(d, "b", j, beta_y[j], beta_x[j], backward) for j in beta_x]
    for part in parts:
        for arc, c in part.items():
            chain[arc] = chain.get(arc, 0) + c
    return {arc: c for arc, c in chain.items() if c}


def snf_spinc_classes(d):
    """Generator index classes of eps = 0, in first-appearance order."""
    h1 = SnfH1(d)
    gens = generators(d)
    members = {}
    for idx, x in enumerate(gens):
        members.setdefault(h1.class_of_arcs(eps_chain(d, gens[0], x)), []).append(idx)
    return h1.group, tuple(tuple(m) for m in members.values())


def tuple_sum_spinc_partition(d, gens=None):
    """(classes, difference) of the Spin^c partition: every generator's
    potentials summed as a tuple from minus the first generator's sum and
    reduced by ``from_coords``, classes in first-appearance order.  The
    generators are ``generators(d)`` unless given."""
    if gens is None:
        gens = generators(d)
    data = d._h1
    if not gens:
        return (), {}
    members = {}
    base = data.potential_sum(gens[0], (0,) * data.group.projection.rows)
    lead = tuple(map(neg, base))
    for idx, x in enumerate(gens):
        members.setdefault(data.group.from_coords(data.potential_sum(x, lead)), []).append(idx)
    values = list(members)
    difference = {(a, b): group_sub(data.group, vb, va)
                  for a, va in enumerate(values) for b, vb in enumerate(values)}
    return tuple(map(tuple, members.values())), difference


def partition_differences(part):
    """{(a, b): eps from class a to class b} of a ``SpincPartition``, read
    from its class values as ``values[b] - values[a]``, a then b."""
    values, group = part.values, part.group
    return {(a, b): group_sub(group, vb, va)
            for a, va in enumerate(values) for b, vb in enumerate(values)}


def quadratic_doteq_normalize(x, g):
    """Translate by every support element, keep the smallest qualifying form."""
    if x.is_zero():
        return x
    one = identity(g)
    best = None
    for s in x.support():
        y = ring_translate(x, group_neg(g, s), g)
        if min(y._terms) != one:
            continue
        if y._terms.get(one, 0) < 0:
            y = ring_neg(y)
        key = y.items()
        if best is None or key < best[0]:
            best = (key, y)
    return best[1]


def enumerated_euler_polynomial(d):
    """Signed count of every generator, graded by eps against the first one."""
    gens = generators(d)
    group, _ = h1_of_M(d)
    if not gens:
        return GroupRingElem(), group
    terms = {}
    for x in gens:
        cls = epsilon(d, gens[0], x)
        terms[cls] = terms.get(cls, 0) + generator_sign(d, x)
    return quadratic_doteq_normalize(GroupRingElem(terms), group), group


def backtrack_generators(d):
    """The generators of a balanced diagram as the library enumerated them
    before it walked completable beta masks: a recursive backtrack over the
    alpha curves that also tries beta curves used further down."""
    _, bpos = d._curve_of
    candidates = [sorted((bpos[p], p) for p in curve) for curve in d.alpha]
    n = len(candidates)
    out = []
    used = [False] * len(d.beta)
    pick = []

    def backtrack(i):
        if i == n:
            out.append(tuple(pick))
            return
        for j, p in candidates[i]:
            if not used[j]:
                used[j] = True
                pick.append((j, p))
                backtrack(i + 1)
                pick.pop()
                used[j] = False

    backtrack(0)
    del backtrack       # the closure refers to itself; drop the cycle now
    return tuple(out)


def backtrack_calls(d):
    """The number of calls ``backtrack_generators`` makes: one per partial
    matching of the first i alpha curves to distinct beta curves, i = 0..n,
    counted level by level over the masks of used beta curves."""
    _, bpos = d._curve_of
    level, calls = {0: 1}, 1
    for curve in d.alpha:
        nxt = {}
        for mask, count in level.items():
            for p in curve:
                bit = 1 << bpos[p]
                if not mask & bit:
                    nxt[mask | bit] = nxt.get(mask | bit, 0) + count
        level = nxt
        calls += sum(level.values())
    return calls


# -- the tree-cotree path, one coordinate at a time ------------------------------

class UnionFind:
    """Disjoint sets over 0..n-1 with path halving, one method call per find
    and union, as the library kept them before ``diagram._union_find``."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y):
        """Merge the sets of x and y; False when they already were one set."""
        rx, ry = self.find(x), self.find(y)
        self.parent[ry] = rx
        return rx != ry


def loop_edge_images(sk):
    """(L, tree-cotree images of the edges in Z^L, C* order, C* parent edges).

    C* is breadth-first from the outside node; the C* edge above a region
    has coefficient +-1 in its boundary and is solved after the regions
    below it.
    """
    uf = UnionFind(sk.n_vertices)
    in_tree = [uf.union(t, h) for t, h in sk.edges]
    adjacent = [[] for _ in range(sk.outside + 1)]
    for e, (r, s) in enumerate(sk.sides):
        if not in_tree[e] and r != s:
            adjacent[r].append((e, s))
            adjacent[s].append((e, r))
    parent_edge = {sk.outside: None}
    order = [sk.outside]
    for node in order:
        for e, other in adjacent[node]:
            if other not in parent_edge:
                parent_edge[other] = e
                order.append(other)
    if len(order) != len(adjacent):
        raise InvalidDiagram("regions are not connected across the cut graph")
    cotree = set(parent_edge.values())
    leftover = [e for e in range(len(sk.edges)) if not in_tree[e] and e not in cotree]
    rank = len(leftover)
    images = [(0,) * rank] * len(sk.edges)
    for k, e in enumerate(leftover):
        images[e] = tuple(int(j == k) for j in range(rank))
    for r in reversed(order[1:]):
        up = parent_edge[r]
        total = [0] * rank
        for e, c in sk.columns[r].items():
            if e != up:
                for j, x in enumerate(images[e]):
                    total[j] += c * x
        c = sk.columns[r][up]
        images[up] = tuple(-c * x for x in total)
    return rank, images, order, parent_edge


def dense(vec, length):
    """The tuple of ``length`` entries holding a sparse vector {coordinate: int}."""
    out = [0] * length
    for j, x in vec.items():
        out[j] = x
    return tuple(out)


class LoopH1:
    """The edge images, the curve-image matrix rel, its Smith form by
    ``snf_oracle``, H_1(M), and phi and the potential of each point."""

    def __init__(self, d):
        d.require_valid()
        sk = d._skeleton
        self.rank, self.images, self.order, self.parent_edge = loop_edge_images(sk)
        zero = (0,) * self.rank
        curve_images = []
        phi = {}                 # point -> P_alpha(p) - P_beta(p)
        for fam, sign, curves in (("a", 1, d.alpha), ("b", -1, d.beta)):
            for i, pts in enumerate(curves):
                edges = [sk.arc_edge[(fam, i, k)] for k in range(max(1, len(pts)))]
                acc = zero
                for k, e in enumerate(edges):
                    if pts:
                        phi[pts[k]] = tuple(a + sign * b for a, b in
                                            zip(phi.get(pts[k], zero), acc))
                    acc = tuple(a + b for a, b in zip(acc, self.images[e]))
                curve_images.append(acc)
        self.rel = IntMatrix(tuple(tuple(img[r] for img in curve_images)
                                   for r in range(self.rank)),
                             self.rank, len(curve_images))
        self.snf = u, s, _ = oracle_smith_normal_form(self.rel)
        self.group = smith_cokernel(u, s)
        self.phi = phi
        self.potential = {p: self.group.projection @ v for p, v in phi.items()}

    def difference(self, x, y):
        """eps(x, y): the potentials summed over y minus those over x."""
        total = [0] * self.group.projection.rows
        for gen, sign in ((y, 1), (x, -1)):
            for _, p in gen:
                for j, v in enumerate(self.potential[p]):
                    total[j] += sign * v
        return self.group.from_coords(total)

    def spinc_classes(self, d):
        """Generator index classes of eps = 0, in first-appearance order."""
        gens = generators(d)
        members = {}
        for idx, x in enumerate(gens):
            members.setdefault(self.difference(gens[0], x), []).append(idx)
        return tuple(map(tuple, members.values()))


# -- parametric families -------------------------------------------------------

def torus_diagram(p):
    """T(p,1;2): one alpha and one beta curve on the torus meeting in p points."""
    pts = [f"P{i}" for i in range(p)]
    regions = [{"cycles": [[f"b1.{i}", f"a1.{(i + 1) % p}", f"-b1.{(i + 1) % p}",
                            f"-a1.{i}"]],
                "boundary_circles": int(i < 2)} for i in range(p)]
    return {"genus": 1, "boundary_circles": 2, "alpha": [pts], "beta": [list(pts)],
            "crossing_sign": {q: 1 for q in pts}, "regions": regions}


def lens_diagram(p):
    """L(p,1) minus a ball: T(p,1;2) with one boundary circle, H_1 = Z/p."""
    data = torus_diagram(p)
    data["boundary_circles"] = 1
    data["regions"][1]["boundary_circles"] = 0
    return data


def chain_diagram(k):
    """T(1,0;2k+2) on the sphere: curves c_1..c_2k alternate alpha and beta,
    c_j meets c_{j+1} at X_j and Y_j; t104 is k = 1 and t106 is k = 2."""
    n = 2 * k

    def points(j):
        if j == 1:
            return ["X1", "Y1"]
        if j == n:
            return [f"X{n - 1}", f"Y{n - 1}"]
        return [f"X{j}", f"X{j - 1}", f"Y{j - 1}", f"Y{j}"]

    def ref(j, arc, sign=1):
        fam = "a" if j % 2 == 1 else "b"
        return f"{'-' if sign < 0 else ''}{fam}{(j + 1) // 2}.{arc}"

    yx_next = {j: 1 if j == 1 else 3 for j in range(1, n + 1)}    # Y_j -> X_j
    xy_prev = {j: 0 if j == n else 1 for j in range(1, n + 1)}    # X_{j-1} -> Y_{j-1}
    cycles = [[ref(j, yx_next[j]), ref(j + 1, xy_prev[j + 1])] for j in range(1, n)]
    cycles += [[ref(1, 0), ref(2, xy_prev[2], -1)],
               [ref(n, 1), ref(n - 1, yx_next[n - 1], -1)]]
    regions = [{"cycles": [c], "boundary_circles": 1} for c in cycles]
    regions += [{"cycles": [[ref(j - 1, yx_next[j - 1], -1), ref(j, 2),
                             ref(j + 1, xy_prev[j + 1], -1), ref(j, 0)]],
                 "boundary_circles": 0} for j in range(2, n)]
    outer = ([ref(j, 0, -1) for j in range(2, n)] + [ref(n, 1, -1)]
             + [ref(j, 2, -1) for j in range(n - 1, 1, -1)] + [ref(1, 0, -1)])
    regions.append({"cycles": [outer], "boundary_circles": 1})
    signs = {}
    for j in range(1, n):
        s = 1 if j % 2 == 1 else -1
        signs[f"X{j}"], signs[f"Y{j}"] = s, -s
    return {"genus": 0, "boundary_circles": n + 2,
            "alpha": [points(j) for j in range(1, n + 1, 2)],
            "beta": [points(j) for j in range(2, n + 1, 2)],
            "crossing_sign": signs, "regions": regions}
