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
minus a ball.
"""

from ring_oracle import identity, ring_neg, ring_translate
from sutured_kit.abelian import GroupRingElem, IntMatrix, cokernel, smith_normal_form
from sutured_kit.diagram import (DomainVector, _check_generator, _eps_chain,
                                 epsilon, generator_sign, generators, h1_of_M,
                                 internal_regions)
from sutured_kit.errors import InvalidDiagram


def kernel_basis(a):
    """Basis of the integer kernel {x : a*x = 0}, as a list of column vectors."""
    _, d, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(a.rows, a.cols)) if d[i, i] != 0)
    return [v.column(j) for j in range(rank, a.cols)]


def solve_integer(a, b):
    """One integer solution x of a*x = b, or None when there is none."""
    u, d, v = smith_normal_form(a)
    c = u @ tuple(b)
    y = [0] * a.cols
    for i in range(a.rows):
        di = d[i, i] if i < min(a.rows, a.cols) else 0
        if di != 0:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
        elif c[i] != 0:
            return None
    return v @ y


class SnfSkeleton:
    """CW structure of the surface with dense d1, d2 columns and curve chains."""

    def __init__(self, d):
        self.vertex_index = {}
        self.edges = []
        self.arc_edge = {}

        def vertex(name):
            if name not in self.vertex_index:
                self.vertex_index[name] = len(self.vertex_index)
            return self.vertex_index[name]

        def add_edge(tail, head):
            self.edges.append((tail, head))
            return len(self.edges) - 1

        for arc in d.arcs():
            t, h = d.arc_endpoints(arc)
            self.arc_edge[arc] = add_edge(vertex(t), vertex(h))

        def walk_start(cyc):
            arc, sign = cyc[0]
            t, h = d.arc_endpoints(arc)
            return vertex(t if sign > 0 else h)

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
                v = vertex(f"~o{rid}.{k}")
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
        for fam, i in d.curves():
            vec = [0] * ne
            for k in range(d.curve_arc_count(fam, i)):
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
        self.u, self.dmat, self.v = smith_normal_form(self.kmat)
        relations = list(sk.d2_columns) + [sk.curve_chain[c] for c in d.curves()]
        cols = [self._coords(vec) for vec in relations]
        rel = IntMatrix(tuple(tuple(col[i] for col in cols) for i in range(self.k)),
                        self.k, len(cols))
        self.group = cokernel(rel)

    def _coords(self, vec):
        c = self.u @ tuple(vec)
        y = [0] * self.k
        rows, cols = self.kmat.rows, self.kmat.cols
        for i in range(rows):
            di = self.dmat[i, i] if i < min(rows, cols) else 0
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
        return self.group.from_ambient(self._coords(vec))


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
    for fam, i in d.curves():
        ref = rows[(fam, i, 0)]
        for k in range(1, d.curve_arc_count(fam, i)):
            cur = rows[(fam, i, k)]
            constraints.append(tuple(a - b for a, b in zip(cur, ref)))
    if not internal:
        return []
    mat = IntMatrix(tuple(constraints) if constraints else ((0,) * len(internal),),
                    len(constraints) if constraints else 1, len(internal))
    return [DomainVector(tuple(col)) for col in kernel_basis(mat)]


def snf_connecting_domains(d, x, y):
    """A domain joining two generators, if any.

    Solves the integer system saying the domain boundary runs along the
    alpha curves from x to y and along the beta curves from y to x, up to
    adding full curves.  Returns (particular DomainVector, periodic basis)
    or None; None happens exactly when eps(x, y) != 0.
    """
    d.require_balanced()
    _check_generator(d, x)
    _check_generator(d, y)
    internal = internal_regions(d)
    rows = _boundary_rows(d, internal)
    curves = list(d.curves())
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
        return (DomainVector(()), snf_periodic_lattice(d))
    sol = solve_integer(IntMatrix(tuple(mat_rows), len(mat_rows), ncols), rhs)
    if sol is None:
        return None
    return DomainVector(tuple(sol[:len(internal)])), snf_periodic_lattice(d)


def curve_walk(d, fam, i, p, q, backward=False):
    """Arc chain along a curve from p to q; backward is the negative of the
    complementary walk, which differs by the full curve class."""
    pts = d.curve_points(fam, i)
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
    parts = [curve_walk(d, "a", i, x.assignment[i][1], y.assignment[i][1], backward)
             for i in range(len(d.alpha))]
    beta_x = {j: p for j, p in x.assignment}
    beta_y = {j: p for j, p in y.assignment}
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


def quadratic_doteq_normalize(x, g):
    """Translate by every support element, keep the smallest qualifying form."""
    if x.is_zero():
        return x
    one = identity(g)
    best = None
    for s in x.support():
        y = ring_translate(x, g.neg(s), g)
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
