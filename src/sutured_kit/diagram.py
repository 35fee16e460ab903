"""Combinatorial balanced sutured Heegaard diagrams.

A diagram is a compact oriented surface with boundary, given purely
combinatorially: two transverse curve systems whose intersection points
are named, crossing signs, and the list of complement regions with their
boundary cycles of arcs.  Arcs are referenced as ``"a1.0"`` (the arc of
the first alpha curve running from its 0th to its 1st point) with a ``-``
prefix for reversed traversal; an empty curve is an embedded circle with
no crossings and carries one artificial vertex and a single loop arc.

On top of the raw cell structure the module computes: validity (the
boundary cycles are closed walks that traverse each arc once in each
direction, so the surface is oriented; the corners at each point, where
one arc of a cycle arrives and the next leaves, form one cycle, so no
point is pinched; the Euler characteristic; connectivity), balance, the
generator set (one intersection point on each curve of either family),
first homology of the glued-up manifold as a quotient of H_1 of the
surface by the curve classes, the difference class eps(x, y) between
generators and the induced partition into Spin^c classes, periodic
domains and admissibility, connecting domains between generators, and
the signed, Spin^c-graded Euler polynomial as the determinant of the
alpha x beta potential matrix.  One pass over the region cycles builds
the cell structure that all of these read.  Each derived structure (the
point -> curve tables, the cell structure, the validation and balance
reports, the generators and the H_1 data) is a cached property, built once
per diagram on first use.

Homology cellulation: every region must have genus zero; a region with
extra boundary cycles (arc cycles or contained boundary circles) is cut
to a disk by connector edges, traversed once each way so they vanish
from its boundary; a boundary circle is one vertex plus one loop edge.
A tree-cotree decomposition (Eppstein) of this cell structure, a spanning
tree T of the 1-skeleton and one C* of the dual graph on the regions and
an outside node reached by the loop edges, leaves L = 2g + b - 1 edges.
They map to unit vectors of Z^L, T to 0, and C* leaves-first to whatever
kills each region boundary: an isomorphism H_1(surface) -> Z^L.  H_1(M)
is the cokernel of the L x (|alpha| + |beta|) matrix rel of curve images, and
with the point potentials phi(p) = P_alpha(p) - P_beta(p), prefix sums of
arc images along the curves, eps(x, y) = sum phi(y) - sum phi(x).  The
Smith normal form u rel v = diag(s) is the only one any query runs, ``check``
included: a periodic domain bounds sum n_c (curve c) with n in the kernel
of rel, a connecting domain bounds the eps chain plus the n solving
rel n = -image, and H_2 of the surface being 0, each lifts root first
along C* to one 2-chain, which is 0 on the regions touching the boundary.

Admissibility: by Stiemke's lemma no nonzero periodic domain is >= 0
exactly when the origin lies in the relative interior of the convex hull
of the rows of the periodic basis (one row per internal region), which
the integer hull of ``polytope`` decides under its dimension bound.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from . import abelian
from .abelian import (FinAbGroup, IntMatrix, _perm_sign, det_group_ring, doteq_normalize,
                      smith_cokernel, GroupRingElem)
from .errors import (DimensionTooLarge, InvalidDiagram, NotAGenerator, NotBalanced, expect,
                     expect_items)
from .polytope import MAX_DIMENSION, SupportData, hull


def parse_arc_ref(text, field="arc reference"):
    """Parse ``"a1.0"`` / ``"-b2.3"`` into ((family, curve, arc), sign).

    A malformed reference raises ValueError naming ``field``.
    """
    body = text.removeprefix("-")
    curve_s, _, arc_s = body[1:].partition(".")
    try:
        if body[:1] in ("a", "b"):
            return (body[:1], int(curve_s) - 1, int(arc_s)), -1 if body != text else 1
    except ValueError:
        pass
    raise ValueError(f"{field} must be an arc reference like 'a1.0' or '-b2.3', "
                     f"got {text!r}")


def _arc_refs(refs, field):
    """Parse a list of arc references; a malformed one is named by index."""
    expect_items(refs, str, field)
    try:
        return tuple(map(parse_arc_ref, refs))
    except ValueError:
        for j, ref in enumerate(refs):
            parse_arc_ref(ref, f"{field}[{j}]")
        raise


def format_arc_ref(arc, sign):
    fam, curve, idx = arc
    return ("-" if sign < 0 else "") + f"{fam}{curve + 1}.{idx}"


@dataclass(frozen=True)
class Region:
    """Complement region: arc boundary cycles, contained boundary circles, genus."""

    cycles: tuple          # tuple of cycles; a cycle is a tuple of (arc, sign)
    boundary_circles: int = 0
    genus: int = 0

    @classmethod
    def from_json(cls, data, field="region"):
        expect(data, dict, field)
        cycles = tuple(
            _arc_refs(cyc, f"{field}.cycles[{i}]")
            for i, cyc in enumerate(expect(data.get("cycles", []), list,
                                           f"{field}.cycles")))
        return cls(cycles,
                   expect(data.get("boundary_circles", 0), int, f"{field}.boundary_circles"),
                   expect(data.get("genus", 0), int, f"{field}.genus"))

    def to_json(self):
        return {
            "cycles": [[format_arc_ref(a, s) for a, s in cyc] for cyc in self.cycles],
            "boundary_circles": self.boundary_circles,
            "genus": self.genus,
        }


@dataclass(frozen=True)
class GeneratorMatching:
    """One intersection point on each alpha and each beta curve.

    ``assignment[i] = (j, p)`` says alpha_i meets beta_j at the chosen
    point p; the map i -> j must be a bijection.
    """

    assignment: tuple

    def sigma(self):
        return tuple(j for j, _ in self.assignment)

    def points(self):
        return tuple(p for _, p in self.assignment)

    def to_json(self):
        return [{"alpha": i, "beta": j, "point": p}
                for i, (j, p) in enumerate(self.assignment)]


class _UnionFind:
    """Disjoint sets over 0..n-1 with path halving."""

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


def _region_components(n_regions, side_lists):
    """Region index lists of the classes joined by the given lists of region
    indices, each sorted, ordered by their smallest member."""
    uf = _UnionFind(n_regions)
    for sides in side_lists:
        for ridx in sides[1:]:
            uf.union(sides[0], ridx)
    comps = {}
    for i in range(n_regions):
        comps.setdefault(uf.find(i), []).append(i)
    return list(comps.values())


class ValidationReport:
    def __init__(self, violations):
        self.violations = list(violations)

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        return f"ValidationReport(ok={self.ok}, violations={self.violations!r})"


class BalanceReport:
    def __init__(self, balanced, reasons):
        self.balanced = balanced
        self.reasons = list(reasons)

    def __bool__(self):
        return self.balanced


class SuturedDiagram:
    """Immutable combinatorial sutured diagram; all queries are pure."""

    def __init__(self, genus, boundary_circles, alpha, beta, crossing_sign, regions):
        self.genus = int(genus)
        self.boundary_circles = int(boundary_circles)
        self.alpha = tuple(tuple(c) for c in alpha)
        self.beta = tuple(tuple(c) for c in beta)
        self.crossing_sign = dict(crossing_sign)
        self.regions = tuple(regions)

    # -- input/output ---------------------------------------------------------

    @classmethod
    def from_json(cls, data):
        expect(data, dict, "diagram JSON")
        genus = expect(data.get("genus"), int, "genus")
        boundary_circles = expect(data.get("boundary_circles"), int, "boundary_circles")
        curves = {fam: [expect_items(c, str, f"{fam}[{i}]") for i, c in
                        enumerate(expect(data.get(fam, []), list, fam))]
                  for fam in ("alpha", "beta")}
        signs = expect(data.get("crossing_sign", {}), dict, "crossing_sign")
        return cls(genus, boundary_circles, curves["alpha"], curves["beta"],
                   {p: expect(s, int, f"crossing_sign[{p!r}]") for p, s in signs.items()},
                   tuple(Region.from_json(r, f"regions[{i}]") for i, r in
                         enumerate(expect(data.get("regions", []), list, "regions"))))

    def to_json(self):
        return {
            "genus": self.genus,
            "boundary_circles": self.boundary_circles,
            "alpha": [list(c) for c in self.alpha],
            "beta": [list(c) for c in self.beta],
            "crossing_sign": dict(sorted(self.crossing_sign.items())),
            "regions": [r.to_json() for r in self.regions],
        }

    # -- basic structure --------------------------------------------------------

    def curves(self):
        for i in range(len(self.alpha)):
            yield ("a", i)
        for j in range(len(self.beta)):
            yield ("b", j)

    def curve_points(self, fam, i):
        return self.alpha[i] if fam == "a" else self.beta[i]

    def curve_arc_count(self, fam, i):
        return max(1, len(self.curve_points(fam, i)))

    def arcs(self):
        for fam, i in self.curves():
            for k in range(self.curve_arc_count(fam, i)):
                yield (fam, i, k)

    def arc_endpoints(self, arc):
        fam, i, k = arc
        pts = self.curve_points(fam, i)
        if not pts:
            v = f"~{fam}{i + 1}"
            return v, v
        return pts[k], pts[(k + 1) % len(pts)]

    @cached_property
    def _curve_of(self):
        """(alpha curve index by point, beta curve index by point)."""
        return tuple({p: i for i, c in enumerate(curves) for p in c}
                     for curves in (self.alpha, self.beta))

    @cached_property
    def _skeleton(self):
        """The one cell structure read from the region cycles."""
        return _Skeleton(self)

    # -- validation ---------------------------------------------------------------

    def validate(self):
        return self._validation

    @cached_property
    def _validation(self):
        bad = []
        if self.genus < 0:
            bad.append("negative genus")
        if self.boundary_circles < 1:
            bad.append("a sutured diagram needs at least one boundary circle")

        for curves, label in ((self.alpha, "alpha"), (self.beta, "beta")):
            bad += [f"point {p} appears more than once on the {label} curves"
                    for p, n in Counter(p for c in curves for p in c).items() if n > 1]
        apos, bpos = self._curve_of
        for p in apos:
            if p not in bpos:
                bad.append(f"point {p} lies on an alpha curve but no beta curve")
            elif p not in self.crossing_sign:
                bad.append(f"point {p} has no crossing sign")
            elif self.crossing_sign[p] not in (1, -1):
                bad.append(f"point {p} has crossing sign {self.crossing_sign[p]}, not +-1")
        for p in bpos:
            if p not in apos:
                bad.append(f"point {p} lies on a beta curve but no alpha curve")
        for p in self.crossing_sign:
            if p not in apos or p not in bpos:
                bad.append(f"crossing sign given for unknown point {p}")

        for ridx, region in enumerate(self.regions):
            if region.genus != 0:
                bad.append(f"region {ridx} has genus {region.genus}; only "
                           "genus-zero regions are supported")
            if region.boundary_circles < 0:
                bad.append(f"region {ridx} has negative boundary circle count")
            if not region.cycles and region.boundary_circles == 0:
                bad.append(f"region {ridx} has no boundary at all")

        sk = self._skeleton
        bad += sk.violations
        for arc, signs in zip(sk.arc_edge, sk.signs):
            if len(signs) != 2:
                bad.append(f"arc {format_arc_ref(arc, 1)} appears {len(signs)} times "
                           "in region boundaries (expected 2)")
            elif signs[0] == signs[1]:
                bad.append(f"arc {format_arc_ref(arc, 1)} is traversed twice in the "
                           "same direction")

        circles = sum(r.boundary_circles for r in self.regions)
        if circles != self.boundary_circles:
            bad.append(f"regions contain {circles} boundary circles, diagram "
                       f"declares {self.boundary_circles}")

        # Euler characteristic of the cell structure against 2 - 2g - b
        n_points = len(set(sk.ends))
        n_arcs = len(sk.arc_edge)
        chi_regions = sum(2 - 2 * r.genus - len(r.cycles) - r.boundary_circles
                          for r in self.regions)
        chi = chi_regions + n_points - n_arcs
        expected = 2 - 2 * self.genus - self.boundary_circles
        if chi != expected:
            bad.append(f"Euler characteristic {chi} does not match "
                       f"2-2g-b = {expected}")

        # one corner cycle at each point; connectivity, which the chi test assumes
        if self.regions and not bad:
            bad += sk.pinch_points()
            if len(_region_components(len(self.regions), sk.sides[:n_arcs])) > 1:
                bad.append("surface is not connected")
        return ValidationReport(bad)

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            raise InvalidDiagram("; ".join(sorted(report.violations)))

    # -- balance ----------------------------------------------------------------

    def _complement_components(self, removed_family):
        """Components of the surface minus one curve family, as region sets."""
        sk = self._skeleton
        return _region_components(len(self.regions), [
            sk.sides[e] for arc, e in sk.arc_edge.items() if arc[0] != removed_family])

    def is_balanced(self):
        """Counts match and each complement component reaches the boundary."""
        self.require_valid()
        return self._balance

    @cached_property
    def _balance(self):
        reasons = []
        if len(self.alpha) != len(self.beta):
            reasons.append(f"|alpha| = {len(self.alpha)} but |beta| = {len(self.beta)}")
        for fam, label in (("a", "alpha"), ("b", "beta")):
            for comp in self._complement_components(fam):
                if not any(self.regions[r].boundary_circles for r in comp):
                    reasons.append(f"a component of the complement of the {label} "
                                   "curves misses the boundary")
        return BalanceReport(not reasons, reasons)

    def require_balanced(self):
        report = self.is_balanced()
        if not report:
            raise NotBalanced("; ".join(report.reasons))

    @cached_property
    def _generators(self):
        _, bpos = self._curve_of
        candidates = [sorted((bpos[p], p) for p in curve) for curve in self.alpha]
        n = len(candidates)
        out = []
        used = [False] * len(self.beta)
        pick = []

        def backtrack(i):
            if i == n:
                out.append(GeneratorMatching(tuple(pick)))
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

    @cached_property
    def _h1(self):
        return _H1Data(self)


# -- generators -----------------------------------------------------------------

def generators(d):
    """All systems of distinct intersection points, one per curve of each family.

    Enumerated by backtracking over the alpha curves; the result is ordered
    lexicographically by the sequence (sigma(i), point name).
    """
    d.require_balanced()
    return d._generators


def _check_generator(d, x):
    if not isinstance(x, GeneratorMatching) or len(x.assignment) != len(d.alpha):
        raise NotAGenerator("wrong number of assignments")
    apos, bpos = d._curve_of
    seen = set()
    for i, (j, p) in enumerate(x.assignment):
        if j in seen:
            raise NotAGenerator("beta assignment is not a bijection")
        seen.add(j)
        if apos.get(p) != i:
            raise NotAGenerator(f"point {p} is not on alpha curve {i}")
        if bpos.get(p) != j:
            raise NotAGenerator(f"point {p} is not on beta curve {j}")


# -- homology of the glued manifold ----------------------------------------------

class _Skeleton:
    """CW structure of the surface with the boundary circles filled in as cells,
    read in one pass over the region cycles.

    ``columns[r]`` is the boundary of region r as {edge: coefficient};
    ``sides[e]`` holds the dual nodes edge e separates, region indices or
    ``outside`` (the region count) for a boundary loop edge, and ``signs[e]``
    the signs arc edge e is traversed with.  Dart 2e (2e + 1) is the tail
    (head) of arc edge e, at point ``ends[2e]`` (``ends[2e + 1]``).  At a
    corner an arc of a cycle arrives at a point by one dart and the next arc
    leaves it by another: ``turn`` maps the first to the second.
    ``violations`` names unknown arcs and unclosed cycles.
    """

    def __init__(self, d):
        self.vertex_index = {}
        self.edges = []          # (tail index, head index)
        self.sides = []
        self.arc_edge = {}
        self.outside = len(d.regions)
        self.violations = []

        def vertex(name):
            if name not in self.vertex_index:
                self.vertex_index[name] = len(self.vertex_index)
            return self.vertex_index[name]

        def add_edge(tail, head):
            self.edges.append((tail, head))
            self.sides.append([])
            return len(self.edges) - 1

        for arc in d.arcs():
            t, h = d.arc_endpoints(arc)
            self.arc_edge[arc] = add_edge(vertex(t), vertex(h))
        self.ends = [v for edge in self.edges for v in edge]
        self.signs = [[] for _ in self.edges]
        self.turn = {}

        self.columns = []
        for rid, region in enumerate(d.regions):
            col = {}
            anchors = []
            for cyc in region.cycles:
                darts = []       # (leaving dart, arriving dart) of each arc
                for arc, sign in cyc:
                    e = self.arc_edge.get(arc)
                    if e is None:
                        self.violations.append(f"region {rid} references unknown arc "
                                               f"{format_arc_ref(arc, 1)}")
                        continue
                    col[e] = col.get(e, 0) + sign
                    self.sides[e].append(rid)
                    self.signs[e].append(sign)
                    darts.append((2 * e + (sign < 0), 2 * e + (sign > 0)))
                if not cyc or len(darts) < len(cyc):
                    continue
                anchors.append(self.ends[darts[0][0]])
                corners = [(a, b) for (_, a), (b, _) in zip(darts, darts[1:] + darts[:1])]
                self.turn.update(corners)
                if any(self.ends[a] != self.ends[b] for a, b in corners):
                    self.violations.append(f"region {rid} has a boundary cycle that is "
                                           "not a closed walk")
            circle_vertices = []
            for k in range(region.boundary_circles):
                v = vertex(f"~o{rid}.{k}")
                circle_vertices.append(v)
                e = add_edge(v, v)
                col[e] = 1
                self.sides[e] += [rid, self.outside]
            # cut the region to a disk: connectors from the base cycle to every
            # other boundary cycle, each traversed once in each direction
            base = anchors[0] if anchors else (circle_vertices[0] if circle_vertices else None)
            extra = anchors[1:] + (circle_vertices if anchors else circle_vertices[1:])
            for v in extra:
                e = add_edge(base, v)
                self.sides[e] += [rid, rid]
            self.columns.append(col)

    def pinch_points(self):
        """Violations for the points whose corners form more than one cycle.  Sound
        once every cycle closes and every arc runs once each way: ``turn`` is then
        a permutation of the darts, and each of its cycles stays at one point."""
        turn, cycles = dict(self.turn), [0] * len(self.vertex_index)
        while turn:
            start, dart = turn.popitem()
            cycles[self.ends[start]] += 1
            while dart != start:
                dart = turn.pop(dart)
        names = list(self.vertex_index)
        return [f"point {names[v]} is not a crossing: its corners form {c} cycles"
                for v, c in enumerate(cycles) if c > 1]


def _edge_images(sk):
    """(L, tree-cotree images of the edges in Z^L, C* order, C* parent edges).

    C* is breadth-first from the outside node; the C* edge above a region
    has coefficient +-1 in its boundary and is solved after the regions
    below it.
    """
    uf = _UnionFind(len(sk.vertex_index))
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


class _H1Data:
    """H_1(M) = H_1(surface) / curve classes, the potential of each point, and
    the Smith form u*rel*v = diag(s) of the curve-image matrix rel."""

    def __init__(self, d):
        self.skeleton = sk = d._skeleton
        self.rank, self.images, self.order, self.parent_edge = _edge_images(sk)
        self.internal = internal_regions(d)
        zero = (0,) * self.rank
        self.curve_edges = []
        curve_images = []
        phi = {}                 # point -> P_alpha(p) - P_beta(p)
        for fam, i in d.curves():
            sign = 1 if fam == "a" else -1
            pts = d.curve_points(fam, i)
            edges = [sk.arc_edge[(fam, i, k)] for k in range(d.curve_arc_count(fam, i))]
            acc = zero
            for k, e in enumerate(edges):
                if pts:
                    phi[pts[k]] = tuple(a + sign * b for a, b in
                                        zip(phi.get(pts[k], zero), acc))
                acc = tuple(a + b for a, b in zip(acc, self.images[e]))
            self.curve_edges.append(edges)
            curve_images.append(acc)
        rel = IntMatrix(tuple(tuple(img[r] for img in curve_images)
                              for r in range(self.rank)),
                        self.rank, len(curve_images))
        self.snf = u, s, _ = abelian.smith_normal_form(rel)
        self.group = smith_cokernel(u, s)
        self.potential = {p: self.group.projection @ v for p, v in phi.items()}

    def class_of(self, chain):
        """Class in H_1(M) of a 1-cycle {arc: coefficient}."""
        boundary = {}
        total = [0] * self.rank
        for arc, c in chain.items():
            e = self.skeleton.arc_edge[arc]
            t, h = self.skeleton.edges[e]
            boundary[h] = boundary.get(h, 0) + c
            boundary[t] = boundary.get(t, 0) - c
            for j, x in enumerate(self.images[e]):
                total[j] += c * x
        if any(boundary.values()):
            raise InvalidDiagram("chain is not a 1-cycle")
        return self.group.from_ambient(total)

    def lift(self, chain, curve_coeffs):
        """The domain bounded by the edge chain plus sum n_c (curve c), a
        cycle that must be 0 in H_1 of the surface.

        H_2 of the skeleton is 0, so the 2-chain is unique.  Root first
        along C*, with the outside node at 0, region r is solved from its C*
        edge e: n_r = (z_e - n_parent col_parent[e]) / col_r[e], col_r[e] =
        +-1.  A region touching the boundary gets 0 from its loop edge.
        """
        rest = dict(chain)
        for m, edges in zip(curve_coeffs, self.curve_edges):
            for e in edges:
                rest[e] = rest.get(e, 0) + m
        coeffs = [0] * self.skeleton.outside
        for r in self.order[1:]:
            col = self.skeleton.columns[r]
            up = self.parent_edge[r]
            coeffs[r] = n = rest.get(up, 0) * col[up]
            if n:
                for e, c in col.items():
                    rest[e] = rest.get(e, 0) - n * c
        return DomainVector(tuple(coeffs[r] for r in self.internal))

    def difference(self, x, y):
        """eps(x, y): the potentials summed over y minus those over x."""
        total = [0] * self.group.projection.rows
        for points, sign in ((y.points(), 1), (x.points(), -1)):
            for p in points:
                for j, v in enumerate(self.potential[p]):
                    total[j] += sign * v
        return self.group.from_coords(total)


def _h1data(d):
    d.require_valid()
    return d._h1


def h1_of_M(d):
    """First homology of the glued manifold and the evaluation map for 1-cycles.

    Returns (group, class_of) where class_of takes a chain {arc: coeff}
    supported on the arc skeleton and returns its class; a chain with
    nonzero boundary raises InvalidDiagram.
    """
    data = _h1data(d)
    return data.group, data.class_of


# -- eps and the Spin^c partition ---------------------------------------------------


def _eps_chain(d, x, y):
    """The 1-cycle {arc: 1} along each alpha curve from x to y and along each
    beta curve from y to x, following the curves' cyclic orientation."""
    walks = [("a", i, x.assignment[i][1], y.assignment[i][1]) for i in range(len(d.alpha))]
    walks += [("b", j, q, p) for (j, p), (_, q) in
              zip(sorted(x.assignment), sorted(y.assignment))]
    chain = {}
    for fam, i, p, q in walks:
        pts = d.curve_points(fam, i)
        k, stop = pts.index(p), pts.index(q)
        while k != stop:
            chain[(fam, i, k)] = 1
            k = (k + 1) % len(pts)
    return chain


def epsilon(d, x, y):
    """Difference class in H_1(M) between two generators.

    The class of the arc paths along each alpha curve from x to y and along
    each beta curve from y back to x.  Any path choice gives the same class
    modulo the curve classes, which are killed in H_1(M); the point
    potentials evaluate it without building a path.
    """
    d.require_balanced()
    _check_generator(d, x)
    _check_generator(d, y)
    return _h1data(d).difference(x, y)


@dataclass(frozen=True)
class SpincPartition:
    """Generators grouped by eps = 0, with the H_1(M) difference torsor data."""

    classes: tuple           # tuple of tuples of generator indices
    difference: dict         # (class index, class index) -> GroupElement
    group: FinAbGroup


def spinc_partition(d):
    """Partition the generators by vanishing of eps; differences form a torsor."""
    d.require_balanced()
    gens = generators(d)
    data = _h1data(d)
    if not gens:
        return SpincPartition((), {}, data.group)
    members = {}             # eps against the first generator -> indices
    for idx, x in enumerate(gens):
        members.setdefault(data.difference(gens[0], x), []).append(idx)
    values = list(members)
    difference = {(a, b): data.group.sub(vb, va)
                  for a, va in enumerate(values) for b, vb in enumerate(values)}
    return SpincPartition(tuple(map(tuple, members.values())), difference, data.group)


# -- domains -------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainVector:
    """Integer coefficients over the internal regions (those off the boundary)."""

    coefficients: tuple

    def __len__(self):
        return len(self.coefficients)


def internal_regions(d):
    return [i for i, r in enumerate(d.regions) if r.boundary_circles == 0]


def periodic_lattice(d):
    """Integer basis of the periodic domains.

    A domain is periodic when its boundary is a sum n_c (curve c) of whole
    curves, 0 in H_1 of the surface: n runs over the kernel of the curve
    image matrix rel, the columns of v past the rank of u rel v = diag(s).
    """
    data = _h1data(d)
    _, _, v = data.snf
    rank = data.rank - data.group.free_rank
    return [data.lift({}, v.column(j)) for j in range(rank, v.cols)]


def admissible_lattice(basis):
    """True when no nonzero element of the rational span is coefficient-wise >= 0.

    With B the matrix whose columns are the basis vectors, Stiemke's lemma
    says no nonzero B lam >= 0 exists exactly when y^T B = 0 for some
    y > 0, that is, when the origin lies in the relative interior of the
    convex hull of B's rows.  The integer hull decides that: every span
    equation passes through the origin and every facet has it strictly
    inside.  A rank above ``polytope.MAX_DIMENSION`` raises
    DimensionTooLarge, with the rank in its detail.
    """
    vectors = [tuple(v.coefficients) if isinstance(v, DomainVector) else tuple(v)
               for v in basis]
    if not vectors:
        return True
    if len(vectors) > MAX_DIMENSION:
        raise DimensionTooLarge(f"periodic lattice rank {len(vectors)} exceeds {MAX_DIMENSION}")
    h = hull(SupportData(len(vectors), sorted(set(zip(*vectors)))))
    return all(c == 0 for _, c in h.equations) and all(c < 0 for _, c in h.facets)


def is_admissible(d):
    """Every nonzero periodic domain has both positive and negative coefficients."""
    return admissible_lattice(periodic_lattice(d))


def connecting_domains(d, x, y):
    """A domain joining two generators, if any.

    Its boundary runs along the alpha curves from x to y and along the beta
    curves from y to x, up to adding full curves.  Returns (particular
    DomainVector, periodic basis), or None exactly when eps(x, y) != 0.
    """
    d.require_balanced()
    _check_generator(d, x)
    _check_generator(d, y)
    data = _h1data(d)
    if not data.difference(x, y).is_identity():
        return None
    # rel n = -image(chain); eps = 0 makes every division by s exact
    u, s, v = data.snf
    chain = {data.skeleton.arc_edge[arc]: c for arc, c in _eps_chain(d, x, y).items()}
    image = [-sum(c * data.images[e][j] for e, c in chain.items()) for j in range(data.rank)]
    rank = data.rank - data.group.free_rank
    n = [t // s[i] for i, t in enumerate((u @ image)[:rank])] + [0] * (v.rows - rank)
    return data.lift(chain, v @ n), periodic_lattice(d)


# -- signs and the Euler polynomial -----------------------------------------------------


def generator_sign(d, x):
    """Permutation parity of the beta assignment times the crossing signs."""
    d.require_balanced()
    _check_generator(d, x)
    sign = _perm_sign(x.sigma())
    for p in x.points():
        sign *= d.crossing_sign[p]
    return sign


def euler_polynomial(d):
    """Signed count of generators graded by Spin^c class: det M over Z[H_1(M)].

    M_ij sums sign(p) h^phi(p) over the points p of alpha_i and beta_j, so
    by Leibniz det M sums sign(x) h^(sum phi(x)) over the generators x: the
    count graded by eps against x0 times the unit h^(sum phi(x0)), which
    the +-h normalization absorbs.  Returns (polynomial, H_1(M)).
    """
    d.require_balanced()
    data = _h1data(d)
    group = data.group
    _, bpos = d._curve_of
    cells = [[[] for _ in d.beta] for _ in d.alpha]
    for i, curve in enumerate(d.alpha):
        for p in curve:
            h = group.from_coords(data.potential[p])
            cells[i][bpos[p]].append((h, d.crossing_sign[p]))
    m = [[GroupRingElem(cell) for cell in row] for row in cells]
    return doteq_normalize(det_group_ring(m, group), group), group
