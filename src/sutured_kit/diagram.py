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
generator set (one intersection point on each curve of either family;
a generator is its assignment tuple ``((j, p), ...)``, alpha_i meeting
beta_j at the point p, with i -> j a bijection),
first homology of the glued-up manifold as a quotient of H_1 of the
surface by the curve classes, the difference class eps(x, y) between
generators and the induced partition into Spin^c classes, periodic
domains and admissibility, connecting domains between generators, and
the signed, Spin^c-graded Euler polynomial as the determinant of the
alpha x beta potential matrix.  One pass over the region cycles builds
the cell structure that all of these read.  Each derived structure (the
point -> curve tables, the cell structure, the validation and balance
reports, the completable matchings, the generators and the H_1 data) is a
cached property, built once per diagram on first use.

Generators: of the masks of beta curves that the first i alpha curves
can meet one each, only those from which the remaining curves can still
be matched are kept, and ``generators`` and ``spinc_partition`` walk only
those, so no partial matching is a dead end.

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
with the point vectors phi(p) = P_alpha(p) - P_beta(p), prefix sums of
arc images along the curves, eps(x, y) = sum phi(y) - sum phi(x).  Edge
images, curve images and phi(p) are sparse vectors {coordinate: nonzero
int}, so their sums cost their nonzero entries, not L each; the potential
of p is the projection to H_1(M) applied to phi(p), a whole tuple, and
the Spin^c partition packs each potential into one int by
``abelian._key_codec``, sums a generator's points' ints along the walk
of ``generators`` and keeps one element of H_1(M) per class.  The Smith
form u rel v = diag(s) is the only one any query runs, ``check``
included: a periodic domain bounds sum n_c (curve c) with n in the kernel
of rel, a connecting domain bounds the eps chain plus the n solving
rel n = -image, and H_2 of the surface being 0, each lifts root first
along C* to one 2-chain, which is 0 on the regions touching the boundary.

Admissibility: by Stiemke's lemma no nonzero periodic domain is >= 0
exactly when the origin lies in the relative interior of the convex hull
of the rows of the periodic basis (one row per internal region), which
the integer hull of ``polytope`` decides under its dimension bound.
"""

import re
from collections import Counter
from functools import cached_property
from itertools import chain
from operator import neg

from . import abelian
from .abelian import (GroupRingElem, IntMatrix, _key_codec, _perm_sign, det_group_ring,
                      smith_cokernel)
from .errors import (DimensionTooLarge, InvalidDiagram, NotAGenerator, NotBalanced, expect,
                     expect_items)
from .polytope import MAX_DIMENSION, SupportData, hull


# both numbers in ASCII decimal without leading zeros, so a reference has one spelling
_ARC_REF = re.compile(r"(-?)([ab])(0|[1-9][0-9]*)\.(0|[1-9][0-9]*)")


def parse_arc_ref(text, field="arc reference"):
    """Parse ``"a1.0"`` / ``"-b2.3"`` into ((family, curve, arc), sign).

    A malformed reference raises ValueError naming ``field``.
    """
    m = _ARC_REF.fullmatch(text)
    if m:
        sign, fam, curve, arc = m.groups()
        try:
            return (fam, int(curve) - 1, int(arc)), -1 if sign else 1
        except ValueError:      # a number past the int-to-str digit limit
            pass
    raise ValueError(f"{field} must be an arc reference like 'a1.0' or '-b2.3', "
                     f"got {text!r}")


def _arc_refs(refs, field, table):
    """Read a list of arc references through ``table``, the canonical spelling
    of each arc of the diagram's curves -> (arc, sign); a reference it misses
    is parsed, so a malformed one is named by its index and an unknown but
    well-formed one is kept for ``validate`` to report."""
    return tuple(table.get(ref) or parse_arc_ref(ref, f"{field}[{j}]")
                 for j, ref in enumerate(expect_items(refs, str, field)))


def _arc_table(alpha, beta):
    """The canonical spelling of every arc of the curves, either sign -> (arc, sign)."""
    table = {}
    for fam, curves in (("a", alpha), ("b", beta)):
        for i, pts in enumerate(curves):
            for k in range(max(1, len(pts))):
                text, arc = f"{fam}{i + 1}.{k}", (fam, i, k)
                table[text], table["-" + text] = (arc, 1), (arc, -1)
    return table


def _read_regions(items, table):
    """The regions of a JSON list, their references read through ``table``,
    or None when an item has a wrong type or a reference that ``table``
    misses: ``Region.from_json`` then names the field or parses the list.
    The types are checked in bulk, so no field name is built."""
    rows = [(r.get("cycles", []), r.get("boundary_circles", 0), r.get("genus", 0))
            for r in items if type(r) is dict]
    if len(rows) < len(items) or not {
            (type(c), type(b), type(g)) for c, b, g in rows} <= {(list, int, int)}:
        return None
    cycles = list(chain.from_iterable([c for c, _, _ in rows]))
    if not set(map(type, cycles)) <= {list}:
        return None
    refs = list(chain.from_iterable(cycles))
    if not (set(map(type, refs)) <= {str} and set(refs) <= table.keys()):
        return None
    get = table.__getitem__
    return [Region(tuple([tuple(map(get, cyc)) for cyc in c]), b, g) for c, b, g in rows]


def format_arc_ref(arc):
    fam, curve, idx = arc
    return f"{fam}{curve + 1}.{idx}"


class Region:
    """Complement region: arc boundary cycles, contained boundary circles, genus."""

    __slots__ = ("cycles", "boundary_circles", "genus")

    def __init__(self, cycles, boundary_circles=0, genus=0):
        self.cycles = cycles  # tuple of cycles; a cycle is a tuple of (arc, sign)
        self.boundary_circles = boundary_circles
        self.genus = genus

    @classmethod
    def from_json(cls, data, field, table):
        """The region of ``data``; ``table`` maps the canonical spelling of the
        diagram's arcs to (arc, sign), and a reference it misses is parsed."""
        expect(data, dict, field)
        cycles = tuple(
            _arc_refs(cyc, f"{field}.cycles[{i}]", table)
            for i, cyc in enumerate(expect(data.get("cycles", []), list,
                                           f"{field}.cycles")))
        return cls(cycles,
                   expect(data.get("boundary_circles", 0), int, f"{field}.boundary_circles"),
                   expect(data.get("genus", 0), int, f"{field}.genus"))


def _union_find(n, pairs):
    """Disjoint sets over 0..n-1 on one parent list with path halving, the
    pairs (x, y) merged in order, y's root put under x's.  Returns whether
    each pair joined two sets, and the root of each of 0..n-1 at the end."""
    parent = list(range(n))
    joined = []
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        parent[y] = x
        joined.append(x != y)
    roots = []
    for x in range(n):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        roots.append(x)
    return joined, roots


def _region_components(n_regions, side_lists):
    """Region index lists of the classes joined by the given lists of region
    indices, each sorted, ordered by their smallest member."""
    _, roots = _union_find(n_regions, [(sides[0], ridx) for sides in side_lists
                                       for ridx in sides[1:]])
    comps = {}
    for i, root in enumerate(roots):
        comps.setdefault(root, []).append(i)
    return list(comps.values())


class ValidationReport:
    def __init__(self, violations):
        self.violations = list(violations)

    @property
    def ok(self):
        return not self.violations


class BalanceReport:
    def __init__(self, balanced, reasons):
        self.balanced = balanced
        self.reasons = list(reasons)

    def __bool__(self):
        return self.balanced


class SuturedDiagram:
    """Immutable combinatorial sutured diagram; all queries are pure."""

    def __init__(self, genus, boundary_circles, alpha, beta, crossing_sign, regions):
        self.genus = genus
        self.boundary_circles = boundary_circles
        self.alpha = tuple(tuple(c) for c in alpha)
        self.beta = tuple(tuple(c) for c in beta)
        self.crossing_sign = dict(crossing_sign)
        self.regions = tuple(regions)

    # -- input ------------------------------------------------------------------

    @classmethod
    def from_json(cls, data):
        expect(data, dict, "diagram JSON")
        genus = expect(data.get("genus"), int, "genus")
        boundary_circles = expect(data.get("boundary_circles"), int, "boundary_circles")
        # types are checked in bulk; a field name is built only to report a fault
        curves = {}
        for fam in ("alpha", "beta"):
            items = curves[fam] = expect(data.get(fam, []), list, fam)
            if not (set(map(type, items)) <= {list}
                    and set(map(type, chain.from_iterable(items))) <= {str}):
                for i, c in enumerate(items):
                    expect_items(c, str, f"{fam}[{i}]")
        signs = expect(data.get("crossing_sign", {}), dict, "crossing_sign")
        if not set(map(type, signs.values())) <= {int}:
            for p, s in signs.items():
                expect(s, int, f"crossing_sign[{p!r}]")
        table = _arc_table(curves["alpha"], curves["beta"])
        items = expect(data.get("regions", []), list, "regions")
        regions = _read_regions(items, table)
        if regions is None:
            regions = [Region.from_json(r, f"regions[{i}]", table) for i, r in enumerate(items)]
        return cls(genus, boundary_circles, curves["alpha"], curves["beta"], signs, regions)

    # -- basic structure --------------------------------------------------------

    def arcs(self):
        for fam, curves in (("a", self.alpha), ("b", self.beta)):
            for i, pts in enumerate(curves):
                for k in range(max(1, len(pts))):
                    yield (fam, i, k)

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
        for arc, sides, net in zip(sk.arc_edge, sk.sides, sk.net):
            if len(sides) != 2:
                bad.append(f"arc {format_arc_ref(arc)} appears {len(sides)} times "
                           "in region boundaries (expected 2)")
            elif net:
                bad.append(f"arc {format_arc_ref(arc)} is traversed twice in the "
                           "same direction")

        circles = sum(r.boundary_circles for r in self.regions)
        if circles != self.boundary_circles:
            bad.append(f"regions contain {circles} boundary circles, diagram "
                       f"declares {self.boundary_circles}")

        # Euler characteristic of the cell structure against 2 - 2g - b
        n_points = len(sk.names)
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
        sk, split = self._skeleton, len(self.alpha)
        kept = sk.curve_edges[split:] if removed_family == "a" else sk.curve_edges[:split]
        return _region_components(len(self.regions), [
            sk.sides[e] for edges in kept for e in edges])

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
    def _completable(self):
        """(candidates, moves) of the matchings of a balanced diagram.

        ``candidates[i]`` lists (j, p) for the points p of alpha_i, p on
        beta_j, sorted.  A forward pass finds the masks of the beta curves
        that the first i alpha curves can meet one each; a backward pass
        keeps those from which the remaining curves can still be matched.  ``moves[i]``
        maps each kept mask m to the (m | 1 << j, k) for the k-th candidate
        (j, p) of alpha_i that leads to a kept mask, in candidate order.
        """
        _, bpos = self._curve_of
        candidates = [sorted((bpos[p], p) for p in curve) for curve in self.alpha]
        bits = [[1 << j for j, _ in cands] for cands in candidates]
        reach = [{0}]
        for row in bits:
            reach.append({m | bit for m in reach[-1] for bit in row if not m & bit})
        ahead, moves = reach.pop(), []
        for row in reversed(bits):
            step = {}
            for m in reach.pop():
                # a kept mask after alpha_i has i + 1 bits, so bit is new to m
                ms = [(m | bit, k) for k, bit in enumerate(row) if m | bit in ahead]
                if ms or not reach:      # the empty start mask stays, with no moves if stuck
                    step[m] = ms
            moves.append(step)
            ahead = step
        return candidates, moves[::-1]

    def _matchings(self, values, start):
        """One total per generator, in the order of ``generators``: start plus
        ``values[i][k]`` for the k-th candidate of alpha_i that it picks.

        Level by level, each prefix (beta mask, total) extends by the moves
        of its mask, so every prefix completes: a level holds at most as
        many prefixes as there are generators, in lexicographic order of
        their picks.
        """
        level = [(0, start)]
        for step, vals in zip(self._completable[1], values):
            step = {m: [(m2, vals[k]) for m2, k in ms] for m, ms in step.items()}
            level = [(m2, total + v) for m, total in level for m2, v in step[m]]
        return [total for _, total in level]

    @cached_property
    def _generators(self):
        values = [[(x,) for x in cands] for cands in self._completable[0]]
        return tuple(self._matchings(values, ()))

    @cached_property
    def _h1(self):
        return _H1Data(self)


# -- generators -----------------------------------------------------------------

def generators(d):
    """All systems of distinct intersection points, one per curve of each family.

    Walked over the alpha curves along the masks of used beta curves from
    which the remaining curves can still be matched, so no partial
    matching is a dead end; the result is ordered lexicographically by the
    sequence (sigma(i), point name).
    """
    d.require_balanced()
    return d._generators


def _check_generator(d, x):
    if len(x) != len(d.alpha):
        raise NotAGenerator("wrong number of assignments")
    apos, bpos = d._curve_of
    seen = set()
    for i, (j, p) in enumerate(x):
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

    A vertex is an int: first the points in the order they appear along the
    curves, ``names[v]`` the point or, for an empty curve's vertex, (family,
    curve); then one per boundary circle.  Arc edges run curve by curve, alpha
    first, so the arcs of curve c are the range ``curve_edges[c]``; region by
    region, its circle loops and connectors follow.  ``columns[r]`` is the
    boundary of region r as {edge: coefficient}; ``sides[e]`` holds the dual
    nodes edge e separates, region indices or ``outside`` (the region count)
    for a loop edge, one per traversal of an arc, and ``net[e]`` sums the
    signs of those traversals.  Dart 2e (2e + 1) is the tail (head) of arc
    edge e, at vertex ``ends[2e]`` (``ends[2e + 1]``).  At a corner an arc of
    a cycle arrives at a point by one dart and the next arc leaves it by
    another: ``turn`` maps the first to the second.  ``violations`` names
    unknown arcs and unclosed cycles.
    """

    def __init__(self, d):
        index = {}               # point, or (family, curve) of an empty curve -> vertex
        self.edges = []          # (tail, head)
        self.curve_edges = []
        self.outside = len(d.regions)
        self.violations = []
        for fam, curves in (("a", d.alpha), ("b", d.beta)):
            for i, pts in enumerate(curves):
                vs = ([index.setdefault(p, len(index)) for p in pts]
                      or [index.setdefault((fam, i), len(index))])
                self.curve_edges.append(range(len(self.edges), len(self.edges) + len(vs)))
                self.edges += zip(vs, vs[1:] + vs[:1])
        self.names = list(index)
        n_arcs = len(self.edges)
        self.arc_edge = dict(zip(d.arcs(), range(n_arcs)))
        self.ends = [v for edge in self.edges for v in edge]
        self.sides = [[] for _ in range(n_arcs)]
        self.net = [0] * n_arcs
        self.turn = {}
        self.n_vertices = len(index)

        self.columns = []
        for rid, region in enumerate(d.regions):
            col = {}
            bounds = []          # a vertex on each boundary cycle, then the circles
            for cyc in region.cycles:
                darts = []       # (leaving dart, arriving dart) of each arc
                for arc, sign in cyc:
                    e = self.arc_edge.get(arc)
                    if e is None:
                        self.violations.append(f"region {rid} references unknown arc "
                                               f"{format_arc_ref(arc)}")
                        continue
                    col[e] = col.get(e, 0) + sign
                    self.sides[e].append(rid)
                    self.net[e] += sign
                    darts.append((2 * e + (sign < 0), 2 * e + (sign > 0)))
                if not cyc or len(darts) < len(cyc):
                    continue
                bounds.append(self.ends[darts[0][0]])
                corners = [(a, b) for (_, a), (b, _) in zip(darts, darts[1:] + darts[:1])]
                self.turn.update(corners)
                if any(self.ends[a] != self.ends[b] for a, b in corners):
                    self.violations.append(f"region {rid} has a boundary cycle that is "
                                           "not a closed walk")
            circles = range(self.n_vertices, self.n_vertices + region.boundary_circles)
            self.n_vertices += len(circles)
            for v in circles:
                col[len(self.edges)] = 1
                self.edges.append((v, v))
                self.sides.append([rid, self.outside])
            # cut the region to a disk: connectors from the first boundary to
            # every other one, each traversed once in each direction
            bounds += circles
            for v in bounds[1:]:
                self.edges.append((bounds[0], v))
                self.sides.append([rid, rid])
            self.columns.append(col)

    def pinch_points(self):
        """Violations for the points whose corners form more than one cycle.  Sound
        once every cycle closes and every arc runs once each way: ``turn`` is then
        a permutation of the darts, and each of its cycles stays at one point."""
        turn, cycles = dict(self.turn), [0] * len(self.names)
        while turn:
            start, dart = turn.popitem()
            cycles[self.ends[start]] += 1
            while dart != start:
                dart = turn.pop(dart)
        return [f"point {self.names[v]} is not a crossing: its corners form {c} cycles"
                for v, c in enumerate(cycles) if c > 1]


def _add_to(total, vec, c=1):
    """total += c * vec on sparse vectors {coordinate: nonzero int}; a
    coordinate that cancels leaves total."""
    if c:
        for j, x in vec.items():
            x = total.get(j, 0) + c * x
            if x:
                total[j] = x
            else:
                del total[j]


def _apply(rows, vec):
    """The integer matrix with the given rows applied to a sparse vector."""
    items = vec.items()
    return tuple([sum([row[j] * x for j, x in items]) for row in rows])


def _edge_images(sk):
    """(L, tree-cotree images of the edges in Z^L, C* order, C* parent edges).

    An image is a sparse vector {coordinate: nonzero int}: {} on a tree
    edge, {k: 1} on the k-th leftover edge.  C* is breadth-first from the
    outside node; the C* edge above a region has coefficient +-1 in its
    boundary and is solved after the regions below it, from the nonzero
    images of the other edges of that boundary.
    """
    in_tree, _ = _union_find(sk.n_vertices, sk.edges)
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
    images = [{}] * len(sk.edges)            # one shared {}: images are never changed in place
    for k, e in enumerate(leftover):
        images[e] = {k: 1}
    for r in reversed(order[1:]):
        up = parent_edge[r]
        col = sk.columns[r]
        total = {}
        for e, c in col.items():
            if images[e] and e != up:
                _add_to(total, images[e], c)
        if total:
            c = -col[up]
            images[up] = {j: c * x for j, x in total.items()}
    return len(leftover), images, order, parent_edge


class _H1Data:
    """H_1(M) = H_1(surface) / curve classes, the sparse phi(p) and the
    potential of each point, and the Smith form u*rel*v = diag(s) of the
    curve-image matrix rel, filled from the sparse curve images."""

    def __init__(self, d):
        self.skeleton = sk = d._skeleton
        self.rank, self.images, self.order, self.parent_edge = _edge_images(sk)
        self.internal = internal_regions(d)
        rel = [[0] * len(sk.curve_edges) for _ in range(self.rank)]
        phi = {}                 # point -> P_alpha(p) - P_beta(p), sparse
        for c, (pts, edges) in enumerate(zip(d.alpha + d.beta, sk.curve_edges)):
            sign = 1 if c < len(d.alpha) else -1
            acc = {}
            for k, e in enumerate(edges):
                if pts:
                    _add_to(phi.setdefault(pts[k], {}), acc, sign)
                _add_to(acc, self.images[e])
            for j, x in acc.items():
                rel[j][c] = x
        self.phi = phi
        self.snf = u, s, _ = abelian.smith_normal_form(
            IntMatrix._of(tuple(map(tuple, rel)), self.rank, len(sk.curve_edges)))
        self.group = smith_cokernel(u, s)
        proj = self.group.projection.entries
        self.potential = {p: _apply(proj, v) for p, v in phi.items()}

    def class_of(self, chain):
        """Class in H_1(M) of a 1-cycle {arc: coefficient}."""
        boundary = {}
        edges = {}
        for arc, c in chain.items():
            e = self.skeleton.arc_edge[arc]
            t, h = self.skeleton.edges[e]
            boundary[h] = boundary.get(h, 0) + c
            boundary[t] = boundary.get(t, 0) - c
            edges[e] = c
        if any(boundary.values()):
            raise InvalidDiagram("chain is not a 1-cycle")
        return self.group.from_coords(_apply(self.group.projection.entries, self.image(edges)))

    def image(self, edges):
        """The image in Z^L of an edge chain {edge: coefficient}, sparse."""
        total = {}
        for e, c in edges.items():
            _add_to(total, self.images[e], c)
        return total

    def lift(self, chain, curve_coeffs):
        """The domain bounded by the edge chain plus sum n_c (curve c), a
        cycle that must be 0 in H_1 of the surface, as its tuple of
        coefficients over the internal regions (those off the boundary).

        H_2 of the skeleton is 0, so the 2-chain is unique.  Root first
        along C*, with the outside node at 0, region r is solved from its C*
        edge e: n_r = (z_e - n_parent col_parent[e]) / col_r[e], col_r[e] =
        +-1.  A region touching the boundary gets 0 from its loop edge.
        """
        rest = dict(chain)
        for m, edges in zip(curve_coeffs, self.skeleton.curve_edges):
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
        return tuple(coeffs[r] for r in self.internal)

    def potential_sum(self, x, lead):
        """lead plus the potentials of the points of x; lead has the group's
        length, so a generator with no points still gets a row of that length."""
        return tuple(map(sum, zip(lead, *(self.potential[p] for _, p in x))))

    def difference(self, x, y):
        """eps(x, y): the potentials summed over y minus those over x."""
        base = self.potential_sum(x, (0,) * self.group.projection.rows)
        return self.group.from_coords(self.potential_sum(y, tuple(map(neg, base))))


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
    walks = [("a", i, pts, x[i][1], y[i][1]) for i, pts in enumerate(d.alpha)]
    walks += [("b", j, d.beta[j], q, p) for (j, p), (_, q) in zip(sorted(x), sorted(y))]
    chain = {}
    for fam, i, pts, p, q in walks:
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


class SpincPartition:
    """Generators grouped by eps = 0; eps from class a to b is values[b] - values[a]."""

    __slots__ = ("classes", "values", "group")

    def __init__(self, classes, values, group):
        self.classes = classes          # tuple of tuples of generator indices
        self.values = values            # class index -> GroupElement, sum phi of a member
        self.group = group


def spinc_partition(d):
    """Partition the generators by vanishing of eps; differences form a torsor.

    x and y share a class when sum phi(x) and sum phi(y) name one element
    of H_1(M).  Each point's potential is packed once into one int by
    ``abelian._key_codec`` for sums of n = |alpha| potentials, so a
    generator's key is the plain sum of its points' ints, carried along
    the same walk as ``generators`` and with no generator built.  The
    distinct keys are decoded together, and keys that name one element
    (unreduced torsion coordinates) merge.  Classes come in the order of
    their first generator, each with its element.
    """
    d.require_balanced()
    data = _h1data(d)
    pack, decode, _ = _key_codec(list(data.potential.values()), len(d.alpha), data.group)
    values = [[pack(data.potential[p]) for _, p in cands] for cands in d._completable[0]]
    members = {}             # key -> generator indices
    for idx, key in enumerate(d._matchings(values, 0)):
        members.setdefault(key, []).append(idx)
    classes = {}             # element -> index lists of its keys
    for h, idxs in zip(decode(members), members.values()):
        classes.setdefault(h, []).append(idxs)
    return SpincPartition(tuple(tuple(sorted(chain(*idxs))) for idxs in classes.values()),
                          tuple(classes), data.group)


# -- domains -------------------------------------------------------------------------


def internal_regions(d):
    return [i for i, r in enumerate(d.regions) if r.boundary_circles == 0]


def periodic_lattice(d):
    """Integer basis of the periodic domains, each a coefficient tuple
    over ``internal_regions(d)``.

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
    if not basis:
        return True
    if len(basis) > MAX_DIMENSION:
        raise DimensionTooLarge(f"periodic lattice rank {len(basis)} exceeds {MAX_DIMENSION}")
    h = hull(SupportData(len(basis), sorted(set(zip(*basis)))))
    return all(c == 0 for _, c in h.equations) and all(c < 0 for _, c in h.facets)


def is_admissible(d):
    """Every nonzero periodic domain has both positive and negative coefficients."""
    return admissible_lattice(periodic_lattice(d))


def connecting_domains(d, x, y):
    """A domain joining two generators, if any.

    Its boundary runs along the alpha curves from x to y and along the beta
    curves from y to x, up to adding full curves.  Returns (particular
    domain, periodic basis), both as coefficient tuples over
    ``internal_regions(d)``, or None exactly when eps(x, y) != 0.
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
    rank = data.rank - data.group.free_rank
    image = _apply(u.entries[:rank], data.image(chain))
    n = [-t // s[i] for i, t in enumerate(image)] + [0] * (v.rows - rank)
    return data.lift(chain, v @ n), periodic_lattice(d)


# -- signs and the Euler polynomial -----------------------------------------------------


def generator_sign(d, x):
    """Permutation parity of the beta assignment times the crossing signs."""
    d.require_balanced()
    _check_generator(d, x)
    sign = _perm_sign([j for j, _ in x])
    for _, p in x:
        sign *= d.crossing_sign[p]
    return sign


def euler_polynomial(d):
    """Signed count of generators graded by Spin^c class: det M over Z[H_1(M)].

    M_ij sums sign(p) h^phi(p) over the points p of alpha_i and beta_j, so
    by Leibniz det M sums sign(x) h^(sum phi(x)) over the generators x: the
    count graded by eps against x0 times the unit h^(sum phi(x0)), which
    the +-h normalization absorbs.  Row i holds only the nonzero cells of
    alpha_i, at most one per point, for ``det_group_ring`` to read.
    Returns (polynomial, H_1(M)).
    """
    d.require_balanced()
    data = _h1data(d)
    group = data.group
    _, bpos = d._curve_of
    rows = []
    for curve in d.alpha:
        cells = {}
        for p in curve:
            cells.setdefault(bpos[p], []).append((group.from_coords(data.potential[p]),
                                                  d.crossing_sign[p]))
        row = {j: GroupRingElem(cell) for j, cell in cells.items()}
        rows.append({j: e for j, e in row.items() if not e.is_zero()})
    return det_group_ring(rows, group), group
