import gc
import random
from functools import partial
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (annulus_with_core_alpha, brute_force_admissible, circle_pairs_disk,
                      diagram_names, fixture_json, lp_admissible, nested_circles_annulus,
                      rename_points, reverse_region, rotate_curve, s1xs2_minus_ball,
                      swap_alpha_curves, t312_json, t312_sign_variant, two_circles_disk)
from h1_oracle import (_boundary_rows, chain_diagram, lens_diagram, partition_differences,
                       snf_connecting_domains, snf_periodic_lattice,
                       solve_integer, torus_diagram)
from ring_oracle import doteq_equal, element, group_add, group_neg, identity
from sutured_kit.abelian import FinAbGroup, GroupRingElem, IntMatrix
from sutured_kit.diagram import (GeneratorMatching, SuturedDiagram, _eps_chain,
                                 admissible_lattice, connecting_domains,
                                 epsilon, euler_polynomial, generator_sign, generators,
                                 h1_of_M, internal_regions, is_admissible,
                                 periodic_lattice, spinc_partition)
from sutured_kit.errors import InvalidDiagram, NotAGenerator, NotBalanced

ALL_DIAGRAMS = diagram_names()
DOMAIN_DIAGRAMS = ALL_DIAGRAMS + ["s1xs2"]


def load(name):
    return SuturedDiagram.from_json(fixture_json(name))


def built(builder, *args):
    return SuturedDiagram.from_json(builder(*args))


def load_domain_case(name):
    """A bundled fixture, or the genus-1 diagram with a periodic domain."""
    return built(s1xs2_minus_ball) if name == "s1xs2" else load(name)


def euler_characteristics(d):
    """(chi(R_+), chi(R_-)) = (chi(Sigma) + 2|alpha|, chi(Sigma) + 2|beta|)."""
    d.require_valid()
    chi_sigma = 2 - 2 * d.genus - d.boundary_circles
    return chi_sigma + 2 * len(d.alpha), chi_sigma + 2 * len(d.beta)


def complement_hole_split(d, family):
    """Boundary circles on each component of the surface minus one curve family."""
    d.require_valid()
    return sorted(sum(d.regions[r].boundary_circles for r in comp)
                  for comp in d._complement_components(family))


class TestValidate:
    @pytest.mark.parametrize("name", ALL_DIAGRAMS)
    def test_fixtures_valid(self, name):
        assert load(name).validate().ok

    def test_annulus_report(self):
        assert load("annulus").validate().ok

    def test_wrong_boundary_count(self):
        data = fixture_json("annulus")
        data["boundary_circles"] = 1  # region data still carries two circles
        report = SuturedDiagram.from_json(data).validate()
        assert not report.ok
        assert any("Euler characteristic" in v for v in report.violations)

    def test_arc_used_once(self):
        data = fixture_json("t104")
        data["regions"][0]["cycles"] = []  # drop one side of two arcs
        report = SuturedDiagram.from_json(data).validate()
        assert not report.ok
        assert any("appears" in v for v in report.violations)

    def test_positive_region_genus_rejected(self):
        data = fixture_json("annulus")
        data["regions"][0]["genus"] = 1
        report = SuturedDiagram.from_json(data).validate()
        assert not report.ok
        assert any("genus" in v for v in report.violations)

    def test_broken_walk_rejected(self):
        data = fixture_json("t212")
        cyc = data["regions"][0]["cycles"][0]
        cyc[1], cyc[2] = cyc[2], cyc[1]  # same chain, order no longer a walk
        report = SuturedDiagram.from_json(data).validate()
        assert not report.ok
        assert any("closed walk" in v for v in report.violations)

    def test_pinch_points_named(self):
        # t212 as first shipped: the corners at each point form two cycles
        data = fixture_json("t212")
        data["regions"][0]["cycles"] = [["b1.0", "a1.1", "-b1.1", "-a1.0"]]
        report = SuturedDiagram.from_json(data).validate()
        assert sorted(report.violations) == [
            f"point {p} is not a crossing: its corners form 2 cycles" for p in ("P0", "P1")]

    def test_one_skeleton_per_diagram(self):
        d = load("t312")
        sk = d._skeleton
        assert d.validate().ok and d.is_balanced().balanced
        h1_of_M(d)
        assert d._skeleton is sk and d._h1.skeleton is sk

    def test_each_structure_built_once(self):
        d = load("t312")
        for query in (d.validate, d.is_balanced, partial(generators, d),
                      lambda: h1_of_M(d)[0], lambda: d._skeleton):
            assert query() is query()

    def test_invalid_diagram_caches_nothing_as_valid(self):
        data = fixture_json("t212")
        data["crossing_sign"]["P0"] = 2
        d = SuturedDiagram.from_json(data)
        for _ in range(2):
            with pytest.raises(InvalidDiagram, match="crossing sign 2"):
                d.require_valid()
            with pytest.raises(InvalidDiagram):
                h1_of_M(d)
            with pytest.raises(InvalidDiagram):
                generators(d)
            with pytest.raises(InvalidDiagram):
                spinc_partition(d)
        assert d.validate() is d.validate() and not d.validate().ok
        assert not {"_balance", "_completable", "_generators", "_h1"} & set(vars(d))

    @pytest.mark.parametrize("edit,violations", [
        (lambda d: d.update(genus=-1),
         ["negative genus", "Euler characteristic 1 does not match 2-2g-b = 3"]),
        (lambda d: d.update(boundary_circles=0),
         ["a sutured diagram needs at least one boundary circle",
          "regions contain 1 boundary circles, diagram declares 0",
          "Euler characteristic 1 does not match 2-2g-b = 2"]),
        (lambda d: d["regions"][0].update(boundary_circles=-1),
         ["region 0 has negative boundary circle count",
          "regions contain -1 boundary circles, diagram declares 1",
          "Euler characteristic 3 does not match 2-2g-b = 1"]),
        (lambda d: d["regions"].append({"cycles": [], "boundary_circles": 0}),
         ["region 1 has no boundary at all",
          "Euler characteristic 3 does not match 2-2g-b = 1"]),
    ])
    def test_disk_header_and_region_messages(self, edit, violations):
        data = fixture_json("disk")
        edit(data)
        assert SuturedDiagram.from_json(data).validate().violations == violations

    @pytest.mark.parametrize("name,family,curves,violations", [
        ("t212", "alpha", [["P0", "P1", "P0"]],
         ["point P0 appears more than once on the alpha curves",
          "arc a1.2 appears 0 times in region boundaries (expected 2)",
          "Euler characteristic -3 does not match 2-2g-b = -2"]),
        ("t212", "beta", [["P0", "P1", "P1"]],
         ["point P1 appears more than once on the beta curves",
          "region 0 has a boundary cycle that is not a closed walk",
          "region 1 has a boundary cycle that is not a closed walk",
          "arc b1.2 appears 0 times in region boundaries (expected 2)",
          "Euler characteristic -3 does not match 2-2g-b = -2"]),
        ("t106", "alpha", [["P1", "P2"], ["P5", "P3", "P4", "P6", "P1"]],
         ["point P1 appears more than once on the alpha curves",
          "region 5 has a boundary cycle that is not a closed walk",
          "region 6 has a boundary cycle that is not a closed walk",
          "arc a2.4 appears 0 times in region boundaries (expected 2)",
          "Euler characteristic -5 does not match 2-2g-b = -4"]),
    ])
    def test_repeated_point(self, name, family, curves, violations):
        data = fixture_json(name)
        data[family] = curves
        assert SuturedDiagram.from_json(data).validate().violations == violations

    def test_arc_used_three_times(self):
        # a1.1 runs + in region 0's cycle, + in the added walk P0 -> P1 -> P0 and
        # - in region 1; a1.0 runs -, +, +
        data = fixture_json("t212")
        data["regions"][0]["cycles"].append(["a1.0", "a1.1"])
        assert SuturedDiagram.from_json(data).validate().violations == [
            "arc a1.0 appears 3 times in region boundaries (expected 2)",
            "arc a1.1 appears 3 times in region boundaries (expected 2)",
            "Euler characteristic -3 does not match 2-2g-b = -2"]

    def test_arcs_traversed_backwards_twice(self):
        # region 1 seen from the other side: a1.0 and b1.1 run -, -, the others +, +
        data = reverse_region(fixture_json("t212"), 1)
        assert SuturedDiagram.from_json(data).validate().violations == [
            f"arc {a} is traversed twice in the same direction"
            for a in ("a1.0", "a1.1", "b1.0", "b1.1")]

    def test_crossing_sign_not_unit(self):
        data = fixture_json("t212")
        data["crossing_sign"]["P0"] = 2
        assert SuturedDiagram.from_json(data).validate().violations == [
            "point P0 has crossing sign 2, not +-1"]

    def test_point_messages_follow_the_alpha_curves(self):
        # in the order the points appear on the alpha curves, whatever the hash seed
        data = fixture_json("t106")
        data["crossing_sign"] = {p: 2 for p in data["crossing_sign"]}
        assert SuturedDiagram.from_json(data).validate().violations == [
            f"point {p} has crossing sign 2, not +-1"
            for p in ("P1", "P2", "P5", "P3", "P4", "P6")]

    def test_disconnected_surface(self):
        # disk + t212 declared as genus 0 with 3 boundary circles: chi = 1 - 2 = -1
        # matches 2 - 0 - 3, so disconnection is the only violation
        data = fixture_json("t212")
        data.update(genus=0, boundary_circles=3,
                    regions=fixture_json("disk")["regions"] + data["regions"])
        assert SuturedDiagram.from_json(data).validate().violations == [
            "surface is not connected"]

    def test_unknown_point_sign(self):
        data = fixture_json("t212")
        data["crossing_sign"]["ZZ"] = 1
        report = SuturedDiagram.from_json(data).validate()
        assert not report.ok

    def test_point_on_one_family_only(self):
        data = fixture_json("t212")
        data["beta"] = [["P0", "P1", "P9"]]
        report = SuturedDiagram.from_json(data).validate()
        assert not report.ok
        assert any("P9" in v for v in report.violations)


class TestBalance:
    @pytest.mark.parametrize("name", ALL_DIAGRAMS)
    def test_fixtures_balanced(self, name):
        assert load(name).is_balanced().balanced

    def test_count_mismatch(self):
        rep = built(annulus_with_core_alpha).is_balanced()
        assert not rep.balanced
        assert any("|alpha| = 1 but |beta| = 0" in r for r in rep.reasons)

    def test_null_homotopic_alpha(self):
        # the alpha circle bounds a disk missing the boundary entirely
        rep = built(two_circles_disk).is_balanced()
        assert not rep.balanced
        assert any("alpha" in r and "misses the boundary" in r for r in rep.reasons)

    def test_nested_circles_both_families_fail(self):
        rep = built(nested_circles_annulus).is_balanced()
        assert not rep.balanced
        assert any("alpha" in r for r in rep.reasons)
        assert any("beta" in r for r in rep.reasons)

    def test_balanced_ops_raise_on_unbalanced(self):
        d = built(annulus_with_core_alpha)
        with pytest.raises(NotBalanced):
            generators(d)
        with pytest.raises(NotBalanced):
            euler_polynomial(d)


class TestEulerCharacteristics:
    def test_annulus(self):
        assert euler_characteristics(load("annulus")) == (0, 0)

    def test_disk(self):
        assert euler_characteristics(load("disk")) == (1, 1)

    def test_two_curves_on_disk(self):
        # chi(Sigma) = 1 with one curve of each family: 1 + 2 = 3
        assert euler_characteristics(built(two_circles_disk)) == (3, 3)

    def test_sutured_fixtures(self):
        for name in ("t104", "t212", "t312", "t106"):
            assert euler_characteristics(load(name)) == (0, 0)

    def test_equal_iff_counts_match(self):
        cases = [load(n) for n in ALL_DIAGRAMS]
        cases += map(built, (annulus_with_core_alpha, nested_circles_annulus, two_circles_disk))
        for d in cases:
            plus, minus = euler_characteristics(d)
            assert (plus == minus) == (len(d.alpha) == len(d.beta))

    def test_requires_valid(self):
        data = fixture_json("annulus")
        data["boundary_circles"] = 1
        with pytest.raises(InvalidDiagram):
            euler_characteristics(SuturedDiagram.from_json(data))


class TestGenerators:
    def test_products_have_one_generator(self):
        for name in ("disk", "annulus"):
            gens = generators(load(name))
            assert len(gens) == 1 and gens[0].assignment == ()

    def test_three_point_diagram(self):
        assert len(generators(load("t312"))) == 3

    def test_permanent_oracle(self):
        # generator count is the permanent of the intersection-count matrix
        import itertools
        from math import prod
        for name in ("t104", "t212", "t312", "t106"):
            d = load(name)
            apos = {p: i for i, c in enumerate(d.alpha) for p in c}
            bpos = {p: j for j, c in enumerate(d.beta) for p in c}
            n = len(d.alpha)
            counts = [[0] * n for _ in range(n)]
            for p in apos:
                counts[apos[p]][bpos[p]] += 1
            perm = sum(prod(counts[i][s[i]] for i in range(n))
                       for s in itertools.permutations(range(n)))
            assert perm == len(generators(d))

    def test_deterministic_order(self):
        d = load("t106")
        gens = generators(d)
        keys = [tuple((j, p) for j, p in g.assignment) for g in gens]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("name", ["t104", "t106", "t212"])
    @pytest.mark.parametrize("enumerate_", [generators, spinc_partition])
    def test_enumeration_leaves_no_cyclic_garbage(self, name, enumerate_):
        # the result is freed by reference counting alone, so a long run
        # over many diagrams does not wait for the cycle collector
        gc.collect()
        gc.disable()
        try:
            d = load(name)
            enumerate_(d)
            del d
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_parallel_disjoint_curves_have_no_generators(self):
        # one alpha and one beta curve, parallel and disjoint, each splitting
        # the four boundary circles two and two: balanced, zero generators,
        # vanishing Euler polynomial
        data = {
            "genus": 0, "boundary_circles": 4,
            "alpha": [[]], "beta": [[]], "crossing_sign": {},
            "regions": [
                {"cycles": [["a1.0"]], "boundary_circles": 2},
                {"cycles": [["-a1.0"], ["b1.0"]], "boundary_circles": 0},
                {"cycles": [["-b1.0"]], "boundary_circles": 2},
            ],
        }
        d = SuturedDiagram.from_json(data)
        assert d.validate().ok
        assert d.is_balanced().balanced
        assert generators(d) == ()
        part = spinc_partition(d)
        assert part.classes == ()
        poly, _ = euler_polynomial(d)
        assert poly.is_zero()

    def test_degenerate_curve_blocks_generators(self):
        # a curve with no intersection points admits no matching
        data = {
            "genus": 0, "boundary_circles": 2,
            "alpha": [[]], "beta": [[]], "crossing_sign": {},
            "regions": [
                {"cycles": [["a1.0"], ["b1.0"]], "boundary_circles": 1},
                {"cycles": [["-a1.0"]], "boundary_circles": 1},
                {"cycles": [["-b1.0"]], "boundary_circles": 0},
            ],
        }
        d = SuturedDiagram.from_json(data)
        report = d.validate()
        assert report.ok
        if d.is_balanced().balanced:
            assert generators(d) == ()


class TestHomology:
    def test_annulus(self):
        g, _ = h1_of_M(load("annulus"))
        assert g.free_rank == 1 and not g.torsion

    def test_disk_trivial(self):
        g, _ = h1_of_M(load("disk"))
        assert g == FinAbGroup(0)

    def test_solid_tori(self):
        for name in ("t104", "t212", "t312", "t106"):
            g, _ = h1_of_M(load(name))
            assert g.free_rank == 1 and not g.torsion

    def test_boundary_splitting_pins_the_fixture(self):
        # T(1,0;4): each curve family splits the four circles two and two
        d = load("t104")
        assert complement_hole_split(d, "a") == [2, 2]
        assert complement_hole_split(d, "b") == [2, 2]
        d6 = load("t106")
        assert complement_hole_split(d6, "a") == [2, 2, 2]
        assert complement_hole_split(d6, "b") == [2, 2, 2]


class TestEpsilon:
    @pytest.mark.parametrize("name", ALL_DIAGRAMS)
    def test_additivity_and_antisymmetry(self, name):
        d = load(name)
        gens = generators(d)
        grp, _ = h1_of_M(d)
        for x in gens:
            assert epsilon(d, x, x) == identity(grp)
            for y in gens:
                e = epsilon(d, x, y)
                assert epsilon(d, y, x) == group_neg(grp, e)
                for z in gens:
                    assert epsilon(d, x, z) == group_add(grp, e, epsilon(d, y, z))

    @pytest.mark.parametrize("name", ALL_DIAGRAMS)
    def test_path_choice_irrelevant(self, name):
        # walking the other way round a curve changes a path chain by the
        # whole curve, so each whole curve must be null in H_1(M)
        d = load(name)
        grp, class_of = h1_of_M(d)
        for _, arcs in groupby(d.arcs(), lambda arc: arc[:2]):
            assert class_of(dict.fromkeys(arcs, 1)) == identity(grp)

    def test_t104_difference_is_generator(self):
        d = load("t104")
        gens = generators(d)
        grp, _ = h1_of_M(d)
        e = epsilon(d, gens[0], gens[1])
        assert e in (element(grp, (1,)), element(grp, (-1,)))

    def test_rejects_non_generator(self):
        d = load("t212")
        with pytest.raises(NotAGenerator):
            epsilon(d, GeneratorMatching(((0, "P0"),)),
                    GeneratorMatching(((0, "NX"),)))

    @pytest.mark.parametrize("assignment,message", [
        (((0, "P1"),), "wrong number of assignments"),
        (((0, "P1"), (0, "P3")), "beta assignment is not a bijection"),
        (((1, "P1"), (0, "P5")), "point P1 is not on beta curve 1"),
        (((0, "P5"), (1, "P1")), "point P5 is not on alpha curve 0"),
    ])
    def test_non_generator_messages(self, assignment, message):
        # t106: alpha (P1 P2) (P5 P3 P4 P6), beta (P3 P1 P2 P4) (P5 P6)
        d = load("t106")
        x = generators(d)[0]
        for pair in ((GeneratorMatching(assignment), x), (x, GeneratorMatching(assignment))):
            with pytest.raises(NotAGenerator) as err:
                epsilon(d, *pair)
            assert str(err.value) == message


class TestSpincPartition:
    def test_products_single_class(self):
        for name in ("disk", "annulus"):
            part = spinc_partition(load(name))
            assert len(part.classes) == 1

    def test_t104_two_classes(self):
        part = spinc_partition(load("t104"))
        assert len(part.classes) == 2
        diff = partition_differences(part)[(0, 1)]
        grp = part.group
        assert diff in (element(grp, (1,)), element(grp, (-1,)))

    def test_sizes_sum_to_generator_count(self):
        for name in ALL_DIAGRAMS:
            d = load(name)
            part = spinc_partition(d)
            assert sum(len(c) for c in part.classes) == len(generators(d))

    def test_cocycle_rule(self):
        for name in ALL_DIAGRAMS:
            part = spinc_partition(load(name))
            grp = part.group
            diff = partition_differences(part)
            n = len(part.classes)
            for a in range(n):
                assert diff[(a, a)] == identity(grp)
                for b in range(n):
                    for c in range(n):
                        assert diff[(a, c)] == group_add(grp, diff[(a, b)], diff[(b, c)])

    def test_t106_class_sizes(self):
        part = spinc_partition(load("t106"))
        assert sorted(len(c) for c in part.classes) == [1, 1, 2]


class TestDomains:
    @pytest.mark.parametrize("name", DOMAIN_DIAGRAMS)
    def test_lattice_vectors_are_periodic(self, name):
        d = load_domain_case(name)
        basis = periodic_lattice(d)
        internal = internal_regions(d)
        rows = _boundary_rows(d, internal)
        for vec in basis:
            for _, arcs in groupby(d.arcs(), lambda arc: arc[:2]):
                vals = {sum(a * b for a, b in zip(rows[arc], vec)) for arc in arcs}
                assert len(vals) == 1

    def test_fixture_lattices_empty(self):
        # all bundled manifolds have no nonzero periodic domains
        for name in ALL_DIAGRAMS:
            assert periodic_lattice(load(name)) == []
            assert is_admissible(load(name))

    def test_bounding_alpha_gives_rank_two_lattice(self):
        d = built(two_circles_disk)
        basis = periodic_lattice(d)
        assert len(basis) == 2
        assert not is_admissible(d)
        assert not brute_force_admissible(basis)

    def test_admissible_lattice_examples(self):
        assert admissible_lattice([])
        assert not admissible_lattice([(1, 1, 0)])
        assert admissible_lattice([(1, -1, 0)])
        assert not brute_force_admissible([(1, 1, 0)])
        assert brute_force_admissible([(1, -1, 0)])

    @pytest.mark.parametrize("name", DOMAIN_DIAGRAMS)
    def test_connecting_domains_iff_eps_zero(self, name):
        d = load_domain_case(name)
        gens = generators(d)
        grp, _ = h1_of_M(d)
        internal = internal_regions(d)
        rows = _boundary_rows(d, internal)
        for x in gens:
            for y in gens:
                got = connecting_domains(d, x, y)
                if epsilon(d, x, y) != identity(grp):
                    assert got is None
                    continue
                dom, lattice = got
                assert len(dom) == len(internal)
                assert lattice == periodic_lattice(d)
                # re-verify the boundary condition mechanically: the arc
                # multiplicities minus the connecting paths are constant on
                # every curve
                path = _eps_chain(d, x, y)
                for _, arcs in groupby(d.arcs(), lambda arc: arc[:2]):
                    vals = {sum(a * b for a, b in zip(rows[arc], dom)) - path.get(arc, 0)
                            for arc in arcs}
                    assert len(vals) == 1

    def test_x_equals_y_gives_zero_domain(self):
        d = load("t212")
        gens = generators(d)
        dom, _ = connecting_domains(d, gens[0], gens[0])
        assert all(c == 0 for c in dom)


def in_span(basis, vec):
    """vec is an integer combination of the basis vectors."""
    if not basis:
        return not any(vec)
    a = IntMatrix(tuple(zip(*basis)), len(vec), len(basis))
    return solve_integer(a, vec) is not None


def same_span(basis, other):
    """Each basis solves integrally in the other."""
    return (len(basis) == len(other) and all(in_span(other, v) for v in basis)
            and all(in_span(basis, v) for v in other))


def sample_pairs(d, limit=3):
    """Generator pairs over a few evenly spaced generators, plus two distinct
    generators of one Spin^c class where a class has two."""
    gens = generators(d)
    picks = gens if len(gens) <= limit else gens[::len(gens) // limit][:limit]
    pairs = [(x, y) for x in picks for y in picks]
    for cls in spinc_partition(d).classes:
        if len(cls) > 1:
            return pairs + [(gens[cls[0]], gens[cls[-1]])]
    return pairs


ORACLE_DIAGRAMS = dict(
    [(name, partial(load, name)) for name in ALL_DIAGRAMS]
    + [(f"pairs-{k}", partial(built, circle_pairs_disk, k)) for k in range(1, 5)]
    + [(name, partial(built, builder)) for name, builder in (
        ("nested", nested_circles_annulus), ("core_alpha", annulus_with_core_alpha),
        ("t312_json", t312_json), ("s1xs2", s1xs2_minus_ball))]
    + [(f"torus-{p}", partial(built, torus_diagram, p)) for p in (8, 60)]
    + [(f"chain-{k}", partial(built, chain_diagram, k)) for k in (3, 10)])


class TestDomainsAgainstSnfOracle:
    """The lattice and the connecting domains lifted along the dual tree
    against the SNF solves of h1_oracle on the full boundary system."""

    @pytest.mark.parametrize("name", list(ORACLE_DIAGRAMS))
    def test_lattice_has_the_oracle_span(self, name):
        d = ORACLE_DIAGRAMS[name]()
        assert same_span(periodic_lattice(d), snf_periodic_lattice(d))

    @pytest.mark.parametrize("name", [name for name, build in ORACLE_DIAGRAMS.items()
                                      if build().is_balanced()])
    def test_connecting_domains_match_oracle(self, name):
        d = ORACLE_DIAGRAMS[name]()
        lattice = periodic_lattice(d)
        for x, y in sample_pairs(d):
            got, want = connecting_domains(d, x, y), snf_connecting_domains(d, x, y)
            assert (got is None) == (want is None)
            if got is not None:
                diff = [a - b for a, b in zip(got[0], want[0])]
                assert in_span(lattice, diff)


@st.composite
def rotated_diagrams(draw):
    """A diagram with periodic domains or without, one curve started at a
    random point."""
    data = draw(st.sampled_from((
        lambda: circle_pairs_disk(draw(st.integers(1, 3))),
        s1xs2_minus_ball,
        nested_circles_annulus,
        lambda: torus_diagram(draw(st.integers(2, 10))),
        lambda: lens_diagram(draw(st.integers(2, 10))),
        lambda: chain_diagram(draw(st.integers(1, 4))))))()
    family = draw(st.sampled_from(("alpha", "beta")))
    i = draw(st.integers(0, len(data[family]) - 1))
    return SuturedDiagram.from_json(rotate_curve(data, family, i, draw(st.integers(0, 5))))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rotated_diagrams())
def test_lattice_span_and_admissibility_match_oracles(d):
    lattice = periodic_lattice(d)
    assert same_span(lattice, snf_periodic_lattice(d))
    assert is_admissible(d) == lp_admissible(lattice)


class TestSignsAndEulerPolynomial:
    def test_product_fixture_is_one(self):
        for name in ("disk", "annulus"):
            poly, grp = euler_polynomial(load(name))
            assert poly == GroupRingElem({identity(grp): 1})

    def test_t104(self):
        poly, grp = euler_polynomial(load("t104"))
        assert poly == GroupRingElem({identity(grp): 1, element(grp, (1,)): -1})

    def test_t212(self):
        poly, grp = euler_polynomial(load("t212"))
        assert poly == GroupRingElem({identity(grp): 1, element(grp, (1,)): 1})

    def test_t106_square(self):
        poly, grp = euler_polynomial(load("t106"))
        assert poly == GroupRingElem({identity(grp): 1, element(grp, (1,)): -2,
                                      element(grp, (2,)): 1})

    def test_alternating_three_point_pattern(self):
        # signs (+,-,+) along consecutive difference classes
        poly, grp = euler_polynomial(built(t312_sign_variant))
        assert poly == GroupRingElem({identity(grp): 1, element(grp, (1,)): -1,
                                      element(grp, (2,)): 1})

    def test_generator_sign_multiplies_crossings(self):
        d = load("t312")
        for g in generators(d):
            assert generator_sign(d, g) == d.crossing_sign[g.points()[0]]

    def test_sign_pairs_invariant_under_relabeling(self):
        base = load("t106")
        gens = generators(base)
        signs = {tuple(sorted(g.points())): generator_sign(base, g) for g in gens}
        # rename the points and swap the two alpha curves
        mapping = {"P1": "A", "P2": "B", "P3": "C", "P4": "D", "P5": "E", "P6": "F"}
        data = swap_alpha_curves(rename_points(fixture_json("t106"), mapping))
        other = SuturedDiagram.from_json(data)
        assert other.validate().ok
        gens2 = generators(other)
        back = {v: k for k, v in mapping.items()}
        signs2 = {tuple(sorted(back[p] for p in g.points())): generator_sign(other, g)
                  for g in gens2}
        ratio = {k: signs[k] * signs2[k] for k in signs}
        assert len(set(ratio.values())) == 1  # all flip together or none do

    def test_euler_class_invariant_under_relabeling(self):
        base = load("t312")
        poly, grp = euler_polynomial(base)
        mapping = {"P0": "X", "P1": "Y", "P2": "Z"}
        other = SuturedDiagram.from_json(rename_points(fixture_json("t312"), mapping))
        poly2, grp2 = euler_polynomial(other)
        assert grp == grp2
        assert doteq_equal(poly, poly2, grp, allow_inversion=True)


class TestRandomLatticeAdmissibility:
    def test_agreement_with_brute_force(self):
        rng = random.Random(20240812)
        checked = 0
        while checked < 60:
            dim = rng.randint(2, 4)
            rank = rng.randint(1, 2)
            basis = [tuple(rng.randint(-2, 2) for _ in range(dim))
                     for _ in range(rank)]
            if all(not any(v) for v in basis):
                continue
            fast = admissible_lattice(basis)
            slow = brute_force_admissible(basis)
            assert fast == slow, (basis, fast, slow)
            checked += 1
