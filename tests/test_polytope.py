import random
from fractions import Fraction

import pytest

from conftest import brute_force_hull_vertices, fixture_json
from ring_oracle import element
from sutured_kit.diagram import SuturedDiagram, euler_polynomial
from sutured_kit.errors import (BadDimension, DimensionTooLarge, EmptySupport,
                                NonPositiveRank)
from sutured_kit.polytope import (SupportData, depth_bound, hull, is_centrally_symmetric,
                                  seifert_surface_bound, support_from_euler_polynomial)

TRIANGLE = SupportData(2, ((0, 0), (2, 0), (0, 2)))


# the least value of a direction, the support function, faces and the
# surface pairing value: no subcommand uses them, so they live here, next
# to their tests


def min_value(p, alpha):
    """The minimum of <c, alpha> over the vertices c of the polytope."""
    if len(alpha) != len(p.vertices[0]):
        raise BadDimension("direction has the wrong length")
    return min(sum(a * b for a, b in zip(vert, alpha)) for vert in p.vertices)


def support_function(p, alpha):
    """y_t(alpha): the maximum of <-c, alpha> over the polytope, exactly."""
    return -min_value(p, tuple(alpha))


def face(p, s, alpha):
    """Minimizing face in direction alpha and the support points realizing it.

    Returns (face polytope, tuple of input points attaining the minimum of
    <c, alpha>).  alpha = 0 gives back the whole polytope.
    """
    alpha = tuple(alpha)
    if len(alpha) != len(p.vertices[0]):
        raise BadDimension("direction has the wrong length")
    vals = {pt: sum(a * b for a, b in zip(pt, alpha)) for pt in s.points}
    cmin = min(vals.values())
    chosen = tuple(pt for pt in s.points if vals[pt] == cmin)
    return hull(SupportData(s.dimension, chosen)), chosen


def surface_c(chi, index_i, rotation_r):
    """The pairing value chi(S) + I(S) - r(S, t) of a decomposing surface."""
    return Fraction(chi) + Fraction(index_i) - Fraction(rotation_r)


def rand_support(rng, dim, npoints, span=4):
    pts = set()
    while len(pts) < npoints:
        pts.add(tuple(rng.randint(-span, span) for _ in range(dim)))
    return SupportData(dim, tuple(sorted(pts)))


class TestSupportData:
    def test_repeated_points_refused(self):
        with pytest.raises(ValueError) as exc:
            SupportData.from_json({"dimension": 2, "points": [[0, 0], [1, 0], [0, 0]]})
        assert str(exc.value) == "points[2] repeats an earlier point, got [0, 0]"

    def test_point_of_wrong_dimension_refused(self):
        with pytest.raises(BadDimension) as exc:
            SupportData.from_json({"dimension": 2, "points": [[0, 0], [1, 0, 0]]})
        assert exc.value.detail == "points[1] does not have dimension 2, got [1, 0, 0]"

    def test_first_faulty_point_named(self):
        # the points are checked in document order, each for both faults
        with pytest.raises(ValueError, match=r"^points\[2\] repeats"):
            SupportData.from_json({"dimension": 1, "points": [[0], [1], [0], [1, 1]]})
        with pytest.raises(BadDimension, match=r"^points\[2\] does not"):
            SupportData.from_json({"dimension": 1, "points": [[0], [1], [2, 2], [0]]})

    @pytest.mark.parametrize("mult", [0, -2])
    def test_non_positive_multiplicity_refused(self, mult):
        with pytest.raises(ValueError) as exc:
            SupportData.from_json({"dimension": 1, "points": [[0], [2]],
                                   "multiplicities": [1, mult]})
        assert str(exc.value) == f"multiplicities[1] must be positive, got {mult}"


class TestHull:
    def test_triangle(self):
        h = hull(TRIANGLE)
        assert h.dim == 2
        assert set(h.vertices) == {(0, 0), (2, 0), (0, 2)}
        assert len(h.facets) == 3

    def test_segment_drops_interior(self):
        h = hull(SupportData(1, ((0,), (2,), (4,))))
        assert h.vertices == ((0,), (4,))

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            hull(SupportData(7, (tuple([0] * 7),)))
        with pytest.raises(EmptySupport):
            hull(SupportData(2, ()))

    def test_facets_valid_and_tight(self):
        rng = random.Random(61)
        for _ in range(40):
            dim = rng.randint(1, 3)
            s = rand_support(rng, dim, rng.randint(2, 8))
            h = hull(s)
            for n, c in h.facets:
                vals = [sum(a * b for a, b in zip(n, p)) for p in s.points]
                assert min(vals) == c
                # full-dimensional facets are tight on >= dim affinely
                # independent vertices
                tight = [v for v in h.vertices
                         if sum(a * b for a, b in zip(n, v)) == c]
                assert len(tight) >= h.dim
            for n, c in h.equations:
                assert all(sum(a * b for a, b in zip(n, p)) == c for p in s.points)

    def test_vertices_agree_with_lp_oracle(self):
        rng = random.Random(67)
        pts = set()
        while len(pts) < 20:
            pts.add(tuple(rng.randint(-5, 5) for _ in range(3)))
        s = SupportData(3, tuple(sorted(pts)))
        h = hull(s)
        assert sorted(h.vertices) == brute_force_hull_vertices(list(s.points))

    def test_hull_idempotent(self):
        rng = random.Random(71)
        for _ in range(20):
            s = rand_support(rng, rng.randint(1, 3), rng.randint(2, 7))
            h1 = hull(s)
            h2 = hull(SupportData(s.dimension, h1.vertices))
            assert set(h1.vertices) == set(h2.vertices)
            assert set(h1.facets) == set(h2.facets)

    def test_lower_dimensional_hull_records_span(self):
        h = hull(SupportData(3, ((0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 2, 0))))
        assert h.dim == 2
        assert len(h.equations) == 1
        n, c = h.equations[0]
        assert n in ((0, 0, 1), (0, 0, -1)) and c == 0

    def test_single_point(self):
        h = hull(SupportData(2, ((3, 4),)))
        assert h.dim == 0 and h.vertices == ((3, 4),) and len(h.equations) == 2


class TestSupportFunction:
    def test_triangle_example(self):
        h = hull(TRIANGLE)
        assert support_function(h, (1, 0)) == 0  # max of {0, -2, 0}
        assert support_function(h, (0, 0)) == 0

    def test_dimension_check(self):
        h = hull(TRIANGLE)
        with pytest.raises(BadDimension):
            support_function(h, (1, 0, 0))

    def test_homogeneity_and_subadditivity(self):
        rng = random.Random(73)
        done = 0
        while done < 520:
            dim = rng.randint(1, 3)
            h = hull(rand_support(rng, dim, rng.randint(2, 6)))
            for _ in range(8):
                alpha = tuple(rng.randint(-5, 5) for _ in range(dim))
                beta = tuple(rng.randint(-5, 5) for _ in range(dim))
                m = rng.randint(0, 4)
                scaled = tuple(m * a for a in alpha)
                assert support_function(h, scaled) == m * support_function(h, alpha)
                total = tuple(a + b for a, b in zip(alpha, beta))
                assert support_function(h, total) <= \
                    support_function(h, alpha) + support_function(h, beta)
                done += 1

    def test_values_and_offsets_are_integers(self):
        rng = random.Random(89)
        for _ in range(40):
            dim = rng.randint(1, 3)
            h = hull(rand_support(rng, dim, rng.randint(1, 6)))
            alpha = tuple(rng.randint(-4, 4) for _ in range(dim))
            assert type(support_function(h, alpha)) is int
            assert type(min_value(h, alpha)) is int
            assert all(type(c) is int for _, c in h.facets + h.equations)
            assert all(type(x) is int for v in h.vertices for x in v)

    def test_face_value_is_negated_support(self):
        rng = random.Random(79)
        for _ in range(40):
            dim = rng.randint(1, 3)
            s = rand_support(rng, dim, rng.randint(2, 6))
            h = hull(s)
            alpha = tuple(rng.randint(-4, 4) for _ in range(dim))
            _, chosen = face(h, s, alpha)
            values = {sum(a * b for a, b in zip(pt, alpha)) for pt in chosen}
            assert values == {-support_function(h, alpha)}


class TestFace:
    def test_vertex_face(self):
        f, pts = face(hull(TRIANGLE), TRIANGLE, (1, 1))
        assert f.vertices == ((0, 0),) and pts == ((0, 0),)

    def test_zero_direction_gives_whole_polytope(self):
        f, pts = face(hull(TRIANGLE), TRIANGLE, (0, 0))
        assert set(f.vertices) == {(0, 0), (2, 0), (0, 2)}
        assert set(pts) == set(TRIANGLE.points)

    def test_segment_endpoint(self):
        s = SupportData(1, ((0,), (2,), (4,)))
        f, pts = face(hull(s), s, (-1,))
        assert f.vertices == ((4,),) and pts == ((4,),)

    def test_face_of_face_composes(self):
        s = SupportData(2, ((0, 0), (4, 0), (0, 4), (4, 4)))
        h = hull(s)
        f1, pts1 = face(h, s, (0, 1))       # bottom edge
        assert set(f1.vertices) == {(0, 0), (4, 0)}
        sub = SupportData(2, pts1)
        f2, pts2 = face(f1, sub, (1, 0))    # its left vertex
        assert f2.vertices == ((0, 0),)

    def test_face_minimizers_exactly(self):
        rng = random.Random(83)
        for _ in range(30):
            dim = rng.randint(1, 3)
            s = rand_support(rng, dim, rng.randint(3, 7))
            h = hull(s)
            alpha = tuple(rng.randint(-3, 3) for _ in range(dim))
            _, pts = face(h, s, alpha)
            vals = {p: sum(a * b for a, b in zip(p, alpha)) for p in s.points}
            cmin = min(vals.values())
            assert set(pts) == {p for p, v in vals.items() if v == cmin}


class TestSymmetry:
    def test_pretzel_triangle_not_symmetric(self):
        s = SupportData.from_json(fixture_json("pretzel222"))
        h = hull(s)
        assert h.dim == 2 and len(h.vertices) == 3
        assert not is_centrally_symmetric(h)

    def test_segment_and_square_symmetric(self):
        assert is_centrally_symmetric(hull(SupportData(1, ((0,), (4,)))))
        assert is_centrally_symmetric(
            hull(SupportData(2, ((0, 0), (2, 0), (0, 2), (2, 2)))))

    def test_integer_test_matches_rational_centroid(self):
        def rational(h):
            verts = [tuple(Fraction(x) for x in v) for v in h.vertices]
            centroid = [sum(col) / len(verts) for col in zip(*verts)]
            return all(tuple(2 * c - x for c, x in zip(centroid, v)) in set(verts)
                       for v in verts)

        rng = random.Random(83)
        seen = set()
        for _ in range(300):
            dim = rng.randint(1, 3)
            s = rand_support(rng, dim, rng.randint(1, 6))
            if rng.random() < 0.5:    # close under a reflection, odd centres included
                c = tuple(rng.randint(-3, 3) for _ in range(dim))
                s = SupportData(dim, tuple(sorted(set(s.points) | {
                    tuple(a - x for a, x in zip(c, p)) for p in s.points})))
            h = hull(s)
            assert is_centrally_symmetric(h) == rational(h)
            seen.add(rational(h))
        assert seen == {True, False}
        assert is_centrally_symmetric(hull(SupportData(1, ((0,), (3,)))))
        assert not is_centrally_symmetric(hull(SupportData(2, ((0, 0), (3, 0), (0, 1)))))


class TestCalculators:
    def test_surface_pairing_value(self):
        # Seifert surface of genus g with meridional trivialisation
        for g in range(4):
            assert surface_c(1 - 2 * g, -1, 0) == -2 * g
        assert surface_c(0, 0, 0) == 0
        assert surface_c(3, 1, 2) - surface_c(3, 1, 3) == 1
        assert surface_c(1, Fraction(1, 2), Fraction(1, 2)) == 1

    def test_depth_bound(self):
        assert depth_bound(1) == 0
        assert depth_bound(3) == 2
        assert depth_bound(4) == 4
        assert depth_bound(7) == 4
        assert depth_bound(8) == 6
        with pytest.raises(NonPositiveRank):
            depth_bound(0)

    def test_seifert_surface_bound(self):
        assert seifert_surface_bound(1) == 1
        assert seifert_surface_bound(3) == 1
        assert seifert_surface_bound(4) == 2
        assert seifert_surface_bound(8) == 3
        with pytest.raises(NonPositiveRank):
            seifert_surface_bound(-2)


class TestSupportFromEuler:
    def test_doubling_and_translation_invariance(self):
        from ring_oracle import ring_translate
        d = SuturedDiagram.from_json(fixture_json("t312"))
        poly, grp = euler_polynomial(d)
        s = support_from_euler_polynomial(poly, grp)
        assert s.points == ((0,), (2,), (4,))  # doubled exponents
        # a different representative of the class gives a translate
        shifted = ring_translate(poly, element(grp, (3,)), grp)
        s2 = support_from_euler_polynomial(shifted, grp)
        delta = {tuple(a - b for a, b in zip(p, q))
                 for p, q in zip(s2.points, s.points)}
        assert len(delta) == 1
        h1 = hull(s).canonical_translate()
        h2 = hull(s2).canonical_translate()
        assert h1.vertices == h2.vertices and h1.facets == h2.facets

    def test_points_are_the_distinct_doubled_exponents(self):
        d = SuturedDiagram.from_json(fixture_json("t106"))
        poly, grp = euler_polynomial(d)   # 1 - 2h + h^2
        s = support_from_euler_polynomial(poly, grp)
        assert s.points == ((0,), (2,), (4,))

    def test_torsion_part_discarded(self):
        from sutured_kit.abelian import FinAbGroup, GroupRingElem
        g = FinAbGroup(1, (2,))
        x = GroupRingElem({element(g, (1,), (0,)): 1, element(g, (1,), (1,)): 1,
                           element(g, (0,), (0,)): -1})
        s = support_from_euler_polynomial(x, g)
        assert s.points == ((0,), (2,))


def test_bounds_match_doubling_loops():
    def loop_depth(rank):
        k = 0
        while not rank < 2 ** (k + 1):
            k += 1
        return 2 * k

    def loop_seifert(rank):
        n = 1
        while not rank < 2 ** (n + 1):
            n += 1
        return n

    for rank in range(1, 4097):
        assert depth_bound(rank) == loop_depth(rank)
        assert seifert_surface_bound(rank) == loop_seifert(rank)
