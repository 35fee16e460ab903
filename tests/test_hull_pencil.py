"""The pencil cone step of the beneath-beyond hull.

``polytope.hull`` takes each cone facet from the pencil of the two facet
hyperplanes at its horizon ridge.  ``hull_oracle.kernel_hull`` computes
every facet as the null vector of its edges and the span equations, the
way the library did before; both must give byte-identical JSON, before
and after ``canonical_translate``, at sizes the subset oracle cannot
reach: N up to 44 in dimensions 2-4 (the range of the ``support``
benchmark), up to 25 in dimensions 5 and 6, coordinates up to 10^6, on
full- and lower-dimensional sets and on lattice points of cube and
cross-polytope boundaries, where coplanar simplices lie side by side.
The work-count pin holds the eliminations to the span equations and the
first simplex, however many points the hull takes in.
"""

import itertools
import json
import random

from hypothesis import given, settings, strategies as st

from hull_oracle import kernel_hull
from sutured_kit import polytope
from sutured_kit.polytope import SupportData, hull

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
BIG = 10 ** 6


def document(p):
    return json.dumps(p.to_json(), sort_keys=True)


def max_points(r):
    # sizes are drawn uniformly up to this bound, not skewed small
    return 44 if r <= 4 else 25


def dimensions():
    # dimensions 5 and 6 cost several times more per set: draw them less often
    return st.sampled_from((2, 2, 3, 3, 4, 4, 4, 5, 6))


def coords(r, bound):
    return st.tuples(*[st.integers(-bound, bound)] * r)


@st.composite
def full_sets(draw):
    r = draw(dimensions())
    bound = draw(st.sampled_from((5, 50, BIG)))
    n = draw(st.integers(1, max_points(r)))
    pts = draw(st.lists(coords(r, bound), min_size=n, max_size=n, unique=True))
    return SupportData(r, tuple(pts))


@st.composite
def lower_dimensional_sets(draw):
    r = draw(dimensions())
    k = draw(st.integers(1, r - 1))
    gens = draw(st.lists(coords(r, draw(st.sampled_from((2, 1000)))),
                         min_size=k, max_size=k))
    base = draw(coords(r, BIG))
    n = draw(st.integers(1, max_points(r)))
    params = draw(st.lists(coords(k, 4), min_size=n, max_size=n))
    pts = {tuple(b + sum(c * g[j] for c, g in zip(cs, gens)) for j, b in enumerate(base))
           for cs in params}
    return SupportData(r, tuple(draw(st.permutations(sorted(pts)))))


def cube_boundary(r, s):
    """Lattice points of [-s, s]^r with some coordinate at +-s."""
    return [p for p in itertools.product(range(-s, s + 1), repeat=r)
            if any(abs(x) == s for x in p)]


def cross_boundary(r, s):
    """Lattice points with |x|_1 = s."""
    return [p for p in itertools.product(range(-s, s + 1), repeat=r)
            if sum(abs(x) for x in p) == s]


@st.composite
def cube_and_cross_sets(draw):
    r = draw(dimensions())
    s = draw(st.integers(1, 2 if r <= 4 else 1))
    pool = draw(st.sampled_from([cube_boundary, cross_boundary]))(r, s)
    n = draw(st.integers(1, min(len(pool), max_points(r))))
    pts = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True))
    scale = draw(st.sampled_from((1, 7, 1000)))
    shift = draw(coords(r, BIG))
    return SupportData(r, tuple(tuple(scale * x + t for x, t in zip(p, shift))
                                for p in pts))


def assert_matches_kernel_hull(s):
    h, want = hull(s), kernel_hull(s)
    assert document(h) == document(want)
    assert document(h.canonical_translate()) == document(want.canonical_translate())


@PROPERTY
@given(full_sets())
def test_full_dimensional_sets(s):
    assert_matches_kernel_hull(s)


@PROPERTY
@given(lower_dimensional_sets())
def test_lower_dimensional_sets(s):
    assert_matches_kernel_hull(s)


@PROPERTY
@given(cube_and_cross_sets())
def test_points_on_cube_and_cross_polytope_boundaries(s):
    assert_matches_kernel_hull(s)


def count_kernel_calls(monkeypatch, s):
    """The hull of s and the number of eliminations ``_kernel`` ran for it."""
    calls = []
    kernel = polytope._kernel

    def counting(rows, width):
        calls.append(rows)
        return kernel(rows, width)

    monkeypatch.setattr(polytope, "_kernel", counting)
    return hull(s), len(calls)


def test_eliminations_only_for_span_and_first_simplex(monkeypatch):
    rng = random.Random(4)
    pts = {tuple(rng.randint(-50, 50) for _ in range(4)) for _ in range(40)}
    s = SupportData(4, tuple(sorted(pts)))
    p, calls = count_kernel_calls(monkeypatch, s)
    assert p.dim == 4 and len(p.facets) > 5
    assert calls == 1 + (p.dim + 1)


def test_two_points_take_three_eliminations(monkeypatch):
    s = SupportData(3, ((1, 2, 3), (4, -5, 6)))
    p, calls = count_kernel_calls(monkeypatch, s)
    assert p.dim == 1 and len(p.facets) == 2
    assert calls == 1 + (p.dim + 1)
