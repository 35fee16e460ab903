"""The beneath-beyond hull against the subset-enumeration oracle.

Property tests over ambient dimensions 0..6: full-dimensional sets,
lower-dimensional sets (integer affine images of smaller lattices),
lattice points on the facets and edges of cubes and cross-polytopes, and
sets of one or two points.  The polytope JSON must be byte-identical to
the oracle's, before and after ``canonical_translate``, and so must every
face.  Sets in dimension 5 and 6 stay small so the oracle stays fast.
"""

import itertools
import json

from hypothesis import given, settings, strategies as st

from hull_oracle import subset_face, subset_hull
from sutured_kit.polytope import SupportData, hull
from test_polytope import face

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def max_points(r):
    return 12 if r <= 3 else 10 if r == 4 else 8


def document(p):
    return json.dumps(p.to_json(), sort_keys=True)


def coords(r, lo=-3, hi=3):
    return st.tuples(*[st.integers(lo, hi)] * r)


@st.composite
def full_sets(draw):
    r = draw(st.integers(0, 6))
    pts = draw(st.lists(coords(r), min_size=1, max_size=max_points(r), unique=True))
    return SupportData(r, tuple(pts))


@st.composite
def small_sets(draw):
    r = draw(st.integers(0, 6))
    pts = draw(st.lists(coords(r, -9, 9), min_size=1, max_size=2, unique=True))
    return SupportData(r, tuple(pts))


@st.composite
def lower_dimensional_sets(draw):
    r = draw(st.integers(1, 6))
    k = draw(st.integers(0, r - 1))
    gens = draw(st.lists(coords(r, -2, 2), min_size=k, max_size=k))
    base = draw(coords(r, -5, 5))
    params = draw(st.lists(coords(k, -2, 2), min_size=1, max_size=max_points(r)))
    pts = {tuple(b + sum(c * g[j] for c, g in zip(cs, gens)) for j, b in enumerate(base))
           for cs in params}
    return SupportData(r, tuple(draw(st.permutations(sorted(pts)))))


def cube_boundary(r, s):
    """Lattice points of [-s, s]^r with some coordinate at +-s."""
    return [p for p in itertools.product(range(-s, s + 1), repeat=r)
            if any(abs(x) == s for x in p)]


def cube_edges(r, s):
    """Lattice points of [-s, s]^r with at least r - 1 coordinates at +-s."""
    return [p for p in cube_boundary(r, s) if sum(abs(x) == s for x in p) >= r - 1]


def cross_boundary(r, s):
    """Lattice points with |x|_1 = s."""
    return [p for p in itertools.product(range(-s, s + 1), repeat=r)
            if sum(abs(x) for x in p) == s]


@st.composite
def cube_and_cross_sets(draw):
    r = draw(st.integers(2, 6))
    s = draw(st.integers(1, 2 if r <= 4 else 1))
    shape = draw(st.sampled_from([cube_boundary, cube_edges, cross_boundary]))
    pool = shape(r, s)
    pts = draw(st.lists(st.sampled_from(pool), min_size=1,
                        max_size=min(len(pool), max_points(r)), unique=True))
    shift = draw(coords(r))
    return SupportData(r, tuple(tuple(x + t for x, t in zip(p, shift)) for p in pts))


def assert_matches_oracle(s, alpha):
    h, want = hull(s), subset_hull(s)
    assert document(h) == document(want)
    assert document(h.canonical_translate()) == document(want.canonical_translate())
    f, chosen = face(h, s, alpha)
    want_f, want_chosen = subset_face(s, alpha)
    assert chosen == want_chosen
    assert document(f) == document(want_f)


def directions(s):
    return coords(s.dimension, -2, 2)


@PROPERTY
@given(st.data())
def test_full_dimensional_sets(data):
    s = data.draw(full_sets())
    assert_matches_oracle(s, data.draw(directions(s)))


@PROPERTY
@given(st.data())
def test_lower_dimensional_sets(data):
    s = data.draw(lower_dimensional_sets())
    assert_matches_oracle(s, data.draw(directions(s)))


@PROPERTY
@given(st.data())
def test_lattice_points_on_cube_and_cross_polytope_faces(data):
    s = data.draw(cube_and_cross_sets())
    assert_matches_oracle(s, data.draw(directions(s)))


@PROPERTY
@given(st.data())
def test_one_and_two_points(data):
    s = data.draw(small_sets())
    assert_matches_oracle(s, data.draw(directions(s)))
