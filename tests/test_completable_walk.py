"""Generators and Spin^c classes along completable beta masks.

``SuturedDiagram._completable`` keeps, after each alpha curve, only the
masks of used beta curves from which the remaining curves can still be
matched, and ``generators`` and ``spinc_partition`` walk those masks level
by level.  ``h1_oracle.backtrack_generators``, the recursive backtrack that
the walk replaced, is the oracle: on seeded scrambles of every bundled
fixture, of T(p,1;2) for p <= 12, of T(1,0;2k+2) for k <= 7, of L(p,1)
with and without a finger move, and of a diagram with no generators, the
walk must list the same generators in the same order, and the Spin^c
classes must be those of the oracle's generators summed one by one.  On a
scrambled T(1,0;22), where the backtrack tries more than |alpha| partial
matchings per generator, the walk builds at most that many.
"""

import random

from hypothesis import given, settings, strategies as st

from conftest import diagram_names, finger_move, fixture_json, scramble
from h1_oracle import (backtrack_calls, backtrack_generators, chain_diagram, lens_diagram,
                       torus_diagram, tuple_sum_spinc_partition)
from sutured_kit.diagram import SuturedDiagram, generators, spinc_partition

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# one alpha and one beta curve, parallel and disjoint: balanced, no generators
NO_GENERATORS = {
    "genus": 0, "boundary_circles": 4,
    "alpha": [[]], "beta": [[]], "crossing_sign": {},
    "regions": [
        {"cycles": [["a1.0"]], "boundary_circles": 2},
        {"cycles": [["-a1.0"], ["b1.0"]], "boundary_circles": 0},
        {"cycles": [["-b1.0"]], "boundary_circles": 2},
    ],
}

CASES = ([fixture_json(name) for name in diagram_names()]
         + [torus_diagram(p) for p in range(2, 13)]
         + [chain_diagram(k) for k in range(1, 8)]
         + [lens_diagram(p) for p in (2, 3, 7)]
         + [finger_move(lens_diagram(p), p - 1, 0, 1) for p in (3, 4, 5)]
         + [NO_GENERATORS])


@PROPERTY
@given(st.sampled_from(CASES), st.integers(0, 2 ** 32 - 1))
def test_walk_matches_the_backtrack(data, seed):
    d = SuturedDiagram.from_json(scramble(data, random.Random(seed)))
    want = backtrack_generators(d)
    assert [x.assignment for x in generators(d)] == [x.assignment for x in want]
    classes, _ = tuple_sum_spinc_partition(d, want)
    assert spinc_partition(d).classes == classes


def test_cases_include_no_generators():
    d = SuturedDiagram.from_json(NO_GENERATORS)
    assert generators(d) == backtrack_generators(d) == ()
    assert spinc_partition(d).classes == ()


class Counted:
    """A running total that counts the partial matchings built on it."""

    def __init__(self):
        self.built = 0

    def __add__(self, value):
        self.built += 1
        return self


def test_no_dead_end_prefixes_on_a_scrambled_chain():
    d = SuturedDiagram.from_json(scramble(chain_diagram(10), random.Random(1)))
    n, count = len(d.alpha), len(generators(d))
    assert count == 1024
    assert backtrack_calls(d) > n * count      # 13 317: the backtrack meets dead ends here
    candidates, moves = d._completable
    total = Counted()
    assert d._matchings([[0] * len(c) for c in candidates], total) == [total] * count
    assert total.built <= n * count
    assert sum(map(len, moves)) <= n * count
