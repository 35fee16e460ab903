"""Admissibility as a relative-interior test on the integer hull.

`admissible_lattice` is checked against the exact LP oracle
`lp_admissible` (and, where its coefficient bound is enough, against
`brute_force_admissible`) on random lattices with dependent and zero
vectors, on a case Fourier-Motzkin elimination could not finish, and on
the rank bound it shares with `polytope.hull`.  `check` runs the hull on
the periodic domains of the S^1 x S^2 diagram and of the circle pairs.
"""

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_admissible, circle_pairs_disk, lp_admissible, s1xs2_minus_ball
from sutured_kit import cli
from sutured_kit.diagram import (SuturedDiagram, admissible_lattice, is_admissible,
                                 periodic_lattice)
from sutured_kit.errors import DimensionTooLarge
from sutured_kit.polytope import MAX_DIMENSION

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# rank 4 over 10 regions; Fourier-Motzkin elimination ran past 40 s on it
RANK4_TEN_REGIONS = [(-1, 2, 2, -1, 0, 2, 1, 2, -2, 2),
                     (-2, 1, 0, 2, -1, -1, 1, 2, 2, 1),
                     (1, -1, -1, -1, 2, 1, -2, -2, -1, 2),
                     (-2, 0, -2, 0, 1, 2, 1, 1, 1, 2)]


@st.composite
def lattices(draw):
    """Rank 1..6 over 1..8 regions; some vectors are zero, some are integer
    combinations of the ones before them."""
    n = draw(st.integers(1, 8))
    vectors = []
    for _ in range(draw(st.integers(1, MAX_DIMENSION))):
        kind = draw(st.sampled_from(("free", "free", "zero", "combination")))
        if kind == "zero":
            vectors.append((0,) * n)
        elif kind == "combination" and vectors:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(vectors),
                                   max_size=len(vectors)))
            vectors.append(tuple(sum(c * v[r] for c, v in zip(coeffs, vectors))
                                 for r in range(n)))
        else:
            vectors.append(tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
    return vectors


@PROPERTY
@given(lattices())
def test_agrees_with_lp_oracle(vectors):
    fast = admissible_lattice(vectors)
    assert fast == lp_admissible(vectors)
    # with entries in [-3, 3], a rank <= 2 cone has its extreme rays inside
    # the brute force's coefficient box
    if len(vectors) <= 2 and all(abs(x) <= 3 for v in vectors for x in v):
        assert fast == brute_force_admissible(vectors)


def test_small_examples():
    assert admissible_lattice([(0, 0, 0)])                   # only the zero domain
    assert not admissible_lattice([(1, 1), (2, 2)])          # dependent, one sign
    assert admissible_lattice([(1, -1, 0), (2, -2, 0)])
    assert not admissible_lattice([(1, -1, 0), (0, 1, 0)])   # (1, 0, 0) is >= 0
    assert admissible_lattice([(1, -1, 0), (0, 1, -1)])


def test_rank_four_ten_regions_is_fast():
    start = time.perf_counter()
    got = admissible_lattice(RANK4_TEN_REGIONS)
    assert time.perf_counter() - start < 1.0
    assert got and lp_admissible(RANK4_TEN_REGIONS)


def test_rank_seven_is_refused():
    vectors = [tuple(int(i == j) - int(j == i + 1) for j in range(8)) for i in range(7)]
    with pytest.raises(DimensionTooLarge):
        admissible_lattice(vectors)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_circle_pairs_are_inadmissible(k):
    d = SuturedDiagram.from_json(circle_pairs_disk(k))
    basis = periodic_lattice(d)
    assert len(basis) == 2 * k
    assert not is_admissible(d) and not lp_admissible(basis)


def test_genus_one_lattice_reaches_the_hull():
    d = SuturedDiagram.from_json(s1xs2_minus_ball())
    basis = periodic_lattice(d)
    assert basis == [(-1, 1)]
    assert is_admissible(d) and lp_admissible(basis)


BALANCE_FAULT = "a component of the complement of the {} curves misses the boundary"
# name: (diagram, what check prints); periodic lattices of rank 1, then 2k
CHECKED = {
    "s1xs2": (s1xs2_minus_ball(), {"valid": True, "balanced": True, "admissible": True}),
    **{f"pairs-{k}": (circle_pairs_disk(k), {
        "valid": True, "balanced": False, "admissible": False,
        "reasons": [BALANCE_FAULT.format(fam) for fam in ("alpha", "beta") for _ in range(k)]})
       for k in (1, 2, 3)},
}


@pytest.mark.parametrize("name", list(CHECKED))
def test_check_decides_admissibility_through_the_hull(capsys, tmp_path, name):
    data, want = CHECKED[name]
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(data))
    assert cli.main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == want


def test_check_refuses_a_rank_eight_lattice(capsys, tmp_path):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(circle_pairs_disk(4)))
    code = cli.main(["check", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["error"] == "dimension_too_large"
    assert out["detail"] == f"periodic lattice rank 8 exceeds {MAX_DIMENSION}"
