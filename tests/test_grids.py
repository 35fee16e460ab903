"""Grid diagrams of knots against closed forms, the Fox route and the grid moves.

``tests/grids.py`` builds the sutured diagram of a grid of size n, whose
Euler polynomial is Delta_K(t) (1 - t)^(n-1) up to +-t^k.  Three answers
hold it, each compared as a +-h normal form over H_1 = Z:

- torus grids with n <= 13: the closed form ``knots.torus_alexander``;
- random knot grids, and moved torus grids, with n <= 10: the torsion of
  the grid's Wirtinger presentation, by ``fox.torsion``;
- the grid moves on random knot grids: a cyclic permutation of the rows
  or of the columns keeps the polynomial, and a stabilization multiplies
  it by 1 - t.

Each check takes the diagram builder as an argument, and the last tests
hand it a mutated builder, one crossing sign flipped or one marked square
moved, which each check must catch.  A moved mark leaves a column without
an X and makes the polynomial 0 on both sides of a move, so only the two
checks against an independent answer see it.
"""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from grids import (cyclic_columns, cyclic_rows, grid_diagram, random_knot_grid, stabilize,
                   torus_grid, wirtinger)
from knots import poly_mul, torus_alexander
from ring_oracle import element, ring_mul, tuple_doteq_normalize
from sutured_kit.abelian import FinAbGroup, GroupRingElem
from sutured_kit.diagram import SuturedDiagram, euler_polynomial
from sutured_kit.fox import load_presentation_json, torsion

Z = FinAbGroup(1)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
TORUS = [(n, k) for n in range(2, 14) for k in range(1, n // 2 + 1) if gcd(k, n) == 1]


def normal(coeffs):
    """The +-h normal form of sum c_i t^i over Z."""
    return tuple_doteq_normalize(
        GroupRingElem({element(Z, (i,)): c for i, c in enumerate(coeffs) if c}), Z)


def one_minus_t_power(k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, [1, -1])
    return out


def euler(data):
    poly, group = euler_polynomial(SuturedDiagram.from_json(data))
    assert group == Z
    return poly


def times_one_minus_t_power(x, k):
    return tuple_doteq_normalize(ring_mul(x, normal(one_minus_t_power(k)), Z), Z)


def check_torus(n, k, build):
    want = normal(poly_mul(torus_alexander(k, n - k), one_minus_t_power(n - 1)))
    assert euler(build(*torus_grid(n, k))) == want


def check_wirtinger(o, x, build):
    tau, group = torsion(*load_presentation_json(wirtinger(o, x)))
    assert group == Z
    assert euler(build(o, x)) == times_one_minus_t_power(tau, len(o) - 1)


def check_cyclic(o, x, build):
    chi = euler(build(o, x))
    assert euler(build(*cyclic_rows(o, x))) == chi
    assert euler(build(*cyclic_columns(o, x))) == chi


def check_stabilization(o, x, i, build):
    want = times_one_minus_t_power(euler(build(o, x)), 1)
    assert euler(build(*stabilize(o, x, i))) == want


def knot_grids(sizes):
    return st.builds(random_knot_grid, st.randoms(use_true_random=False), sizes)


@st.composite
def moved_torus_grids(draw):
    """A torus grid with n <= 8 after up to two stabilizations and cyclic
    permutations: random grids with n <= 10 are mostly the unknot."""
    n, k = draw(st.sampled_from([(n, k) for n, k in TORUS if 5 <= n <= 8 and k > 1]))
    grid = torus_grid(n, k)
    for _ in range(draw(st.integers(0, 2))):
        grid = stabilize(*grid, draw(st.integers(0, len(grid[0]) - 1)))
        grid = draw(st.sampled_from((cyclic_rows, cyclic_columns)))(*grid)
    return grid


@pytest.mark.parametrize("n,k", TORUS)
def test_torus_grid_is_the_closed_form(n, k):
    check_torus(n, k, grid_diagram)


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (8, 3), (13, 6)])
def test_wirtinger_of_a_torus_grid_is_the_closed_form(n, k):
    tau, _ = torsion(*load_presentation_json(wirtinger(*torus_grid(n, k))))
    assert tuple_doteq_normalize(tau, Z) == normal(torus_alexander(k, n - k))


@PROPERTY
@given(knot_grids(st.integers(2, 10)) | moved_torus_grids())
def test_random_knot_grid_is_its_wirtinger_torsion(grid):
    check_wirtinger(*grid, grid_diagram)


@PROPERTY
@given(knot_grids(st.integers(2, 7)))
def test_cyclic_permutation_keeps_the_polynomial(grid):
    check_cyclic(*grid, grid_diagram)


@PROPERTY
@given(knot_grids(st.integers(2, 7)), st.integers(0, 6))
def test_stabilization_multiplies_by_one_minus_t(grid, row):
    check_stabilization(*grid, row % len(grid[0]), grid_diagram)


def flipped_sign(o, x):
    """The crossing sign of p0_0 flipped."""
    data = grid_diagram(o, x)
    data["crossing_sign"]["p0_0"] = -1
    return data


def moved_mark(o, x):
    """The X of row 0 moved one square right, or left where the O is."""
    data = grid_diagram(o, x)
    n = len(o)
    step = 1 if (x[0] + 1) % n != o[0] else -1
    data["regions"][x[0]]["boundary_circles"] = 0
    data["regions"][(x[0] + step) % n]["boundary_circles"] = 1
    return data


TREFOIL = torus_grid(5, 2)
MUTANTS = {"flipped_sign": flipped_sign, "moved_mark": moved_mark}
CHECKS = {
    "torus": lambda build: check_torus(5, 2, build),
    "wirtinger": lambda build: check_wirtinger(*TREFOIL, build),
    "cyclic": lambda build: check_cyclic(*TREFOIL, build),
    "stabilization": lambda build: check_stabilization(*TREFOIL, 0, build),
}


@pytest.mark.parametrize("check,mutant", [
    ("torus", "flipped_sign"), ("torus", "moved_mark"), ("wirtinger", "flipped_sign"),
    ("wirtinger", "moved_mark"), ("cyclic", "flipped_sign"), ("stabilization", "flipped_sign")])
def test_each_check_catches_a_mutated_builder(check, mutant):
    CHECKS[check](grid_diagram)
    with pytest.raises(AssertionError):
        CHECKS[check](MUTANTS[mutant])
