"""The torsion of knot groups against their Alexander polynomials.

``tests/knots.py`` builds Wirtinger presentations of T(2, n), the
two-generator presentations of T(p, q) and sums of two knots, each with
its polynomial in closed form.  ``fox.torsion`` must return the +-h
normal form of that polynomial, by the tuple oracle of ``ring_oracle``,
over H_1 = Z, also after a scramble that renames and reorders the
generators, permutes the relators and rotates each relator.  These known
answers reach matrices of a size the cofactor oracles cannot.
"""

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_json
from knots import (knot_sum, poly_div, poly_mul, scramble, torus_alexander, torus_knot,
                   wirtinger_torus)
from ring_oracle import element, tuple_doteq_normalize
from sutured_kit.abelian import FinAbGroup, GroupRingElem
from sutured_kit.fox import load_presentation_json, torsion

Z = FinAbGroup(1)
ODD = list(range(3, 62, 2))
COPRIME = [(p, q) for p in range(2, 12) for q in range(2, 12) if gcd(p, q) == 1]


def assert_torsion(data, coeffs):
    assert_torsion_of(load_presentation_json(data), coeffs)


def assert_torsion_of(presentation, coeffs):
    tau, g = torsion(*presentation)
    assert g == Z
    want = GroupRingElem({element(Z, (i,)): c for i, c in enumerate(coeffs) if c})
    assert tau == tuple_doteq_normalize(want, Z)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 21])
def test_wirtinger_torus_knots(n):
    assert_torsion(*wirtinger_torus(n))


@pytest.mark.parametrize("p,q", [(2, 3), (3, 2), (3, 4), (3, 5), (5, 7), (7, 11)])
def test_two_generator_torus_knots(p, q):
    assert_torsion(*torus_knot(p, q))


def test_trefoil_fixture():
    assert_torsion_of(load_presentation_json(fixture_json("trefoil_pres")), [1, -1, 1])


@pytest.mark.parametrize("a,b", [(3, 5), (5, 7), (21, 31)])
def test_sums_of_wirtinger_knots(a, b):
    assert_torsion(*knot_sum(wirtinger_torus(a), wirtinger_torus(b)))


class TestClosedForms:
    def test_two_families_agree_on_t_2_n(self):
        for n in ODD:
            assert torus_alexander(2, n) == wirtinger_torus(n)[1]

    def test_alexander_polynomials_are_symmetric_with_unit_augmentation(self):
        for p, q in COPRIME:
            coeffs = torus_alexander(p, q)
            assert coeffs == coeffs[::-1] and sum(coeffs) == 1
            assert len(coeffs) == (p - 1) * (q - 1) + 1

    def test_division_refuses_a_remainder(self):
        assert poly_div(poly_mul([1, 1], [2, -1, 3]), [1, 1]) == [2, -1, 3]
        with pytest.raises(ValueError):
            poly_div([1, 0, 1], [1, 1])

    def test_inclusion_word_maps_to_a_generator(self):
        for p, q in COPRIME:
            (word,) = torus_knot(p, q)[0]["sigma_images"]
            c, d = word.count("x") - word.count("X"), word.count("y") - word.count("Y")
            assert c * q + d * p == 1


@st.composite
def knots(draw):
    if draw(st.booleans()):
        return wirtinger_torus(draw(st.sampled_from(ODD)))
    return torus_knot(*draw(st.sampled_from(COPRIME)))


@st.composite
def scrambled_knots(draw):
    """A knot or the sum of two, plainly or after a seeded scramble."""
    knot = knot_sum(draw(knots()), draw(knots())) if draw(st.booleans()) else draw(knots())
    data, coeffs = knot
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return (scramble(data, random.Random(seed)) if draw(st.booleans()) else data), coeffs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scrambled_knots())
def test_torsion_is_the_alexander_polynomial(case):
    assert_torsion(*case)
