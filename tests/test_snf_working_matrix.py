"""The Smith normal form on one working matrix against the three-array oracle.

``abelian.smith_normal_form`` keeps u beside a and v below it and writes
each elementary operation once; ``snf_oracle.smith_normal_form`` keeps
three arrays and writes every operation on a and again on u or v.  Both
follow the same pivot sequence, so (u, d, v) must agree entry for entry:
on random shapes from 0 x 0 to 8 x 8 with zero rows and columns, repeated
and multiplied rows, sparse exponent-sum columns of short relators, and
entries with no unit among them, where a pivot leaves entries it does not
divide and must be folded with their row; on seeded dense matrices up to
20 x 20; and on the curve-image matrix rel of every bundled diagram and
the relator exponent matrix of every bundled presentation.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import snf_oracle
from conftest import diagram_names
from sutured_kit import abelian, fixtures, fox
from sutured_kit.abelian import IntMatrix, smith_normal_form
from sutured_kit.diagram import h1_of_M

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def assert_same_form(a):
    u, d, v = smith_normal_form(a)
    ou, od, ov = snf_oracle.smith_normal_form(a)
    assert (u.entries, d, v.entries) == (ou.entries, od, ov.entries)


@st.composite
def exponent_sums(draw, rows, cols):
    """Column j sums the exponents of a relator of 1-6 letters on ``rows`` generators."""
    m = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        for _ in range(draw(st.integers(1, 6))):
            m[draw(st.integers(0, rows - 1))][j] += draw(st.sampled_from((1, -1)))
    return m


@st.composite
def matrices(draw):
    rows, cols = draw(st.sampled_from(range(9))), draw(st.sampled_from(range(9)))
    kind = draw(st.sampled_from(("dense", "sparse", "relators", "nonunit", "large")))
    if kind == "relators":
        m = draw(exponent_sums(rows, cols)) if rows else []
    else:
        entry = {"dense": st.integers(-3, 3), "sparse": st.sampled_from((0, 0, 0, 0, 1, -1, 2, -2)),
                 # no unit entry: pivots that leave entries they do not divide
                 "nonunit": st.sampled_from((0, 0, 2, -2, 3, -3, 4, 6, 9)),
                 "large": st.integers(-10 ** 6, 10 ** 6)}[kind]
        m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    # rank deficiency: rows that repeat an earlier row times a unit or 2, zero rows
    for i in range(rows):
        how = draw(st.sampled_from(("keep", "keep", "keep", "multiple", "zero")))
        if how == "multiple" and i:
            c = draw(st.sampled_from((1, -1, 2)))
            m[i] = [c * e for e in m[draw(st.integers(0, i - 1))]]
        elif how == "zero":
            m[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)) if cols else ():
        for row in m:
            row[j] = 0
    if draw(st.booleans()):    # repeated columns from repeated rows
        m, rows, cols = [[row[j] for row in m] for j in range(cols)], cols, rows
    return IntMatrix(m, rows, cols)


@PROPERTY
@given(matrices())
def test_matches_three_array_oracle(a):
    assert_same_form(a)


@pytest.mark.parametrize("rows,cols", [(12, 11), (16, 16), (11, 20), (20, 20)])
def test_matches_oracle_on_dense_matrices(rows, cols):
    rng = random.Random(rows * 100 + cols)
    for lo in (1, 3, 50):
        assert_same_form(IntMatrix([[rng.randint(-lo, lo) for _ in range(cols)]
                                    for _ in range(rows)], rows, cols))


def recorded_matrices(monkeypatch, compute):
    """Every matrix that ``smith_normal_form`` sees while ``compute()`` runs."""
    seen = []
    real = abelian.smith_normal_form

    def recording(a):
        seen.append(a)
        return real(a)

    monkeypatch.setattr(abelian, "smith_normal_form", recording)
    compute()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("name", diagram_names())
def test_matches_oracle_on_diagram_rel(monkeypatch, name):
    d = fixtures.load_diagram(name)
    seen = recorded_matrices(monkeypatch, lambda: h1_of_M(d))
    assert len(seen) == 1
    assert_same_form(seen[0])


@pytest.mark.parametrize("name", [f.name for f in fixtures.FIXTURES if f.kind == "presentation"])
def test_matches_oracle_on_presentation_exponents(monkeypatch, name):
    p, _ = fixtures.load_presentation(name)
    seen = recorded_matrices(monkeypatch, lambda: fox.abelianization(p))
    assert len(seen) == 1
    assert_same_form(seen[0])
