"""The Smith normal form on one working matrix against the three-array oracle.

``abelian.smith_normal_form`` keeps u beside a and v below it, writes
each elementary operation once and finds its pivot row by row, stopping
at a row with a 1; ``snf_oracle.smith_normal_form`` keeps three arrays,
writes every operation on a and again on u or v, and scans the whole
trailing block for its pivot.  Both follow the same pivot sequence, so
(u, d, v) must agree entry for entry: on hand-made ties, where equal
smallest entries sit in several rows or -m and +m share a row, and on
the shapes 0 x n and n x 0; on random shapes from 0 x 0 to 8 x 8 with
zero rows and columns, repeated and multiplied rows, sparse exponent-sum
columns of short relators, and entries with no unit among them, where a
pivot leaves entries it does not divide and must be folded with their
row; on seeded dense matrices up to 20 x 20; and on the curve-image
matrix rel of every bundled diagram and the relator exponent matrix of
every bundled presentation.  Without the rows of v (``with_v=False``,
as ``cokernel`` asks) u and d must be the same.  Counting the calls of
``abs`` on a lower unitriangular matrix shows that every search stops at
its row's 1.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import snf_oracle
from conftest import diagram_names, fixture_json
from sutured_kit import abelian, fixtures, fox
from sutured_kit.abelian import IntMatrix, smith_normal_form
from sutured_kit.diagram import SuturedDiagram, h1_of_M

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def assert_same_form(a):
    u, d, v = smith_normal_form(a)
    ou, od, ov = snf_oracle.smith_normal_form(a)
    assert (u.entries, d, v.entries) == (ou.entries, od, ov.entries)
    u, d, v = smith_normal_form(a, with_v=False)
    assert (u.entries, d, v) == (ou.entries, od, None)


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

    def recording(a, **options):
        seen.append(a)
        return real(a, **options)

    monkeypatch.setattr(abelian, "smith_normal_form", recording)
    compute()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("name", diagram_names())
def test_matches_oracle_on_diagram_rel(monkeypatch, name):
    d = SuturedDiagram.from_json(fixture_json(name))
    seen = recorded_matrices(monkeypatch, lambda: h1_of_M(d))
    assert len(seen) == 1
    assert_same_form(seen[0])


@pytest.mark.parametrize("name", [f.name for f in fixtures.FIXTURES if f.kind == "presentation"])
def test_matches_oracle_on_presentation_exponents(monkeypatch, name):
    p, _ = fox.load_presentation_json(fixture_json(name))
    seen = recorded_matrices(monkeypatch, lambda: fox.abelianization(p))
    assert len(seen) == 1
    assert_same_form(seen[0])


# The pivot search reads the trailing block row by row, takes the smallest
# nonzero |entry| m of each row, stops at the first row where m is 1, and
# takes the first column holding +m or -m.  These ties decide which of two
# equal candidates is the pivot, so u or v changes when the order does.
PIVOT_TIES = {
    "smallest 2 in three rows": [[4, 2, 6], [2, 8, 2], [-2, 4, 10]],
    "a 1 in every row": [[3, 1, 5], [1, 7, 1], [0, 1, 0]],
    "-1 before +1 in the first row": [[5, -1, 1], [1, 3, 3]],
    "-2 before +2, no unit anywhere": [[6, -2, 2, 4], [2, 4, 6, 8], [-2, 2, 0, 6]],
    "+1 before -1 in the first row": [[0, 1, -1], [-1, 1, 0]],
    "the 1 only after a row whose smallest is 2": [[2, 4, 6], [3, -1, 5], [7, 1, 2]],
    "the -1 only after two rows whose smallest is 3": [[3, 9, 3], [-3, 6, 0], [5, 4, -1]],
    "zero rows around the pivot rows": [[0, 0, 0], [0, 2, 3], [0, 0, 0], [4, 0, -2], [0, 0, 0]],
    "zero rows only": [[0, 0], [0, 0], [0, 0]],
    "ties in a later block": [[1, 0, 0, 0], [0, 3, 6, -3], [0, -3, 3, 9], [0, 6, 3, 3]],
}


@pytest.mark.parametrize("name", list(PIVOT_TIES))
def test_matches_oracle_on_pivot_ties(name):
    m = PIVOT_TIES[name]
    for a in (m, [list(col) for col in zip(*m)]):
        assert_same_form(IntMatrix(a))


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (1, 0), (0, 1)])
def test_matches_oracle_on_empty_shapes(rows, cols):
    a = IntMatrix([[]] * rows, rows, cols) if not cols else IntMatrix([], rows, cols)
    assert_same_form(a)
    u, d, v = smith_normal_form(a)
    assert (u.rows, d, v.cols) == (rows, (), cols)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_a_row_with_a_unit_ends_the_search(monkeypatch, n):
    # lower unitriangular: at every step row t holds a 1, so each search
    # reads the nonzero entries of row t alone, one of them
    a = IntMatrix([[(i - j) * 3 + 2 if j < i else int(i == j) for j in range(n)]
                   for i in range(n)])
    calls = []

    def counting_abs(x):
        calls.append(x)
        return abs(x)

    monkeypatch.setattr(abelian, "abs", counting_abs, raising=False)
    u, d, v = smith_normal_form(a)
    monkeypatch.undo()
    assert d == (1,) * n
    assert calls == [1] * n
    assert_same_form(a)
