"""``abelian.echelon`` and what is built on it, against rational oracles.

The pivots and rows of the fraction-free Gauss-Jordan pass are checked
against the reduced row echelon form over Q of ``hull_oracle``, the
determinant read off it (``h1_oracle.det``) against the Leibniz formula,
and the null vectors of the hull against the rows they annihilate.
"""

from itertools import permutations
from math import gcd, prod

from hypothesis import given, settings, strategies as st

from h1_oracle import det
from hull_oracle import rref
from sutured_kit.abelian import IntMatrix, echelon
from sutured_kit.polytope import _kernel

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def leibniz(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    """Integer matrices, often of low rank: products of two random factors."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    entry = st.integers(-6, 6)
    if draw(st.booleans()):
        return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    k = draw(st.integers(0, min(rows, cols)))
    left = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(rows)]
    right = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(k)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if right
            else [0] * cols for row in left]


@PROPERTY
@given(matrices())
def test_echelon_is_scaled_rref(m):
    pivots, rows, _ = echelon(m)
    want_rows, want_pivots = rref(m)
    assert pivots == want_pivots
    assert len(rows) == len(m)
    scale = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    assert scale != 0
    for row, want in zip(rows, want_rows):
        assert row == [scale * x for x in want]
    assert not any(any(row) for row in rows[len(pivots):])


@PROPERTY
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_is_leibniz(m):
    # rows drawn from a small range: singular matrices come up often
    assert det(IntMatrix(m, len(m), len(m))) == leibniz(m)


def test_det_edge_cases():
    assert det(IntMatrix((), 0, 0)) == 1
    assert det(IntMatrix([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix([[1, 2], [2, 4]])) == 0
    assert det(IntMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1


@PROPERTY
@given(matrices())
def test_kernel_vectors(m):
    width = len(m[0]) if m else 0
    _, pivots = rref(m)
    vectors = _kernel(m, width)
    assert len(vectors) == width - len(pivots)
    free = [f for f in range(width) if f not in pivots]
    for f, n in zip(free, vectors):
        assert all(sum(a * b for a, b in zip(row, n)) == 0 for row in m)
        assert gcd(*n) == 1
        assert n[f] > 0
        assert all(x == 0 for c, x in enumerate(n) if c != f and c not in pivots)
