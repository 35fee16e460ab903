"""The packed-key determinant and the one-pass Fox matrix against their
oracles: the tuple normal form of `det_oracle.det_group_ring` (the
cofactor expansion on `GroupElement` keys, in the caller's row order)
term for term, whatever order the library expands, with its refusals
under a lowered memo-key bound; `phi` of each `fox_oracle.fox_derivative` entry
by entry, and the CLI bytes with the oracle swapped in."""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

import det_oracle
from conftest import diagram_names, fixture_path, paired_names
from det_oracle import rows_of
from fox_oracle import concat, fox_derivative, phi
from h1_oracle import det
from ring_oracle import element, group_add
from sutured_kit import abelian, cli, fixtures
from sutured_kit.abelian import FinAbGroup, GroupRingElem, IntMatrix, det_group_ring, ring_aug
from sutured_kit.errors import DeterminantTooLarge
from sutured_kit.fox import FreeWord, InclusionData, Presentation, theta_matrix, torsion

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
TORSIONS = ((), (2,), (3,), (2, 4), (2, 12))


@st.composite
def group_matrices(draw):
    """n x n over Z^r + T, n = 0..6: negative exponents, zero entries and
    entries whose terms cancel; in half the cases one row is zero or a unit
    multiple of another, so that all the determinant's terms cancel."""
    g = FinAbGroup(draw(st.integers(0, 2)), draw(st.sampled_from(TORSIONS)))
    n = draw(st.sampled_from(range(7)))

    def draw_element():
        return element(g, [draw(st.integers(-3, 3)) for _ in range(g.free_rank)],
                       [draw(st.integers(-30, 30)) for _ in g.torsion])

    def entry():
        kind = draw(st.sampled_from(("terms", "terms", "terms", "zero", "cancel")))
        if kind == "zero":
            return GroupRingElem()
        terms = [(draw_element(), draw(st.integers(-3, 3))) for _ in range(draw(st.integers(1, 3)))]
        if kind == "cancel":
            terms += [(h, -c) for h, c in terms[:1]]
        return GroupRingElem(terms)

    m = [[entry() for _ in range(n)] for _ in range(n)]
    special = draw(st.sampled_from(("none", "none", "zero", "unit"))) if n >= 2 else "none"
    if special == "zero":
        m[draw(st.integers(0, n - 1))] = [GroupRingElem()] * n
    elif special == "unit":
        src, dst = draw(st.permutations(range(n)))[:2]
        u, sign = draw_element(), draw(st.sampled_from((-1, 1)))
        m[dst] = [GroupRingElem((group_add(g, h, u), sign * c) for h, c in e.items())
                  for e in m[src]]
    return m, g


@PROPERTY
@given(group_matrices())
def test_packed_equals_cofactor_oracle(case):
    m, g = case
    assert det_group_ring(rows_of(m), g) == det_oracle.normal_det(m, g)


def test_matrix_of_one_term_entries_spans_every_digit():
    g = FinAbGroup(2, (2, 12))
    m = [[GroupRingElem({element(g, (i * j * j - 9, (i - j) ** 2 - 5), (i * j, 5 * i + j * j)):
                         1 + i * j})
          for j in range(5)] for i in range(5)]
    got = det_group_ring(rows_of(m), g)
    assert not got.is_zero() and got == det_oracle.normal_det(m, g)


PATTERNS = ("sparse", "bidiagonal", "permutation", "dense row", "dense column")


@st.composite
def patterned_matrices(draw):
    """n x n over Z^r + T, n = 0..7, with a sparse, bidiagonal or permutation
    zero pattern, or a sparse one with one dense row or column; rows and
    columns are then shuffled, so the caller's order is rarely the one
    the routine expands."""
    g = FinAbGroup(draw(st.integers(0, 2)), draw(st.sampled_from(((), (2,), (2, 4)))))
    n = draw(st.integers(0, 7))
    pattern = draw(st.sampled_from(PATTERNS))
    if pattern == "bidiagonal":
        cells = {(i, j) for i in range(n) for j in (i, i + 1) if j < n}
    elif pattern == "permutation":
        cells = set(enumerate(draw(st.permutations(range(n)))))
    else:
        cells = {(i, j) for i in range(n) for j in range(n) if draw(st.integers(0, 9)) < 3}
        k = draw(st.integers(0, max(n - 1, 0)))
        if pattern == "dense row":
            cells |= {(k, j) for j in range(n)}
        elif pattern == "dense column":
            cells |= {(i, k) for i in range(n)}
    rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))

    def entry():
        return GroupRingElem(
            (element(g, [draw(st.integers(-2, 2)) for _ in range(g.free_rank)],
                     [draw(st.integers(0, 7)) for _ in g.torsion]),
             draw(st.sampled_from((-2, -1, 1, 3))))
            for _ in range(draw(st.integers(1, 2))))

    return [[entry() if (rows[i], cols[j]) in cells else GroupRingElem() for j in range(n)]
            for i in range(n)], g


@contextmanager
def memo_bound(limit):
    """Lower TOO_LARGE_DET in the library and in the oracle inside the block."""
    saved = abelian.TOO_LARGE_DET
    abelian.TOO_LARGE_DET = det_oracle.TOO_LARGE_DET = limit
    try:
        yield
    finally:
        abelian.TOO_LARGE_DET = det_oracle.TOO_LARGE_DET = saved


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(patterned_matrices(), st.sampled_from((1, 2, 3, 5, 8)))
def test_expansion_order_keeps_every_term_and_every_refusal(case, limit):
    """The determinant equals the tuple normal form of the oracle's, term
    for term; under a bound lowered to ``limit`` memo keys the routine
    refuses only what the oracle's pass in the caller's order refuses, with
    the same detail."""
    m, g = case
    want = det_oracle.normal_det(m, g)
    assert det_group_ring(rows_of(m), g) == want
    with memo_bound(limit):
        try:
            det_oracle.det_group_ring(m, g)
            refusal = None
        except DeterminantTooLarge as exc:
            refusal = exc.detail
        try:
            assert det_group_ring(rows_of(m), g) == want
        except DeterminantTooLarge as exc:
            assert exc.detail == refusal


def spelled(letters, names):
    """The word of (index, +-1) letters, spelled in ``names`` and parsed back."""
    return FreeWord.from_string(" ".join(names[i] if e > 0 else names[i].upper()
                                         for i, e in letters), names)


def relator(rng, names, length):
    """Freely and cyclically reduced word of ``length`` letters in ``names``."""
    while True:
        letters = []
        while len(letters) < length:
            i, e = rng.randrange(len(names)), rng.choice((1, -1))
            if not letters or letters[-1] != (i, -e):
                letters.append((i, e))
        if letters[0] != (letters[-1][0], -letters[-1][1]):
            return spelled(letters, names)


def test_eighteen_generators_refused_in_the_callers_order_are_computed():
    rng = random.Random(9)
    m = 18
    names = tuple(f"g{i}" for i in range(m))
    p = Presentation(names, tuple(relator(rng, names, 5) for _ in range(m - 1)), 1)
    k = InclusionData((relator(rng, names, 1),))
    theta, g = theta_matrix(p, k)
    with pytest.raises(DeterminantTooLarge, match="minors after row 9"):
        det_oracle.det_group_ring(theta, g)
    tau, _ = torsion(p, k)
    words = list(k.sigma_images) + list(p.relators)
    sums = IntMatrix([[sum(e for j, e in w.letters if j == i) for w in words]
                      for i in range(m)])
    assert abs(ring_aug(tau)) == abs(det(sums)) == 120


@st.composite
def presentations(draw):
    """m = 1..6 generators, freely random relators with inverse letters, one
    inclusion word per unit of deficiency; optionally a^k as a relator so
    that H_1 has torsion."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, m))
    names = tuple("abcdef"[:m])

    def word():
        return spelled([(draw(st.integers(0, m - 1)), draw(st.sampled_from((-1, 1))))
                        for _ in range(draw(st.integers(0, 7)))], names)

    relators = [word() for _ in range(n)]
    if n and draw(st.booleans()):
        relators[0] = concat(spelled([(0, 1)] * draw(st.integers(2, 4)), names), relators[0])
    p = Presentation(names, tuple(relators), m - n)
    return p, InclusionData(tuple(word() for _ in range(m - n)))


@PROPERTY
@given(presentations())
def test_theta_is_phi_of_each_fox_derivative(case):
    p, k = case
    m = p.num_generators
    columns = list(k.sigma_images) + list(p.relators)
    theta, g = theta_matrix(p, k)
    assert theta == [[phi(g, fox_derivative(w, i, m)) for w in columns] for i in range(m)]


BUNDLED_RUNS = ([("torsion", f.name) for f in fixtures.FIXTURES if f.kind == "presentation"]
                + [("euler", name) for name in diagram_names()]
                + [("crosscheck", d, p) for d, p in paired_names()])


@pytest.mark.parametrize("run", BUNDLED_RUNS, ids=" ".join)
def test_cli_bytes_equal_with_the_oracle(run, capsys):
    argv = [run[0]] + [fixture_path(name) for name in run[1:]]
    code = cli.main(argv)
    fast = capsys.readouterr().out
    with det_oracle.oracle_det():
        assert cli.main(argv) == code
    assert capsys.readouterr().out == fast
