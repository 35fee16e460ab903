"""The packed-key determinant and the one-pass Fox matrix against their
oracles: `det_oracle.det_group_ring` (the cofactor expansion on
`GroupElement` keys) term for term before normalizing, `phi` of each
`fox_derivative` entry by entry, and the CLI bytes with the oracle
swapped in."""

import pytest
from hypothesis import given, settings, strategies as st

import det_oracle
from sutured_kit import cli, fixtures
from sutured_kit.abelian import FinAbGroup, GroupRingElem, det_group_ring
from sutured_kit.errors import DeterminantTooLarge
from sutured_kit.fox import (FreeWord, InclusionData, Presentation, abelianization,
                             fox_derivative, theta_matrix)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
TORSIONS = ((), (2,), (3,), (2, 4), (2, 12))


@st.composite
def group_matrices(draw):
    """n x n over Z^r + T, n = 0..6: negative exponents, zero entries and
    entries whose terms cancel; in half the cases one row is zero or a unit
    multiple of another, so that all the determinant's terms cancel."""
    g = FinAbGroup(draw(st.integers(0, 2)), draw(st.sampled_from(TORSIONS)))
    n = draw(st.sampled_from(range(7)))

    def element():
        return g.element([draw(st.integers(-3, 3)) for _ in range(g.free_rank)],
                         [draw(st.integers(-30, 30)) for _ in g.torsion])

    def entry():
        kind = draw(st.sampled_from(("terms", "terms", "terms", "zero", "cancel")))
        if kind == "zero":
            return GroupRingElem()
        terms = [(element(), draw(st.integers(-3, 3))) for _ in range(draw(st.integers(1, 3)))]
        if kind == "cancel":
            terms += [(h, -c) for h, c in terms[:1]]
        return GroupRingElem(terms)

    m = [[entry() for _ in range(n)] for _ in range(n)]
    special = draw(st.sampled_from(("none", "none", "zero", "unit"))) if n >= 2 else "none"
    if special == "zero":
        m[draw(st.integers(0, n - 1))] = [GroupRingElem()] * n
    elif special == "unit":
        src, dst = draw(st.permutations(range(n)))[:2]
        u, sign = element(), draw(st.sampled_from((-1, 1)))
        m[dst] = [GroupRingElem((g.add(h, u), sign * c) for h, c in e.items()) for e in m[src]]
    return m, g


@PROPERTY
@given(group_matrices())
def test_packed_equals_cofactor_oracle(case):
    m, g = case
    assert det_group_ring(m, g) == det_oracle.det_group_ring(m, g)


def test_matrix_of_one_term_entries_spans_every_digit():
    g = FinAbGroup(2, (2, 12))
    m = [[GroupRingElem({g.element((i * j * j - 9, (i - j) ** 2 - 5), (i * j, 5 * i + j * j)):
                         1 + i * j})
          for j in range(5)] for i in range(5)]
    got = det_group_ring(m, g)
    assert not got.is_zero() and got == det_oracle.det_group_ring(m, g)


class _Unreadable(GroupRingElem):
    """Nonzero to the bitmask pass, an error to anything that reads its terms."""

    __slots__ = ()

    def __init__(self):
        pass

    def is_zero(self):
        return False

    @property
    def _terms(self):
        raise AssertionError("terms read before the bound was checked")


def test_dense_seventeen_refused_before_any_product():
    dense = [[_Unreadable()] * 17 for _ in range(17)]
    with pytest.raises(DeterminantTooLarge):
        det_group_ring(dense, FinAbGroup(1))


@st.composite
def presentations(draw):
    """m = 1..6 generators, freely random relators with inverse letters, one
    inclusion word per unit of deficiency; optionally a^k as a relator so
    that H_1 has torsion."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, m))

    def word():
        return FreeWord([(draw(st.integers(0, m - 1)), draw(st.sampled_from((-1, 1))))
                         for _ in range(draw(st.integers(0, 7)))])

    relators = [word() for _ in range(n)]
    if n and draw(st.booleans()):
        relators[0] = FreeWord([(0, 1)] * draw(st.integers(2, 4))) * relators[0]
    p = Presentation(tuple("abcdef"[:m]), tuple(relators), m - n)
    return p, InclusionData(tuple(word() for _ in range(m - n)))


@PROPERTY
@given(presentations())
def test_theta_is_phi_of_each_fox_derivative(case):
    p, k = case
    _, phi = abelianization(p)
    m = p.num_generators
    columns = list(k.sigma_images) + list(p.relators)
    theta, _ = theta_matrix(p, k)
    assert theta == [[phi(fox_derivative(w, i, m)) for w in columns] for i in range(m)]


BUNDLED_RUNS = ([("torsion", f.name) for f in fixtures.fixture_list() if f.kind == "presentation"]
                + [("euler", name) for name in fixtures.diagram_names()]
                + [("crosscheck", d, p) for d, p in fixtures.paired_names()])


@pytest.mark.parametrize("run", BUNDLED_RUNS, ids=" ".join)
def test_cli_bytes_equal_with_the_oracle(run, capsys):
    argv = [run[0]] + [str(fixtures.fixtures_dir() / fixtures.fixture_info(name).file)
                       for name in run[1:]]
    code = cli.main(argv)
    fast = capsys.readouterr().out
    with det_oracle.oracle_det():
        assert cli.main(argv) == code
    assert capsys.readouterr().out == fast
