"""The +-h normal form on packed ints against the tuple oracle.

``doteq_normalize`` and ``det_group_ring`` both run
the codec's ``normal_form``: reduced residues, candidates picked by the
free digit block, torsion digits translated, forms sorted and compared as
(key, coefficient) int lists, and only the winner decoded.
``ring_oracle.tuple_doteq_normalize``, the normal form on ``(free, torsion)``
pairs that it replaced, must give the same terms in the same order, and
the result's terms must be stored in ``items()`` order.  The elements
here have several terms tied on the lex-min free part, so that forms
that differ only after the translation of their torsion digits compete.
"""

import pytest
from hypothesis import given, settings, strategies as st

from det_oracle import det_of_rows, rows_of
from ring_oracle import element, ring_of, tuple_doteq_normalize
from sutured_kit.abelian import FinAbGroup, GroupRingElem, det_group_ring, doteq_normalize

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
GROUPS = [FinAbGroup(r, t) for r in range(3) for t in ((), (2,), (3, 6))]


def draw_group(draw):
    return draw(st.sampled_from(GROUPS))


def draw_terms(draw, g, free, count):
    """count terms at free exponents drawn from ``free``, residues in
    range, coefficients of both signs."""
    return [(element(g, [draw(free) for _ in range(g.free_rank)],
                     [draw(st.integers(0, d - 1)) for d in g.torsion]),
             draw(st.integers(-4, 4).filter(bool))) for _ in range(count)]


@st.composite
def tied_elements(draw):
    """(x, g): a few terms, plus up to four more at the lex-min free part
    of those, with other residues."""
    g = draw_group(draw)
    terms = draw_terms(draw, g, st.integers(-2, 2), draw(st.integers(0, 6)))
    if terms:
        low = min(h for h, _ in terms)[0]
        terms += [(element(g, low, res), c)
                  for (_, res), c in draw_terms(draw, g, st.just(0), draw(st.integers(0, 4)))]
    return ring_of(terms), g


def assert_same_form(got, want):
    assert list(got._terms.items()) == want.items()


@PROPERTY
@given(tied_elements())
def test_normal_form_is_the_tuple_oracle(case):
    x, g = case
    assert_same_form(doteq_normalize(x, g), tuple_doteq_normalize(x, g))


@st.composite
def matrices(draw):
    """(rows, g): n x n, n = 1..3, cells of one to three terms with
    unreduced residue sums, some cells zero."""
    g = draw_group(draw)
    n = draw(st.integers(1, 3))

    def cell():
        if not draw(st.integers(0, 4)):
            return GroupRingElem({})
        return ring_of(draw_terms(draw, g, st.integers(-1, 1), draw(st.integers(1, 3))))

    return rows_of([[cell() for _ in range(n)] for _ in range(n)]), g


@PROPERTY
@given(matrices())
def test_normalized_determinant_is_the_tuple_oracle_of_the_determinant(case):
    rows, g = case
    assert_same_form(det_group_ring(rows, g), det_of_rows(rows, g))


# (group, terms as (free, residues, coefficient)): two candidates, the
# second winning at its third term, which only the translation of the
# torsion digits puts there
TIES = [(FinAbGroup(1, (2,)), [((0,), (0,), 1), ((0,), (1,), 1), ((1,), (1,), 2)]),
        (FinAbGroup(0, (3, 6)), [((), (0, 0), 1), ((), (1, 1), 1), ((), (1, 2), 2)])]


@pytest.mark.parametrize("g,terms", TIES)
def test_tie_broken_after_the_torsion_translation(g, terms):
    x = ring_of((element(g, free, res), c) for free, res, c in terms)
    want = tuple_doteq_normalize(x, g)
    assert want != ring_of((element(g, free, res), c) for free, res, c in terms)
    assert_same_form(doteq_normalize(x, g), want)
