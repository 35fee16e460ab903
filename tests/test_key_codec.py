"""The packed-key codec that the determinant and the Spin^c partition share.

``abelian._key_codec(vectors, n, g)`` packs coordinate vectors of g (free
exponents, then residues, left unreduced) into ints, and decodes sums of
exactly n packed vectors to elements.  Any n of the vectors, drawn with
repeats, must decode to ``from_coords`` of their plain sum, also when
several such sums are decoded at once.  The coordinate count comes from
the group: with no vectors at all, the empty determinant and the one
generator of the disk and the annulus still decode to the identity of
full length.  The first coordinate is the most significant digit, so
packed keys of reduced elements order as the elements do; the Spin^c
partition, which keys its classes by first appearance, keeps its class
order.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_json
from ring_oracle import identity
from sutured_kit import cli
from sutured_kit.abelian import FinAbGroup, GroupRingElem, _key_codec, det_group_ring
from sutured_kit.diagram import SuturedDiagram, spinc_partition

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def codec_cases(draw):
    """(g, vectors, n, selections): coordinates in [-50, 50], residues
    unreduced, and a few selections of n vector indices with repeats."""
    g = FinAbGroup(draw(st.integers(0, 3)), draw(st.sampled_from(((), (2,), (3, 6)))))
    width = g.free_rank + len(g.torsion)
    coord = st.integers(-50, 50)
    vectors = draw(st.lists(st.tuples(*[coord] * width), min_size=1, max_size=8))
    n = draw(st.integers(1, 6))
    pick = st.lists(st.integers(0, len(vectors) - 1), min_size=n, max_size=n)
    return g, vectors, n, draw(st.lists(pick, min_size=1, max_size=4))


@PROPERTY
@given(codec_cases())
def test_decode_of_packed_sums_is_from_coords_of_the_sum(case):
    g, vectors, n, selections = case
    pack, decode, _ = _key_codec(vectors, n, g)
    width = g.free_rank + len(g.torsion)
    sums = [[sum(vectors[i][c] for i in picked) for c in range(width)] for picked in selections]
    keys = [sum(pack(vectors[i]) for i in picked) for picked in selections]
    assert decode(keys[:1]) == [g.from_coords(sums[0])]
    assert decode(keys) == [g.from_coords(s) for s in sums]


@st.composite
def reduced_elements(draw):
    """(g, elements, n): elements with free exponents in [-50, 50] and
    residues reduced, several on one free part, and a summand count n."""
    g = FinAbGroup(draw(st.integers(0, 3)), draw(st.sampled_from(((), (2,), (3, 6)))))
    free = st.tuples(*[st.integers(-50, 50)] * g.free_rank)
    frees = draw(st.lists(free, min_size=1, max_size=4))
    res = st.tuples(*[st.integers(0, d - 1) for d in g.torsion])
    elements = draw(st.lists(st.tuples(st.sampled_from(frees), res), min_size=1, max_size=10))
    return g, [g.from_coords(f + t) for f, t in elements], draw(st.integers(1, 6))


@PROPERTY
@given(reduced_elements())
def test_packed_key_order_is_element_order(case):
    """The first coordinate is the most significant digit: packed keys of
    reduced elements sort, and tie, as the elements do."""
    g, elements, n = case
    pack, _, _ = _key_codec([h.free + h.torsion for h in elements], n, g)
    keys = [pack(h.free + h.torsion) for h in elements]
    for a, ka in zip(elements, keys):
        for b, kb in zip(elements, keys):
            assert (ka < kb, ka == kb) == (a < b, a == b)


@pytest.mark.parametrize("g", [FinAbGroup(2), FinAbGroup(1, (3,)), FinAbGroup(0)])
def test_no_vectors_decode_to_the_identity_of_full_length(g):
    _, decode, _ = _key_codec([], 0, g)
    assert decode([0]) == [identity(g)]


def test_empty_determinant_is_the_identity_of_full_length():
    g = FinAbGroup(2)
    assert det_group_ring([], g) == GroupRingElem({identity(g): 1})
    assert det_group_ring([], g).items()[0][0].free == (0, 0)


@pytest.mark.parametrize("name", ["t104", "t106", "t212", "t312"])
def test_spinc_classes_in_the_order_of_their_first_generator(name):
    part = spinc_partition(SuturedDiagram.from_json(fixture_json(name)))
    firsts = [members[0] for members in part.classes]
    assert firsts == sorted(firsts) and firsts[0] == 0
    assert len(part.values) == len(set(part.values)) == len(part.classes)


@pytest.mark.parametrize("name,free_rank", [("disk", 0), ("annulus", 1)])
def test_spinc_of_a_diagram_with_no_alpha_curves(capsys, tmp_path, name, free_rank):
    d = SuturedDiagram.from_json(fixture_json(name))
    part = spinc_partition(d)
    assert part.values == (identity(part.group),)
    assert part.values[0].free == (0,) * free_rank
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(fixture_json(name)))
    assert cli.main(["spinc", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["differences"] == [{"element": {"free": [0] * free_rank, "torsion": []},
                                   "from": 0, "to": 0}]
