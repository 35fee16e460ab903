"""The H_1 path on sparse vectors against the per-coordinate oracle.

``h1_oracle.LoopH1`` is the tree-cotree path as it ran one coordinate at
a time: the cotree solve, the potential loop, the Smith form of
``snf_oracle`` and eps summed point by point.  The library must agree
with it on the edge images and phi, each sparse vector holding no zero
entry and equal to the oracle's tuple once made dense, on the
potentials, (u, s, v) and the Spin^c classes: on every bundled fixture
(the disk and the annulus have one generator with no points), on
T(p,1;2), L(p,1) and T(1,0;2k+2) with k <= 10, and on seeded scrambles
of each.  A subset count over the beta curves used, keyed by the summed
potential, gives the size of every Spin^c class without listing the
generators; it must match the partition and, on T(1,0;2k+2) up to
k = 16, the binomial row C(k, i).
"""

import random
from math import comb

import pytest

from conftest import diagram_names, fixture_json, scramble
from h1_oracle import (LoopH1, chain_diagram, dense, lens_diagram, partition_differences,
                       torus_diagram)
from sutured_kit.diagram import (SuturedDiagram, _edge_images, _eps_chain, epsilon, generators,
                                 h1_of_M, spinc_partition)

FAMILIES = ([("torus", p) for p in (2, 3, 5, 8, 13, 30)] + [("lens", p) for p in (2, 3, 7)]
            + [("chain", k) for k in range(1, 11)])
BUILD = {"torus": torus_diagram, "lens": lens_diagram, "chain": chain_diagram}


def cases():
    out = [(name, fixture_json(name)) for name in diagram_names()]
    out += [(f"{kind}-{n}", BUILD[kind](n)) for kind, n in FAMILIES]
    rng = random.Random(24)
    out += [(f"{label}-scrambled-{s}", scramble(data, rng)) for label, data in list(out)
            for s in range(2)]
    return out


CASES = cases()


@pytest.mark.parametrize("label,data", CASES, ids=[label for label, _ in CASES])
def test_h1_path_matches_per_coordinate_oracle(label, data):
    d = SuturedDiagram.from_json(data)
    h1_of_M(d)
    h1, oracle = d._h1, LoopH1(d)
    rank, images, order, parent_edge = _edge_images(d._skeleton)
    assert (rank, order, parent_edge) == (oracle.rank, oracle.order, oracle.parent_edge)
    for sparse in (images, h1.images):
        assert [dense(img, rank) for img in sparse] == oracle.images
        assert not any(0 in img.values() for img in sparse)
    assert {p: dense(v, rank) for p, v in h1.phi.items()} == oracle.phi
    assert not any(0 in v.values() for v in h1.phi.values())
    assert h1.potential == oracle.potential
    (u, s, v), (ou, os, ov) = h1.snf, oracle.snf
    assert (u.entries, s, v.entries) == (ou.entries, os, ov.entries)
    assert h1.group == oracle.group
    assert h1.group.projection.entries == oracle.group.projection.entries
    assert d.is_balanced()
    assert spinc_partition(d).classes == oracle.spinc_classes(d)
    gens = generators(d)
    _, class_of = h1_of_M(d)
    for x, y in zip(gens, gens[1:] + gens[:1]):
        assert epsilon(d, x, y) == oracle.difference(x, y) == class_of(_eps_chain(d, x, y))


@pytest.mark.parametrize("name,free_rank", [("disk", 0), ("annulus", 1)])
def test_generator_with_no_points_has_a_class_of_full_length(name, free_rank):
    d = SuturedDiagram.from_json(fixture_json(name))
    (x,) = generators(d)
    part = spinc_partition(d)
    assert part.group.free_rank == free_rank
    assert part.classes == ((0,),)
    assert part.values[0].free == (0,) * free_rank
    assert partition_differences(part)[(0, 0)].free == (0,) * free_rank
    assert epsilon(d, x, x).free == (0,) * free_rank


# -- class sizes without listing the generators ------------------------------------


def reduced(group, coords):
    """Free coordinates as they are, torsion ones mod their orders."""
    r = group.free_rank
    return coords[:r] + tuple(x % t for x, t in zip(coords[r:], group.torsion))


def class_sizes(d, oracle):
    """{summed potential: generator count}, by a subset count over the beta curves
    used: alpha curve i picks a point on a beta curve not yet used."""
    beta_of = {p: j for j, curve in enumerate(d.beta) for p in curve}
    layer = {(0, (0,) * oracle.group.projection.rows): 1}   # (beta mask, class) -> count
    for curve in d.alpha:
        nxt = {}
        for (mask, cls), n in layer.items():
            for p in curve:
                bit = 1 << beta_of[p]
                if not mask & bit:
                    key = (mask | bit, reduced(oracle.group, tuple(
                        a + b for a, b in zip(cls, oracle.potential[p]))))
                    nxt[key] = nxt.get(key, 0) + n
        layer = nxt
    return {cls: n for (_, cls), n in layer.items()}


@pytest.mark.parametrize("label,data", CASES, ids=[label for label, _ in CASES])
def test_class_sizes_match_the_partition(label, data):
    d = SuturedDiagram.from_json(data)
    oracle = LoopH1(d)
    gens = generators(d)
    zero = (0,) * oracle.group.projection.rows
    expected = {}
    for members in spinc_partition(d).classes:
        coords = [sum(c) for c in zip(zero, *(oracle.potential[p]
                                              for _, p in gens[members[0]]))]
        expected[reduced(oracle.group, tuple(coords))] = len(members)
    assert class_sizes(d, oracle) == expected


@pytest.mark.parametrize("k", range(1, 17))
def test_chain_class_sizes_are_binomial(k):
    d = SuturedDiagram.from_json(chain_diagram(k))
    sizes = class_sizes(d, LoopH1(d))
    assert [n for _, n in sorted(sizes.items())] == [comb(k, i) for i in range(k + 1)]
