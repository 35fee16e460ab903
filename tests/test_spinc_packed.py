"""Packed Spin^c classes and the ``differences`` writer against the old path.

``spinc_partition`` packs each point's potential into one int, keys every
generator by the plain sum of its points' ints, and decodes the distinct
keys together.  ``h1_oracle.tuple_sum_spinc_partition`` is the classifier
it replaced: a tuple sum per generator, reduced one by one.  Classes,
member order, each class's value (the reduced potential sum of a member)
and every difference read from the values by
``h1_oracle.partition_differences`` must agree on every bundled fixture (the disk
has H_1 = 0, and it and the annulus have one generator with no points),
on T(p,1;2), L(p,1) (torsion, and negative potentials) and T(1,0;2k+2),
on L(p,1) after a finger move, where two distinct keys reduce to one
class, on boundary sums of these, where H_1 has two coordinates and a
digit could carry into the next, and on seeded scrambles of each.

``spinc`` writes its ``differences`` with one f-string per entry; its
stdout must equal ``json.dumps`` of the payload the CLI built before, on
T(1,0;2k+2) with k <= 9, T(p,1;2) with p <= 50, L(p,1) and the disk,
where the free part is empty, L(p,1) after a finger move, and boundary
sums.
"""

import json
import random

import pytest

from conftest import boundary_sum, diagram_names, finger_move, fixture_json, scramble
from h1_oracle import (chain_diagram, lens_diagram, partition_differences, torus_diagram,
                       tuple_sum_spinc_partition)
from sutured_kit import cli, diagram
from sutured_kit.abelian import _key_codec
from sutured_kit.diagram import SuturedDiagram, generators, h1_of_M, spinc_partition

FAMILIES = ([("torus", p) for p in (2, 3, 5, 8, 13, 30)] + [("lens", p) for p in (2, 3, 7)]
            + [("chain", k) for k in range(1, 11)])
BUILD = {"torus": torus_diagram, "lens": lens_diagram, "chain": chain_diagram}


def finger_lens(p):
    """L(p,1) with a finger of beta pushed across alpha in its last region:
    p + 2 generators in p classes, one of which holds two distinct keys."""
    return finger_move(lens_diagram(p), p - 1, 0, 1)


BUILD["finger-lens"] = finger_lens
SUMS = [(("torus", 3), ("torus", 4)), (("lens", 3), ("lens", 3)), (("lens", 2), ("lens", 4)),
        (("chain", 2), ("lens", 3)), (("lens", 2), ("torus", 3)), (("finger-lens", 3), ("chain", 2))]


def summed(one, two):
    return boundary_sum(BUILD[one[0]](one[1]), BUILD[two[0]](two[1]))


def sum_label(one, two):
    return "{}-{}+{}-{}".format(*one, *two)


def cases():
    out = [(name, fixture_json(name)) for name in diagram_names()]
    out += [(f"{kind}-{n}", BUILD[kind](n)) for kind, n in FAMILIES]
    out += [(f"finger-lens-{p}", finger_lens(p)) for p in (3, 4, 5)]
    out += [(sum_label(*pair), summed(*pair)) for pair in SUMS]
    rng = random.Random(26)
    out += [(f"{label}-scrambled-{s}", scramble(data, rng)) for label, data in list(out)
            for s in range(2)]
    return out


CASES = cases()


def partition_with_key_count(monkeypatch, d):
    """spinc_partition(d) and the number of distinct keys it decoded."""
    counts = []

    def counting_codec(vectors, n, g):
        pack, decode, normal_form = _key_codec(vectors, n, g)

        def counting(keys):
            keys = list(keys)
            counts.append(len(keys))
            return decode(keys)
        return pack, counting, normal_form

    monkeypatch.setattr(diagram, "_key_codec", counting_codec)
    part = spinc_partition(d)
    (keys,) = counts
    return part, keys


@pytest.mark.parametrize("label,data", CASES, ids=[label for label, _ in CASES])
def test_partition_matches_tuple_sum_oracle(label, data):
    d = SuturedDiagram.from_json(data)
    part = spinc_partition(d)
    classes, difference = tuple_sum_spinc_partition(d)
    assert part.classes == classes
    assert list(partition_differences(part).items()) == list(difference.items())
    assert part.group == d._h1.group
    # each class value is the plain sum of one member's potentials, reduced
    h1, gens = d._h1, generators(d)
    zero = (0,) * h1.group.projection.rows
    assert part.values == tuple(h1.group.from_coords(h1.potential_sum(gens[c[0]], zero))
                                for c in part.classes)


def test_cases_cover_the_edges():
    ds = {label: SuturedDiagram.from_json(data) for label, data in CASES}
    for d in ds.values():
        h1_of_M(d)
    assert any(d._h1.group.projection.rows == 0 for d in ds.values())
    assert any(generators(d)[0] == () and d._h1.group.projection.rows
               for d in ds.values())
    assert any(x < 0 for label, d in ds.items() if label.startswith("lens")
               for v in d._h1.potential.values() for x in v)
    assert all(ds[sum_label(*pair)]._h1.group.projection.rows == 2 for pair in SUMS)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_two_keys_reduce_to_one_class(monkeypatch, p):
    d = SuturedDiagram.from_json(finger_lens(p))
    part, keys = partition_with_key_count(monkeypatch, d)
    assert part.group.torsion == (p,) and len(part.classes) == p
    assert len(generators(d)) == p + 2
    assert keys > len(part.classes)
    assert (part.classes, partition_differences(part)) == tuple_sum_spinc_partition(d)


# -- bytes of the differences writer ---------------------------------------------------

WRITER_CASES = ([("chain", k) for k in range(1, 10)] + [("torus", p) for p in range(2, 51)]
                + [("lens", p) for p in range(2, 8)])


def old_payload(d):
    """The ``spinc`` payload as the CLI built it before its own writer."""
    classes, difference = tuple_sum_spinc_partition(d)
    group = d._h1.group
    return {"h1": {"free_rank": group.free_rank, "torsion": list(group.torsion)},
            "classes": [list(c) for c in classes],
            "base_class": 0,
            "differences": [{"from": a, "to": b,
                             "element": {"free": list(free), "torsion": list(res)}}
                            for (a, b), (free, res) in sorted(difference.items())]}


def assert_spinc_bytes(capsys, tmp_path, data):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(data))
    assert cli.main(["spinc", str(path)]) == 0
    d = SuturedDiagram.from_json(data)
    h1_of_M(d)
    assert capsys.readouterr().out == json.dumps(old_payload(d), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("kind,n", WRITER_CASES, ids=[f"{k}-{n}" for k, n in WRITER_CASES])
def test_differences_bytes_on_families(capsys, tmp_path, kind, n):
    assert_spinc_bytes(capsys, tmp_path, BUILD[kind](n))


@pytest.mark.parametrize("name", ["disk", "annulus"])
def test_differences_bytes_on_fixtures(capsys, tmp_path, name):
    assert_spinc_bytes(capsys, tmp_path, fixture_json(name))


@pytest.mark.parametrize("p", [3, 4, 5])
def test_differences_bytes_after_a_finger_move(capsys, tmp_path, p):
    assert_spinc_bytes(capsys, tmp_path, finger_lens(p))


@pytest.mark.parametrize("one,two", SUMS, ids=[sum_label(*pair) for pair in SUMS])
def test_differences_bytes_on_boundary_sums(capsys, tmp_path, one, two):
    assert_spinc_bytes(capsys, tmp_path, summed(one, two))


def test_writer_cases_have_torsion_and_empty_free_parts():
    seen = set()
    for kind, n in WRITER_CASES:
        group, _ = h1_of_M(SuturedDiagram.from_json(BUILD[kind](n)))
        seen.add((bool(group.free_rank), bool(group.torsion)))
    assert {(False, True), (True, False)} <= seen
    group, _ = h1_of_M(SuturedDiagram.from_json(fixture_json("disk")))
    assert (group.free_rank, group.torsion) == (0, ())
