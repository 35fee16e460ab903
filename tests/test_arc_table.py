"""Arc references read through the diagram's table against ``parse_arc_ref``.

``SuturedDiagram.from_json`` maps the canonical spelling of every arc of
its curves, both signs, to (arc, sign), and a region cycle is read through
that table; in a cycle with a miss, each reference the table misses is
parsed.  The reader, the parser and the old named walk of
``tests/region_oracle.py`` with and without the table must give equal
cycles on every bundled fixture, on T(p,1;2), L(p,1), T(1,0;2k+2) and on
seeded scrambles of each, and every reference there must be in the
table.  Malformed references keep the exception and message of the parser,
naming the same index, and an unknown but well-formed arc the same
``validate`` violation.  The types of the curves and crossing signs are
tested inline, and a fault there keeps the message naming its field, in
the order alpha, beta, crossing_sign.
"""

import random
import sys

import pytest

from conftest import diagram_names, fixture_json, scramble
from h1_oracle import chain_diagram, lens_diagram, torus_diagram
from region_oracle import region_from_json
from sutured_kit.diagram import SuturedDiagram, _arc_table, format_arc_ref, parse_arc_ref

FAMILIES = ([("torus", p) for p in (2, 3, 8, 30)] + [("lens", p) for p in (2, 7)]
            + [("chain", k) for k in range(1, 11)])
BUILD = {"torus": torus_diagram, "lens": lens_diagram, "chain": chain_diagram}


def cases():
    out = [(name, fixture_json(name)) for name in diagram_names()]
    out += [(f"{kind}-{n}", BUILD[kind](n)) for kind, n in FAMILIES]
    rng = random.Random(26)
    out += [(f"{label}-scrambled-{s}", scramble(data, rng)) for label, data in list(out)
            for s in range(2)]
    return out


CASES = cases()


@pytest.mark.parametrize("label,data", CASES, ids=[label for label, _ in CASES])
def test_table_and_parser_give_equal_cycles(label, data):
    table = _arc_table(data["alpha"], data["beta"])
    d = SuturedDiagram.from_json(data)
    for i, region in enumerate(data["regions"]):
        parsed = tuple(tuple(parse_arc_ref(ref, "arc reference") for ref in cyc)
                       for cyc in region["cycles"])
        assert all(ref in table for cyc in region["cycles"] for ref in cyc)
        assert region_from_json(region, f"regions[{i}]", table).cycles == parsed
        assert region_from_json(region, f"regions[{i}]", {}).cycles == parsed
        assert d.regions[i].cycles == parsed


def test_table_holds_both_signs_of_every_arc():
    d = SuturedDiagram.from_json(fixture_json("t312"))
    table = _arc_table(d.alpha, d.beta)
    assert len(table) == 2 * sum(1 for _ in d.arcs())
    for text, value in table.items():
        assert parse_arc_ref(text, "arc reference") == value


def t212_with(ref):
    data = fixture_json("t212")
    data["regions"][0]["cycles"][0][1] = ref
    return data


def not_a_reference(text):
    return f"regions[0].cycles[0][1] must be an arc reference like 'a1.0' or '-b2.3', got {text!r}"


BIG = "a" + "1" * 5000 + ".0"       # past the default int-to-str digit limit of 4300


@pytest.mark.parametrize("ref", ["a01.0", "a1.00", "+a1.0", "A1.0", "a1.0 ", "-a1", "--a1.0"])
def test_malformed_reference_keeps_the_parser_message(ref):
    with pytest.raises(ValueError) as err:
        SuturedDiagram.from_json(t212_with(ref))
    assert str(err.value) == not_a_reference(ref)


def test_reference_past_the_digit_limit_keeps_the_parser_message():
    if not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0:
        pytest.skip("this interpreter has no int-to-str digit limit")
    with pytest.raises(ValueError) as err:
        SuturedDiagram.from_json(t212_with(BIG))
    assert str(err.value) == not_a_reference(BIG)


@pytest.mark.parametrize("item", [5, None, True, 1.5, ["a1.0"], {"a1.0": 1}])
def test_non_string_item_keeps_the_type_message(item):
    with pytest.raises(ValueError) as err:
        SuturedDiagram.from_json(t212_with(item))
    assert str(err.value) == f"regions[0].cycles[0][1] must be a string, got {item!r}"


@pytest.mark.parametrize("cycle", ["a1.0", {"a1.0": 1}, 5])
def test_cycle_that_is_not_a_list_keeps_the_type_message(cycle):
    data = fixture_json("t212")
    data["regions"][1]["cycles"][0] = cycle
    with pytest.raises(ValueError) as err:
        SuturedDiagram.from_json(data)
    assert str(err.value) == f"regions[1].cycles[0] must be a list, got {cycle!r}"


def test_unknown_well_formed_arc_is_a_violation():
    d = SuturedDiagram.from_json(t212_with("a9.0"))
    assert d.regions[0].cycles[0][1] == (("a", 8, 0), 1)
    assert sorted(d.validate().violations) == [
        "arc b1.0 appears 1 times in region boundaries (expected 2)",
        "region 0 references unknown arc a9.0"]


def test_json_round_trip_reads_through_the_table():
    # the spelling of violation messages is the key the table reads back
    for label, data in CASES:
        table = _arc_table(data["alpha"], data["beta"])
        for region in SuturedDiagram.from_json(data).regions:
            for cyc in region.cycles:
                assert [table[format_arc_ref(arc)] for arc, _ in cyc] == \
                    [(arc, 1) for arc, _ in cyc], label


def t212_edited(edit):
    data = fixture_json("t212")
    edit(data)
    return data


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["alpha"].__setitem__(0, "P0"), "alpha[0] must be a list, got 'P0'"),
    (lambda d: d["beta"].append({"P0": 1}), "beta[1] must be a list, got {'P0': 1}"),
    (lambda d: d["beta"][0].__setitem__(1, 5), "beta[0][1] must be a string, got 5"),
    (lambda d: d["alpha"][0].append(None), "alpha[0][2] must be a string, got None"),
    (lambda d: d.update(alpha=[["P0", 1]], beta=7), "alpha[0][1] must be a string, got 1"),
    (lambda d: d.update(alpha="P0"), "alpha must be a list, got 'P0'"),
    (lambda d: d["crossing_sign"].__setitem__("P1", True),
     "crossing_sign['P1'] must be an integer, got True"),
    (lambda d: d["crossing_sign"].update(P0=1.0, P1="1"),
     "crossing_sign['P0'] must be an integer, got 1.0"),
    (lambda d: d.update(beta=[[2]], crossing_sign={"P0": None}),
     "beta[0][0] must be a string, got 2"),
])
def test_curve_and_sign_faults_keep_the_field_message(edit, message):
    with pytest.raises(ValueError) as err:
        SuturedDiagram.from_json(t212_edited(edit))
    assert str(err.value) == message
