"""Renaming a point changes nothing the diagram computes.

The cell structure numbers its vertices; only a point has a name, so a
point may be called anything, the spellings ``~o<r>.<k>`` (a boundary
circle of region r) and ``~a<i>`` / ``~b<j>`` (an empty curve) included.
Each case renames one point to such a spelling: ``check`` and ``euler``
print the same bytes as before, ``spinc`` finds the same class sizes,
``crosscheck`` still matches, and the H_1 oracles of ``h1_oracle`` (the
per-coordinate tree-cotree path and the Smith-form path on its own cell
structure) agree with the library on the renamed diagram.
"""

import json

import pytest

from conftest import diagram_names, fixture_json, fixture_path, rename_points
from h1_oracle import chain_diagram, snf_spinc_classes, torus_diagram
from sutured_kit import cli
from sutured_kit.diagram import SuturedDiagram, spinc_partition
from test_h1_whole_vector import test_h1_path_matches_per_coordinate_oracle as matches_loop_oracle


def circle_name(data):
    """``~o<r>.0`` for the first region r that holds a boundary circle."""
    return next(f"~o{r}.0" for r, region in enumerate(data["regions"])
                if region["boundary_circles"])


def with_empty_pair(data):
    """The diagram with a parallel empty alpha and beta circle around the boundary
    circle of region r: r keeps its cycles and gains the alpha circle, an annulus
    lies between the two curves, and a disk beyond the beta circle holds r's circle."""
    out = json.loads(json.dumps(data))
    r = next(r for r, region in enumerate(out["regions"]) if region["boundary_circles"] == 1)
    a, b = len(out["alpha"]) + 1, len(out["beta"]) + 1
    out["alpha"].append([])
    out["beta"].append([])
    out["regions"][r]["cycles"].append([f"a{a}.0"])
    out["regions"][r]["boundary_circles"] = 0
    out["regions"] += [{"cycles": [[f"-a{a}.0"], [f"b{b}.0"]], "boundary_circles": 0},
                       {"cycles": [[f"-b{b}.0"]], "boundary_circles": 1}]
    return out


def cases():
    out = [(name, fixture_json(name)) for name in diagram_names()]
    out = [(label, data) for label, data in out if data["alpha"] and data["alpha"][0]]
    out += [("chain-3", chain_diagram(3)), ("torus-5", torus_diagram(5))]
    out = [(label, data, circle_name(data)) for label, data in out]
    empty = with_empty_pair(fixture_json("t212"))
    out += [("t212-empty-pair", empty, name) for name in ("~a2", "~b2", circle_name(empty))]
    return [(f"{label}:{new}", data, rename_points(data, {data["alpha"][0][0]: new}))
            for label, data, new in out]


CASES = cases()
IDS = [label for label, _, _ in CASES]


def run(capsys, tmp_path, command, data):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data))
    assert cli.main([command, str(path)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("label,data,renamed", CASES, ids=IDS)
def test_check_and_euler_print_the_same_bytes(label, data, renamed, capsys, tmp_path):
    for command in ("check", "euler"):
        assert run(capsys, tmp_path, command, renamed) == run(capsys, tmp_path, command, data)


@pytest.mark.parametrize("label,data,renamed", CASES, ids=IDS)
def test_spinc_finds_the_same_class_sizes(label, data, renamed, capsys, tmp_path):
    before, after = (json.loads(run(capsys, tmp_path, "spinc", x)) for x in (data, renamed))
    assert after["h1"] == before["h1"]
    assert sorted(map(len, after["classes"])) == sorted(map(len, before["classes"]))


@pytest.mark.parametrize("label,data,renamed", CASES, ids=IDS)
def test_oracles_agree_on_the_renamed_diagram(label, data, renamed):
    matches_loop_oracle(label, renamed)
    d = SuturedDiagram.from_json(renamed)
    part = spinc_partition(d)
    assert (part.group, part.classes) == snf_spinc_classes(d)
    assert part.group == spinc_partition(SuturedDiagram.from_json(data)).group


def test_crosscheck_still_matches(capsys, tmp_path):
    data = rename_points(fixture_json("t212"), {"P0": "~o0.0"})
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data))
    pres = fixture_path("t212_pres")
    assert cli.main(["crosscheck", str(path), str(pres)]) == 0
    assert json.loads(capsys.readouterr().out)["match"] is True
