import contextlib
import gc
import hashlib
import io
import json
import operator
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import argparse_oracle
from conftest import (fixture_json, fixture_path, paired_names, reverse_region, s1xs2_minus_ball,
                      t312_sign_variant)
from h1_oracle import lens_diagram, torus_diagram
from ring_oracle import element, ring_of, ring_to_json
from sutured_kit import cli, diagram, fixtures, fox
from sutured_kit.abelian import FinAbGroup, GroupRingElem


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestCheck:
    def test_annulus(self, capsys):
        code, data = run_json(capsys, "check", fixture_path("annulus"))
        assert code == 0
        assert data == {"valid": True, "balanced": True, "admissible": True}

    def test_invalid_diagram_reported(self, capsys, tmp_path):
        bad = fixture_json("annulus")
        bad["boundary_circles"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, data = run_json(capsys, "check", str(path))
        assert code == 0
        assert data["valid"] is False
        assert data["balanced"] is None
        assert any("Euler" in v for v in data["violations"])

    @pytest.mark.parametrize("region,arcs", [(0, ("a1.0", "b1.0")), (1, ("a1.1", "b1.1"))])
    def test_reversed_region_is_invalid(self, capsys, tmp_path, region, arcs):
        # the glued surface is not oriented: both shared arcs run one way twice
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps(reverse_region(s1xs2_minus_ball(), region)))
        code, data = run_json(capsys, "check", str(path))
        assert code == 0 and data["valid"] is False
        assert data["violations"] == [f"arc {a} is traversed twice in the same direction"
                                      for a in arcs]
        code, data = run_json(capsys, "euler", str(path))
        assert code == 1 and data["error"] == "invalid_diagram"


class TestPipelines:
    def test_generators(self, capsys):
        code, data = run_json(capsys, "generators", fixture_path("t312"))
        assert code == 0
        assert data["count"] == 3

    def test_spinc(self, capsys):
        code, data = run_json(capsys, "spinc", fixture_path("t104"))
        assert code == 0
        assert data["h1"] == {"free_rank": 1, "torsion": []}
        assert sorted(map(len, data["classes"])) == [1, 1]

    def test_euler(self, capsys):
        code, data = run_json(capsys, "euler", fixture_path("t212"))
        assert code == 0
        assert data["polynomial"] == [
            {"exp_free": [0], "exp_torsion": [], "coeff": 1},
            {"exp_free": [1], "exp_torsion": [], "coeff": 1},
        ]

    def test_torsion(self, capsys):
        code, data = run_json(capsys, "torsion", fixture_path("trefoil_pres"))
        assert code == 0
        coeffs = [(t["exp_free"], t["coeff"]) for t in data["torsion"]]
        assert coeffs == [([0], 1), ([1], -1), ([2], 1)]

    def test_torsion_unbalanced_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "generators": ["a", "b"], "relators": [],
            "boundary_genus": 1, "sigma_images": ["a"]}))
        code, data = run_json(capsys, "torsion", str(path))
        assert code == 1
        assert data["error"] == "not_geometrically_balanced"


class TestCrosscheck:
    @pytest.mark.parametrize("dname,pname", paired_names())
    def test_bundled_pairs_match_plainly(self, capsys, dname, pname):
        code, data = run_json(capsys, "crosscheck",
                              fixture_path(dname), fixture_path(pname))
        assert code == 0
        assert data["match"] is True
        assert data["mode"] == "plain"

    def test_mismatched_pair_reports_false(self, capsys):
        code, data = run_json(capsys, "crosscheck", fixture_path("t104"),
                              fixture_path("t212_pres"), "--allow-inversion")
        assert code == 0
        assert data["match"] is False and data["mode"] is None

    def test_homology_mismatch_reported(self, capsys):
        code, data = run_json(capsys, "crosscheck", fixture_path("disk"),
                              fixture_path("t212_pres"))
        assert code == 0
        assert data["h1_diagram"] == {"free_rank": 0, "torsion": []}
        assert data["h1_presentation"] == {"free_rank": 1, "torsion": []}
        assert data["match"] is False and data["mode"] is None
        assert data["detail"] == "homology groups differ"

    def test_three_point_alternating_pair(self, capsys, tmp_path):
        # the in-test alternating-sign diagram matches the trefoil presentation
        path = tmp_path / "alt.json"
        path.write_text(json.dumps(t312_sign_variant()))
        code, data = run_json(capsys, "crosscheck", str(path),
                              fixture_path("trefoil_pres"))
        assert code == 0
        assert data["match"] is True and data["mode"] == "plain"

    def test_inversion_mode_reported(self, capsys, tmp_path):
        # fabricate a presentation whose torsion is 1 + 2h, against a support
        # with euler 1 + 2h^-1: only the inversion automorphism matches them.
        # Realized with formal diagrams is awkward, so check mode plumbing via
        # the same diagram against a reversed-orientation presentation word.
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps(fixture_json("t212")))
        ppath = tmp_path / "p.json"
        ppath.write_text(json.dumps({
            "generators": ["a"], "relators": [],
            "boundary_genus": 1, "sigma_images": ["A A"]}))
        code, data = run_json(capsys, "crosscheck", str(dpath), str(ppath))
        assert code == 0
        # 1 + h^-1 is plainly unit-equivalent to 1 + h, so plain still matches
        assert data["match"] is True and data["mode"] == "plain"

    def test_inverted_mode(self, capsys, tmp_path, monkeypatch):
        # T(4,1;2) with the sign of P0 flipped has Euler polynomial 1 - h + h^2 + h^3,
        # with P3 flipped 1 + h - h^2 + h^3: the inversion of the first, not a unit multiple
        p0, p3 = torus_diagram(4), torus_diagram(4)
        p0["crossing_sign"]["P0"] = p3["crossing_sign"]["P3"] = -1
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps(p0))
        tau = diagram.euler_polynomial(diagram.SuturedDiagram.from_json(p3))
        monkeypatch.setattr(fox, "torsion", lambda p, k: tau)
        argv = ("crosscheck", str(dpath), fixture_path("t212_pres"))
        code, data = run_json(capsys, *argv)
        assert code == 0 and data["match"] is False and data["mode"] is None
        code, data = run_json(capsys, *argv, "--allow-inversion")
        assert code == 0 and data["match"] is True and data["mode"] == "inverted"

    def test_inverted_mode_over_torsion(self, capsys, tmp_path, monkeypatch):
        # L(7,1) minus a ball, H_1 = Z/7: with P0, P1, P3 flipped and with P0, P4, P6
        # flipped (their negatives mod 7) the Euler polynomials are each other's
        # inversion h -> h^-1 and not unit multiples, so doteq_normalize breaks its
        # ties among all seven torsion translates; the bytes are pinned
        paths = {}
        for name, flips in (("d", (0, 1, 3)), ("p", (0, 4, 6))):
            data = lens_diagram(7)
            for i in flips:
                data["crossing_sign"][f"P{i}"] = -1
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(data))
        tau = diagram.euler_polynomial(diagram.SuturedDiagram.from_json(
            json.loads(paths["p"].read_text())))
        monkeypatch.setattr(fox, "torsion", lambda p, k: tau)
        argv = ("crosscheck", str(paths["d"]), fixture_path("t212_pres"))
        for extra, mode, digest in (
                ((), None, "77d9da3810569b1b5cb2f8f6c29f323b20650cec544957c6e888e352021fa7ae"),
                (("--allow-inversion",), "inverted",
                 "413f910a0ae56c772bf29d77ef7ce459a62ab3e4847458ab5084e015ac50528d")):
            code, out = run(capsys, *argv, *extra)
            data = json.loads(out)
            assert code == 0 and data["mode"] == mode and data["match"] is (mode is not None)
            assert data["h1_diagram"] == data["h1_presentation"] == {"free_rank": 0,
                                                                     "torsion": [7]}
            assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPolytopeCommand:
    def test_from_support(self, capsys):
        code, data = run_json(capsys, "polytope", "--support",
                              fixture_path("pretzel222"))
        assert code == 0
        assert data["symmetric"] is False
        assert len(data["vertices"]) == 3

    def test_from_diagram_canonical(self, capsys):
        code, data = run_json(capsys, "polytope", "--diagram",
                              fixture_path("t106"), "--canonical")
        assert code == 0
        assert data["vertices"] == [["0"], ["4"]]

    def test_requires_a_source(self, capsys):
        code, data = run_json(capsys, "polytope")
        assert code == 2
        assert data["error"] == "usage"

    @pytest.mark.parametrize("argv", [("--canonical",),
                                      ("--support", "s.json", "--diagram", "d.json")])
    def test_requires_exactly_one_source(self, capsys, argv):
        # checked by cmd_polytope, before it opens either file
        code, data = run_json(capsys, "polytope", *argv)
        assert code == 2
        assert data["error"] == "usage"

    @pytest.mark.parametrize("option", ["--support", "--diagram"])
    def test_empty_path_is_file_not_found(self, capsys, option):
        code, data = run_json(capsys, "polytope", option, "")
        assert code == 1 and data["error"] == "file_not_found"

    # the hull reads no multiplicities, but the support file's field keeps
    # its checks: each document is the one printed before they were dropped
    # from SupportData
    @pytest.mark.parametrize("mults,detail", [
        ([0, 1, 1], "multiplicities must be positive"),
        ([-2, 1, 1], "multiplicities must be positive"),
        ([1, 1], "multiplicities has 2 entries for 3 points"),
        ([1.5, 1, 1], "multiplicities[0] must be an integer, got 1.5"),
        (True, "multiplicities must be a list, got True"),
    ])
    def test_bad_multiplicities_keep_their_documents(self, capsys, tmp_path, mults, detail):
        path = tmp_path / "support.json"
        path.write_text(json.dumps({"dimension": 2, "points": [[0, 0], [2, 0], [0, 2]],
                                    "multiplicities": mults}))
        code, out = run(capsys, "polytope", "--support", str(path))
        assert code == 1
        assert out == f'{{\n  "detail": "{detail}",\n  "error": "bad_input"\n}}\n'


class TestOracleCommand:
    def test_solid_torus(self, capsys):
        code, data = run_json(capsys, "oracle", "--solid-torus", "1", "0", "4")
        assert code == 0
        assert data == {"ranks": {"0": 1, "1": 1}}

    def test_closed(self, capsys):
        code, data = run_json(capsys, "oracle", "--closed", "2", "2")
        assert code == 0 and data == {"rank": 4}

    def test_connected_sum(self, capsys):
        code, data = run_json(capsys, "oracle", "--connected-sum", "3", "5")
        assert code == 0 and data == {"rank": 30}
        code, data = run_json(capsys, "oracle", "--connected-sum", "3", "5",
                              "--with-closed")
        assert code == 0 and data == {"rank": 15}

    def test_domain_error_exit_code(self, capsys):
        code, data = run_json(capsys, "oracle", "--solid-torus", "2", "4", "2")
        assert code == 1
        assert data["error"] == "non_coprime"

    def test_negative_value_reaches_the_calculator(self, capsys):
        # "-1" reads as a value, not an option, so the refusal is the domain's
        code, data = run_json(capsys, "oracle", "--closed", "-1", "2")
        assert code == 1 and data["error"] == "non_positive_rank"

    def test_missing_choice(self, capsys):
        code, data = run_json(capsys, "oracle")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--solid-torus", "1", "0", "4", "--closed", "2", "2"),
        ("--closed", "2", "2", "--connected-sum", "3", "5"),
        ("--connected-sum", "3", "5", "--solid-torus", "1", "0", "4"),
        ("--closed", "2", "2", "--with-closed"),
        ("--solid-torus", "1", "0", "4", "--with-closed"),
        ("--with-closed",),
    ])
    def test_exactly_one_calculator(self, capsys, argv):
        code, data = run_json(capsys, "oracle", *argv)
        assert code == 2 and data["error"] == "usage"

    @pytest.mark.parametrize("argv", [
        ("--closed", "2", "2", "--closed", "3", "3"),
        ("--closed", "2", "2", "--closed", "2", "2"),
        ("--solid-torus", "1", "0", "4", "--solid-torus", "1", "0", "2"),
        ("--connected-sum", "3", "5", "--connected-sum", "2", "3"),
    ])
    def test_repeated_calculator(self, capsys, argv):
        code, data = run_json(capsys, "oracle", *argv)
        assert code == 2 and data == {"error": "usage",
                                      "detail": f"{argv[0]} given more than once"}


class TestMaslovCommand:
    def test_lagrangian_loop(self, capsys, tmp_path):
        steps = 64
        samples = [[[{"re": float(np.cos(np.pi * k / steps)),
                      "im": float(np.sin(np.pi * k / steps))}]]
                   for k in range(steps + 1)]
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"kind": "lagrangian_loop", "samples": samples}))
        code, data = run_json(capsys, "maslov", str(path))
        assert code == 0 and data["index"] == 1

    def test_spectral_flow(self, capsys, tmp_path):
        samples = [[[float(s)]] for s in np.linspace(-1, 1, 33)]
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"kind": "spectral_flow", "samples": samples}))
        code, data = run_json(capsys, "maslov", str(path))
        assert code == 0 and data["flow"] == 1

    def test_kind_flag_overrides(self, capsys, tmp_path):
        steps = 64
        samples = [[[{"re": float(np.cos(2 * np.pi * k / steps)),
                      "im": float(np.sin(2 * np.pi * k / steps))}]]
                   for k in range(steps + 1)]
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"samples": samples}))
        code, data = run_json(capsys, "maslov", str(path),
                              "--kind", "symplectic_loop")
        assert code == 0 and data["index"] == 1

    def test_spectral_flow_refuses_imaginary_parts(self, capsys, tmp_path):
        # eigenvalues 6 and -4 at the start, 1 and 1 at the end: the Hermitian
        # flow is 1, and the real parts alone would give 0
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"kind": "spectral_flow", "samples": [
            [[1.0, {"im": 5.0}], [{"im": -5.0}, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]}))
        code, data = run_json(capsys, "maslov", str(path))
        assert code == 1
        assert data == {"error": "not_symmetric",
                        "detail": "sample 0 has a nonzero imaginary part; "
                                  "spectral flow needs real symmetric matrices"}

    def test_unknown_kind_in_the_file_is_bad_input(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"kind": "bogus", "samples": [[[1.0]], [[1.0]]]}))
        code, data = run_json(capsys, "maslov", str(path))
        assert code == 1
        assert data == {"error": "bad_input",
                        "detail": "kind must be one of lagrangian_loop, symplectic_loop, "
                                  "spectral_flow, got 'bogus'"}

    def test_unknown_kind_flag_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"kind": "spectral_flow", "samples": [[[1.0]], [[1.0]]]}))
        code, data = run_json(capsys, "maslov", str(path), "--kind", "bogus")
        assert code == 2
        assert data == {"error": "usage",
                        "detail": "--kind: invalid choice 'bogus' (choose from "
                                  "lagrangian_loop, symplectic_loop, spectral_flow)"}

    def test_domain_error(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"kind": "lagrangian_loop",
                                    "samples": [[[2.0]], [[2.0]]]}))
        code, data = run_json(capsys, "maslov", str(path))
        assert code == 1 and data["error"] == "not_unitary"


class TestFixturesCommand:
    def test_listing(self, capsys):
        code, data = run_json(capsys, "fixtures")
        assert code == 0
        names = {f["name"] for f in data["fixtures"]}
        assert {"disk", "annulus", "t104", "t212", "t312", "t106",
                "trefoil_pres", "pretzel222"} <= names
        by_name = {f["name"]: f for f in data["fixtures"]}
        assert by_name["t212"]["pair"] == "t212_pres"
        assert by_name["pretzel222"]["kind"] == "support"

    def test_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))
        assert fixtures.fixtures_dir() == tmp_path
        code, data = run_json(capsys, "fixtures")
        assert code == 0 and data["directory"] == str(tmp_path)


class TestContract:
    def test_unknown_command_is_usage_error(self, capsys):
        code, data = run_json(capsys, "nonsense")
        assert code == 2 and data["error"] == "usage"

    def test_missing_file(self, capsys):
        code, data = run_json(capsys, "check", "/nonexistent/diagram.json")
        assert code == 1 and data["error"] == "file_not_found"

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, data = run_json(capsys, "check", str(path))
        assert code == 1 and data["error"] == "bad_input"

    def test_output_deterministic(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out = run(capsys, "spinc", fixture_path("t106"))
            outputs.add(out)
        assert len(outputs) == 1

    def test_every_subcommand_emits_json(self, capsys):
        cases = [
            ("check", fixture_path("disk")),
            ("generators", fixture_path("disk")),
            ("spinc", fixture_path("disk")),
            ("euler", fixture_path("disk")),
            ("torsion", fixture_path("disk_pres")),
            ("crosscheck", fixture_path("disk"), fixture_path("disk_pres")),
            ("polytope", "--support", fixture_path("pretzel222")),
            ("oracle", "--solid-torus", "1", "0", "2"),
            ("fixtures",),
            ("check", "/missing.json"),
            ("nonsense",),
        ]
        for argv in cases:
            _, out = run(capsys, *argv)
            json.loads(out)  # must parse

    @pytest.mark.parametrize("argv", [
        ("check", "t212"), ("generators", "t312"), ("spinc", "t106"), ("euler", "t212"),
        ("torsion", "t212_pres"), ("crosscheck", "t212", "t212_pres"),
        ("polytope", "--support", "pretzel222"), ("oracle", "--closed", "2", "2"),
        ("maslov", "loop.json"), ("fixtures",)])
    def test_subcommand_returns_its_payload(self, capsys, tmp_path, argv):
        # the function only computes; main writes what it returns
        loop = tmp_path / "loop.json"
        loop.write_text(json.dumps({"kind": "symplectic_loop", "samples": [[[1.0]], [[1.0]]]}))
        names = {f.name for f in fixtures.FIXTURES}
        argv = [fixture_path(a) if a in names else str(loop) if a == loop.name else a
                for a in argv]
        args = cli.build_parser().parse_args(argv)
        payload = args.func(args)
        assert capsys.readouterr().out == ""
        code, out = run(capsys, *argv)
        assert code == 0 and out == cli._encode(payload, "") + "\n"

    def test_unencodable_result_is_bad_input(self, capsys):
        set_limit = getattr(sys, "set_int_max_str_digits", None)
        if set_limit is None:
            pytest.skip("this interpreter has no int-to-str digit limit")
        old = sys.get_int_max_str_digits()
        set_limit(640)
        try:    # 2^3000 has 904 digits
            code, out = run(capsys, "oracle", "--closed", "1", "3000")
        finally:
            set_limit(old)
        assert code == 1
        data = json.loads(out)      # one document, nothing written before it
        assert data["error"] == "bad_input" and "limit" in data["detail"]

    def test_help_available(self, capsys):
        # --help prints the CLI's usage text, not JSON, and main returns 0
        for argv in [[], ["check"], ["generators"], ["spinc"], ["euler"], ["torsion"],
                     ["crosscheck"], ["polytope"], ["oracle"], ["maslov"], ["fixtures"]]:
            assert cli.main(argv + ["--help"]) == 0
            assert capsys.readouterr().out.startswith("usage: sutured-kit")

    def test_help_lists_every_option(self, capsys):
        assert cli.main(["-h"]) == 0
        top = capsys.readouterr().out
        for name, (_, text, positionals, options) in cli._COMMANDS.items():
            assert f"  {name}" in top and text in top
            assert cli.main([name, "-h"]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"usage: sutured-kit {name} [-h]")
            assert out.splitlines()[0].endswith(" ".join(("",) + positionals).rstrip())
            assert all(f"[{flag}" in out and note in out for flag, _, _, note in options)

    @pytest.mark.parametrize("argv,detail", [
        (("polytope", "--canon", "--support", "s.json"), "unrecognized arguments: --canon"),
        (("polytope", "--support", "s.json", "--canonical", "--canonical"),
         "--canonical given more than once"),
        (("polytope", "--support", "a.json", "--support", "b.json"),
         "--support given more than once"),
        (("maslov", "in.json", "--kind", "spectral_flow", "--kind=spectral_flow"),
         "--kind given more than once"),
        (("crosscheck", "d", "p", "--allow-inversion", "--allow-inversion"),
         "--allow-inversion given more than once"),
    ])
    def test_no_abbreviation_and_no_repeat(self, capsys, argv, detail):
        # argparse read --canon as --canonical and kept the last of a repeated option
        assert run_json(capsys, *argv) == (2, {"error": "usage", "detail": detail})

    def test_lone_double_dash_is_a_value(self, capsys):
        # argparse stored [] for these, and main then raised TypeError
        for argv in (["polytope", "--support=--"], ["crosscheck", "d.json", "--", "--"]):
            args = cli.build_parser().parse_args(argv)
            assert "--" in vars(args).values()
            code, data = run_json(capsys, *argv)
            assert code == 1 and data["error"] == "file_not_found"


@st.composite
def ring_elements(draw):
    """Zero, or terms over Z^r + T with r = 0..3, coefficients of either
    sign and beyond 2^64."""
    g = FinAbGroup(draw(st.integers(0, 3)), draw(st.sampled_from(((), (2,), (3, 6)))))
    big = st.integers(2 ** 64, 2 ** 70)
    coeff = st.integers(-3, 3) | big | big.map(operator.neg)
    return ring_of(
        (element(g, [draw(st.integers(-20, 20)) for _ in range(g.free_rank)],
                 [draw(st.integers(0, d - 1)) for d in g.torsion]), draw(coeff))
        for _ in range(draw(st.integers(0, 4))))


# what the subcommands return: no floats and no dict keys but str
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | ring_elements(),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=12)


def plain(value):
    """value with each ``GroupRingElem`` replaced by its JSON term list."""
    if isinstance(value, GroupRingElem):
        return ring_to_json(value)
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
def test_emit_writes_the_bytes_of_indented_json_dumps(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(value)
    assert out.getvalue() == json.dumps(plain(value), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    1.5, [0, 2.0], {"a": float("nan")}, {1: "a"}, {"a": 1, 2: "b"}, {None: 0}, {"a": {(1,): 2}},
    {1, 2}, b"bytes", FinAbGroup(1)])
def test_emit_refuses_what_no_subcommand_returns(value):
    # floats and dicts keyed by anything but str are refused, as is any other type
    with pytest.raises(TypeError):
        cli._encode(value, "")


class TestInputShape:
    @pytest.mark.parametrize("argv,payload,field", [
        (("check",), {"genus": None, "boundary_circles": 1}, "genus"),
        (("check",), {"genus": 0, "boundary_circles": "1"}, "boundary_circles"),
        (("euler",), [1, 2], "object"),
        (("torsion",), [1, 2], "object"),
        (("check",), {"genus": 0, "boundary_circles": 1, "alpha": 5}, "alpha"),
        (("check",), {"genus": 0, "boundary_circles": 1, "regions": [1]}, "regions[0]"),
        (("torsion",), {"generators": ["a"], "relators": [], "boundary_genus": 1,
                        "sigma_images": [5]}, "sigma_images[0]"),
        (("polytope", "--support"), {"dimension": 2, "points": [[0, 0], [1.5, 0]]},
         "points[1][0]"),
        (("polytope", "--support"), {"dimension": 2, "points": [[0, 0], [True, 0]]},
         "points[1][0]"),
        (("polytope", "--support"), {"dimension": 1, "points": [[0], [2]],
                                     "multiplicities": [1]}, "multiplicities"),
        (("polytope", "--support"), {"dimension": 1, "points": [[0], [2]],
                                     "multiplicities": [1, 1, 1]}, "multiplicities"),
        (("polytope", "--support"), {"dimension": 1, "points": 5}, "points"),
        (("polytope", "--support"), [1, 2], "object"),
        (("maslov",), {"kind": "lagrangian_loop", "samples": 5}, "samples"),
        (("maslov",), [1], "object"),
        (("maslov",), {"kind": 5, "samples": [[[1.0]], [[1.0]]]}, "kind"),
        (("maslov",), {"samples": [[[1.0]], [[1.0]]]}, "kind"),
        (("maslov",), {"kind": "spectral_flow", "samples": [[[1.0]], 5]}, "samples[1]"),
        (("maslov",), {"kind": "spectral_flow", "samples": [[[1.0]], [5]]}, "samples[1][0]"),
        (("maslov",), {"kind": "spectral_flow", "samples": [[[1.0]], ["12"]]},
         "samples[1][0]"),
        (("maslov",), {"kind": "spectral_flow", "samples": [[[1.0]], [[[1.0]]]]},
         "samples[1]"),
        (("maslov",), {"kind": "spectral_flow", "samples": [[[1.0, 0.0], [0.0]]]},
         "samples[0]"),
        (("maslov",), {"kind": "lagrangian_loop", "samples": [[[{"re": "1"}]], [[1.0]]]},
         "samples[0]"),
        (("maslov",), {"kind": "spectral_flow",
                       "samples": [[[1.0, 0.0], [0.0, 1.0]], [[1.0]]]}, "samples"),
        (("maslov",), {"kind": "spectral_flow",
                       "samples": [[[1.0]], [[float("nan")]], [[-1.0]]]}, "samples[1]"),
        (("maslov",), {"kind": "lagrangian_loop",
                       "samples": [[[{"re": 1.0, "im": float("inf")}]], [[1.0]]]},
         "samples[0]"),
        (("maslov",), {"kind": "spectral_flow", "samples": [[["-1"]], [[True]]]}, "samples[0]"),
        (("maslov",), {"kind": "spectral_flow", "samples": [[[1.0]], [[True]]]}, "samples[1]"),
        (("maslov",), {"kind": "lagrangian_loop", "samples": [[[True]], [[1.0]]]}, "samples[0]"),
        (("maslov",), {"kind": "lagrangian_loop", "samples": [[["1"]], [[1.0]]]}, "samples[0]"),
        (("maslov",), {"kind": "lagrangian_loop", "samples": [[[{"re": True}]], [[1.0]]]},
         "samples[0]"),
        (("maslov",), {"kind": "lagrangian_loop", "samples": [[[{"im": "0"}]], [[1.0]]]},
         "samples[0]"),
        (("maslov",), {"kind": "lagrangian_loop",
                       "samples": [[[1.0]], [[{"re": 1.0, "im": False}]]]}, "samples[1]"),
        (("maslov",), {"kind": "spectral_flow", "samples": [[[1.0]], [[10 ** 400]]]},
         "samples[1]"),
        *[(("check",), {"genus": 0, "boundary_circles": 1,
                        "regions": [{"cycles": [["a1.0", ref]]}]}, "regions[0].cycles[0][1]")
          for ref in ("a.0", "a1.", "a1.0.5", "c1.0", "-")],
        *[(("torsion",), {"generators": names, "relators": ["a"], "boundary_genus": 1,
                          "sigma_images": ["a"]}, f"generators[{i}]")
          for names, i in ((["a", "a"], 1), (["a", "A"], 1), (["", "a"], 0),
                           (["a", "b c"], 1), (["a", "b\t"], 1), (["ab", "c", "AB"], 2),
                           (["Ab"], 0), (["A"], 0), (["a", "1"], 1))],
        (("maslov",), {"kind": "lagrangian_loop", "samples": []}, "empty sample list"),
        (("maslov", "--samples", "3"), {"kind": "lagrangian_loop", "samples": []},
         "empty sample list"),
        # spellings int() reads as a1.0 or a10.0: one spelling per arc, in ASCII decimal
        *[(("check",), {"genus": 0, "boundary_circles": 1,
                        "regions": [{"cycles": [["a1.0", ref]]}]}, "regions[0].cycles[0][1]")
          for ref in ("-a 1.0", "-a+1.0", "-a1.0 ", "-a1.0\n", "-a\u06611.0", "-a1.\u0660",
                      "-a1_0.0", "-a1.0_0", "-a01.0", "-a1.00", "-a1" + "0" * 5000 + ".0")],
    ])
    def test_bad_shape_is_bad_input(self, capsys, tmp_path, argv, payload, field):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        code, data = run_json(capsys, *argv, str(path))
        assert code == 1
        assert data["error"] == "bad_input"
        assert field in data["detail"]

    @pytest.mark.parametrize("entry", [int("7" * 400), {"re": 0.5, "im": -int("7" * 400)}])
    def test_integer_beyond_a_float_is_named(self, capsys, tmp_path, entry):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"kind": "spectral_flow",
                                    "samples": [[[1.0, 0.0], [0.0, 1.0]],
                                                [[1.0, 0.0], [0.0, entry]]]}))
        code, data = run_json(capsys, "maslov", str(path))
        assert code == 1
        assert data == {"error": "bad_input", "detail": "samples[1][1][1] does not fit a float"}

    COMMANDS = {"diagram": [("check",), ("generators",), ("spinc",), ("euler",),
                            ("polytope", "--diagram")],
                "presentation": [("torsion",)],
                "support": [("polytope", "--support")]}

    @pytest.mark.parametrize("info", fixtures.FIXTURES, ids=lambda f: f.name)
    def test_dropped_key_gives_json(self, capsys, tmp_path, info):
        data = fixture_json(info.name)
        path = tmp_path / "in.json"
        for key in data:
            path.write_text(json.dumps({k: v for k, v in data.items() if k != key}))
            for argv in self.COMMANDS[info.kind]:
                code, out = run_json(capsys, *argv, str(path))
                assert code in (0, 1), (key, argv)
                assert code == 0 or out["error"] != "bad_input" or key in out["detail"]

    def test_invalid_diagram_detail_is_deterministic(self, tmp_path):
        data = fixture_json("t106")
        del data["crossing_sign"]
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        src = str(Path(cli.__file__).parents[1])
        outs = {subprocess.run([sys.executable, "-m", "sutured_kit.cli", "euler", str(path)],
                               capture_output=True, text=True, check=False,
                               env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
                for seed in ("1", "2", "3")}
        assert len(outs) == 1
        assert json.loads(outs.pop())["error"] == "invalid_diagram"


class TestUnreadableInput:
    def test_directory(self, capsys, tmp_path):
        code, data = run_json(capsys, "euler", str(tmp_path))
        assert code == 1 and data["error"] == "file_unreadable"
        assert str(tmp_path) in data["detail"]

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                        reason="root reads a file without read permission")
    def test_no_read_permission(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(fixture_json("t212")))
        path.chmod(0)
        try:
            code, data = run_json(capsys, "euler", str(path))
        finally:
            path.chmod(0o600)
        assert code == 1 and data["error"] == "file_unreadable"

    @pytest.mark.parametrize("argv", [("euler",), ("torsion",), ("polytope", "--support"),
                                      ("maslov",)])
    def test_deeply_nested_json(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, data = run_json(capsys, *argv, str(path))
        assert code == 1 and data["error"] == "bad_input"
        assert "nested too deeply" in data["detail"]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, capsys, tmp_path, enabled):
        # the JSON parse runs with the cyclic collector off, then puts back its state
        deep, bad = tmp_path / "deep.json", tmp_path / "bad.json"
        deep.write_text("[" * 200_000)
        bad.write_text(json.dumps({"genus": 0, "boundary_circles": 1, "alpha": 5}))
        cases = [(fixture_path("t212"), 0, None), (str(bad), 1, "bad_input"),
                 (str(deep), 1, "bad_input"), (str(tmp_path), 1, "file_unreadable")]
        was = gc.isenabled()
        try:
            for path, want_code, error in cases:
                (gc.enable if enabled else gc.disable)()
                code, data = run_json(capsys, "euler", path)
                assert gc.isenabled() is enabled
                assert code == want_code and data.get("error") == error
        finally:
            (gc.enable if was else gc.disable)()


class TestOracleBounds:
    @pytest.mark.parametrize("argv,named", [
        (("--closed", "1", "20000"), "n = 20000"),
        (("--solid-torus", "1", "0", "30000"), "n = 30000"),
        (("--solid-torus", "1", "0", "100000000"), "n = 100000000"),
    ])
    def test_refused_before_computing(self, capsys, argv, named):
        code, data = run_json(capsys, "oracle", *argv)
        assert code == 1 and data["error"] == "result_too_large"
        assert named in data["detail"]


def circles_diagram(counts, declared=1):
    """No curves, and one region holding each count of boundary circles."""
    return {"genus": 0, "boundary_circles": declared, "alpha": [], "beta": [],
            "crossing_sign": {},
            "regions": [{"cycles": [], "boundary_circles": c, "genus": 0} for c in counts]}


class TestBoundaryCircleBound:
    """The regions' nonnegative circle counts are summed before the cell
    structure, a vertex and a loop edge per circle, is built."""

    @pytest.mark.parametrize("counts,region", [
        ((2 ** 70,), 0), ((10 ** 6 + 1,), 0), ((-2 ** 70, 2, 2 ** 70), 2)],
        ids=["2^70", "10^6+1", "negative-first"])
    @pytest.mark.parametrize("argv", [
        ("check",), ("generators",), ("spinc",), ("euler",), ("polytope", "--diagram")],
        ids=" ".join)
    def test_refused_quickly(self, capsys, tmp_path, argv, counts, region):
        path = tmp_path / "circles.json"
        path.write_text(json.dumps(circles_diagram(counts)))
        start = time.perf_counter()
        code, data = run_json(capsys, *argv, str(path))
        assert time.perf_counter() - start < 0.1
        assert code == 1 and data["error"] == "too_many_boundary_circles"
        assert data["detail"].startswith(f"regions[{region}].boundary_circles ")

    def test_bound_is_inclusive(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(diagram, "MAX_BOUNDARY_CIRCLES", 3)
        path = tmp_path / "circles.json"
        path.write_text(json.dumps(circles_diagram((-5, 3), declared=3)))
        code, data = run_json(capsys, "check", str(path))
        assert code == 0 and data["valid"] is False    # the negative count
        path.write_text(json.dumps(circles_diagram((-5, 3, 1), declared=4)))
        code, data = run_json(capsys, "check", str(path))
        assert code == 1 and data["detail"] == (
            "regions[2].boundary_circles brings the circles of the regions to 4 > 3")

    def test_huge_declared_count_is_a_violation(self, capsys, tmp_path):
        path = tmp_path / "circles.json"
        path.write_text(json.dumps(circles_diagram((1,), declared=2 ** 70)))
        code, data = run_json(capsys, "check", str(path))
        assert code == 0 and data["valid"] is False
        assert f"regions contain 1 boundary circles, diagram declares {2 ** 70}" \
            in data["violations"]


class TestOneParser:
    """The parser is built once per process and holds no state between calls."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_flag_carries_over(self, capsys, tmp_path):
        support = tmp_path / "support.json"
        support.write_text(json.dumps({"dimension": 2, "points": [[1, 1], [3, 1], [1, 3]]}))
        loop = tmp_path / "loop.json"
        steps = 64
        loop.write_text(json.dumps({"samples": [
            [[{"re": float(np.cos(2 * np.pi * k / steps)),
               "im": float(np.sin(2 * np.pi * k / steps))}]] for k in range(steps + 1)]}))
        d, p = fixture_path("t212"), fixture_path("t212_pres")
        calls = [("polytope", "--support", str(support), "--canonical"),
                 ("polytope", "--support", str(support)),
                 ("crosscheck", "--allow-inversion", d, p),
                 ("crosscheck", d, p),
                 ("maslov", "--kind", "symplectic_loop", str(loop)),
                 ("maslov", str(loop))]
        usage_errors = [("polytope", "--support", str(support), "--diagram", d),
                        ("crosscheck", "--allow-inversion", d),
                        ("maslov", "--kind", "nope", str(loop)),
                        ("polytope", "--canonical", "--support", str(support), "--canonical")]
        parsed = [vars(cli.build_parser().parse_args(argv)) for argv in calls]
        fresh = [run(capsys, *argv) for argv in calls]
        got = []
        for i, argv in enumerate(calls):
            code, data = run_json(capsys, *usage_errors[i % len(usage_errors)])
            assert code == 2 and data["error"] == "usage"
            assert vars(cli.build_parser().parse_args(argv)) == parsed[i]
            got.append(run(capsys, *argv))
        assert got == fresh
        # each flag shows in the output, so a flag left over would show too
        assert fresh[0] != fresh[1]
        assert fresh[4][0] == 0 and json.loads(fresh[4][1])["index"] == 1
        assert fresh[5][0] == 1 and "kind" in json.loads(fresh[5][1])["detail"]


_FLAGS = sorted({flag for entry in cli._COMMANDS.values() for flag, *_ in entry[3]})
_INTS = ["1", "2", "3", "0", "-1", "-3", " 4", "1_0"]
_FILES = ["t.json", "/missing.json", "", "-", "a b", "-a b", "-5", "-.5", "-x"]
_JUNK = ["--", "-h", "--help", "--help=1", "-h=", "-x", "--nope", "--nope=1", "--canon", "--c",
         "-hx", "--with", "x", "1.5", "nope", "spectral_flow"]


@st.composite
def argvs(draw):
    """Mostly well-formed argv: a subcommand, its positionals and some of its
    options with values of their type, shuffled, plus junk, a stray option of
    another subcommand, or a token dropped."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    _, _, positionals, options = cli._COMMANDS[name]
    parts = [[draw(st.sampled_from(_FILES))] for _ in positionals]
    for flag, metavars, kind, _ in draw(st.lists(st.sampled_from(options), unique=True)
                                        if options else st.just([])):
        pool = (_INTS if kind is int else [*kind, "nope"] if type(kind) is tuple else _FILES)
        values = [draw(st.sampled_from(pool)) for _ in metavars]
        if len(values) == 1 and draw(st.booleans()):
            parts.append([f"{flag}={values[0]}"])
        else:
            parts.append([flag, *values])
    parts += draw(st.lists(st.sampled_from(_JUNK + _FLAGS + _FILES + _INTS).map(lambda t: [t])
                           | st.sampled_from(_FLAGS).map(lambda f: [f + "=" + f[2:]]),
                           max_size=1))
    argv = [token for part in draw(st.permutations(parts)) for token in part]
    if argv and draw(st.integers(0, 4)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    prefix = [draw(st.sampled_from(_JUNK))] if draw(st.integers(0, 5)) == 0 else []
    return prefix + [name] + argv


def _argparse_outcome(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = argparse_oracle.build_parser().parse_args(argv)
    except cli.UsageError as exc:
        return "usage", str(exc)
    except argparse_oracle._Exit:
        return "help", None
    if not getattr(args, "func", None):
        return "usage", "missing subcommand"      # refused by main
    # argparse strips a lone "--" from a value and stores [], which main then
    # passed to open() and died of TypeError; the table parser keeps "--"
    return "ok", {k: "--" if v == [] else v for k, v in vars(args).items()}


def _table_outcome(argv):
    try:
        args = cli.build_parser().parse_args(argv)
    except cli.UsageError as exc:
        return "usage", str(exc)
    except cli._Help:
        return "help", None
    return "ok", vars(args)


def _departs(argv):
    """Whether argv has what argparse reads and the table parser refuses on
    purpose: an abbreviated option (or -h run together with letters), or one
    option given twice."""
    flags = [token.partition("=")[0] for token in argv]
    abbreviated = any(flag not in _FLAGS and flag != "--help" and len(flag) > 2
                      and any(f.startswith(flag) for f in _FLAGS + ["--help"])
                      for flag in flags if flag.startswith("--"))
    named = [flag for flag in flags if flag in _FLAGS]
    return (abbreviated or len(named) != len(set(named))
            or any(t.startswith("-h") and len(t) > 2 and t[2] != "=" for t in argv))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argvs())
@example(["check", "-a b"])
@example(["polytope", "--support", "--canonical"])
@example(["oracle", "--closed", "-1", "2"])
@example(["crosscheck", "d.json", "--", "-h"])
@example(["maslov", "-.5", "--samples", "-5", "--kind=spectral_flow"])
def test_table_parser_reads_argv_as_argparse_did(argv):
    old, new = _argparse_outcome(argv), _table_outcome(argv)
    if old[0] == "usage" and new[0] == "ok":
        # a rule across options that argparse checked and the subcommand checks now
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(cli.UsageError, match="choose one of"):
            args.func(args)
    elif _departs(argv):
        assert new[0] != "ok" or new == old
    elif new[0] == "help" and old[0] == "usage" and "not allowed with" in old[1]:
        pass    # the table parser reaches --help, which argparse's conflict check preceded
    else:
        assert new[0] == old[0] and (new[0] != "ok" or new[1] == old[1])


def test_numpy_is_loaded_only_by_maslov(tmp_path):
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"kind": "symplectic_loop",
                                "samples": [[[1.0]], [[1.0]]]}))
    script = (
        "import sys, sutured_kit.cli\n"
        "assert 'numpy' not in sys.modules and 'sutured_kit.maslov' not in sys.modules\n"
        "import sutured_kit\n"
        "print(sutured_kit.maslov.UnitaryLoop.__name__)\n"
        f"sys.exit(sutured_kit.cli.main(['maslov', {str(loop)!r}]))\n")
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=False, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    name, doc = proc.stdout.split("\n", 1)
    assert name == "UnitaryLoop"
    assert json.loads(doc) == {"kind": "symplectic_loop", "index": 0}


def test_cli_start_up_loads_no_dataclasses_or_fractions():
    # the records are plain classes or named tuples, no module imports Fraction,
    # argv is read from a table, and fixtures_dir imports pathlib when it runs;
    # under -S no .pth file can load one of them before the program does
    script = (
        "import sys, sutured_kit.cli\n"
        "sutured_kit.cli.build_parser()\n"
        "code = sutured_kit.cli.main(['oracle', '--closed', '2', '2'])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale', 'typing', 'pathlib',\n"
        "                    'dataclasses', 'fractions', 'inspect'} & set(sys.modules)))\n")
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          check=False, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{\n  "rank": 4\n}\n0 []\n'
