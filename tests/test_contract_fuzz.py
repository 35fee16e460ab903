"""ROADMAP direction 2's contract fuzzer: the CLI contract on mutated input.

Each example takes one base document (a bundled fixture, T(5,1;2), chain
T(1,0;8) with k = 3, or the grid of size 4 with X at (i, i + 1)), applies
1-3 mutations from ``tests/mutations.py``, writes it as JSON (``NaN``
included) and runs one subcommand that reads that kind of document
through ``cli.main``.  Every run must exit 0, 1 or 2, write exactly one
JSON document to stdout, write an error document ``{"error", "detail"}``
when it exits non-zero, and finish within ``BUDGET`` seconds.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_json
from grids import grid_diagram, torus_grid
from h1_oracle import chain_diagram, torus_diagram
from mutations import mutated
from sutured_kit import cli, fixtures

BUDGET = 1.0        # seconds per run; the unmutated bases each take a few ms

COMMANDS = {
    "diagram": [["check"], ["generators"], ["spinc"], ["euler"], ["polytope", "--diagram"],
                ["polytope", "--canonical", "--diagram"]],
    "presentation": [["torsion"]],
    "support": [["polytope", "--support"], ["polytope", "--canonical", "--support"]],
}

BASES = [(f.name, f.kind, fixture_json(f.name)) for f in fixtures.FIXTURES] + [
    ("torus-5", "diagram", torus_diagram(5)), ("chain-3", "diagram", chain_diagram(3)),
    ("grid-4", "diagram", grid_diagram(*torus_grid(4, 1)))]


@st.composite
def runs(draw):
    _, kind, base = draw(st.sampled_from(BASES))
    return draw(st.sampled_from(COMMANDS[kind])), draw(mutated(base))


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def run_cli(argv):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(runs())
def test_mutated_input_keeps_the_contract(input_path, run):
    command, doc = run
    input_path.write_text(json.dumps(doc))
    code, out, wall = run_cli(command + [str(input_path)])
    assert code in (0, 1, 2)
    assert out.endswith("\n")
    result = json.loads(out)        # one document: trailing text fails to parse
    if code:
        assert sorted(result) == ["detail", "error"]
        assert isinstance(result["error"], str) and isinstance(result["detail"], str)
    assert wall < BUDGET, (command, wall)


@pytest.mark.parametrize("name,kind,base", BASES, ids=[name for name, _, _ in BASES])
def test_unmutated_bases_exit_0(input_path, name, kind, base):
    input_path.write_text(json.dumps(base))
    for command in COMMANDS[kind]:
        code, out, _ = run_cli(command + [str(input_path)])
        assert code == 0, (command, out)
