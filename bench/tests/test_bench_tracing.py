"""The traced run counts a failed CLI call as a cli error.

Run from the root of the repository: python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import sutured_kit  # noqa: E402
import sutured_kit.cli  # noqa: E402,F401
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_a_nonzero_exit_code_counts_as_a_cli_error(tmp_path):
    op = {"argv": ["euler", str(tmp_path / "missing.json")], "check": None, "label": "missing"}
    runner = worker.Runner(sutured_kit, workloads, [op])
    tracer = tracing.Tracer(sutured_kit)
    tracer.install()
    try:
        runner.run_op(0, tracer)
    finally:
        tracer.remove()
    assert tracer.metrics()["cli.errors"] == (1, "count")
    assert runner.failures and "exit code 1" in runner.failures[0]
