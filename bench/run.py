"""Benchmark of sutured-kit: seeded inputs, timed CLI ops, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload torus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads: torus, chain, presentations, support, maslov (see
``workloads.py`` and ``BENCHMARK.json``).  The run builds the inputs of
the workload from the seed under ``.bench_work/``, starts ``worker.py``,
which runs the ops through ``sutured_kit.cli.main`` and checks every
output, then measures ``setup_s`` (the median time fresh interpreters
take to import ``sutured_kit.cli`` and build its parser).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of one traced pass, taken by wrapping the library's public functions
from outside (``tracing.py``), and the spans are written to
``.bench_work/spans-<workload>-s<seed>.json``.

The program is imported from ``src/`` of the checkout; without it the
run fails with exit code 2 and prints no result.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 21
# The child times its own import and parser build, so that interpreter
# start-up does not count, and runs the reference kernel twice before and
# twice after them on the core it runs on.  ``calibrate`` loads only
# ``time``, so the program's imports are all timed.
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import calibrate
kernels = [calibrate.reference(), calibrate.reference()]
start = time.perf_counter()
import sutured_kit.cli
sutured_kit.cli.build_parser()
elapsed = time.perf_counter() - start
kernels += [calibrate.reference(), calibrate.reference()]
print(elapsed, *kernels)
"""


def measure_setup():
    """Median (calibrated, wall) time of a fresh interpreter's import of
    the CLI and build of its parser."""
    calibrated, wall = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH)],
                              check=True, cwd=ROOT, timeout=60, capture_output=True, text=True)
        elapsed, *kernels = map(float, proc.stdout.split())
        wall.append(elapsed)
        calibrated.append(elapsed * calibrate.scale(kernels))
    return statistics.median(calibrated), statistics.median(wall)


def run_workload(name, seed, seconds, trace, sk):
    """Build the inputs, run the worker, return its result dict."""
    WORK.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK))
    try:
        ops = workloads.build(name, seed, str(inputs), sk)
        manifest = inputs / "manifest.json"
        result_path = inputs / "result.json"
        manifest.write_text(json.dumps({
            "src": str(SRC), "seed": seed, "seconds": seconds, "trace": trace,
            "ops": ops, "spans": str(WORK / f"spans-{name}-s{seed}.json")}))
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                               str(manifest), str(result_path)],
                              cwd=ROOT, timeout=2 * seconds + 120,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed for {name}:\n{proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text())
        setup = measure_setup() if not trace else None
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if setup is not None:
        result["metrics"] = {"setup_s": (setup[0], "s"), **result["metrics"]}
        result["info"]["wall"]["setup_s"] = setup[1]
    result["ops"] = len(ops)
    return result


def summary(name, seed, result):
    failed_frac = result["failed"] / result["attempted"]
    info = result["info"]
    lines = [f"# {name} seed={seed}: {result['ops']} ops per pass, {info['passes']} "
             f"{'untraced ' if 'spans' in info else 'timed '}passes, "
             f"{result['attempted']} ops attempted, "
             f"failed_frac {failed_frac:g} ratio, byte-deterministic "
             f"{result['deterministic']}"]
    if "tail_percentile" in info:
        lines.append(f"#   op_tail_ms is p{info['tail_percentile']:.1f} of "
                     f"{info['samples']} per-op medians")
    wall = info.get("wall", {})
    for metric, (value, unit) in result["metrics"].items():
        raw = f"   (wall {wall[metric]:.6g})" if metric in wall else ""
        lines.append(f"#   {metric:40s} {value:>14.6g} {unit}{raw}")
    for failure in result["failures"]:
        lines.append(f"# FAILED {failure}")
    return "\n".join(lines)


def result_line(results):
    """The JSON result; metric names get a workload prefix when there are several."""
    metrics = {}
    for name, result in results.items():
        for metric, (value, unit) in result["metrics"].items():
            key = metric if len(results) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": all(r["failed"] == 0 and r["deterministic"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sutured_kit" / "cli.py").is_file():
        print(f"bench: no sutured_kit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sutured_kit
    if Path(sutured_kit.__file__).resolve().parent != SRC / "sutured_kit":
        print(f"bench: imported sutured_kit from {sutured_kit.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, sutured_kit)
        print(summary(name, args.seed, results[name]), flush=True)
    print(result_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
