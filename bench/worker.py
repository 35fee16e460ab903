"""Run one workload's ops in a fresh process and write its measurements.

Usage: python3 bench/worker.py MANIFEST RESULT

``run.py`` writes the manifest (the ops, the seed, the time budget) and
starts this process, so that the peak RSS it reports belongs to the
process that ran the workload and not to the one that built the inputs.

The load is a closed loop with one client: ops run one after another,
each a ``sutured_kit.cli.main(argv)`` call on generated files, in a
seeded order.  Whole passes over the op list repeat until the next pass
would overrun the time budget.  Each op is bracketed by the reference
kernel of ``calibrate.py``; its latency is reported both as wall time and
calibrated.  Each op's output is checked after its timer stops, and its
stdout bytes must be the same in every pass.
"""

import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time

import calibrate


def tail_index(k):
    """Index into k sorted samples of the highest percentile that has at
    least ten samples beyond it (the maximum when there are too few)."""
    return k - 11 if k > 10 else k - 1


class Runner:
    def __init__(self, sk, workloads, ops):
        self.sk = sk
        self.workloads = workloads
        self.ops = ops
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.deterministic = True

    def run_op(self, i, tracer=None):
        """Run op i once and check it; return its wall latency in seconds."""
        op = self.ops[i]
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.sk.cli.main(op["argv"])
        except Exception as exc:  # a crash of the program under test fails the op
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        out = buf.getvalue().encode("utf-8")
        self.attempted += 1
        if error is None and rc != 0:
            error = f"exit code {rc}: {out[:200]!r}"
        if error is None:
            try:
                error = self.workloads.check_output(op["check"], json.loads(out), self.sk)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"malformed output: {type(exc).__name__}: {exc}"
        digest = hashlib.sha256(out).hexdigest()
        if self.digests.setdefault(i, digest) != digest:
            self.deterministic = False
            error = error or "stdout bytes differ between runs of the same input"
        if error is not None:
            self.failures.append(f"{op['label']}: {error}")
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += len(out)
            if rc not in (0, None):  # cli.main reports a SuturedKitError by its exit code
                tracer.errors["cli"] += 1
        return seconds

    def run_pass(self, order, tracer=None):
        """One pass over the ops; returns {op index: (wall, calibrated) seconds}.

        The reference kernel runs before the first op and after each op.
        An op is calibrated by the median of the two kernel runs before it
        and the two after it: a single kernel run right after an op that
        churned through megabytes of JSON reads slow.
        """
        kernels = [calibrate.reference()]
        walls = []
        for i in order:
            if tracer is not None:
                tracer.op = i
            walls.append(self.run_op(i, tracer))
            kernels.append(calibrate.reference())
        return {i: (wall, wall * calibrate.scale(kernels[max(0, j - 1):j + 3]))
                for j, (i, wall) in enumerate(zip(order, walls))}

    def run_timed(self, order, seconds):
        """Whole passes until the next one would overrun ``seconds``."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(order))
            elapsed = time.perf_counter() - start
            if elapsed + sum(w for w, _ in passes[-1].values()) > seconds:
                return passes


def busy(one_pass, which):
    """Sum of the wall (0) or calibrated (1) latencies of a pass."""
    return sum(t[which] for t in one_pass.values())


def latency_metrics(passes, n_ops, which):
    """Throughput, median and tail over per-op medians across passes."""
    medians = sorted(statistics.median(p[i][which] for p in passes) for i in range(n_ops))
    k = len(medians)
    return (n_ops * len(passes) / sum(busy(p, which) for p in passes),
            statistics.median(medians) * 1e3, medians[tail_index(k)] * 1e3)


def end_to_end(passes, n_ops):
    """The worker's end-to-end metrics (calibrated) and run facts (with wall times)."""
    names = ("throughput_ops_s", "op_p50_ms", "op_tail_ms")
    metrics = dict(zip(names, zip(latency_metrics(passes, n_ops, 1), ("ops/s", "ms", "ms"))))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, {"passes": len(passes), "samples": n_ops,
                     "tail_percentile": 100.0 * (tail_index(n_ops) + 1) / n_ops,
                     "wall": dict(zip(names, latency_metrics(passes, n_ops, 0)))}


def main(manifest_path, result_path):
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    import sutured_kit
    import sutured_kit.cli  # noqa: F401
    import tracing
    import workloads

    ops = manifest["ops"]
    runner = Runner(sutured_kit, workloads, ops)
    # warm-up and byte-determinism check: the first (smallest) op, twice
    runner.run_op(0)
    runner.run_op(0)
    order = list(range(len(ops)))
    random.Random(f"order:{manifest['seed']}").shuffle(order)
    seconds = manifest["seconds"]
    result = {}
    if not manifest["trace"]:
        passes = runner.run_timed(order, seconds)
        result["metrics"], result["info"] = end_to_end(passes, len(ops))
    else:
        passes = runner.run_timed(order, seconds / 2)
        plain = statistics.median(busy(p, 1) for p in passes)
        tracer = tracing.Tracer(sutured_kit)
        tracer.install()
        try:
            traced = busy(runner.run_pass(order, tracer), 1)
        finally:
            tracer.remove()
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = (traced / plain - 1, "ratio")
        result["metrics"] = metrics
        result["info"] = {"passes": len(passes), "spans": len(tracer.spans)}
        with open(manifest["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans_json(), fh)
    result.update(attempted=runner.attempted, failed=len(runner.failures),
                  failures=runner.failures[:20], deterministic=runner.deterministic)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
