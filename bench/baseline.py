"""Re-measure the single-call baseline table of ROADMAP.md.

Usage, from the root of a checkout:

    python3 bench/baseline.py

Each row is the median, minimum and maximum wall time of ``REPEATS``
calls of one library function on one seeded input (for ``fox.torsion``,
one call on each of ten presentations of each size; for the dim 4,
N = 40 hull, which takes about a minute, one call).  Times are wall
times, not calibrated; the last line gives the median time of the reference
kernel run before each call against ``calibrate.REF_SECONDS``, to show how
loaded the machine was.
"""

import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
sys.path.insert(0, str(ROOT / "src"))

import builders  # noqa: E402
import calibrate  # noqa: E402
from sutured_kit import abelian, diagram, fox, polytope  # noqa: E402


def timed(fn, repeats, kernel):
    """Wall times of ``repeats`` calls; a reference kernel time before each
    is appended to ``kernel``."""
    times = []
    for _ in range(repeats):
        kernel.append(calibrate.reference())
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def row(label, times):
    med, lo, hi = statistics.median(times), min(times), max(times)
    print(f"| {label} | {med * 1e3:.1f} | {lo * 1e3:.1f}–{hi * 1e3:.1f} | {len(times)} |",
          flush=True)


def main():
    kernel = []
    rng = random.Random("baseline")
    print("| call | median ms | min–max ms | samples |")
    print("|---|---|---|---|")

    for p in (30, 60, 120):
        data = builders.torus_diagram(p)
        # a fresh diagram per call: the library caches H_1 on the instance
        row(f"`euler_polynomial` T({p},1;2)", timed(
            lambda: diagram.euler_polynomial(diagram.SuturedDiagram.from_json(data)),
            REPEATS, kernel))

    for m in (8, 10, 12):
        for length in (5, 6):
            times = []
            for _ in range(10):
                p, k = fox.load_presentation_json(builders.random_presentation(rng, m, length))
                times += timed(lambda: fox.torsion(p, k), 1, kernel)
            row(f"`fox.torsion` m = {m}, relators of {length} letters (10 presentations)",
                times)

    for d, n in ((3, 40), (4, 20), (4, 40)):
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.randint(-10, 10) for _ in range(d)))
        data = polytope.SupportData(d, tuple(sorted(pts)))
        row(f"`polytope.hull` random integer points, dim {d}, N = {n}",
            timed(lambda: polytope.hull(data), 1 if n == 40 and d == 4 else REPEATS, kernel))

    mat = abelian.IntMatrix([[rng.randint(-9, 9) for _ in range(32)] for _ in range(32)],
                            32, 32)
    row("`smith_normal_form` dense random 32×32",
        timed(lambda: abelian.smith_normal_form(mat), REPEATS, kernel))
    print(f"\nreference kernel: median {statistics.median(kernel) * 1e3:.2f} ms "
          f"(REF_SECONDS {calibrate.REF_SECONDS * 1e3:.2f} ms)")


if __name__ == "__main__":
    main()
