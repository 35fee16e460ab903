"""Machine-speed calibration for timings on a shared host.

On a host shared with other tenants the speed of a core drifts by 20 %
and more within seconds, and whole runs land on fast or slow phases.
The benchmark therefore runs ``reference()``, a fixed pure-Python kernel
of integer arithmetic, tuple and dict work (the kind of work the library
does), around every timed call, and reports

    calibrated = wall time * REF_SECONDS / median(kernel times around it)

that is, the wall time the call would have taken at the speed where the
kernel takes ``REF_SECONDS``.  ``REF_SECONDS`` is the kernel's time on
an unloaded 2-vCPU Intel Xeon guest (Python 3.11), so there calibrated
and wall times agree.  Raw wall times are printed next to the calibrated
ones in every summary.

This module imports only ``time`` at load, so that the set-up child of
``run.py`` can import it without loading modules the program may need.
"""

import time

REF_SECONDS = 0.0015
REF_ITERATIONS = 6000


def reference():
    """Wall time of one run of the fixed reference kernel, in seconds."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(REF_ITERATIONS):
        key = (i & 63, i % 7)
        acc = (acc * 31 + i * i) % 1000003
        table[key] = table.get(key, 0) + acc
    return time.perf_counter() - start


def scale(kernel_times):
    """Factor turning a wall time into a calibrated one, given reference
    kernel times measured around it."""
    import statistics
    return REF_SECONDS / statistics.median(kernel_times)
