"""Machine-speed calibration of the end-to-end timings.

Shared machines drift in speed by tens of percent, at times by a factor of
two, over seconds to minutes as other tenants come and go; a drift that
large would swamp the effect of any change to the program.  So each run
also times a fixed calibration kernel, interleaved with its instances on the
same pinned CPU, and the end-to-end timings are reported at a nominal
machine speed: wall time x nominal / (median kernel time in this run).  The
raw wall-clock values are reported beside them (``wall.*``).

The kernel is a pure-Python scan over benchmark-owned data, like the
program's own loops (float arithmetic, list and tuple building).  It runs no
code of the program, so a change to the program moves the measured work but
not the calibration, and it runs with the garbage collector off, so a heap
the program leaves behind cannot slow it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: The time of one pass of the kernel on the nominal machine: timings are scaled to it.
KERNEL_NOMINAL_NS = 10_000_000
#: Passes per calibration sample.  A single 10 ms pass is now and then
#: preempted or sped up by a third or more; the median of three is not.
KERNEL_PASSES = 3

_rng = random.Random(20230906)
_XS = [_rng.random() for _ in range(20_001)]
_TS = [float(i) for i in range(20_001)]


def kernel() -> int:
    """One calibration sample: median nanoseconds of ``KERNEL_PASSES`` passes of the scan."""
    return statistics.median(_pass() for _ in range(KERNEL_PASSES))


def _pass() -> int:
    """Nanoseconds for one pass of the calibration scan."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        acc = 0.0
        pairs = []
        for i in range(20_000):
            acc += (i * 0.5) / (i + 1.0)
            if i % 7 == 0:
                pairs.append((acc, i))
        slopes = [(_XS[i + 1] - _XS[i]) / (_TS[i + 1] - _TS[i]) for i in range(20_000)]
        min(slopes[i + 1] - slopes[i] for i in range(19_999))
        tuple(float(v) for v in slopes)
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()

