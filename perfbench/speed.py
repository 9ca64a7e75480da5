"""Machine-speed sampling, so timings can be read at a fixed reference speed.

On a shared host the speed of one CPU drifts by up to 2x over seconds as
other tenants come and go, which swamps the differences a benchmark must
resolve.  A SIGALRM handler runs a fixed reference kernel (small-vector
numpy and Fraction arithmetic, like the program's hot paths, and none of
the program's own code) every PERIOD seconds.  An interval's time at the
reference speed is its measured time, less the time spent in the handler,
scaled by the mean of REF_KERNEL_S over each kernel time sampled around
it (samples are evenly spaced in time, so this weighs each stretch of the
interval by how long it lasted).
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

PERIOD = 0.1
# the kernel's typical duration on a 2-vCPU Xeon (Sapphire Rapids) VM, so a
# reference second is close to a wall second there
REF_KERNEL_S = 1.0e-3
# samples this far either side of an interval count towards its speed
WINDOW = 0.3


def kernel() -> float:
    t0 = perf_counter()
    y = np.array([0.3, 0.1, -0.2, 0.05])
    a = np.full((4, 4), 0.01)
    for i in range(80):
        y = y + 0.001 * (a @ y)
        q = Fraction(3, 7) * Fraction(i + 1, i + 2) - Fraction(i, i + 3)
    if not (np.all(np.isfinite(y)) and q.denominator > 0):
        raise ArithmeticError("reference kernel went wrong")
    return perf_counter() - t0


class SpeedMeter:
    """Samples the kernel from a timer while measurements run in between."""

    def __init__(self):
        self.stamps = []          # sample end times
        self.kernel_s = []        # kernel durations
        self.handler_s = []       # cumulative seconds spent in the handler

    def _sample(self, signum, frame):
        t0 = perf_counter()
        k = kernel()
        t1 = perf_counter()
        self.stamps.append(t1)
        self.kernel_s.append(k)
        self.handler_s.append((self.handler_s[-1] if self.handler_s else 0.0) + t1 - t0)

    def __enter__(self):
        self._sample(None, None)
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample(None, None)

    def _handler_until(self, t: float) -> float:
        i = bisect.bisect_right(self.stamps, t)
        return self.handler_s[i - 1] if i else 0.0

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take at the reference speed."""
        busy = t1 - t0 - (self._handler_until(t1) - self._handler_until(t0))
        lo = bisect.bisect_left(self.stamps, t0 - WINDOW)
        hi = bisect.bisect_right(self.stamps, t1 + WINDOW)
        if hi <= lo:  # no sample near: take the nearest one
            lo, hi = max(0, lo - 1), min(len(self.stamps), lo + 1)
        return busy * statistics.fmean(REF_KERNEL_S / k for k in self.kernel_s[lo:hi])
