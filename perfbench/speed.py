"""Machine-speed sampling, so that times can be stated at a reference speed.

On a shared virtual machine the speed of the same Python code drifts by
up to 1.5x over seconds to minutes (other tenants share the host cores;
this shows as slower code, not as steal time).  A run of the benchmark
therefore samples the interpreter's speed *while the jobs run*: every
``PERIOD_S`` of wall time a SIGALRM handler times a fixed pure-Python
calibration loop, which never changes with the program under test.  A
span of work is then reported as

    (wall - calibration time spent inside it) * REFERENCE_S / median(calibration samples)

that is, the time it would take on the reference machine at its usual
speed.  Forked worker processes do not inherit the interval timer.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.01
# the calibration loop's median time while the benchmark runs on the
# reference machine (2-vCPU Xeon virtual machine, Python 3.11.7)
REFERENCE_S = 0.00050


def calibration() -> None:
    """Fixed interpreter work: integer arithmetic, tuples, dict updates, sorting."""
    s = 0
    for i in range(2000):
        s += i * i % 7
    d = {}
    for i in range(300):
        t = (i, i + 1, i & 7)
        d[t] = len(t) + d.get(t, 0)
        sorted(t, reverse=True)


class Sampler:
    """Calibration samples taken on SIGALRM while the context is open."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time spent in the handler, to be subtracted

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        calibration()
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def factor(self, start: tuple[int, float], end: tuple[int, float]) -> float:
        """REFERENCE_S over the median calibration time between two marks.

        A span shorter than the period borrows the samples next to it.
        """
        lo, hi = start[0], end[0]
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(self.samples), hi + 2)
        window = self.samples[lo:hi]
        if not window:
            return 1.0
        return REFERENCE_S / statistics.median(window)

    def scaled(self, wall: float, start: tuple[int, float], end: tuple[int, float]) -> float:
        """Wall time of a span without the handler's share, at reference speed."""
        return (wall - (end[1] - start[1])) * self.factor(start, end)
