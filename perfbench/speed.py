"""Host-speed normalisation of measured seconds.

On a shared host the same pass of exact-rational work was measured to take
anywhere from 1x to 1.8x its fastest time, in regimes lasting seconds, with
CPU time equal to wall time; the slowdown is the host's, not the program's.
While a job runs, a profiling-timer signal every ``PERIOD_S`` of CPU time
runs a fixed reference computation (the same kinds of ``Fraction``
arithmetic the program spends its time in) and records how long it took.
A measured interval then has the handler time inside it removed and is
scaled by ``NOMINAL_S`` / the mean reference time sampled in it, or in the
``NEAREST`` samples around a short interval: seconds at the host's nominal
speed.  On the shared 2-vCPU test host this cut the pass-to-pass spread of
one job from about 27% to about 5%.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
NOMINAL_S = 0.0012  # reference() at the test host's fast speed
NEAREST = 40


_TABLEAU = [
    [Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(9)]
    for i in range(5)
]


def reference() -> None:
    """Fraction sums of products, then Gauss-Jordan pivots on a small
    tableau: the two kinds of work (cycle means, simplex pivots) the
    program spends its time in.  Both together tracked the program's
    slowdowns better than either alone."""
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    rows = [row[:] for row in _TABLEAU]
    for col, pivot in enumerate(rows):
        inv = 1 / pivot[col]
        for j in range(9):
            pivot[j] *= inv
        for other in rows:
            if other is not pivot and other[col]:
                factor = other[col]
                for j in range(9):
                    other[j] -= factor * pivot[j]


def nominal_factor(repeats: int = 20) -> float:
    """Scale for seconds measured just before this call, from the
    reference's duration now."""
    start = time.perf_counter()
    for _ in range(repeats):
        reference()
    return NOMINAL_S * repeats / (time.perf_counter() - start)


class SpeedSampler:
    """Reference timings taken while a pass of jobs runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _handler(self, signum, frame):
        start = time.perf_counter()
        reference()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        return False

    def normalise(self, start: float, end: float) -> float:
        """Nominal-speed seconds of the wall interval ``[start, end]``."""
        inside = [d for t, d in self.samples if start <= t <= end]
        work = end - start - sum(inside)
        if len(inside) < NEAREST:
            nearest = sorted(
                self.samples, key=lambda s: max(start - s[0], s[0] - end, 0.0)
            )
            inside = [d for _, d in nearest[:NEAREST]]
        if not inside:
            return work
        return work * NOMINAL_S / statistics.mean(inside)
