"""The host's speed, sampled through each round by a fixed loop of our own.

On a shared host the speed of one core changes by tens of percent within
seconds and drifts over minutes (a fixed loop here took anywhere from 0.07
to 0.15 s).  Every round's wall time therefore comes with a measure of how
fast the host ran during it: every period a SIGALRM handler times
`reference`, a fixed loop of scalar Python arithmetic like the program's
hot loops.

The loop is timed by the CPU time of the thread that runs it, so time
spent waiting is not counted: waiting for the GIL while other threads of
the program hold it, or for a CPU that the program's worker processes
take.  The program can then slow a sample only through the core itself
(shared caches, a busy sibling thread of the core).
"""

from __future__ import annotations

import cmath
import math
import signal
import statistics
import time

# CPU time of one step of `reference` on this 2-CPU host at its usual
# speed; wall times are rescaled to it.
NOMINAL_STEP_S = 2.0e-3 / 6000


def reference(size: int) -> complex:
    v = 1.0 + 0.0j
    for i in range(size):
        v = 0.5 * v * cmath.exp(-0.25j * i) + math.cos(1e-3 * i)
    return v


class SpeedProbe:
    """Times `reference(size)` every period_s seconds of wall time."""

    def __init__(self, period_s: float = 0.1, size: int = 6000):
        self.period_s = period_s
        self.size = size
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        t = time.thread_time()
        reference(self.size)
        self.samples.append(time.thread_time() - t)

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def slowness(self) -> float:
        """How much slower than nominal the host ran during the last window.

        Work done per second of wall time is proportional to 1/sample, so
        the harmonic mean of the samples weighs them by work, as a
        wall-time measurement of the program's work does.
        """
        if not self.samples:
            return 1.0
        return statistics.harmonic_mean(self.samples) / (self.size * NOMINAL_STEP_S)
