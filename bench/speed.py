"""Machine-speed reference: wall seconds rescaled to a fixed machine speed.

On a shared host the speed of a core drifts: the same ``compare`` run takes
anywhere from 1x to 1.6x its fastest time, in spells that last from seconds
to minutes, while CPU time stays equal to wall time and steal time stays near
zero (other tenants contend for the same cores and caches).  A run's raw wall
seconds therefore measure the host as much as the program.

The cure is a reference kernel that contains no qlof code: a fixed mix of
interpreter arithmetic, small numpy vector operations, ``Generator.choice``
and ``SeedSequence`` seeding, the operations the program itself spends its
time in.  ``NOMINAL_S`` is the kernel's duration at the reference speed.
While the timed loop runs, a ``SIGALRM`` timer interrupts it every
``PERIOD_S`` seconds and times one kernel run (about 2% of the loop).  An
operation's own seconds (its wall seconds less the kernel runs inside it)
times the mean of ``NOMINAL_S / kernel seconds`` over the samples taken
during it are its **reference seconds**: the time it would have taken at the
reference speed.  A change to qlof moves reference seconds exactly as it
moves wall seconds, since the kernel does not run qlof; a change of host
speed moves both the operation and the kernel, and cancels.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.002  # kernel seconds at the reference speed
PERIOD_S = 0.1  # sampling period of the timed loop

_GRID = np.arange(1024) / 1024.0
_RNG = np.random.default_rng(0)


def kernel() -> None:
    """The reference work: a fixed mix of the program's kinds of operation."""
    s = 0
    for i in range(7000):
        s = (s * 31 + i) % 1000003
    for _ in range(10):
        y = np.sin(_GRID * 3.1) / (np.cos(_GRID) + 2.0)
        _RNG.choice(1024, size=3, p=y / y.sum())
    for i in range(20):
        np.random.default_rng(np.random.SeedSequence([i, 5])).random()


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def factor_now(repeats: int = 15) -> float:
    """NOMINAL_S over the median of ``repeats`` kernel runs made now."""
    return NOMINAL_S / statistics.median(time_kernel() for _ in range(repeats))


class Sampler:
    """Times one kernel run every PERIOD_S seconds of wall time while started."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self.spent = 0.0  # kernel seconds so far, to take out of operation times
        self._busy = False
        self._running = False

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a kernel run is dropped
            return
        self._busy = True
        try:
            t0 = perf_counter()
            kernel()
            dt = perf_counter() - t0
            self.samples.append((t0, dt))
            self.spent += dt
        finally:
            self._busy = False

    def start(self) -> None:
        for _ in range(5):  # warm the kernel's own first calls
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._running = False

    def factor(self, start: float, end: float) -> float:
        """Mean NOMINAL_S / kernel seconds over the samples taken within one
        period of [start, end]; the nearest sample if there is none."""
        near = [dt for t, dt in self.samples if start - PERIOD_S <= t <= end + PERIOD_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - (start + end) / 2))[1]]
        return statistics.fmean(NOMINAL_S / dt for dt in near)
