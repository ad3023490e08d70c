"""Measure timed steps in runs of a fixed reference kernel.

The benchmark's host is shared. The same code runs up to about 1.8x slower
in spells that last from a second to minutes, and CPU time slows with wall
time, so no estimator over one run's wall times removes it: ten runs of a
45 s step spread by 27%. A timer signal therefore runs a short, fixed
kernel of small-array numpy and plain Python work, the kind sedopt does,
every `period` seconds during the timed steps, and records how long it
took. A step's cost is the time between kernel runs, each stretch divided
by the duration of the kernel run that ends it: the step's length in
kernel runs. The host's speed cancels, while a change to sedopt's own
work moves the cost as it moves the wall time. Interleaved this way, the
cost of a fixed solve moved by under 5% where its wall time moved by 15%.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

_GRID = np.linspace(0.0, 1.0, 801)


def reference_kernel() -> float:
    """About 5 ms of work on one vCPU: numpy on 801 points and a short loop."""
    total = 0.0
    for _ in range(300):
        slope = np.diff(_GRID) * 3.0
        total += float((np.maximum(_GRID[1:] - slope, 0.0) ** 2).sum())
        for k in range(30):
            total += k
    return total


class SpeedProbe:
    """Context manager that samples the kernel while it is open (one thread)."""

    def __init__(self, period: float = 0.25):
        self.period = period
        self.ends: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        reference_kernel()
        end = perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # every step then has a kernel run at or before its start
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_time(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent in the kernel itself."""
        return sum(d for e, d in zip(self.ends, self.durations) if start < e <= end)

    def cost(self, start: float, end: float) -> float:
        """Length of [start, end] in kernel runs, the kernel's own time excluded.

        Each stretch between kernel runs is divided by the duration of the
        run that ends it; the stretch after the last run uses that run's.
        """
        total, cursor, speed = 0.0, start, self.durations[0]
        for kernel_end, duration in zip(self.ends, self.durations):
            if kernel_end <= start:
                speed = duration
                continue
            kernel_start = kernel_end - duration
            if kernel_start >= end:
                break
            total += max(0.0, kernel_start - cursor) / duration
            cursor, speed = kernel_end, duration
        return total + max(0.0, end - cursor) / speed
