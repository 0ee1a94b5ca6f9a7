"""The host's current speed, read from a fixed calibration loop.

On a shared host other tenants slow every process on it, by up to half and
for a minute or more at a time; the slowdown reaches into the processor
itself (the time a process spends on the CPU grows with it), so no choice
of clock removes it, and a run that falls inside such a phase reads slow
however long it is.  The benchmark therefore samples the host's speed while
it works: every EVERY_S of the timed job it runs calibration_loop(), a
fixed piece of pure-Python work of the benchmark's own that is built from
the operations the library spends its time on (small-int arithmetic, set
comprehensions, tuple and dict traffic, gcd).

A time t measured at a moment when the calibration loop takes c seconds
(the median of the samples within WINDOW_S of the measured interval) is
reported as t * REFERENCE_S / c: the time the same work takes when the loop
runs in REFERENCE_S, which is about its time on a quiet host.  The loop
never changes with the library, so a library change moves the scaled times
just as it moves the raw ones; the raw times are kept in the records.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

# About the calibration loop's median time on an otherwise idle Xeon vCPU
# with CPython 3.11; the unit of every scaled time.
REFERENCE_S = 0.00025
EVERY_S = 0.02
WINDOW_S = 0.25

_PARTS = (6, 10, 15, 21, 35) * 2


def calibration_loop() -> int:
    """Fixed work of about REFERENCE_S; the result is returned so that no
    part of it can be skipped."""
    reach = {0}
    for p in _PARTS:
        steps = tuple(j for j in range(1, p + 1) if math.gcd(j, p) > 1)
        reach |= {s + j for s in reach for j in steps if s + j <= 300}
    counts: dict[tuple[int, int], int] = {}
    for a in sorted(reach, reverse=True):
        key = (a % 7, a % 5)
        counts[key] = counts.get(key, 0) + 1
    return len(reach) + max(counts.values())


class Speedometer:
    """Calibration samples of one process, and the scale they give."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.times: list[float] = []  # midpoint of each sample
        self.durations: list[float] = []
        self.spent = 0.0  # total time inside the calibration loop
        self._last = -math.inf

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = self.clock()
            calibration_loop()
            t1 = self.clock()
            self.times.append((t0 + t1) / 2)
            self.durations.append(t1 - t0)
            self.spent += t1 - t0
            self._last = t1

    def tick(self) -> None:
        """Take a sample when the last one is EVERY_S old."""
        if self.clock() - self._last >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median calibration time within WINDOW_S of
        [start, end], or of the nearest sample when none is that close."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.durations[lo:hi]
        if not window:
            nearest = min(range(len(self.times)), key=lambda i: abs(self.times[i] - start))
            window = [self.durations[nearest]]
        return REFERENCE_S / statistics.median(window)
