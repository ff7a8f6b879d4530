"""Scaling measured times to an uncontended machine.

The benchmark shares its CPUs with other virtual machines, and how much of a
core it gets changes every few seconds: the same work, timed back to back,
can take anywhere from 1x to 2.2x its best time, in stretches that last long
enough to move the mean of a 30-second run by 20%. CPU time moves with wall
time, so it is no way out.

So a fixed reference kernel is timed before the first item and after every
item, and each item's time is multiplied by ``REFERENCE_S`` over the median
of the kernel times taken within ``WINDOW_S`` of the item. The median over a
window follows the contention, which changes over seconds, and ignores a
single slow kernel timing. The kernel is exact rational arithmetic on
``fractions.Fraction``, the kind of work blockginv does, written against the
standard library only, so no change to the program changes its cost. A
scaled time reads as the time the item would take on the reference machine
with a core to itself; raw times are kept in the run record.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Best kernel time on the reference machine: a 2-vCPU VM, Python 3.11.7.
REFERENCE_S = 0.92e-3
WINDOW_S = 1.0

_LEFT = [Fraction(3 * i + 1, 7 * i + 5) for i in range(24)]
_RIGHT = [Fraction(5 * i + 2, 3 * i + 11) for i in range(12)]


def kernel_s() -> float:
    """The best of two timings of the reference kernel, in seconds."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = Fraction(0)
        for x in _LEFT:
            for y in _RIGHT:
                total += x * y
        best = min(best, time.perf_counter() - start)
    return best


class Probes:
    """Kernel timings, each with the moment it was taken."""

    def __init__(self):
        self._at: list[float] = []
        self._took: list[float] = []

    def take(self) -> None:
        """Time the kernel now."""
        self._at.append(time.perf_counter())
        self._took.append(kernel_s())

    def factor(self, start: float, end: float) -> float:
        """Factor taking a time measured over [start, end] to the reference
        machine. Needs a timing taken before ``start`` and one after ``end``.
        """
        lo = bisect.bisect_left(self._at, start - WINDOW_S)
        hi = bisect.bisect_right(self._at, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self._took[lo:hi])
