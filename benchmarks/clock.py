"""Timing in reference milliseconds, corrected for the machine's speed.

On a shared machine the same pure-Python code can run at half speed for
seconds at a time, and CPU time slows down with wall time, so neither
tells a slow phase from a slow program.  SpeedClock therefore runs a small
fixed calibration kernel (exact Fraction arithmetic, the kind of work
recdet does, and no recdet code) right before and right after every timed
call.  The call's wall time is divided by the mean of the two kernel times
and multiplied by REF_KERNEL_S: the result is how long the call would have
taken on a machine where the kernel takes REF_KERNEL_S.  A change to recdet
moves these reference times in the same proportion as wall times; a slow
phase of the machine slows the kernel too and cancels out.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# the kernel's typical time between jobs on a 2-CPU 2.0 GHz x86-64 box with
# CPython 3.11.7; it only sets the scale, so that reference times read
# about like wall times there
REF_KERNEL_S = 0.0043


def _kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 800):
        s += Fraction(1, i % 97 + 1) * i
    return s


def kernel_seconds() -> float:
    t = perf_counter()
    _kernel()
    return perf_counter() - t


def speed_corrected(wall: float, kernel: float) -> float:
    """Reference seconds for a wall time during which the kernel took
    the given seconds."""
    return wall * REF_KERNEL_S / kernel


class SpeedClock:
    """Times calls; each kernel run serves the call before and after it."""

    def __init__(self) -> None:
        for _ in range(5):
            kernel_seconds()  # warm up
        self.last = kernel_seconds()

    def call(self, fn, *args):
        """(fn's result, wall seconds, reference seconds)."""
        before = self.last
        t = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t
        self.last = kernel_seconds()
        return result, wall, speed_corrected(wall, (before + self.last) / 2.0)
