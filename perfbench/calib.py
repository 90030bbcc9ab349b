"""Calibrated time: wall time corrected for the CPU's current speed.

On the measuring machine, a shared VM, the speed of each CPU drifts by up
to 1.7x in phases of a second to minutes, and the two CPUs drift
independently. So the benchmark pins itself and its children to one CPU
(``pin_one_cpu``), runs a fixed calibration kernel on it between
operations, and reports each operation's time at the kernel's reference
speed:

    calibrated = wall * REFERENCE_S / kernel

where ``kernel`` is the mean of the kernel samples taken just before and
just after the operation. A change that makes the program faster still
lowers the calibrated time by the same share; the machine's phase cancels.

The kernel mixes an interpreted Python loop, small dense least-squares
solves and BLAS matrix products, in about equal parts. Of the kernels
tried, this mix tracked the slow phases of all three workloads about as
well as any, and it holds under 1 MB, so it leaves peak memory alone. It
uses no meanking code, so the program cannot change it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

import os

import numpy as np

REFERENCE_S = 0.045  # the kernel's time in a fast phase of a 2-core x86_64 VM
PERIOD_S = 0.3  # at most one sample per period; ops in between share it

_RNG = np.random.default_rng(12345)
_TALL = _RNG.random((60, 40))
_SQUARE = _RNG.random((120, 120))


def pin_one_cpu() -> int:
    """Pin this process, and the children it starts, to its lowest CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def kernel() -> float:
    """Run the fixed calibration work once; return its wall time."""
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        acc += i * i
        table[i & 255] = acc
    for _ in range(40):
        np.linalg.lstsq(_TALL, _TALL[:, 0], rcond=None)
    for _ in range(100):
        _SQUARE @ _SQUARE
    return perf_counter() - t0


class Calibrator:
    """Kernel samples on one timeline, and the speed factor of an interval."""

    def __init__(self):
        kernel()  # warm-up, not kept
        self.times = []  # sample midpoints, increasing
        self.samples = []  # kernel wall times

    def tick(self, force: bool = False) -> None:
        """Take a sample unless one was taken in the last ``PERIOD_S``."""
        if force or not self.times or perf_counter() - self.times[-1] >= PERIOD_S:
            t0 = perf_counter()
            took = kernel()
            self.times.append(t0 + took / 2)
            self.samples.append(took)

    def scale(self, start: float, seconds: float) -> float:
        """``calibrated / wall`` for an interval: REFERENCE_S over the mean of
        the last sample before it and the first sample after it."""
        before = bisect_right(self.times, start) - 1
        after = bisect_left(self.times, start + seconds)
        picked = [self.samples[j] for j in (before, after) if 0 <= j < len(self.samples)]
        return REFERENCE_S / (sum(picked) / len(picked))
