"""Machine-speed calibration of the benchmark's timings.

On a shared host the same code runs up to a third slower for seconds at a
time, when other tenants load the cores. Every timing the benchmark reports
is therefore scaled to a reference speed: a fixed kernel, a Python loop of
small numpy reductions like those of the program, is timed right before and
right after each timed interval, and the interval is multiplied by
REFERENCE_S / (median of the kernel times around it). A change to the
program moves the scaled time as it moves the raw one; a slow spell of the
machine moves both the interval and the kernel, and cancels. The raw times
are kept in the benchmark's full record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: kernel time taken as the reference speed: its median on the 2-vCPU Xeon
#: VM (Python 3.11, numpy 2.4) the benchmark was tuned on
REFERENCE_S = 0.0021
#: intervals on each side whose kernel times join an interval's median: one
#: kernel run can stall on its own, a slow spell lasts seconds
WINDOW = 2
_KERNEL_ROUNDS = 250
_VALUES = np.linspace(1.0, 2.0, 500)


def kernel_s() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    start = time.perf_counter()
    total = 0.0
    for i in range(_KERNEL_ROUNDS):
        mask = np.arange(_VALUES.size) != i
        total += float(_VALUES[mask].sum())
        total += sum(j * 0.5 for j in range(30))
    return time.perf_counter() - start


def scaled(elapsed: list[float], before: list[float],
           after: list[float]) -> list[float]:
    """Consecutive intervals `elapsed` at the reference speed, given the
    kernel times measured right before and right after each: interval i is
    scaled by the median kernel time of intervals i - WINDOW .. i + WINDOW."""
    out = []
    for i, value in enumerate(elapsed):
        near = slice(max(i - WINDOW, 0), i + WINDOW + 1)
        kernel = statistics.median(before[near] + after[near])
        out.append(value * REFERENCE_S / kernel)
    return out
