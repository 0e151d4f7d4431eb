"""Machine-speed calibration.

The benchmark shares a CPU whose speed drifts by tens of percent within
seconds and between minutes, for reasons outside this repository.  A fixed
kernel of interpreted arithmetic and NumPy work, unrelated to wcalc, is
timed many times through every run; run.py scales the run's times by
REFERENCE_S / median(kernel times), so the time metrics read as seconds on
a machine where the kernel takes REFERENCE_S.  A change to wcalc cannot
move the kernel, so it moves the scaled metrics exactly as it moves the
raw ones; the raw values are printed alongside.
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0045      # the kernel's median time where the bounds were set
_DATA = np.random.default_rng(0).standard_normal(20000)


def kernel_s() -> float:
    """Wall time of one pass of the calibration kernel."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += math.sqrt(i)
    for _ in range(20):
        np.sort(_DATA)
        np.cumsum(_DATA)
    return perf_counter() - t0
