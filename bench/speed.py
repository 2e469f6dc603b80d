"""The host's speed, for stating times at a fixed reference speed.

On a shared virtual machine the same Python code runs up to twice as
slow for minutes at a time, and CPU time slows with the wall clock, so
neither clock alone compares runs made at different moments.  A
calibration *sample* times a fixed piece of pure-Python work (dict and
tuple arithmetic on a sparse two-variable polynomial, the kind of work
the package does) that does not depend on ``legfronts``.  run.py takes a
sample before and after every short stretch of ops and scales each op's
time by ``REF_S`` over the mean of the two samples: the time the op
would have taken on a host that runs the kernel in ``REF_S``.  (A traced
run scales each phase by the median of its samples.)  A change to the
program moves the ops but not the kernel, so it moves the scaled times;
a change in the host's speed moves both and cancels.

The samples track the host's drift over seconds and minutes, not its
faster flicker: one op of a few hundred ms still varies by about 10%
between repeats, scaled or not, which is why run.py reports medians.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.43e-3  # seconds per kernel call on the reference host (2 GHz vCPU)
KERNEL_REPS = 5  # kernel calls per sample; their median is the sample


def kernel():
    p = {(0, 0): 1}
    f = {(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): 2}
    for _ in range(9):
        q = {}
        for (a, b), c in p.items():
            for (d, e), g in f.items():
                k = (a + d, b + e)
                q[k] = q.get(k, 0) + c * g
        p = {k: v for k, v in q.items() if v}
    return sorted(p.items())


def sample() -> float:
    """Seconds one kernel call takes on the host now."""
    times = []
    for _ in range(KERNEL_REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(seconds: float, *samples: float) -> float:
    """``seconds`` measured while the host ran at the mean speed of
    ``samples``, stated at the reference speed."""
    return seconds * REF_S / statistics.fmean(samples)
