"""The benchmark's fixed reference kernel, used to factor out host speed.

On a shared host the same code runs up to twice as fast at one moment
as at another.  On the 2-vCPU VM the benchmark was built on, each vCPU
flips on its own between a fast and a slow state every few seconds --
neighbours on the physical machine contend for its core -- and the
share of time spent slow drifts over minutes.  A wall time alone then
mostly measures the host.

So each timed operation is bracketed by readings of a fixed kernel that
belongs to the benchmark: the product of a 0/1 int32 matrix with its
transpose, the shape of the dense neighbor phase, which numpy runs
without BLAS.  A run reports its operations at the speed at which one
pass of the kernel takes ``NOMINAL_S``:

    reported = NOMINAL_S * sum(wall times) / sum(mean pass per operation)

Means rather than medians: a speed that flips between two levels makes
a median snap to one level or the other, while the mean follows the
share of time spent at each.  The program under test never runs the
kernel, so a change to the program moves the reported time exactly as
much as it moves the wall time at any one host speed.
"""

from __future__ import annotations

import functools
import statistics
import time

NOMINAL_S = 0.040  # one pass, at the speed the figures are scaled to
PASSES = 5  # passes per reading


@functools.cache
def _matrix():
    import numpy as np

    return (np.random.default_rng(0).random((400, 400)) < 0.05).astype(
        np.int32
    )


def reading() -> list[float]:
    """Seconds each of ``PASSES`` passes of the reference kernel takes now."""
    matrix = _matrix()
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        matrix @ matrix.T
        times.append(time.perf_counter() - t0)
    return times


def reference_s(*readings: list[float]) -> float:
    """The mean pass time over ``readings``, each without its slowest
    pass, which may have met a momentary stall rather than the host's
    speed."""
    return statistics.fmean(
        t for times in readings for t in sorted(times)[:-1]
    )


def scaled(walls: list[float], references: list[float]) -> float:
    """The operations' mean wall time at the nominal host speed, given
    each one's reference pass time."""
    return NOMINAL_S * sum(walls) / sum(references)
