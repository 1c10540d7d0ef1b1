"""Machine-speed reference for the benchmark's timings.

The benchmark runs on a few cores of a shared host, whose speed drifts by up
to a factor of two over minutes as other tenants load it; CPU time drifts
with wall time, so the slowdown is in the core, not in scheduling.  To keep
that drift out of the figures, the runner times a fixed piece of work of its
own right after each job and rescales the job's time to the speed this work
shows nearby:

    scaled = elapsed * NOMINAL_S / mean(calibration before, calibration after)

where a calibration is the time of one unit of the work, averaged over
enough units to last about ``SHARE`` of the job, so that a long job is set
against a long stretch of the host's speed.

``NOMINAL_S`` is a constant, about the calibration's time on an unloaded
core of the host the benchmark was written on (a 2.1 GHz Xeon VM), so a
scaled time reads as the seconds the job would take there.  The work mixes
the three kinds obsched does: scalar Python float arithmetic (per-step
``phi`` and ``CostFn.eval``), numpy on grid-sized arrays (the batch orbit
sums) and numpy on DP-grid-sized arrays (value iteration).  Only numpy and
the standard library are used, so a change to obsched never changes it.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.04
SHARE = 0.15

SCALAR_STEPS = 60_000
SMALL_STEPS, SMALL_SIZE = 2_000, 256
LARGE_STEPS, LARGE_SIZE = 400, 4096


def _work() -> float:
    x, acc = 0.5, 0.0
    for _ in range(SCALAR_STEPS):
        x = (0.81 * x + 1.0) / (0.3 * x + 1.2)
        acc += math.log(x)
    a = np.linspace(0.1, 2.0, SMALL_SIZE)
    for _ in range(SMALL_STEPS):
        a = (0.81 * a + 1.0) / (0.3 * a + 1.2)
        acc += float(np.log(a).sum())
    b = np.linspace(0.1, 2.0, LARGE_SIZE)
    tmp = np.empty_like(b)
    for _ in range(LARGE_STEPS):
        np.multiply(b, 0.81, out=tmp)
        tmp += 1.0
        b = tmp / (0.3 * b + 1.2)
        acc += float(np.minimum.accumulate(b)[-1])
    return acc


def calibrate(units: int = 1) -> float:
    """Seconds one unit of the fixed reference work takes now."""
    start = time.perf_counter()
    for _ in range(units):
        _work()
    return (time.perf_counter() - start) / units


class Scaler:
    """Rescales consecutive timings by the calibrations that bracket them."""

    def __init__(self) -> None:
        self.last = calibrate()

    def scale(self, elapsed: float) -> float:
        """Scale a timing just taken; calibrates once more, after it."""
        units = max(1, round(SHARE * elapsed / NOMINAL_S))
        before, self.last = self.last, calibrate(units)
        return elapsed * NOMINAL_S / (0.5 * (before + self.last))
