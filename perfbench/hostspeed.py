"""Host-speed calibration for the benchmark's timings.

On a shared host the same command runs 15-40% faster or slower over
minutes, and two sets of runs taken apart disagree by as much. So each
timed operation is bracketed by a fixed calibration workload and its
time is scaled to the speed of a reference host:

    scaled = wall * REFERENCE_S / mean(calibration before, calibration after)

The calibration mixes small numpy kernels at the model's shapes (batch
32, 26 tokens, width 32) with a pure-python dict loop, as the program
does. It never calls lethevit, so a change to the program moves the scaled
time exactly as much as the wall time; only the host's speed cancels.
The run also reports the raw wall times and calibration times.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import erf

# About the median calibration time on the reference host (a Xeon under
# KVM with 2 vCPUs, one BLAS thread, while quiet). It only sets the scale:
# a scaled time reads as seconds on that host at that speed.
REFERENCE_S = 0.08

_RNG = np.random.default_rng(0)
_X = _RNG.normal(size=(32, 26, 32))
_W = _RNG.normal(size=(32, 64)) * 0.1


def calibrate() -> float:
    """Wall seconds of one run of the fixed calibration workload."""
    start = time.perf_counter()
    for _ in range(30):
        h = _X @ _W
        g = 0.5 * h * (1.0 + erf(h * 0.7071067811865476))
        y = (g - g.mean(axis=-1, keepdims=True)) / np.sqrt(g.var(axis=-1, keepdims=True) + 1e-5)
        z = np.swapaxes(y, -1, -2) @ y
        table = {i: float(z[0, i % 64, 0]) for i in range(200)}
    total = 0
    for i in range(150_000):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - start


class Clock:
    """Times operations and scales each by the calibrations around it.

    Consecutive operations share the calibration between them. Call
    `interrupt()` after untimed work, so that the next operation is
    calibrated afresh rather than against a stale measurement.
    """

    def __init__(self):
        self._last: float | None = None
        self.calibrations: list[float] = []
        calibrate()  # untimed: warms the calibration's own caches

    def _calibrate(self) -> float:
        seconds = calibrate()
        self.calibrations.append(seconds)
        return seconds

    def interrupt(self) -> None:
        self._last = None

    def time(self, fn, *args):
        """(fn's result, wall seconds, scaled seconds) of one call."""
        before = self._last if self._last is not None else self._calibrate()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        self._last = after = self._calibrate()
        return result, wall, wall * REFERENCE_S / ((before + after) / 2)
