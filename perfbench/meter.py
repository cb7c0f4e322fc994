"""Host time scaled to a reference machine speed.

The machine this benchmark targets is shared: the speed of pure-Python code
on it drifts by up to 60% over tens of seconds, so raw host times from runs a
minute apart spread further than any useful bound. A short calibration loop
runs before and after each timed segment, and the segment's host time is
scaled by REFERENCE_CAL_S over the mean of the two calibration times. The
scaled figure is the segment's host time on a machine running the loop in
REFERENCE_CAL_S; on a quiet 2-core host it reads close to raw host time.
The loop is the harness's own code, so no change to the program moves it.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import NamedTuple

CAL_ITERS = 1600
CAL_SLICES = 5
REFERENCE_CAL_S = 0.0012  # median slice time between passes on a quiet host


class _P(NamedTuple):
    x: float
    y: float


def _slice() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    seen = {}
    for i in range(CAL_ITERS):
        p = _P(i * 0.37 % 7.0, i * 0.11 % 5.0)
        acc += math.hypot(p.x - 1.0, p.y - 2.0)
        seen[p] = i
    return time.perf_counter() - t0


def calibrate() -> float:
    """Host seconds for a fixed interpreter-bound mix like the program's:
    tuple construction, float math, attribute reads and hashing. The median
    of a few short slices, since a single slice now and then runs 30% slow."""
    return statistics.median(_slice() for _ in range(CAL_SLICES))


class Meter:
    """Times segments of program work; ``raw`` and ``scaled`` sum them."""

    def __init__(self):
        self._last = calibrate()
        self.raw = 0.0
        self.scaled = 0.0

    def time(self, fn, *args):
        """Call fn(*args); returns (result or None, exception or None, scaled seconds)."""
        result = error = None
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as e:  # the caller decides whether a failure is expected
            error = e
        raw = time.perf_counter() - t0
        after = calibrate()
        scaled = raw * REFERENCE_CAL_S / ((self._last + after) / 2)
        self._last = after
        self.raw += raw
        self.scaled += scaled
        return result, error, scaled
