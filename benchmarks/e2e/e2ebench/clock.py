"""Calibrated time: a fixed CPU spin brackets every measured segment.

The sandbox's CPU speed drifts for seconds at a time, so wall-clock alone
cannot compare two runs.  A short allocation-free pure-Python loop runs
between segments; a segment's durations are multiplied by
``cal_ref_ms / mean(spin before, spin after)``.  The spin is one fixed mix of
work, so it over- or under-corrects code with another mix, and it cannot see
other processes taking the CPU away for longer than a spin (see the README).
"""

from __future__ import annotations

import time
from itertools import repeat
from typing import List


def spin(iterations: int) -> int:
    """Run the calibration loop; returns its duration in nanoseconds.

    Bytecode-bound and allocation-free, like most of the program's time
    today (cache hits, mutation sweeps); C-bound work slows less in this
    machine's slow mode and is over-corrected (see the README).
    """
    start = time.perf_counter_ns()
    x = 0
    for _ in repeat(None, iterations):
        x = (x + 1) & 255
    return time.perf_counter_ns() - start


class Calibrator:
    """Takes the spins of one pass and turns them into per-segment scales."""

    def __init__(self, cal_ref_ms: float, iterations: int) -> None:
        self.ref_ns = cal_ref_ms * 1e6
        self.iterations = iterations
        self.spins_ns: List[int] = []

    def spin(self) -> int:
        # Best of two: the drift this corrects lasts seconds, while a spin
        # that was descheduled once reads double and would mis-scale a whole
        # segment by a third.
        value = min(spin(self.iterations), spin(self.iterations))
        self.spins_ns.append(value)
        return value

    def scale(self, before_ns: int, after_ns: int) -> float:
        """Factor turning raw durations of a segment into calibrated ones."""
        return self.ref_ns / ((before_ns + after_ns) / 2.0)
