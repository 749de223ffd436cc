"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared machines whose speed drifts by up to 2x for
tens of seconds at a time while neighbours load the same cores; the raw
median of a 20 s run then moves by more than any bound a perf change
could be held to.  So every stretch of timed work is divided by the time
of a fixed kernel run just before and just after it (numpy FFTs and a
pure-Python loop, the two kinds of work freqwalk does), and multiplied
by REFERENCE_S.  setup_s and wall_s are therefore seconds at the speed
at which this kernel takes REFERENCE_S; run.py prints the raw medians
next to them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's median time on an unloaded 2-CPU x86_64 machine (numpy
# 2.4, OpenBLAS 0.3.31), where the benchmark was defined.
REFERENCE_S = 0.00105

_PHASE = np.exp(1j * 0.001 * np.arange(2048))


def _kernel() -> float:
    start = perf_counter()
    x = _PHASE
    for _ in range(8):
        x = np.fft.ifft(np.fft.fft(x) * _PHASE)
    acc, table = 0.0, {}
    for i in range(6000):
        acc += i * 0.5
        table[i & 255] = acc
    return perf_counter() - start


def calibrate() -> float:
    """Median of three kernel runs, in seconds."""
    return sorted(_kernel() for _ in range(3))[1]


class Calibrated:
    """Timed work in raw and calibrated seconds.  Work is added in
    stretches; `mark()` closes a stretch and scales it by the mean of the
    calibrations at its two ends."""

    def __init__(self):
        self._cal = calibrate()
        self.pending_s = 0.0
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def add(self, seconds: float) -> None:
        self.pending_s += seconds

    def mark(self) -> None:
        if not self.pending_s:
            return
        cal = calibrate()
        self.raw_s += self.pending_s
        self.scaled_s += self.pending_s * REFERENCE_S / (0.5 * (self._cal + cal))
        self._cal, self.pending_s = cal, 0.0
