"""Bessel functions of the first kind, J_l(x).

These set the long-range hop amplitudes of the translation operator, so
they are computed in-house rather than pulled from scipy: the direct
(kernel-convolution) engine is meant to be an oracle that shares no
numerics with the spectral engine, and the test suite checks this
implementation against an independent high-precision reference.

Strategy: ascending power series for small arguments, backward (Miller)
recurrence normalized with J_0 + 2*sum_k J_{2k} = 1 otherwise.
"""

from __future__ import annotations

import math

import numpy as np

# Below this argument the power series converges fast and is free of the
# cancellation that sets in for x >~ 10.
_SERIES_CUTOFF = 2.0
_MAX_FACTORIAL = 170  # the largest l whose l! converts to a double
_SERIES_TERMS = 36  # at most this many terms of the series are summed


def _series(l: int, x: float) -> float:
    """Ascending series J_l(x) = sum_j (-1)^j (x/2)^(l+2j) / (j! (l+j)!), for
    0 < x <= 2.  Past l = 170, l! exceeds the double range, so the first
    term comes from logarithms (it is below 1e-307 there)."""
    half = 0.5 * x
    if l <= _MAX_FACTORIAL:
        term = half**l / math.factorial(l)
    else:
        term = math.exp(l * math.log(half) - math.lgamma(l + 1))
    total = term
    for j in range(1, _SERIES_TERMS):
        term *= -(half * half) / (j * (l + j))
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def _miller_start(lmax: int, x: float) -> int:
    # Start far enough above both the order and the turning point x that
    # the minimal solution has decayed below double precision.
    base = max(lmax, int(x))
    start = base + 20 + int(10.0 * math.sqrt(base + 1))
    return start + (start & 1)  # even, so the normalization sum lines up


def bessel_j_sequence(lmax: int, x: float) -> np.ndarray:
    """J_0(x) .. J_lmax(x) for x >= 0, via one backward recurrence.

    Rescales on the way down to avoid overflow when x is small compared
    with the starting order.
    """
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"argument must be finite and >= 0, got {x}")
    if x == 0.0:
        out = np.zeros(lmax + 1)
        out[0] = 1.0
        return out
    if x <= _SERIES_CUTOFF:
        return np.array([_series(l, x) for l in range(lmax + 1)])

    start = _miller_start(lmax, x)
    out = np.zeros(lmax + 1)
    jp = 0.0  # J_{k+1}, unnormalized
    jc = 1e-30  # J_k
    norm = 0.0
    for k in range(start, -1, -1):
        jm = (2.0 * (k + 1) / x) * jc - jp  # J_k from J_{k+1}, J_{k+2}
        jp, jc = jc, jm
        if k <= lmax:
            out[k] = jc
        if k % 2 == 0 and k > 0:
            norm += 2.0 * jc
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            out *= 1e-250
            norm *= 1e-250
    norm += jc  # the k = 0 term
    return out / norm


def bessel_j(l: int, x: float) -> float:
    """J_l(x) for integer order (any sign) and real x >= 0."""
    l = int(l)
    sign = -1.0 if l < 0 and l & 1 else 1.0  # J_{-l} = (-1)^l J_l
    return sign * float(bessel_j_sequence(abs(l), x)[-1])
