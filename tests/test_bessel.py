"""Bessel implementation against independent high-precision oracles."""

import mpmath
import numpy as np
import pytest

import freqwalk as fw
from freqwalk.bessel import bessel_j, bessel_j_sequence


def quadrature_oracle(l: int, x: float) -> float:
    """Integral representation J_l(x) = (1/pi) int_0^pi cos(l t - x sin t) dt,
    evaluated with adaptive high-precision quadrature."""
    with mpmath.workdps(40):
        val = mpmath.quad(
            lambda t: mpmath.cos(l * t - x * mpmath.sin(t)), [0, mpmath.pi]
        ) / mpmath.pi
    return float(val)


def test_order_zero_at_zero():
    assert bessel_j(0, 0.0) == 1.0


def test_order_one_at_zero():
    assert bessel_j(1, 0.0) == 0.0


def test_j0_at_pi_frozen():
    # frozen from the quadrature oracle
    assert bessel_j(0, np.pi) == pytest.approx(-0.3042421776440938, abs=1e-14)


@pytest.mark.parametrize("l", [0, 1, 3, 10, 37])
@pytest.mark.parametrize("x", [0.01, 0.7, 3.3, 9.42477796076938, 24.5])
def test_against_quadrature_oracle(l, x):
    assert bessel_j(l, x) == pytest.approx(quadrature_oracle(l, x), abs=1e-13)


def test_accuracy_grid_vs_mpmath():
    # the stated contract: <= 1e-13 absolute over x in [0, 40], |l| <= 80
    xs = np.concatenate([np.linspace(0.0, 2.0, 9), np.linspace(2.5, 40.0, 16)])
    ls = [0, 1, 2, 5, 13, 27, 40, 61, 80]
    worst = 0.0
    for x in xs:
        seq = bessel_j_sequence(80, float(x))
        for l in ls:
            ref = float(mpmath.besselj(l, float(x)))
            worst = max(worst, abs(seq[l] - ref))
    assert worst < 1e-13


@pytest.mark.parametrize("l", [1, 2, 5, 8])
@pytest.mark.parametrize("x", [0.3, 2.9, 11.0])
def test_negative_order_parity(l, x):
    assert bessel_j(-l, x) == pytest.approx((-1) ** l * bessel_j(l, x), abs=1e-15)


def test_sequence_matches_scalar():
    seq = bessel_j_sequence(30, 7.7)
    for l in range(31):
        assert seq[l] == pytest.approx(bessel_j(l, 7.7), rel=0, abs=1e-15)


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        bessel_j(0, np.inf)
    with pytest.raises(ValueError):
        bessel_j_sequence(3, np.nan)


@pytest.mark.parametrize("x", [-1.0, -30.0, -50.0])
def test_rejects_negative_argument(x):
    # J_1(-50) = -J_1(50) = 0.0975; a power series summed at x = -50 is
    # far off, so negative x must not reach one
    with pytest.raises(ValueError, match=">= 0"):
        bessel_j(1, x)


@pytest.mark.parametrize(
    "l, x",
    [(171, 1.0), (171, 2.0), (200, 1.5), (200, 0.5), (-201, 0.5), (175, 1.99), (400, 1e-3)],
)
def test_high_order_small_argument(l, x):
    # l! exceeds the double range past l = 170; the values are finite
    # (J_171(2) = 8.0e-310, J_200(0.5) = 4.9e-496, which is 0.0 in double)
    seq = bessel_j_sequence(abs(l), x)
    assert np.isfinite(seq).all()
    ref = [float(mpmath.besselj(k, x)) for k in range(171, abs(l) + 1)]
    assert np.max(np.abs(seq[171:] - ref)) <= 1e-300
    assert abs(bessel_j(l, x) - float(mpmath.besselj(l, x))) <= 1e-300


def test_unaddressable_orders_refused():
    # the recurrence for J_0(1e30) would start at order ~1e30, and J_0 ..
    # J_{2^61} would take 2^64 bytes: each names its argument at once
    with pytest.raises(fw.ConfigurationError, match="^x 1e\\+30 too large"):
        bessel_j(0, 1e30)
    with pytest.raises(fw.ConfigurationError, match="^lmax 2305843009213693952 too large"):
        bessel_j_sequence(2**61, 3.0)
    with pytest.raises(fw.ConfigurationError, match="^gamma 1e\\+30 too large"):
        fw.translation_kernel(1e30, 0.0)
