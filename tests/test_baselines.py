import numpy as np
import pytest

import freqwalk as fw
from freqwalk import Polarization as P
from freqwalk.baselines import (
    classical_walk_distribution,
    dtqw_diffusion,
    dtqw_step,
)


class TestClassical:
    def test_zero_steps(self):
        d = classical_walk_distribution(0)
        assert d.prob.tolist() == [1.0]

    def test_two_steps(self):
        d = classical_walk_distribution(2)
        assert d.prob[d.n + -2] == pytest.approx(0.25)
        assert d.prob[d.n + 0] == pytest.approx(0.5)
        assert d.prob[d.n + 2] == pytest.approx(0.25)
        assert d.prob[d.n + 1] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 100])
    def test_diffusion_is_sqrt_n(self, n):
        d = classical_walk_distribution(n)
        assert d.prob.sum() == pytest.approx(1.0, abs=1e-12)
        assert d.diffusion_distance() == pytest.approx(np.sqrt(n), abs=1e-10)

    def test_past_float_power_range(self):
        # 2**1100 is beyond the largest double
        d = classical_walk_distribution(1100)
        assert d.diffusion_distance() == pytest.approx(np.sqrt(1100), abs=1e-12)

    def test_parity_zeros(self):
        d = classical_walk_distribution(5)
        assert all(d.prob[m + 5] == 0.0 for m in range(-5, 6) if (m + 5) % 2)


def dense_dtqw_matrix(cfg: fw.LatticeConfig) -> np.ndarray:
    """Independent oracle: the full (2N x 2N) one-step matrix, built
    entry by entry from shift projectors and the Hadamard coin."""
    n = cfg.n_sites
    dim = 2 * n
    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = np.zeros((dim, dim), dtype=complex)
    for m_idx in range(n):
        for p in range(2):
            col = p * n + m_idx
            for pp in range(2):
                target = m_idx + 1 if pp == 0 else m_idx - 1
                if 0 <= target < n:
                    u[pp * n + target, col] = had[pp, p]
    return u


class TestDtqwStep:
    def test_one_step_from_origin(self):
        cfg = fw.LatticeConfig(4)
        out = dtqw_step(fw.make_single_site(0, P.H, cfg))
        assert out.amp[0, cfg.index(1)] == pytest.approx(1 / np.sqrt(2))
        assert out.amp[1, cfg.index(-1)] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(out.amp) == 2

    def test_two_steps_hand_enumeration(self):
        cfg = fw.LatticeConfig(4)
        out = dtqw_step(dtqw_step(fw.make_single_site(0, P.H, cfg)))
        # (|2,H> + |0,V> + |0,H> - |-2,V>) / 2
        assert out.amp[0, cfg.index(2)] == pytest.approx(0.5)
        assert out.amp[1, cfg.index(0)] == pytest.approx(0.5)
        assert out.amp[0, cfg.index(0)] == pytest.approx(0.5)
        assert out.amp[1, cfg.index(-2)] == pytest.approx(-0.5)

    def test_two_steps_return_probability(self):
        cfg = fw.LatticeConfig(4)
        s0 = fw.make_single_site(0, P.H, cfg)
        out = dtqw_step(dtqw_step(s0))
        assert fw.return_probability(out, s0) == pytest.approx(0.25)

    def test_unitary_interior(self):
        cfg = fw.LatticeConfig(20)
        s = fw.make_single_site(0, P.H, cfg)
        for _ in range(10):
            s = dtqw_step(s)
        assert s.norm() == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_matrix_oracle(self):
        cfg = fw.LatticeConfig(6)
        u = dense_dtqw_matrix(cfg)
        rng = np.random.default_rng(2)
        amp = rng.normal(size=(2, cfg.n_sites)) + 1j * rng.normal(
            size=(2, cfg.n_sites)
        )
        amp /= np.linalg.norm(amp)
        s = fw.LatticeState(cfg, amp)
        expected = (u @ amp.reshape(-1)).reshape(2, -1)
        assert np.allclose(dtqw_step(s).amp, expected, atol=1e-14)


class TestDtqwDiffusion:
    def test_zero_steps(self):
        assert dtqw_diffusion(0).shape == (0,)

    def test_first_step(self):
        assert dtqw_diffusion(1)[0] == pytest.approx(1.0)

    def test_ballistic_scaling(self):
        m = dtqw_diffusion(100)
        ratio = m / np.sqrt(np.arange(1, 101))
        assert np.all(np.diff(ratio[3:]) > 0)  # M(n)/sqrt(n) increasing, n >= 4

    def test_linear_fit_quality(self):
        m = dtqw_diffusion(100)
        n = np.arange(20, 101)
        y = m[19:]
        slope, intercept = np.polyfit(n, y, 1)
        resid = y - (slope * n + intercept)
        r2 = 1 - (resid**2).sum() / ((y - y.mean()) ** 2).sum()
        assert r2 > 0.999

    def test_asymptotic_slope_stable(self):
        m = dtqw_diffusion(100)
        slopes = m[49:] / np.arange(50, 101)
        assert slopes.max() / slopes.min() < 1.05
