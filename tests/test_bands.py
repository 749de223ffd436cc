import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import freqwalk as fw

FIG2 = dict(theta=-np.pi / 2, phi_h=0.0, phi_v=3 * np.pi / 4)


def params(gamma, **kw):
    base = dict(FIG2)
    base.update(kw)
    return fw.ModulationParams(gamma=gamma, **base)


class TestUkMatrix:
    def test_x_gate_point(self):
        # theta=pi with modulation arguments pi (H) and 0 (V) at q=0
        p = fw.ModulationParams(gamma=np.pi, phi_h=0.0, phi_v=np.pi / 2, theta=np.pi)
        m = fw.uk_matrix(p, 0.0)
        assert np.allclose(m, [[0, 1], [1, 0]], atol=1e-14)

    def test_identity_point(self):
        m = fw.uk_matrix(fw.ModulationParams(gamma=0.0, theta=0.0), 0.3)
        assert np.allclose(m, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("q", [-2.0, 0.0, 1.1])
    def test_unitary_and_determinant(self, q):
        p = params(np.pi)
        m = fw.uk_matrix(p, q)
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
        alpha, beta = np.cos(q + p.phi_h), np.cos(q + p.phi_v)
        assert np.linalg.det(m) == pytest.approx(
            np.exp(1j * p.gamma * (alpha + beta)), abs=1e-12
        )


class TestQuasienergy:
    def test_flat_bands_at_gamma_zero(self):
        eps_p, eps_m = fw.quasienergy_closed_form(params(0.0), 0.7)
        assert sorted([eps_p, eps_m]) == pytest.approx([-0.125, 0.125], abs=1e-14)

    @pytest.mark.parametrize("gamma", [0.0, 0.06 * np.pi, 1.0, np.pi, 3 * np.pi])
    def test_closed_form_matches_diagonalization(self, gamma):
        p = params(gamma)
        qs = -np.pi + 2 * np.pi * np.arange(2048) / 2048
        for q in qs[::64]:
            pt = fw.quasienergy_numeric(p, q)
            cf = fw.quasienergy_closed_form(p, q)
            assert cf[0] == pytest.approx(pt.eps_plus, abs=1e-10)
            assert cf[1] == pytest.approx(pt.eps_minus, abs=1e-10)

    def test_weak_modulation_bandwidth(self):
        grid = fw.band_grid(params(0.06 * np.pi), 1024)
        for branch in "+-":
            e = grid.branch(branch)
            assert 0.018 <= e.max() - e.min() <= 0.023

    def test_periodicity(self):
        p = params(np.pi)
        for q in (-np.pi, 0.4):
            a = fw.quasienergy_closed_form(p, q)
            b = fw.quasienergy_closed_form(p, q + 2 * np.pi)
            assert a == pytest.approx(b, abs=1e-12)


class TestBandPoint:
    def test_nz_limits(self):
        # diagonal (Z-gate-like) block: spinors are the poles
        p = fw.ModulationParams(gamma=np.pi, phi_h=np.pi / 2, phi_v=0.0, theta=0.0)
        pt = fw.quasienergy_numeric(p, 0.0)
        assert sorted([pt.nz_plus, pt.nz_minus]) == pytest.approx([-1.0, 1.0])

    def test_equal_superposition_nz_zero(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        assert abs(v[0]) ** 2 - abs(v[1]) ** 2 == pytest.approx(0.0)

    def test_spinors_orthonormal(self):
        pt = fw.quasienergy_numeric(params(np.pi), 0.9)
        assert np.linalg.norm(pt.spinor_plus) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(pt.spinor_minus) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(pt.spinor_plus, pt.spinor_minus)) < 1e-12


class TestBandGrid:
    def test_rejects_tiny_grid(self):
        with pytest.raises(fw.ConfigurationError):
            fw.band_grid(params(1.0), 8)

    def test_strong_modulation_spans_zone(self):
        # at moderate strength the two branches jointly fill most of the
        # folded window; at 3x that each branch wraps the full window
        grid = fw.band_grid(params(np.pi), 1024)
        both = np.concatenate([grid.branch("+"), grid.branch("-")])
        assert both.max() - both.min() > 0.85
        grid3 = fw.band_grid(params(3 * np.pi), 1024)
        for branch in "+-":
            e = grid3.branch(branch)
            assert e.max() - e.min() > 0.9

    def test_gamma_zero_flat_lines(self):
        grid = fw.band_grid(params(0.0), 64)
        for branch in "+-":
            e = grid.branch(branch)
            assert np.ptp(e) < 1e-14


class TestSpinor:
    def test_degenerate_point_rejected(self):
        with pytest.raises(fw.ConfigurationError):
            fw.eigen_spinor(fw.ModulationParams(gamma=0.0, theta=0.0), 0.3, "+")

    def test_z_gate_spinors_are_poles(self):
        p = fw.ModulationParams(gamma=np.pi, phi_h=np.pi / 2, phi_v=0.0, theta=0.0)
        spinors = [fw.eigen_spinor(p, 0.0, b) for b in "+-"]
        mods = sorted(abs(s[0]) for s in spinors)
        assert mods == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_phase_convention(self):
        v = fw.eigen_spinor(params(np.pi), 0.27 * np.pi, "+")
        k = int(np.argmax(np.abs(v)))
        assert v[k].imag == pytest.approx(0.0, abs=1e-14)
        assert v[k].real > 0


class TestGroupVelocity:
    def test_flat_band_zero(self):
        assert fw.group_velocity(params(0.0), 0.5, "+") == pytest.approx(0.0, abs=1e-9)

    def test_max_speed_monotone_in_gamma(self):
        qs = np.linspace(-np.pi, np.pi, 65)[:-1]
        maxima = []
        for gamma in (0.06 * np.pi, np.pi, 3 * np.pi):
            p = params(gamma)
            best = 0.0
            for q in qs:
                for branch in "+-":
                    try:
                        best = max(best, abs(fw.group_velocity(p, q, branch)))
                    except fw.ConfigurationError:
                        continue  # band crossing
            maxima.append(best)
        assert maxima[0] < maxima[1] < maxima[2]

    @pytest.mark.parametrize("gamma", [np.pi, 3 * np.pi])
    def test_velocity_matches_packet_transport(self, gamma):
        # independent oracle: one-step centroid displacement of a
        # narrowband eigenstate packet
        p = params(gamma)
        q = 0.27 * np.pi
        v = fw.group_velocity(p, q, "+")
        spin = fw.eigen_spinor(p, q, "+")
        cfg = fw.LatticeConfig(400)
        wp = fw.make_gaussian(
            fw.WavepacketSpec(delta=25.0, q=q, spin=(spin[0], spin[1])), cfg
        )
        shift = fw.centroid(fw.step(wp, p)) - fw.centroid(wp)
        assert shift == pytest.approx(-v, rel=0.02)

    def test_matches_eigenphase_derivative(self):
        # a point where a +-1e-4 central difference is 3.3e-3 off
        p = fw.ModulationParams(gamma=25.49576393969829, phi_h=-1.1001460400695675,
                                phi_v=0.29430682236028227, theta=0.018671090282159852)
        q0 = -2.9318000515166487
        lam0 = np.exp(-2j * np.pi * fw.quasienergy_numeric(p, q0).eps_plus)
        with mpmath.workdps(40):
            c = mpmath.cos(p.theta / 2)

            def eigenphase(q):
                # the root of the block's characteristic polynomial
                # nearest the numeric + eigenvalue, as -arg(lambda / lambda0)
                eh = mpmath.expj(p.gamma * mpmath.cos(q + p.phi_h))
                ev = mpmath.expj(p.gamma * mpmath.cos(q + p.phi_v))
                half_trace = (eh + ev) * c / 2
                root = mpmath.sqrt(half_trace**2 - eh * ev)  # det = eh ev
                lam = min(half_trace + root, half_trace - root,
                          key=lambda z: abs(z - complex(lam0)))
                return -mpmath.arg(lam / complex(lam0))

            expected = float(mpmath.diff(eigenphase, mpmath.mpf(q0)))
        assert fw.group_velocity(p, q0, "+") == pytest.approx(expected, rel=1e-9)


def circular_gap(a, b):
    """Distance between two quasienergies on the folded zone."""
    return abs((a - b + 0.5) % 1.0 - 0.5)


def tracked_band_loop(p, n_k):
    """Per-q reference for band_grid: diagonalize point by point and swap
    the labels of a point whose - spinor overlaps the previous point's +
    spinor more than its + spinor does.  Also returns the smallest gap
    between the two overlaps, where a decision is knife-edge."""
    qs = -np.pi + 2 * np.pi * np.arange(n_k) / n_k
    points, margin = [], np.inf
    for q in qs:
        pt = fw.quasienergy_numeric(p, q)
        if points:
            keep = abs(np.vdot(points[-1].spinor_plus, pt.spinor_plus)) ** 2
            swap = abs(np.vdot(points[-1].spinor_plus, pt.spinor_minus)) ** 2
            margin = min(margin, abs(keep - swap))
            if swap > keep:
                pt = dataclasses.replace(
                    pt, eps_plus=pt.eps_minus, eps_minus=pt.eps_plus,
                    nz_plus=pt.nz_minus, nz_minus=pt.nz_plus,
                    spinor_plus=pt.spinor_minus, spinor_minus=pt.spinor_plus,
                )
        points.append(pt)
    return points, margin


class TestBandGridBatched:
    @settings(max_examples=60, deadline=None)
    @given(
        gamma=st.floats(0.0, 4 * np.pi),
        theta=st.floats(-np.pi, np.pi),
        phi_h=st.floats(-np.pi, np.pi),
        phi_v=st.floats(-np.pi, np.pi),
    )
    def test_matches_per_q_loop(self, gamma, theta, phi_h, phi_v):
        p = fw.ModulationParams(gamma=gamma, phi_h=phi_h, phi_v=phi_v, theta=theta)
        expected, margin = tracked_band_loop(p, 64)
        assume(margin >= 1e-9)  # the two overlaps tie: either label is right
        # at (near-)degenerate quasienergies the spinors are undefined
        # (eigen_spinor raises there) and round-off picks them
        assume(min(circular_gap(r.eps_plus, r.eps_minus) for r in expected) >= 1e-4)
        grid = fw.band_grid(p, 64)
        assert len(grid.points) == len(expected)
        for got, ref in zip(grid.points, expected):
            assert got.q == ref.q
            for key in ("eps_plus", "eps_minus"):
                assert circular_gap(getattr(got, key), getattr(ref, key)) < 1e-12
            assert got.nz_plus == pytest.approx(ref.nz_plus, abs=1e-12)
            assert got.nz_minus == pytest.approx(ref.nz_minus, abs=1e-12)
            assert np.max(np.abs(got.spinor_plus - ref.spinor_plus)) < 1e-12
            assert np.max(np.abs(got.spinor_minus - ref.spinor_minus)) < 1e-12
