import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import freqwalk as fw
from freqwalk import Polarization as P
from freqwalk import engine
from freqwalk.bessel import bessel_j
from freqwalk.engine import BOUNDARY_TOL

FIG2 = dict(theta=-np.pi / 2, phi_h=0.0, phi_v=3 * np.pi / 4)


def random_interior_state(cfg, rng, support=20):
    amp = np.zeros((2, cfg.n_sites), dtype=complex)
    lo, hi = cfg.index(-support), cfg.index(support) + 1
    amp[:, lo:hi] = rng.normal(size=(2, hi - lo)) + 1j * rng.normal(size=(2, hi - lo))
    amp /= np.linalg.norm(amp)
    return fw.LatticeState(cfg, amp)


def reference_step(state, params):
    """One spectral roundtrip built from its parts: position-space coin
    rotation, then ifft / phase / fft on each polarization row."""
    rotated = fw.apply_rotation(state, params.theta)
    q = 2 * np.pi * np.fft.fftfreq(state.config.n_sites)
    amp = np.empty_like(state.amp)
    for row, phi in ((0, params.phi_h), (1, params.phi_v)):
        phase = np.exp(1j * params.gamma * np.cos(q + phi))
        amp[row] = np.fft.fft(np.fft.ifft(rotated.amp[row]) * phase)
    return state.with_amp(amp)


modulations = st.builds(
    fw.ModulationParams,
    gamma=st.floats(0.0, 3 * np.pi),
    phi_h=st.floats(-np.pi, np.pi),
    phi_v=st.floats(-np.pi, np.pi),
    theta=st.floats(-np.pi, np.pi),
)


@st.composite
def schedules(draw):
    """0-30 steps drawn from a pool of 1-3 distinct parameter sets."""
    pool = draw(st.lists(modulations, min_size=1, max_size=3, unique=True))
    n_steps = draw(st.integers(0, 30))
    picks = st.integers(0, len(pool) - 1)
    return [pool[draw(picks)] for _ in range(n_steps)]


class TestKernel:
    def test_gamma_zero_is_identity_kernel(self):
        k = fw.translation_kernel(0.0, 1.3, 1e-12)
        assert k.lmax == 0
        assert k.coeffs[0] == pytest.approx(1.0)

    def test_first_coefficient_at_pi(self):
        # c_1 = i * J_1(pi); J_1(pi) frozen from the series oracle
        k = fw.translation_kernel(np.pi, 0.0, 1e-14)
        assert k.coeffs[k.lmax + 1] == pytest.approx(
            1j * 0.2846153431797528, abs=1e-13
        )

    @pytest.mark.parametrize("gamma", [0.0, 0.06 * np.pi, 1.0, np.pi, 3 * np.pi])
    def test_parseval_completeness(self, gamma):
        k = fw.translation_kernel(gamma, 0.7, 1e-12)
        total = (np.abs(k.coeffs) ** 2).sum()
        assert 1 - 1e-12 <= total <= 1 + 1e-12
        assert k.tail_bound <= 1e-12

    def test_minimal_truncation(self):
        k = fw.translation_kernel(np.pi, 0.0, 1e-12)
        assert k.lmax > 0
        shorter = k.coeffs[1:-1]  # drop the outermost order
        assert 1 - (np.abs(shorter) ** 2).sum() >= 1e-12

    def test_tol_out_of_range(self):
        with pytest.raises(fw.ConfigurationError):
            fw.translation_kernel(1.0, 0.0, 1e-3)


class TestRotation:
    def test_identity(self):
        s = fw.make_single_site(0, P.H, fw.LatticeConfig(4))
        assert np.allclose(fw.apply_rotation(s, 0.0).amp, s.amp)

    def test_pi_flips(self):
        s = fw.make_single_site(0, P.H, fw.LatticeConfig(4))
        out = fw.apply_rotation(s, np.pi)
        assert out.amp[0, 4] == pytest.approx(0.0, abs=1e-15)
        assert out.amp[1, 4] == pytest.approx(1.0)

    def test_minus_quarter_turn(self):
        s = fw.make_single_site(0, P.H, fw.LatticeConfig(4))
        out = fw.apply_rotation(s, -np.pi / 2)
        assert out.amp[0, 4] == pytest.approx(np.sqrt(0.5))
        assert out.amp[1, 4] == pytest.approx(-np.sqrt(0.5))


class TestTranslation:
    def test_direct_gamma_zero_identity(self):
        cfg = fw.LatticeConfig(10)
        s = fw.make_single_site(2, P.V, cfg)
        out = fw.apply_translation_direct(s, fw.ModulationParams(gamma=0.0))
        assert np.allclose(out.amp, s.amp, atol=1e-15)

    def test_direct_single_site_bessel_profile(self):
        cfg = fw.LatticeConfig(40)
        s = fw.make_single_site(0, P.H, cfg)
        out = fw.apply_translation_direct(s, fw.ModulationParams(gamma=np.pi))
        p = fw.probability_distribution(out)
        for m in range(-8, 9):
            assert p[cfg.index(m)] == pytest.approx(
                bessel_j(m, np.pi) ** 2, abs=1e-12
            )

    def test_spectral_plane_wave_phase(self):
        cfg = fw.LatticeConfig(32)
        n = cfg.n_sites
        j = 5
        q = 2 * np.pi * j / n  # on-grid quasimomentum
        amp = np.zeros((2, n), dtype=complex)
        amp[0] = np.exp(-1j * q * cfg.sites) / np.sqrt(n)
        s = fw.LatticeState(cfg, amp)
        params = fw.ModulationParams(gamma=1.7, phi_h=0.4, phi_v=0.0)
        out = fw.apply_translation_spectral(s, params)
        expected = np.exp(1j * 1.7 * np.cos(q + 0.4)) * amp[0]
        assert np.allclose(out.amp[0], expected, atol=1e-12)

    def test_spectral_norm_preserved(self):
        cfg = fw.LatticeConfig(64)
        s = random_interior_state(cfg, np.random.default_rng(3))
        out = fw.apply_translation_spectral(
            s, fw.ModulationParams(gamma=3 * np.pi, phi_h=0.1, phi_v=2.0)
        )
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_direct_reports_leak(self):
        cfg = fw.LatticeConfig(6)
        s = fw.make_single_site(0, P.H, cfg)
        with pytest.warns(UserWarning):
            out = fw.apply_translation_direct(s, fw.ModulationParams(gamma=3 * np.pi))
        assert out.meta["norm_leak"] > 1e-6
        assert out.norm() < 1.0


class TestStep:
    def test_coin_only_no_motion(self):
        cfg = fw.LatticeConfig(8)
        s = fw.make_single_site(0, P.H, cfg)
        out = fw.step(s, fw.ModulationParams(gamma=0.0, theta=np.pi / 2))
        assert fw.probability_distribution(out)[cfg.index(0)] == pytest.approx(1.0)

    def test_engine_equivalence_interior(self):
        cfg = fw.LatticeConfig(80)
        rng = np.random.default_rng(11)
        for gamma in (0.06 * np.pi, 1.0, np.pi, 3 * np.pi):
            params = fw.ModulationParams(gamma=gamma, **FIG2)
            s = random_interior_state(cfg, rng)
            a = fw.step(s, params, "spectral")
            b = fw.step(s, params, "direct")
            assert np.max(np.abs(a.amp - b.amp)) < 1e-8

    def test_unknown_engine(self):
        s = fw.make_single_site(0, P.H, fw.LatticeConfig(4))
        with pytest.raises(fw.ConfigurationError):
            fw.step(s, fw.ModulationParams(gamma=0.0), "magic")

    @settings(max_examples=30, deadline=None)
    @given(
        gamma=st.floats(0.0, 3 * np.pi),
        phi_h=st.floats(-np.pi, np.pi),
        phi_v=st.floats(-np.pi, np.pi),
        theta=st.floats(-np.pi, np.pi),
        seed=st.integers(0, 2**31),
    )
    def test_spectral_step_unitary(self, gamma, phi_h, phi_v, theta, seed):
        cfg = fw.LatticeConfig(30)
        s = random_interior_state(cfg, np.random.default_rng(seed), support=10)
        params = fw.ModulationParams(gamma=gamma, phi_h=phi_h, phi_v=phi_v, theta=theta)
        assert abs(fw.step(s, params).norm() - 1.0) < 1e-12

    def test_q_profile_invariant(self):
        cfg = fw.LatticeConfig(60)
        s = random_interior_state(cfg, np.random.default_rng(5))
        params = fw.ModulationParams(gamma=np.pi, **FIG2)
        out = fw.step(s, params)
        before = np.abs(np.fft.ifft(s.amp, axis=1) ** 2).sum(axis=0)
        after = np.abs(np.fft.ifft(out.amp, axis=1) ** 2).sum(axis=0)
        assert np.max(np.abs(before - after)) < 1e-10

    def test_small_gamma_converges_to_rotation(self):
        cfg = fw.LatticeConfig(20)
        s = fw.make_single_site(0, P.H, cfg)
        rotated = fw.apply_rotation(s, 0.7)
        for eps in (1e-3, 1e-5):
            out = fw.step(s, fw.ModulationParams(gamma=eps, theta=0.7))
            assert np.max(np.abs(out.amp - rotated.amp)) < 3 * eps


class TestEvolve:
    def test_zero_steps_snapshot_only(self):
        s = fw.make_single_site(0, P.H, fw.LatticeConfig(8))
        traj = fw.evolve(s, fw.ModulationParams(gamma=0.0), n_steps=0)
        assert traj.steps == [0]

    def test_composition_law(self):
        cfg = fw.LatticeConfig(100)
        s = fw.make_single_site(0, P.H, cfg)
        params = fw.ModulationParams(gamma=np.pi, **FIG2)
        full = fw.evolve(s, params, n_steps=8, record=("state",))
        first = fw.evolve(s, params, n_steps=5, record=("state",))
        second = fw.evolve(
            first.records[-1]["state"], params, n_steps=3, record=("state",)
        )
        assert np.allclose(
            full.records[-1]["state"].amp, second.records[-1]["state"].amp, atol=1e-13
        )

    def test_weak_modulation_subdiffusive(self):
        s = fw.make_single_site(0, P.H, fw.LatticeConfig(120))
        params = fw.ModulationParams(gamma=0.06 * np.pi, **FIG2)
        traj = fw.evolve(s, params, n_steps=100, record=("diffusion",))
        assert traj.records[-1]["diffusion"] < 10.0

    def test_strong_modulation_symmetric_distribution(self):
        s = fw.make_single_site(0, P.H, fw.LatticeConfig(1200))
        params = fw.ModulationParams(gamma=3 * np.pi, **FIG2)
        traj = fw.evolve(s, params, n_steps=40, record=("prob",))
        p = traj.records[-1]["prob"]
        assert np.max(np.abs(p - p[::-1])) < 1e-10

    def test_boundary_abort(self):
        s = fw.make_single_site(0, P.H, fw.LatticeConfig(30))
        params = fw.ModulationParams(gamma=3 * np.pi, **FIG2)
        with pytest.raises(fw.BoundaryLeakError):
            fw.evolve(s, params, n_steps=50)

    def test_recorded_observables(self):
        s = fw.make_single_site(0, P.H, fw.LatticeConfig(60))
        params = fw.ModulationParams(gamma=1.0, **FIG2)
        traj = fw.evolve(
            s, params, n_steps=5, record=("return", "boundary", "centroid")
        )
        assert traj.records[0]["return"] == pytest.approx(1.0)
        assert all(r["boundary"] < 1e-12 for r in traj.records)
        assert len(traj.series("centroid")) == 6

    def test_unknown_observable_rejected(self):
        s = fw.make_single_site(0, P.H, fw.LatticeConfig(8))
        with pytest.raises(fw.ConfigurationError):
            fw.evolve(s, fw.ModulationParams(gamma=0.0), n_steps=1,
                      record=("momentum",))

    def test_schedule_equivalent_to_repeats(self):
        cfg = fw.LatticeConfig(60)
        s = fw.make_single_site(0, P.H, cfg)
        params = fw.ModulationParams(gamma=1.0, **FIG2)
        a = fw.evolve(s, params, n_steps=4, record=("state",))
        b = fw.evolve(s, [params] * 4, record=("state",))
        assert np.allclose(
            a.records[-1]["state"].amp, b.records[-1]["state"].amp, atol=1e-15
        )

    @settings(max_examples=100, deadline=None)
    @given(
        schedule=schedules(),
        half_width=st.integers(15, 150),
        seed=st.integers(0, 2**31),
    )
    def test_spectral_matches_reference_steps(self, schedule, half_width, seed):
        cfg = fw.LatticeConfig(half_width)
        s0 = random_interior_state(cfg, np.random.default_rng(seed), support=8)
        expected, leak = [s0], None
        for i, params in enumerate(schedule, start=1):
            s = reference_step(expected[-1], params)
            mass = fw.boundary_mass(s)
            assume(abs(mass - BOUNDARY_TOL) > 1e-9)  # no knife-edge aborts
            if mass > BOUNDARY_TOL:
                leak = (i, mass)
                break
            expected.append(s)
        if leak is not None:
            with pytest.raises(fw.BoundaryLeakError) as err:
                fw.evolve(s0, schedule, record=("state",))
            assert err.value.step == leak[0]
            assert err.value.mass == pytest.approx(leak[1], abs=1e-12)
            return
        traj = fw.evolve(s0, schedule, record=("state",))
        assert traj.steps == list(range(len(schedule) + 1))
        for rec, ref in zip(traj.records, expected):
            assert np.max(np.abs(rec["state"].amp - ref.amp)) < 1e-12


class TestDirectKernelCache:
    def test_kernels_built_once_per_params(self, monkeypatch):
        calls = []
        original = engine.bessel_j_sequence

        def counted(lmax, x):
            calls.append(lmax)
            return original(lmax, x)

        monkeypatch.setattr(engine, "bessel_j_sequence", counted)
        s = fw.make_single_site(0, P.H, fw.LatticeConfig(100))
        params = fw.ModulationParams(gamma=1.0, **FIG2)
        fw.evolve(s, params, n_steps=1, engine="direct")
        one_step = len(calls)
        calls.clear()
        fw.evolve(s, params, n_steps=20, engine="direct")
        assert len(calls) == one_step > 0

    def test_schedule_matches_direct_steps_bitwise(self):
        cfg = fw.LatticeConfig(80)
        s = random_interior_state(cfg, np.random.default_rng(5), support=8)
        a = fw.ModulationParams(gamma=1.0, **FIG2)
        b = fw.ModulationParams(gamma=2.5, phi_h=0.3, phi_v=-1.1, theta=0.7)
        schedule = [a, b, a, a, b, fw.ModulationParams(gamma=0.0), b]
        traj = fw.evolve(s, schedule, engine="direct", record=("state",))
        expected = s
        for params, rec in zip(schedule, traj.records[1:]):
            expected = fw.step(expected, params, "direct")
            assert np.array_equal(rec["state"].amp, expected.amp)


def whole_lattice_direct(state, kernels, theta):
    """The direct roundtrip over every site: rotate the whole lattice,
    convolve each row in full and keep the n on-lattice outputs; the leak
    is the difference of the two sums."""
    rotated = fw.apply_rotation(state, theta).amp
    n = state.config.n_sites
    amp = np.empty_like(rotated)
    leak = 0.0
    for row, kern in enumerate(kernels):
        full = np.convolve(rotated[row], kern.coeffs, mode="full")
        amp[row] = full[kern.lmax : kern.lmax + n]
        leak += float((np.abs(full) ** 2).sum() - (np.abs(amp[row]) ** 2).sum())
    return amp, leak


@st.composite
def sparse_states(draw):
    """Lattices of 3-801 sites holding 0-3 segments of random amplitude:
    empty, single sites, gapped supports, and segments that touch or run
    past either edge, on the H row, the V row or both."""
    cfg = fw.LatticeConfig(draw(st.one_of(st.integers(1, 12), st.integers(1, 400))))
    n = cfg.n_sites
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    amp = np.zeros((2, n), dtype=complex)
    for _ in range(draw(st.integers(0, 3))):
        width = draw(st.integers(1, 40))
        start = draw(st.integers(1 - width, n - 1))
        lo, hi = max(0, start), min(n, start + width)
        rows = draw(st.sampled_from([[0], [1], [0, 1]]))
        amp[rows, lo:hi] = rng.normal(size=(len(rows), hi - lo)) + 1j * rng.normal(
            size=(len(rows), hi - lo)
        )
    if amp.any():
        amp /= np.linalg.norm(amp)
    return fw.LatticeState(cfg, amp)


class TestDirectWindow:
    """The direct engine works only on the occupied window; its states must
    be bitwise those of the whole-lattice convolution."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        state=sparse_states(),
        params=st.builds(
            fw.ModulationParams,
            gamma=st.floats(0.0, 30 * np.pi),
            phi_h=st.floats(-np.pi, np.pi),
            phi_v=st.floats(-np.pi, np.pi),
            theta=st.floats(-4 * np.pi, 4 * np.pi),
        ),
        n_steps=st.integers(1, 3),
    )
    def test_matches_whole_lattice(self, state, params, n_steps):
        kernels = engine._direct_kernels(params)
        expected, leak = whole_lattice_direct(state, kernels, params.theta)

        out = engine._convolve_direct(state, kernels, params.theta)
        assert np.array_equal(out.amp, expected)
        assert out.meta["norm_leak"] == pytest.approx(leak, abs=1e-15)

        out = fw.step(state, params, "direct")
        assert np.array_equal(out.amp, expected)
        assert out.meta["norm_leak"] == pytest.approx(leak, abs=1e-15)

        traj = fw.evolve(state, params, n_steps=n_steps, engine="direct",
                         record=("state",), boundary_tol=np.inf)
        for rec in traj.records[1:]:
            assert np.array_equal(rec["state"].amp, expected)
            expected, _ = whole_lattice_direct(rec["state"], kernels, params.theta)
