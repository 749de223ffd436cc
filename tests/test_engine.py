import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import freqwalk as fw
from freqwalk import Polarization as P
from freqwalk import cli, engine, gates, lattice
from freqwalk.bessel import _miller_start, bessel_j, bessel_j_sequence
from freqwalk.engine import BOUNDARY_TOL, KERNEL_TOL
from freqwalk.lattice import EDGE_MARGIN

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


@pytest.fixture
def bessel_orders(monkeypatch):
    """The orders of the Bessel sequences that `engine` computes, in call order."""
    orders = []
    original = engine.bessel_j_sequence

    def counted(lmax, x):
        orders.append(lmax)
        return original(lmax, x)

    monkeypatch.setattr(engine, "bessel_j_sequence", counted)
    return orders


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


def linear_search_lmax(gamma, sequence=bessel_j_sequence):
    """The truncation search that `translation_kernel` replaced, as its
    oracle: grow lmax by 4, recomputing the whole sequence at each try,
    then back off order by order on the last sequence."""
    lmax = 0
    while True:
        j = sequence(lmax, gamma)
        total = j[0] ** 2 + 2.0 * (j[1:] ** 2).sum()
        tail = 1.0 - total
        if tail < KERNEL_TOL:
            break
        lmax += 4
    while lmax > 0:
        shorter = 1.0 - (j[0] ** 2 + 2.0 * (j[1 : lmax] ** 2).sum())
        if shorter < KERNEL_TOL:
            lmax -= 1
        else:
            break
    return lmax


def miller_sequences(lmaxes, xs):
    """`bessel_j_sequence(lmax, x)` of each pair with x > 2, from one
    backward recurrence run across all pairs at once.  Each column takes
    the float operations of the scalar loop in its order, from its own
    start, so it is bitwise the scalar sequence
    (`test_miller_sequences_are_exact`)."""
    lmaxes, xs = np.asarray(lmaxes), np.asarray(xs, dtype=float)
    starts = np.array([_miller_start(l, x) for l, x in zip(lmaxes.tolist(), xs.tolist())])
    out = np.zeros((lmaxes.max() + 1, xs.size))
    jp, jc, norm = np.zeros(xs.size), np.full(xs.size, 1e-30), np.zeros(xs.size)
    for k in range(starts.max(), -1, -1):
        on = k <= starts  # the columns whose recurrence has started
        jm = (2.0 * (k + 1) / xs) * jc - jp
        jp, jc = np.where(on, jc, jp), np.where(on, jm, jc)
        keep = k <= lmaxes
        if keep.any():
            out[k, keep] = jc[keep]
        if k % 2 == 0 and k > 0:
            norm = np.where(on, norm + 2.0 * jc, norm)
        big = np.abs(jc) > 1e250
        if big.any():
            jc[big] *= 1e-250
            jp[big] *= 1e-250
            out[:, big] *= 1e-250
            norm[big] *= 1e-250
    norm += jc
    return [out[: l + 1, i] / norm[i] for i, l in enumerate(lmaxes.tolist())]


def kernel_tail(j):
    return 1.0 - (j[0] ** 2 + 2.0 * (j[1:] ** 2).sum())


def linear_search_lmaxes(gammas):
    """`linear_search_lmax` of each Gamma, so the oracle can run over a fine
    grid of Gamma.  The sequences it asks for are made ahead, for all
    Gammas at once, by `miller_sequences`: J_0 .. J_int(Gamma), whose
    prefixes are bitwise the shorter sequences (the recurrence starts from
    the same order; `test_sequence_prefixes_are_exact`), then one round per
    multiple of 4 above int(Gamma), for each Gamma whose last try missed
    the tolerance.  Gamma <= 2 takes the power series, which is cheap as
    it is."""
    miller = [g for g in gammas if g > 2.0]
    tops = dict(zip(miller, miller_sequences([int(g) for g in miller], miller)))
    extras = {g: {} for g in miller}
    pending = [g for g in miller if kernel_tail(tops[g][: 4 * (int(g) // 4) + 1]) >= KERNEL_TOL]
    rounds = 1
    while pending:
        lmaxes = [4 * (int(g) // 4 + rounds) for g in pending]
        for g, lmax, j in zip(pending, lmaxes, miller_sequences(lmaxes, pending)):
            extras[g][lmax] = j
        pending = [g for g, lmax in zip(pending, lmaxes)
                   if kernel_tail(extras[g][lmax]) >= KERNEL_TOL]
        rounds += 1

    def sequence(g):
        if g <= 2.0:
            return bessel_j_sequence
        return lambda lmax, x: tops[g][: lmax + 1] if lmax <= int(g) else extras[g][lmax]

    return [linear_search_lmax(g, sequence(g)) for g in gammas]


# 0..100pi with the near-ties where a running-sum search goes wrong
# (indices 618 and 1237) and the Gammas whose first sequence is too short
# to meet the tolerance (17, 18, 19 and 38), the README values of Gamma,
# and two Gammas whose running sums guess one multiple of 4 too high
# (3005 and 3006)
KERNEL_GAMMAS = [*np.linspace(0, 100 * np.pi, 3001), 0.06 * np.pi, np.pi,
                 3 * np.pi, 30 * np.pi, 119.22006136344095, 271.56368397768466]


class TestKernel:
    def test_gamma_zero_is_identity_kernel(self):
        k = fw.translation_kernel(0.0, 1.3)
        assert k.lmax == 0
        assert k.coeffs[0] == pytest.approx(1.0)

    def test_first_coefficient_at_pi(self):
        # c_1 = i * J_1(pi); J_1(pi) frozen from the series oracle
        k = fw.translation_kernel(np.pi, 0.0)
        assert k.coeffs[k.lmax + 1] == pytest.approx(
            1j * 0.2846153431797528, abs=1e-13
        )

    @pytest.mark.parametrize("gamma", [0.0, 0.06 * np.pi, 1.0, np.pi, 3 * np.pi])
    def test_parseval_completeness(self, gamma):
        k = fw.translation_kernel(gamma, 0.7)
        total = (np.abs(k.coeffs) ** 2).sum()
        assert 1 - 1e-12 <= total <= 1 + 1e-12
        assert k.tail_bound <= 1e-12

    def test_minimal_truncation(self):
        k = fw.translation_kernel(np.pi, 0.0)
        assert k.lmax > 0
        shorter = k.coeffs[1:-1]  # drop the outermost order
        assert 1 - (np.abs(shorter) ** 2).sum() >= 1e-12

    @pytest.mark.parametrize("gamma", [-1.0, -1e-300, np.inf, np.nan])
    def test_bad_gamma(self, gamma):
        with pytest.raises(fw.ConfigurationError):
            fw.translation_kernel(gamma, 0.0)

    @pytest.mark.parametrize("x", [0.0, 0.5, 2.0, 2.5, 7.3, 20.6 * np.pi, 100 * np.pi])
    def test_sequence_prefixes_are_exact(self, x):
        top = bessel_j_sequence(int(x), x)
        for lmax in range(0, int(x) + 1, max(1, int(x) // 7)):
            assert bessel_j_sequence(lmax, x).tobytes() == top[: lmax + 1].tobytes()

    # x = 2.5 at lmax = 400 starts 620 orders up and rescales on the way down
    @pytest.mark.parametrize("x", [2.01, 2.5, 7.3, 20.6 * np.pi, 100 * np.pi])
    def test_miller_sequences_are_exact(self, x):
        lmaxes = [0, 3, int(x), 4 * (int(x) // 4 + 1), 4 * (int(x) // 4 + 9), 400]
        for lmax, j in zip(lmaxes, miller_sequences(lmaxes, [x] * len(lmaxes))):
            assert j.tobytes() == bessel_j_sequence(lmax, x).tobytes()

    def test_oracle_is_the_linear_search(self):
        gammas = [KERNEL_GAMMAS[i] for i in (0, 1, 20, 21, 618)]
        assert linear_search_lmaxes(gammas) == [linear_search_lmax(g) for g in gammas]

    def test_matches_linear_search(self):
        for gamma, expected in zip(KERNEL_GAMMAS, linear_search_lmaxes(KERNEL_GAMMAS)):
            assert fw.translation_kernel(gamma, 0.0).lmax == expected, gamma

    @pytest.mark.parametrize(
        "i", [0, 1, 17, 18, 19, 38, 618, 1237, 3000, 3001, 3002, 3003, 3004, 3005, 3006]
    )
    def test_matches_linear_search_verbatim(self, i):
        gamma = KERNEL_GAMMAS[i]
        assert fw.translation_kernel(gamma, 0.0).lmax == linear_search_lmax(gamma)

    @pytest.mark.parametrize("gamma", [1000.0, 3000.0])
    def test_search_cost_linear_in_gamma(self, gamma, bessel_orders):
        fw.translation_kernel(gamma, 0.0)
        assert len(bessel_orders) <= 5
        assert sum(bessel_orders) <= 6 * gamma

    # 1.78: the guess sequence never meets the tolerance, and the settle
    # starts at its end; pi: the settle passes at the guess order
    @pytest.mark.parametrize("gamma,orders", [(1.78, [8, 12, 9]), (np.pi, [12, 8, 11])])
    def test_each_sequence_computed_once(self, gamma, orders, bessel_orders):
        fw.translation_kernel(gamma, 0.0)
        assert bessel_orders == orders


class TestKernelReach:
    """The closed-form bound that refuses a huge Gamma before any Bessel
    work holds wherever the search runs: on KERNEL_GAMMAS, and log-uniform
    from 1e-9 (J_0 alone) to 1e5 (0.25 s a kernel).  The examples sit
    closest to it: lmax 3 from Gamma = 0.0324, and lmax - Gamma exactly 5
    Gamma^(1/3) at 1000."""

    @settings(max_examples=150, deadline=None)
    @given(gamma=st.sampled_from(KERNEL_GAMMAS) | st.floats(-9, 5).map(lambda e: 10.0**e))
    @example(gamma=0.0330)
    @example(gamma=1000.0)
    def test_bounds_the_search(self, gamma):
        assert fw.translation_kernel(gamma, 0.0).lmax <= engine._kernel_reach(gamma)


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
        out = fw.step(s, fw.ModulationParams(gamma=0.0), "direct")
        assert np.allclose(out.amp, s.amp, atol=1e-15)

    def test_direct_single_site_bessel_profile(self):
        cfg = fw.LatticeConfig(40)
        s = fw.make_single_site(0, P.H, cfg)
        out = fw.step(s, fw.ModulationParams(gamma=np.pi), "direct")
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
        out = fw.step(s, params)
        expected = np.exp(1j * 1.7 * np.cos(q + 0.4)) * amp[0]
        assert np.allclose(out.amp[0], expected, atol=1e-12)

    def test_spectral_norm_preserved(self):
        cfg = fw.LatticeConfig(64)
        s = random_interior_state(cfg, np.random.default_rng(3))
        out = fw.step(s, fw.ModulationParams(gamma=3 * np.pi, phi_h=0.1, phi_v=2.0))
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_direct_reports_leak(self):
        cfg = fw.LatticeConfig(6)
        s = fw.make_single_site(0, P.H, cfg)
        with pytest.warns(UserWarning):
            out = fw.step(s, fw.ModulationParams(gamma=3 * np.pi), "direct")
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
    def test_kernels_built_once_per_params(self, bessel_orders):
        s = fw.make_single_site(0, P.H, fw.LatticeConfig(100))
        params = fw.ModulationParams(gamma=1.0, **FIG2)
        engine._direct_kernels.cache_clear()
        fw.evolve(s, params, n_steps=1, engine="direct")
        one_step = len(bessel_orders)
        bessel_orders.clear()
        engine._direct_kernels.cache_clear()
        fw.evolve(s, params, n_steps=20, engine="direct")
        assert len(bessel_orders) == one_step > 0

    def test_rows_share_one_sequence(self, bessel_orders):
        # the search's orders at pi, then lmax + 8 = 19 once for both rows
        engine._direct_kernels.cache_clear()
        params = fw.ModulationParams(gamma=np.pi, **FIG2)
        taps = engine._direct_kernels(params)
        assert bessel_orders == [12, 8, 11, 19]
        j = bessel_j_sequence(19, np.pi)
        rows = [engine._build_kernel(np.pi, phi, j).coeffs for phi in (params.phi_h, params.phi_v)]
        assert taps.shape == (2, 39) and taps.tobytes() == b"".join(r.tobytes() for r in rows)

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


def whole_lattice_direct(state, taps, theta):
    """The direct roundtrip over every site: rotate the whole lattice,
    convolve each row with its row of taps in full and keep the n
    on-lattice outputs; the leak is the difference of the two sums."""
    rotated = fw.apply_rotation(state, theta).amp
    n, lmax = state.config.n_sites, taps.shape[1] // 2
    amp = np.empty_like(rotated)
    leak = 0.0
    for row, kern in enumerate(taps):
        full = np.convolve(rotated[row], kern, mode="full")
        amp[row] = full[lmax : lmax + n]
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
        taps = engine._direct_kernels(params)
        expected, leak = whole_lattice_direct(state, taps, params.theta)

        out = state.amp.copy()
        assert engine._convolve_direct(out, taps, params.theta, True) == pytest.approx(
            leak, abs=1e-15)
        assert np.array_equal(out, expected)

        out = fw.step(state, params, "direct")
        assert np.array_equal(out.amp, expected)
        assert out.meta["norm_leak"] == pytest.approx(leak, abs=1e-15)

        # the walk itself, without the edge abort that `evolve` adds
        for amps, leaks in engine._chunks(state.amp[None], ([params] * n_steps,), "direct"):
            assert np.array_equal(amps[0, 0], expected)
            assert leaks[0, 0] == pytest.approx(leak, abs=1e-15)
            expected, leak = whole_lattice_direct(state.with_amp(amps[0, 0]), taps, params.theta)


def one_thread_direct(state, taps, theta):
    """`_convolve_direct` with both rows convolved in this thread, H then
    V: the same window, the same np.convolve calls, and the leak summed in
    row order."""
    sites = np.flatnonzero(state.amp.any(axis=0))
    amp = np.zeros_like(state.amp)
    if not sites.size:
        return amp, 0.0
    n, lmax = state.config.n_sites, taps.shape[1] // 2
    a = max(0, sites[0] - 2 * lmax)
    window = engine._rotate(state.amp[:, a : sites[-1] + 2 * lmax + 1], theta)
    leak = 0.0
    for row, kern in enumerate(taps):
        full = np.convolve(window[row], kern, mode="full")
        start = a - lmax
        lo, hi = max(0, start), min(n, start + full.size)
        amp[row, lo:hi] = full[lo - start : hi - start]
        dropped = np.concatenate([full[: lo - start], full[hi - start :]])
        leak += float((np.abs(dropped) ** 2).sum())
    return amp, leak


class TestDirectRows:
    """The direct engine convolves its V row on a worker thread while the
    caller convolves the H row; every bit must be that of the two rows
    convolved one after the other."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        state=sparse_states(),
        gamma=st.floats(0.0, 10.0),
        lmax=st.integers(0, 60),
        phis=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
        theta=st.floats(-4 * np.pi, 4 * np.pi),
    )
    def test_matches_rows_in_one_thread(self, state, gamma, lmax, phis, theta):
        # the rows differ in their phase, so a swap of rows shows
        j = bessel_j_sequence(lmax, gamma)
        taps = np.array([engine._build_kernel(gamma, phi, j).coeffs for phi in phis])
        expected, leak = one_thread_direct(state, taps, theta)
        for split in (True, False):
            # in place, as the walk runs it: the window is copied before `amp` is written
            amp = state.amp.copy()
            assert engine._convolve_direct(amp, taps, theta, split) == leak
            assert np.array_equal(amp, expected)

    def test_callers_on_many_threads_get_their_own_rows(self):
        # every caller shares the one worker; a V row handed to the wrong
        # caller, or lost, breaks the bits of some caller
        rng = np.random.default_rng(3)
        cases = []
        for gamma in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0):
            state = random_interior_state(fw.LatticeConfig(150), rng)
            taps = engine._direct_kernels(fw.ModulationParams(gamma=gamma, phi_v=1.0))
            cases.append((gamma, state, taps, one_thread_direct(state, taps, 0.4)[0]))
        mismatches = []

        def run(gamma, state, taps, expected):
            for _ in range(30):
                out = state.amp.copy()
                engine._convolve_direct(out, taps, 0.4, True)
                if not np.array_equal(out, expected):
                    mismatches.append(gamma)

        threads = [threading.Thread(target=run, args=case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_forked_child_steps(self):
        # a forked child has no copy of the parent's worker thread; it must
        # build its own rather than wait on the parent's
        script = (
            "import os, signal, numpy as np, freqwalk as fw\n"
            "s = fw.make_single_site(0, fw.Polarization.H, fw.LatticeConfig(40))\n"
            "p = fw.ModulationParams(gamma=np.pi, theta=0.3)\n"
            "a = fw.step(s, p, 'direct')\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(10)  # a child that waits forever ends\n"
            "    os._exit(0 if np.array_equal(fw.step(s, p, 'direct').amp, a.amp) else 1)\n"
            "assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0\n"
        )
        src = str(Path(engine.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=20)


class TestEngineAgreement:
    """Spectral (periodic, exact) and direct (open, truncated kernel)
    engines agree on any interior walk whose reach stays on the lattice."""

    @settings(max_examples=100, deadline=None)
    @given(
        pool=st.lists(
            st.builds(
                fw.ModulationParams,
                gamma=st.floats(0.0, 30 * np.pi),
                phi_h=st.floats(-np.pi, np.pi),
                phi_v=st.floats(-np.pi, np.pi),
                theta=st.floats(-np.pi, np.pi),
            ),
            min_size=1, max_size=3, unique=True,
        ),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=5),
        support=st.integers(0, 10),
        spare=st.integers(0, 40),
        seed=st.integers(0, 2**31),
    )
    def test_spectral_matches_direct(self, pool, picks, support, spare, seed):
        schedule = [pool[i % len(pool)] for i in picks]
        # each direct roundtrip moves amplitude at most its kernel's lmax
        reach = sum(engine._direct_kernels(p).shape[1] // 2 for p in schedule)
        cfg = fw.LatticeConfig(support + reach + EDGE_MARGIN + 1 + spare)
        s0 = random_interior_state(cfg, np.random.default_rng(seed), support)
        spectral = fw.evolve(s0, schedule, record=("state",))
        direct = fw.evolve(s0, schedule, engine="direct", record=("state",))
        for a, b in zip(spectral.records[1:], direct.records[1:]):
            assert np.max(np.abs(a["state"].amp - b["state"].amp)) < 1e-8
            assert b["state"].meta["norm_leak"] < 1e-12


def qspace_moments(params, b, d, steps):
    """M(t) and the first moment <m>_t = sum_m m P(m), for t = 1 .. steps,
    from q-space alone.  The walk conserves q, so its q-space state is
    b_t(q) = U(q)^t b_0(q) on the walk's N-point q grid, with b_0(q) =
    sum_m a_m e^{iqm} for its amplitudes a_m at t = 0, U(q) = D(q) R(theta)
    and D(q) = diag(e^{i Gamma cos(q + phi_H)}, e^{i Gamma cos(q + phi_V)}).
    With d_t = db_t/dq = sum_m i m a_m(t) e^{iqm}, Parseval on that grid
    gives M(t)^2 = (1/N) sum_q |d_t(q)|^2 and <m>_t = (1/N) sum_q
    Im(conj(b_t(q)) d_t(q)).  Forward mode gives d_{t+1} = D' R b_t + D R d_t
    and b_{t+1} = D R b_t, from the (2, N) arrays b = b_0 and d = d_0, with
    D' = D diag(-i Gamma sin(q + phi_H), -i Gamma sin(q + phi_V)).  No FFT,
    lattice, kernel or `uk_matrix`: the closed form of U(q) is written here."""
    n_sites = b.shape[1]
    phases = 2 * np.pi * np.arange(n_sites) / n_sites + np.array([[params.phi_h], [params.phi_v]])
    diag = np.exp(1j * params.gamma * np.cos(phases))
    diag_prime = diag * (-1j * params.gamma * np.sin(phases))
    c, s = np.cos(params.theta / 2), np.sin(params.theta / 2)
    rotate = lambda v: np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])
    m, mean = [], []
    for _ in range(steps):
        rb = rotate(b)
        b, d = diag * rb, diag_prime * rb + diag * rotate(d)
        m.append(np.sqrt((np.abs(d) ** 2).sum() / n_sites))
        mean.append(np.vdot(b, d).imag / n_sites)
    return np.array(m), np.array(mean)


def qspace_origin(s0, n_sites):
    """b_0 and d_0 of `qspace_moments` for |0, s0>: s0 at every q, and 0."""
    b = np.repeat(np.asarray(s0, dtype=complex)[:, None], n_sites, axis=1)
    return b, np.zeros_like(b)


def qspace_start(state):
    """b_0 and d_0 of `qspace_moments` for `state`, each a direct sum over
    its sites (no FFT)."""
    sites = state.config.sites
    waves = np.exp(1j * np.outer(sites, 2 * np.pi * np.arange(sites.size) / sites.size))
    return state.amp @ waves, (1j * sites * state.amp) @ waves


def check_centroids(walked, m, mean, bound):
    """Every step's `centroid` record past step 0 against the q-space
    first moment, within `bound` * max(1, M(t))."""
    error = np.abs(walked.series("centroid")[1:] - mean)
    worst = np.argmax(error / np.maximum(1.0, m))
    assert error[worst] <= bound * max(1.0, m[worst]), (
        f"step {worst + 1}: centroid error {error[worst]:.2e} at M(t) = {m[worst]:.1f}")


@st.composite
def origin_walks(draw, top_gamma):
    """1-3 Gammas up to `top_gamma` with one set of phases and theta, a
    unit spin s0 and 1-40 steps, on the lattice `cli._walk_half_width`
    sizes for them, widened by 0-400 sites (a size that is not a fast FFT
    size, too)."""
    angle = st.floats(-np.pi, np.pi)
    cfg = {"gamma": draw(st.lists(st.floats(0.05, top_gamma), min_size=1, max_size=3)),
           "phi_h": draw(angle), "phi_v": draw(angle), "theta": draw(angle),
           "steps": draw(st.integers(1, 40))}
    polar, azimuth = draw(angle), draw(angle)
    s0 = (np.cos(polar), np.sin(polar) * np.exp(1j * azimuth))
    half_width = cli._walk_half_width(cfg) + draw(st.integers(0, 400))
    return cfg, s0, half_width


# README diffusion: N = 5001, 100 steps, from |0, H>
_README_DIFFUSION = ({"gamma": [0.06 * np.pi, np.pi, 3 * np.pi], "phi_h": 0.0,
                      "phi_v": 0.75 * np.pi, "theta": -0.5 * np.pi, "steps": 100},
                     (1.0, 0.0), 2500)


class TestQSpaceDiffusion:
    """Each engine's M(t), at every step of a walk from |0, s0> whose reach
    stays on the lattice, against `qspace_moments`, a third computation
    that shares only the closed form of U(q) with them, and each step's
    centroid against the first moment; so too the centroids of acceptance
    criterion 4's eigenstate packets."""

    @settings(max_examples=12, deadline=None)
    @given(walk=origin_walks(10 * np.pi))
    @example(walk=_README_DIFFUSION)
    def test_spectral(self, walk):
        self.check(walk, "spectral", 1e-13, 1e-13)

    @settings(max_examples=12, deadline=None)
    @given(walk=origin_walks(3 * np.pi))
    @example(walk=_README_DIFFUSION)
    def test_direct(self, walk):
        self.check(walk, "direct", 1e-11, 1e-10)

    @staticmethod
    def check(walk, engine_name, bound, centroid_bound):
        cfg, s0, half_width = walk
        lattice = fw.LatticeConfig(half_width)
        amp = np.zeros((2, lattice.n_sites), dtype=complex)
        amp[:, lattice.index(0)] = s0
        state = fw.LatticeState(lattice, amp)
        for gamma in cfg["gamma"]:
            params = cli._params(cfg, gamma)
            walked = fw.evolve(state, params, cfg["steps"], engine=engine_name,
                               record=("diffusion", "centroid"))
            exact, mean = qspace_moments(params, *qspace_origin(s0, lattice.n_sites),
                                         cfg["steps"])
            error = np.abs(walked.series("diffusion")[1:] - exact) / exact
            assert error.max() < bound, f"Gamma {gamma!r}: relative error {error.max():.2e}"
            check_centroids(walked, exact, mean, centroid_bound)

    @pytest.mark.parametrize("engine_name, bound", [("spectral", 1e-13), ("direct", 1e-10)])
    def test_packet_centroids(self, engine_name, bound):
        # acceptance criterion 4: eigenstate packets at delta 25 and q = 0.27 pi
        # drift at about the group velocity, 30 steps on a 901-site lattice
        q, lattice = 0.27 * np.pi, fw.LatticeConfig(450)
        for gamma in (0.06 * np.pi, np.pi, 3 * np.pi):
            params = fw.ModulationParams(gamma=gamma, **FIG2)
            spin = fw.eigen_spinor(params, q, "+")
            packet = fw.make_gaussian(fw.WavepacketSpec(25.0, q, (spin[0], spin[1])), lattice)
            walked = fw.evolve(packet, params, 30, engine_name, ("centroid",))
            check_centroids(walked, *qspace_moments(params, *qspace_start(packet), 30), bound)


def limit_rate(params, s0, n_q=256):
    """A = lim M(t)^2 / t^2 for a walk from |0, s0>: the weak limit of
    one-dimensional quantum walks (N. Konno, Quantum Inf. Process. 1, 345
    (2002); G. Grimmett, S. Janson and P. Scudo, Phys. Rev. E 69, 026119
    (2004)) gives A = (1/2 pi) int sum_+- |<e_+-(q)|s0>|^2 v_+-(q)^2 dq,
    here a periodic sum over n_q points of q (256 points match 2048 to
    5.2e-12 or better on the sets below)."""
    total = 0.0
    for q in -np.pi + 2 * np.pi * np.arange(n_q) / n_q:
        for branch in ("+", "-"):
            weight = abs(np.vdot(fw.eigen_spinor(params, q, branch), s0)) ** 2
            total += weight * fw.group_velocity(params, q, branch) ** 2
    return total / n_q


class TestDiffusionLimitLaw:
    """The walk's M(t)^2 / t^2 approaches the band integral of `limit_rate`:
    an oracle of the ballistic rate that shares only the band formulas with
    the walk.  Gapped sets alone, as `eigen_spinor` raises at a degeneracy.
    Measured gaps at t = 100 and 200: 1.04e-4 and 2.65e-5 at 3 pi, 9.36e-5
    and 2.38e-5 at pi, 2.22e-4 and 9.49e-5 at 0.06 pi, 1.08e-4 and 2.94e-5
    at Gamma = 2 with theta = 0.7.  The property over Gamma, the phases,
    theta and s0 takes M(t) from `qspace_moments`, so it walks nothing."""

    @pytest.mark.parametrize("params", [
        fw.ModulationParams(gamma=3 * np.pi, **FIG2),
        fw.ModulationParams(gamma=np.pi, **FIG2),
        fw.ModulationParams(gamma=0.06 * np.pi, **FIG2),
        fw.ModulationParams(gamma=2.0, **{**FIG2, "theta": 0.7}),
    ])
    def test_ballistic_rate(self, params):
        s0 = np.array([1.0, 0.0])  # H
        lmax = fw.translation_kernel(params.gamma, 0.0).lmax
        lattice = fw.LatticeConfig(200 * lmax + 50)
        state = fw.make_single_site(0, P.H, lattice)
        m = fw.evolve(state, params, 200, record=("diffusion",)).series("diffusion")
        rate = limit_rate(params, s0)
        gaps = [abs(m[t] ** 2 / (rate * t**2) - 1) for t in (100, 200)]
        assert gaps[0] < 5e-4 and gaps[1] < 2e-4, gaps
        assert gaps[1] < gaps[0] / 2, gaps

    # Measured over 5,400 draws of these ranges (2,400 uniform, 3,000 from this
    # strategy), 4,131 of them kept: gaps of at most 2.60e-2 at t = 100 and 7.06e-3
    # at t = 200, and gaps[1] - 0.8 gaps[0] of at most 9.5e-5.  Where the band
    # splitting is nearly flat (theta near +-pi), slower terms than the 1/t one
    # keep a gap within 4% from t = 100 to 200.  A band gap below 0.1 (of 2 pi)
    # let a gap grow 1.6x, from 1.7e-4 (0.065, Gamma = 9.4); below a rate of
    # 0.01 (0.1 site a step) the gap grows as 1/A, to 0.58 at A = 0.003.
    @settings(max_examples=10, deadline=None)
    @given(gamma=st.floats(0.05 * np.pi, 3 * np.pi), phi_h=st.floats(-np.pi, np.pi),
           phi_v=st.floats(-np.pi, np.pi), theta=st.floats(-np.pi, np.pi),
           polar=st.floats(-np.pi, np.pi), azimuth=st.floats(-np.pi, np.pi))
    def test_ballistic_rate_of_any_gapped_walk(self, gamma, phi_h, phi_v, theta, polar, azimuth):
        params = fw.ModulationParams(gamma=gamma, phi_h=phi_h, phi_v=phi_v, theta=theta)
        eps = fw.band_grid(params, 256).eps  # the grid of `limit_rate`
        assume(np.abs(np.remainder(eps[:, 0] - eps[:, 1] + 0.5, 1.0) - 0.5).min() >= 0.1)
        s0 = np.array([np.cos(polar), np.sin(polar) * np.exp(1j * azimuth)])
        rate = limit_rate(params, s0)
        assume(rate >= 0.01)
        # M(t) of the walk on a lattice wider than its reach, without a walk
        n_sites = 2 * 200 * engine._kernel_reach(gamma) + 1
        m = qspace_moments(params, *qspace_origin(s0, n_sites), 200)[0]
        gaps = [abs(m[t - 1] ** 2 / (rate * t**2) - 1) for t in (100, 200)]
        assert gaps[0] < 5e-2 and gaps[1] < 1.5e-2, gaps
        assert gaps[1] < 0.8 * gaps[0] + 2e-4, gaps


PRIME_N = (31, 61, 101, 181, 241)
SMOOTH_N = (63, 81, 105, 175, 245)  # no prime factor above 7


def monitored_bytes(states, schedules, engine_name):
    """The amplitude bytes of every member at each step of a monitored
    walk, and the step and mass of its boundary abort (None if none)."""
    steps = []
    try:
        for _, amps, _ in engine._monitored_chunks(np.stack([s.amp for s in states]), schedules,
                                                   engine_name):
            steps.extend([a.tobytes() for a in members] for members in amps)
    except fw.BoundaryLeakError as err:
        return steps, (err.step, err.mass)
    return steps, None


@st.composite
def lockstep_walks(draw):
    """1-4 members on one lattice of prime or 7-smooth N, each with its own
    interior state and its own schedule of one length, drawn from a pool of
    3-4 distinct parameter sets that the members repeat."""
    n = draw(st.sampled_from(PRIME_N + SMOOTH_N))
    cfg = fw.LatticeConfig((n - 1) // 2)
    pool = draw(st.lists(modulations, min_size=3, max_size=4, unique=True))
    k = draw(st.integers(1, 4))
    n_steps = draw(st.integers(0, 12))
    picks = st.integers(0, len(pool) - 1)
    constant = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    schedules = []
    for still in constant:
        if still:  # one params for the whole walk, as in `diffusion`
            schedules.append([pool[draw(picks)]] * n_steps)
        else:
            schedules.append([pool[draw(picks)] for _ in range(n_steps)])
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    states = [random_interior_state(cfg, rng, support=draw(st.integers(0, 8)))
              for _ in range(k)]
    return states, schedules


class TestLockstepWalk:
    """Walks in lockstep give each member the bits of its own walk alone,
    and abort at the first step where any member leaks."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=120, deadline=None)
    @given(walk=lockstep_walks(), engine_name=st.sampled_from(engine.ENGINES))
    def test_members_match_their_single_walks(self, walk, engine_name):
        states, schedules = walk
        steps, abort = monitored_bytes(states, schedules, engine_name)
        alone = [monitored_bytes([s], [schedule], engine_name)
                 for s, schedule in zip(states, schedules)]
        for i, (single, _) in enumerate(alone):
            alone_steps = [members[0] for members in single[: len(steps)]]
            assert [members[i] for members in steps] == alone_steps, i
        aborts = [a for _, a in alone if a is not None]
        if not aborts:
            assert abort is None and len(steps) == len(schedules[0]) + 1
            return
        first = min(step for step, _ in aborts)
        # the error carries the mass of the first member that leaks at that step
        assert abort == next(a for a in aborts if a[0] == first)
        assert len(steps) == first


def walk_by_roundtrip(state, schedule):
    """The position-space amplitudes of a member walked alone with one FFT
    call per roundtrip, its q-space amplitudes carried from step to step."""
    n = state.config.n_sites
    b = np.fft.ifft(state.amp, axis=-1)
    for params in schedule:
        out = np.empty_like(b)
        engine._apply_blocks(engine._grid_blocks(params, n), b, out, np.empty_like(b))
        b = out
        yield np.fft.fft(b, axis=-1)


class TestChunkedWalk:
    """The spectral walk transforms a chunk of roundtrips per FFT call with
    the bits of one call per roundtrip, and looks ahead at most one chunk."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_chunks_match_one_fft_per_roundtrip(self, data):
        n = data.draw(st.sampled_from(PRIME_N + SMOOTH_N))
        cfg = fw.LatticeConfig((n - 1) // 2)
        k = data.draw(st.integers(1, 3))
        per_chunk = data.draw(st.integers(1, 3))
        n_steps = data.draw(st.sampled_from(
            (0, per_chunk - 1, per_chunk, per_chunk + 1, 2 * per_chunk + 1)))
        # params drawn per roundtrip from a pool, so they change inside a chunk
        pool = data.draw(st.lists(modulations, min_size=2, max_size=3, unique=True))
        picks = st.integers(0, len(pool) - 1)
        schedules = [[pool[data.draw(picks)] for _ in range(n_steps)] for _ in range(k)]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        states = [random_interior_state(cfg, rng, support=data.draw(st.integers(0, 8)))
                  for _ in range(k)]
        step_bytes = k * 2 * n * 16
        budget = per_chunk * step_bytes + data.draw(st.integers(0, step_bytes - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK_BYTES", budget)
            steps, abort = monitored_bytes(states, schedules, "spectral")

        expected, leak = [[s.amp.tobytes() for s in states]], None
        walks = [walk_by_roundtrip(s, schedule) for s, schedule in zip(states, schedules)]
        for i, amps in enumerate(zip(*walks), start=1):
            masses = [fw.boundary_mass(s.with_amp(a)) for s, a in zip(states, amps)]
            leak = next(((i, m) for m in masses if m > BOUNDARY_TOL), None)
            if leak is not None:
                break
            expected.append([a.tobytes() for a in amps])
        assert steps == expected
        assert abort == leak

    def test_one_forward_fft_per_chunk(self, monkeypatch):
        """A 100-step walk at N = 2101 transforms 7 roundtrips per chunk,
        each row once: in one FFT call on one CPU, in two halves on two."""
        fft_rows, fft = engine._fft_rows, np.fft.fft
        s = fw.make_single_site(0, P.H, fw.LatticeConfig(1050))
        params = fw.ModulationParams(gamma=3 * np.pi, phi_v=0.75 * np.pi, theta=-0.5 * np.pi)
        for cpus, halves in ((1, [14]), (2, [7, 7])):
            chunks, calls = [], []  # roundtrips per chunk, rows per FFT call
            monkeypatch.setattr(engine, "_cpus", lambda: cpus)
            monkeypatch.setattr(engine, "_fft_rows", lambda chunk, split: (
                chunks.append(len(chunk)) or fft_rows(chunk, split)))
            monkeypatch.setattr(
                np.fft, "fft", lambda a, **kw: calls.append(a.size // a.shape[-1]) or fft(a, **kw))
            traj = fw.evolve(s, params, n_steps=100)
            assert traj.steps == list(range(101))
            # 2**19 // 67232 = 7 roundtrips a chunk, 67232 bytes a roundtrip
            assert chunks == [7] * 14 + [2]
            # the 7-roundtrip chunks (470,624 bytes) reach the split size, the last does not
            assert sorted(calls) == sorted(halves * 14 + [4])

    def test_at_least_two_roundtrips_per_chunk(self, monkeypatch):
        """README diffusion: three walks at N = 5001, 480,096 bytes a
        roundtrip, more than half the budget.  A chunk holds two roundtrips,
        so each half of a split chunk is one whole roundtrip of 6 rows."""
        fft_rows, fft = engine._fft_rows, np.fft.fft
        cfg = fw.LatticeConfig(2500)
        states = [fw.make_single_site(0, P.H, cfg)] * 3
        for cpus, halves in ((1, [12]), (2, [6, 6])):
            chunks, calls = [], []  # roundtrips per chunk, rows per FFT call
            monkeypatch.setattr(engine, "_cpus", lambda: cpus)
            monkeypatch.setattr(engine, "_fft_rows", lambda chunk, split: (
                chunks.append(len(chunk)) or fft_rows(chunk, split)))
            monkeypatch.setattr(
                np.fft, "fft", lambda a, **kw: calls.append(a.size // a.shape[-1]) or fft(a, **kw))
            schedules = [[fw.ModulationParams(gamma=g * np.pi, **FIG2)] * 100
                         for g in (0.06, 1, 3)]
            assert sum(len(amps) for _, amps, _ in
                       engine._monitored_chunks(np.stack([s.amp for s in states]), schedules,
                                                "spectral")) == 101
            assert chunks == [2] * 50
            assert calls == halves * 50

    @pytest.mark.parametrize("k, half_width", [  # README diffusion: 3 at N = 5001
        pytest.param(1, 1050, id="1"), pytest.param(2, 1050, id="2"),
        pytest.param(3, 2500, id="3")])
    def test_looks_ahead_at_most_one_chunk(self, k, half_width):
        n_steps, pulled = 17, [0] * k
        cfg = fw.LatticeConfig(half_width)
        params = fw.ModulationParams(gamma=1.0, theta=0.3)

        def schedule(member):
            for _ in range(n_steps):
                pulled[member] += 1
                yield params

        per_chunk = max(2, engine._CHUNK_BYTES // (k * 2 * cfg.n_sites * 16))
        states = [fw.make_single_site(0, P.H, cfg)] * k
        j = 0
        for amps, _ in engine._chunks(np.stack([s.amp for s in states]),
                                      [schedule(m) for m in range(k)], "spectral"):
            j += len(amps)
            # the rows of the chunk that holds step j, and none past it
            assert pulled == [min(n_steps, -(-j // per_chunk) * per_chunk)] * k
        assert j == n_steps


class _CountedPool:
    """Stands in for `engine._row_pool()`: counts the tasks handed to the
    one worker thread and passes them on."""

    def __init__(self):
        self.pool, self.tasks = engine._row_pool(), 0

    def __call__(self):
        return self

    def submit(self, *args, **kwargs):
        self.tasks += 1
        return self.pool.submit(*args, **kwargs)


@pytest.fixture
def counted_pool(monkeypatch):
    pool = _CountedPool()
    monkeypatch.setattr(engine, "_row_pool", pool)
    return pool


def walk_past_a_held_worker(engine_name, monkeypatch):
    """A 30-roundtrip walk on two CPUs while another task holds the worker
    thread for 5 s must end before the hold does, with the bits of the walk
    on one CPU.  The hold is short so that a walk that waits for the worker
    fails rather than hangs."""
    cfg = fw.LatticeConfig(1050)
    params = fw.ModulationParams(gamma=3 * np.pi, **FIG2)
    states, schedules = [fw.make_single_site(0, P.H, cfg)], [[params] * 30]
    monkeypatch.setattr(engine, "_cpus", lambda: 1)
    expected = monitored_bytes(states, schedules, engine_name)
    monkeypatch.setattr(engine, "_cpus", lambda: 2)
    release = threading.Event()
    held = engine._row_pool().submit(release.wait, 5)
    try:
        assert monitored_bytes(states, schedules, engine_name) == expected
        assert not held.done()  # the walk did not wait for the held worker
    finally:
        release.set()
    assert held.result(timeout=60)


def recording_task(calls):
    """A task for `_halves` that appends (h, the ident of its thread) to
    `calls` and returns 10 h."""

    def task(h):
        calls.append((h, threading.get_ident()))
        return 10 * h

    return task


class TestHalves:
    """`_halves` runs task(0) in the calling thread and task(1) on the
    worker thread, or in the calling thread if the worker has not started
    it."""

    def test_without_split_hands_nothing_over(self, counted_pool):
        calls = []
        assert engine._halves(recording_task(calls), False) == (0, 10)
        me = threading.get_ident()
        assert calls == [(0, me), (1, me)]
        assert counted_pool.tasks == 0

    def test_worker_runs_the_second_task(self, counted_pool):
        # task(0) waits until the worker has started task(1): it cannot be taken back
        started, idents = threading.Event(), {}

        def task(h):
            idents[h] = threading.get_ident()
            if h:
                started.set()
            else:
                assert started.wait(30)
            return 10 * h

        assert engine._halves(task, True) == (0, 10)
        assert idents[0] == threading.get_ident() != idents[1]
        assert counted_pool.tasks == 1

    def test_worker_exception_reaches_the_caller(self):
        started, idents = threading.Event(), {}

        def task(h):
            idents[h] = threading.get_ident()
            if not h:
                assert started.wait(30)
                return 0
            started.set()
            raise ValueError("raised on the worker")

        with pytest.raises(ValueError, match="raised on the worker"):
            engine._halves(task, True)
        assert idents[0] == threading.get_ident() != idents[1]

    def test_caller_exception_waits_for_the_second_task(self):
        # task(1) may write into the caller's buffers, so `_halves` must not
        # raise task(0)'s exception while the worker still runs task(1)
        started, release, finished = threading.Event(), threading.Event(), threading.Event()

        def task(h):
            if h:
                started.set()
                release.wait(0.5)  # nothing sets it: the worker is busy for 0.5 s
                finished.set()
                return 10
            assert started.wait(30)
            raise ValueError("raised in the caller")

        with pytest.raises(ValueError, match="raised in the caller"):
            engine._halves(task, True)
        assert finished.is_set()

    def test_held_worker_second_task_runs_once_here(self):
        calls, release = [], threading.Event()
        held = engine._row_pool().submit(release.wait, 30)
        try:
            assert engine._halves(recording_task(calls), True) == (0, 10)
            assert not held.done()
        finally:
            release.set()
        assert held.result(timeout=60)
        engine._row_pool().submit(int).result(timeout=60)  # the worker has run its queue
        me = threading.get_ident()
        assert calls == [(0, me), (1, me)]


class TestSplitTransform:
    """On 2 or more CPUs a large chunk's rows are transformed in two
    halves, one on the worker thread, with the bits of one FFT call."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1801, 2101, 2187, 3001, 5001]), rows=st.integers(2, 16),
           seed=st.integers(0, 2**31))
    def test_matches_one_call(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        shape = (rows, n)
        chunk = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        chunk *= 10.0 ** rng.uniform(-12, 0, size=shape)  # magnitudes that round apart
        expected = np.fft.fft(chunk, axis=-1)
        pool = _CountedPool()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK_BYTES", 0)  # every chunk is split
            mp.setattr(engine, "_row_pool", pool)
            engine._fft_rows(chunk, True)
        assert pool.tasks == 1
        assert np.array_equal(chunk, expected)

    def test_callers_on_many_threads_get_their_own_rows(self, monkeypatch):
        # every caller shares the one worker, and takes its half back when
        # another caller's half holds the worker; a half transformed twice,
        # or not at all, breaks the bits of some caller
        monkeypatch.setattr(engine, "_CHUNK_BYTES", 0)  # every chunk is split
        rng = np.random.default_rng(5)
        cases = [rng.normal(size=(rows, 1801)) + 1j * rng.normal(size=(rows, 1801))
                 for rows in (2, 3, 6, 8, 11, 16)]
        mismatches = []

        def run(i, chunk):
            expected = np.fft.fft(chunk, axis=-1)
            for _ in range(30):
                out = chunk.copy()
                engine._fft_rows(out, True)
                if not np.array_equal(out, expected):
                    mismatches.append(i)

        threads = [threading.Thread(target=run, args=case) for case in enumerate(cases)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_walk_with_a_held_worker_keeps_its_bits(self, monkeypatch):
        # the worker cannot start the back halves, so this thread takes them
        # back; without that the walk would wait for the worker's task
        walk_past_a_held_worker("spectral", monkeypatch)

    def test_direct_walk_with_a_held_worker_keeps_its_bits(self, monkeypatch):
        # the same for the V rows of the direct engine
        walk_past_a_held_worker("direct", monkeypatch)

    def test_taken_back_rows_free_their_operands(self, monkeypatch):
        # with the worker held, every V row is taken back; a taken-back task
        # that kept its rotated window until the worker dequeued it would
        # grow the walk's memory step by step (20 steps at Gamma = 30pi)
        cfg = fw.LatticeConfig(3000)
        states = [fw.make_single_site(0, P.H, cfg)]
        schedules = [[fw.ModulationParams(gamma=30 * np.pi)] * 20]

        def peak() -> int:
            tracemalloc.start()
            try:
                for _ in engine._chunks(np.stack([s.amp for s in states]), schedules, "direct"):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(engine, "_cpus", lambda: 1)
        alone = peak()  # also builds the taps
        monkeypatch.setattr(engine, "_cpus", lambda: 2)
        release = threading.Event()
        held = engine._row_pool().submit(release.wait, 30)
        try:
            assert peak() < 1.5 * alone
            assert not held.done()
        finally:
            release.set()
        assert held.result(timeout=60)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_cpu_hands_no_task_to_the_worker(self, cpus, counted_pool, monkeypatch):
        # README diffusion: three walks at N = 5001, 2 roundtrips of 480,096 bytes a chunk
        cfg = fw.LatticeConfig(2500)
        states = [fw.make_single_site(0, P.H, cfg)] * 3
        schedules = [[fw.ModulationParams(gamma=g * np.pi, **FIG2)] * 3 for g in (0.06, 1, 3)]
        monkeypatch.setattr(engine, "_cpus", lambda: cpus)
        walks = [monitored_bytes(states, schedules, name) for name in engine.ENGINES]
        # 2 spectral chunks (2 roundtrips, then 1), then 3 roundtrips of 3
        # walks with a V row each
        assert counted_pool.tasks == (2 + 9 if cpus == 2 else 0)
        monkeypatch.setattr(engine, "_cpus", lambda: 3 - cpus)
        assert [monitored_bytes(states, schedules, name) for name in engine.ENGINES] == walks

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_cpus_is_read_once_a_walk(self, monkeypatch):
        # not once a roundtrip or a chunk: 40 roundtrips, 6 spectral chunks
        cfg = fw.LatticeConfig(1050)
        reads = []
        monkeypatch.setattr(engine, "_cpus", lambda: reads.append(1) or 2)
        for name in engine.ENGINES:
            walk = engine._chunks(np.stack([fw.make_single_site(0, P.H, cfg).amp]),
                                  [[fw.ModulationParams(gamma=1.0, theta=0.3)] * 40], name)
            assert sum(1 for _ in walk) == (40 if name == "direct" else 6)
        assert len(reads) == 2


class TestChunkReadouts:
    """The read-outs of a whole chunk give each row the bits of the
    per-state read-out of that row alone."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_match_their_states_alone(self, data):
        n = data.draw(st.sampled_from(PRIME_N + SMOOTH_N + (5, 9)))  # N <= 10: all boundary
        cfg = fw.LatticeConfig((n - 1) // 2)
        k = data.draw(st.integers(1, 3))
        rows = data.draw(st.integers(1, 7))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        shape = (rows, k, 2, n)
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        amps *= 10.0 ** rng.uniform(-12, 0, size=shape)  # magnitudes that round apart
        amps[rng.random(size=shape) < 0.2] = 0.0
        amps.flags.writeable = False  # as a walk's chunk
        probs = lattice._probabilities(amps)
        distances = lattice._diffusion_distances(amps)
        masses = lattice._boundary_masses(amps)
        for r, i in np.ndindex(rows, k):
            alone = fw.LatticeState(cfg, amps[r, i].copy())
            assert probs[r, i].tobytes() == fw.probability_distribution(alone).tobytes()
            assert distances[r, i].tobytes() == np.float64(fw.diffusion_distance(alone)).tobytes()
            assert masses[r, i].tobytes() == np.float64(fw.boundary_mass(alone)).tobytes()


def by_roundtrip_bytes(state, schedule):
    return [state.amp.tobytes()] + [a.tobytes() for a in walk_by_roundtrip(state, schedule)]


class TestKeptStates:
    """Both engines refill one chunk buffer: what a caller keeps past the
    next chunk is a copy, and the chunk itself cannot be written."""

    CFG = fw.LatticeConfig(60)
    PARAMS = fw.ModulationParams(gamma=1.0, **FIG2)
    STEPS = 7

    @pytest.fixture(autouse=True)
    def two_roundtrips_per_chunk(self, monkeypatch):
        monkeypatch.setattr(engine, "_CHUNK_BYTES", 2 * 2 * self.CFG.n_sites * 16)

    def start(self):
        return random_interior_state(self.CFG, np.random.default_rng(3), support=5)

    def test_walk_states_hold_until_the_next_chunk(self):
        s0 = self.start()
        expected = by_roundtrip_bytes(s0, [self.PARAMS] * self.STEPS)
        kept, raw = [], []
        for amps, _ in engine._chunks(s0.amp[None], ([self.PARAMS] * self.STEPS,), "spectral"):
            assert not amps.flags.writeable
            raw.append(amps)
            # every row of the chunk is valid until the next one
            assert [a.tobytes() for a in amps[:, 0]] == expected[len(kept) + 1 :][: len(amps)]
            kept.extend(a.copy() for a in amps[:, 0])
        assert [len(amps) for amps in raw] == [2, 2, 2, 1]
        assert [a.tobytes() for a in kept] == expected[1:]
        # the first chunk is a view of the buffer that the last one refilled
        assert [a.tobytes() for a in raw[0][:, 0]] == [expected[7], expected[6]]

    def test_evolve_keeps_its_states(self):
        s0 = self.start()
        traj = fw.evolve(s0, self.PARAMS, self.STEPS, record=("state",))
        expected = by_roundtrip_bytes(s0, [self.PARAMS] * self.STEPS)
        assert [r["state"].amp.tobytes() for r in traj.records] == expected

    def test_step_keeps_its_states(self):
        states, taken = [self.start()], []
        for _ in range(self.STEPS):
            states.append(fw.step(states[-1], self.PARAMS))
            taken.append(states[-1].amp.tobytes())
        assert [s.amp.tobytes() for s in states[1:]] == taken
        assert all(s.amp.flags.writeable for s in states)

    @pytest.mark.parametrize("engine_name", engine.ENGINES)
    def test_gate_drive_keeps_its_states(self, engine_name):
        spins = [(1.0, 0.0), (0.0, 1.0)]
        schedules = [[self.PARAMS] * 3] * 2
        packets, outs = gates._drive(spins, schedules, 8.0, 0.3, engine_name)
        taken = [s.amp.tobytes() for s in outs]
        gates._drive(spins[::-1], schedules, 8.0, 0.3, engine_name)
        assert [s.amp.tobytes() for s in outs] == taken
        # each roundtrip of the drive is a walk of its own, as a `step` is
        for packet, out in zip(packets, outs):
            state = packet
            for params in schedules[0]:
                state = fw.step(state, params, engine_name)
            assert out.amp.tobytes() == state.amp.tobytes()

    @pytest.mark.parametrize("engine_name", engine.ENGINES)
    def test_drive_of_no_roundtrip_gives_its_packets(self, engine_name):
        # the spectral drive stacks only the packets' q-space rows, which
        # no roundtrip turns back into amplitudes here
        packets, outs = gates._drive([(1.0, 0.0), (0.0, 1.0)], [[], []], 8.0, 0.3, engine_name)
        assert [s.amp.tobytes() for s in outs] == [s.amp.tobytes() for s in packets]

    @pytest.mark.parametrize("engine_name", engine.ENGINES)
    def test_chunks_are_read_only(self, engine_name):
        s0 = self.start()
        chunks = engine._chunks(np.stack([s0.amp, s0.amp]), ([self.PARAMS] * 5,) * 2, engine_name)
        first, _ = next(chunks)
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0, 0, 0] = 0
        second, _ = next(chunks)
        # both engines refill one buffer, which stays writable for the walk
        assert np.shares_memory(first, second)
        assert first.base.flags.writeable


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
@pytest.mark.parametrize("engine_name", engine.ENGINES)
def test_walks_run_in_complex128(engine_name, dtype):
    """A state of any float or complex dtype walks as its complex128 cast,
    bit for bit, on both engines, in `step` and in `evolve`: a float state
    keeps the imaginary part its walk makes, and a single-precision state
    walks in double precision."""
    cfg = fw.LatticeConfig(200)
    rng = np.random.default_rng(5)
    lo, hi = cfg.index(-3), cfg.index(3) + 1
    re, im = rng.normal(size=(2, 2, hi - lo))
    amp = np.zeros((2, cfg.n_sites), dtype)
    amp[:, lo:hi] = re + 1j * im if amp.dtype.kind == "c" else re
    state = fw.LatticeState(cfg, amp)
    wide = state.with_amp(amp.astype(complex))
    params = fw.ModulationParams(gamma=3 * np.pi, **FIG2)

    got, want = (fw.step(s, params, engine_name) for s in (state, wide))
    assert got.amp.dtype == complex
    assert got.amp.tobytes() == want.amp.tobytes()
    assert got.meta == want.meta

    record = ("state", "diffusion", "boundary")
    got, want = (fw.evolve(s, params, 5, engine_name, record).records for s in (state, wide))
    assert len(got) == len(want) == 6
    for a, b in zip(got, want):
        assert a["state"].amp.dtype == complex
        assert a["state"].amp.tobytes() == b["state"].amp.tobytes(), a["step"]
        assert a["state"].meta == b["state"].meta
        assert (a["diffusion"], a["boundary"]) == (b["diffusion"], b["boundary"])


def test_spectral_walk_refuses_a_non_finite_chunk(monkeypatch):
    # one NaN in the blocks (on the direct engine, the taps) of the second
    # roundtrip, none in the first: the spectral walk's first chunk holds
    # both roundtrips, the direct walk's second chunk is the second one
    cfg = fw.LatticeConfig(10)
    params = fw.ModulationParams(gamma=1.0, theta=0.3)
    blocks = engine.uk_matrix(params, engine._q_grid(cfg.n_sites))
    blocks[1, 1, 3] = complex(0.0, np.nan)
    monkeypatch.setattr(engine, "_grid_blocks", lambda p, n: blocks if p == params else
                        engine.uk_matrix(p, engine._q_grid(n)))
    taps = engine._direct_kernels(params).copy()
    taps[1, 2] = complex(np.nan, 0.0)
    kernels = engine._direct_kernels
    monkeypatch.setattr(engine, "_direct_kernels", lambda p: taps if p == params else kernels(p))
    state = fw.make_single_site(0, P.H, cfg)
    for engine_name, clean in (("spectral", 0), ("direct", 1)):
        walk = engine._chunks(state.amp[None], ([engine.IDENTITY, params],), engine_name)
        for _ in range(clean):
            next(walk)
        with pytest.raises(fw.ConfigurationError, match="non-finite amplitudes"):
            next(walk)
    # a NaN in the input stack itself, which no state could hold: each
    # engine refuses it at its first chunk
    amps = np.stack([state.amp] * 2)
    amps[1, 1, cfg.index(3)] = np.nan
    for engine_name in engine.ENGINES:
        walk = engine._chunks(amps, ([engine.IDENTITY] * 2,) * 2, engine_name)
        with pytest.raises(fw.ConfigurationError, match="non-finite amplitudes"):
            next(walk)
