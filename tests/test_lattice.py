import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqwalk as fw
from freqwalk import Polarization as P
from freqwalk import errors, lattice
from freqwalk.lattice import EDGE_MARGIN

CFG = fw.LatticeConfig(8)


@pytest.mark.parametrize("half_width", [8, np.int64(8), np.int32(8), np.uint16(8)])
def test_half_width_integer_types(half_width):
    cfg = fw.LatticeConfig(half_width)
    assert cfg == CFG and type(cfg.half_width) is int and cfg.n_sites == 17


@pytest.mark.parametrize(
    "half_width", [2.5, 4.0, np.float64(4), "4", True, np.bool_(True), None, 0, -3]
)
def test_half_width_rejected(half_width):
    with pytest.raises(fw.ConfigurationError):
        fw.LatticeConfig(half_width)


@pytest.mark.parametrize(
    "half_width", [2**60, 2**62, 10**301], ids=["2**60", "2**62", "10**301"]
)
def test_half_width_past_addressable_memory_rejected(half_width):
    with pytest.raises(fw.ConfigurationError, match="too large"):
        fw.LatticeConfig(half_width)


def test_sizes_past_physical_memory_rejected(monkeypatch):
    # a host of 10^4 bytes: (2, 401) complex amplitudes take 12,832 of them,
    # (2, 201) 6,432; J_0 .. J_2000 take 16,008, J_0 .. J_1000 8,008
    monkeypatch.setattr(errors, "physical_memory", lambda: 10**4)
    with pytest.raises(fw.ConfigurationError, match="^half_width 200 too large"):
        fw.LatticeConfig(200)
    with pytest.raises(fw.ConfigurationError, match="^lmax 2000 too large"):
        fw.bessel_j_sequence(2000, 3.0)
    assert fw.LatticeConfig(100).n_sites == 201
    assert fw.bessel_j_sequence(1000, 3.0).shape == (1001,)


def _with(amp, site, value):
    amp[1, site] = value
    return amp


@pytest.mark.parametrize(
    "amp, finite",
    [(_with(np.zeros((2, 7), np.complex64), 3, np.nan), False),
     (np.ones((2, 14), complex)[:, ::2], True),
     (_with(np.zeros((2, 7), np.float32), 5, np.inf), False)],
    ids=["complex64 nan", "strided complex128", "float32 inf"],
)
def test_finiteness_check_any_dtype_and_layout(amp, finite):
    cfg = fw.LatticeConfig(3)
    if finite:
        assert fw.LatticeState(cfg, amp).norm() == pytest.approx(np.sqrt(14))
    else:
        with pytest.raises(fw.ConfigurationError, match="non-finite amplitudes"):
            fw.LatticeState(cfg, amp)


def test_single_site_delta():
    s = fw.make_single_site(0, P.H, CFG)
    assert s.amp[0, CFG.index(0)] == 1.0
    assert s.norm() == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(s.amp) == 1


def test_single_site_out_of_range():
    with pytest.raises(fw.ConfigurationError):
        fw.make_single_site(9, P.H, CFG)


def test_single_site_zero_diffusion():
    assert fw.diffusion_distance(fw.make_single_site(0, P.H, CFG)) == 0.0


def test_gaussian_too_wide_rejected():
    with pytest.raises(fw.ConfigurationError):
        fw.make_gaussian(fw.WavepacketSpec(delta=8.0, q=0.0, spin=(1, 0)), CFG)


def test_gaussian_narrow_envelope_localized():
    s = fw.make_gaussian(fw.WavepacketSpec(delta=0.3, q=0.0, spin=(1, 0)), CFG)
    assert fw.probability_distribution(s)[CFG.index(0)] >= 0.999


@pytest.mark.parametrize("delta", [1e-200, 5e-324])
def test_gaussian_narrower_than_a_site(delta):
    # (half_width / delta)^2 is past the double range: the edge and every
    # site but the origin have envelope 0, with no overflow error or warning
    s = fw.make_gaussian(fw.WavepacketSpec(delta, 0.0, (1, 0)), fw.LatticeConfig(1))
    assert s.norm() == 1.0
    assert fw.probability_distribution(s).tolist() == [0.0, 1.0, 0.0]


def test_gaussian_unit_norm():
    s = fw.make_gaussian(
        fw.WavepacketSpec(delta=25.0, q=0.27 * np.pi, spin=(0.6, 0.8j)),
        fw.LatticeConfig(512),
    )
    assert s.norm() == pytest.approx(1.0, abs=1e-12)


def test_probability_indicator_and_sum():
    s = fw.make_single_site(3, P.V, CFG)
    p = fw.probability_distribution(s)
    assert p[CFG.index(3)] == 1.0
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_diffusion_two_point():
    amp = np.zeros((2, CFG.n_sites), dtype=complex)
    amp[0, CFG.index(2)] = amp[0, CFG.index(-2)] = np.sqrt(0.5)
    assert fw.diffusion_distance(fw.LatticeState(CFG, amp)) == pytest.approx(2.0)


def test_diffusion_matches_brute_force():
    rng = np.random.default_rng(7)
    amp = rng.normal(size=(2, CFG.n_sites)) + 1j * rng.normal(size=(2, CFG.n_sites))
    amp /= np.linalg.norm(amp)
    s = fw.LatticeState(CFG, amp)
    brute = sum(
        m * m * (abs(amp[0, CFG.index(m)]) ** 2 + abs(amp[1, CFG.index(m)]) ** 2)
        for m in range(-8, 9)
    )
    assert fw.diffusion_distance(s) ** 2 == pytest.approx(brute, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(half_widths=st.lists(st.integers(1, 40), min_size=1, max_size=4),
       complex_amp=st.booleans(), seed=st.integers(0, 2**31))
def test_observables_keep_the_bits_of_their_formulas(half_widths, complex_amp, seed):
    # the m^2 table is memoized for the last two lattices: cold, warm or
    # evicted, it gives the bits of sites**2 * p
    rng = np.random.default_rng(seed)
    for half_width in half_widths:
        cfg = fw.LatticeConfig(half_width)
        amp = rng.normal(size=(2, cfg.n_sites)) * (1j if complex_amp else 1.0)
        s = fw.LatticeState(cfg, amp)
        p = (np.abs(amp) ** 2).sum(axis=0)
        assert fw.probability_distribution(s).tobytes() == p.tobytes()
        rms = np.sqrt((cfg.sites**2 * p).sum())
        assert np.float64(fw.diffusion_distance(s)).tobytes() == rms.tobytes()
    assert not lattice._squared_sites(half_widths[-1]).flags.writeable


def test_centroid():
    assert fw.centroid(fw.make_single_site(3, P.H, CFG)) == pytest.approx(3.0)
    sym = np.zeros((2, CFG.n_sites), dtype=complex)
    sym[0, CFG.index(1)] = sym[0, CFG.index(-1)] = np.sqrt(0.5)
    assert fw.centroid(fw.LatticeState(CFG, sym)) == pytest.approx(0.0, abs=1e-15)


def test_return_probability_cases():
    a = fw.make_single_site(0, P.H, CFG)
    b = fw.make_single_site(0, P.V, CFG)
    assert fw.return_probability(a, a) == pytest.approx(1.0)
    assert fw.return_probability(b, a) == 0.0
    with pytest.raises(fw.ConfigurationError):
        fw.return_probability(a, fw.make_single_site(0, P.H, fw.LatticeConfig(9)))


def test_spin_projection_inverts_construction():
    spin = (0.6, 0.8 * np.exp(0.7j))
    s = fw.make_gaussian(
        fw.WavepacketSpec(delta=10.0, q=0.4, spin=spin), fw.LatticeConfig(80)
    )
    v = fw.spin_projection_at_q(s, 0.4)
    assert abs(np.vdot(v, np.array(spin))) ** 2 > 1 - 1e-10


def test_spin_projection_linearity():
    cfg = fw.LatticeConfig(40)
    s1 = fw.make_gaussian(fw.WavepacketSpec(delta=5.0, q=0.3, spin=(1, 0)), cfg)
    s2 = fw.make_gaussian(fw.WavepacketSpec(delta=5.0, q=0.3, spin=(0, 1)), cfg)
    mixed = fw.LatticeState(cfg, (s1.amp + s2.amp) / np.sqrt(2))
    v1 = fw.spin_projection_at_q(s1, 0.3, normalized=False)
    v2 = fw.spin_projection_at_q(s2, 0.3, normalized=False)
    vm = fw.spin_projection_at_q(mixed, 0.3, normalized=False)
    assert np.allclose(vm, (v1 + v2) / np.sqrt(2), atol=1e-12)


def test_spin_projection_no_support():
    s = fw.make_single_site(0, P.H, CFG)
    empty = s.with_amp(np.zeros_like(s.amp))
    with pytest.raises(fw.ConfigurationError):
        fw.spin_projection_at_q(empty, 0.1)


@settings(max_examples=40, deadline=None)
@given(
    delta=st.floats(0.3, 15.0),
    q=st.floats(-np.pi, np.pi, exclude_max=True),
    ang=st.floats(0, np.pi),
    ph=st.floats(0, 2 * np.pi),
)
def test_constructors_always_unit_norm(delta, q, ang, ph):
    spin = (np.cos(ang / 2), np.sin(ang / 2) * np.exp(1j * ph))
    s = fw.make_gaussian(fw.WavepacketSpec(delta=delta, q=q, spin=spin),
                         fw.LatticeConfig(128))
    assert abs(s.norm() - 1.0) < 1e-12
    assert fw.probability_distribution(s).sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    half_width=st.integers(1, 30),
    seed=st.integers(0, 2**31),
    scale=st.floats(0.0, 1e3),
)
def test_boundary_mass_reads_edges(half_width, seed, scale):
    cfg = fw.LatticeConfig(half_width)
    rng = np.random.default_rng(seed)
    amp = scale * (rng.normal(size=(2, cfg.n_sites)) + 1j * rng.normal(size=(2, cfg.n_sites)))
    s = fw.LatticeState(cfg, amp)
    p = fw.probability_distribution(s)
    mass = fw.boundary_mass(s)
    if cfg.n_sites > 2 * EDGE_MARGIN:
        assert mass == float(p[:EDGE_MARGIN].sum() + p[-EDGE_MARGIN:].sum())
    else:  # the whole lattice is boundary; no site counts twice
        assert mass == float(p.sum())
    assert mass <= s.norm() ** 2 * (1 + 1e-12)


_SITE = fw.make_single_site(0, P.H, CFG)
_PARAMS = fw.ModulationParams(1.0)
_X = fw.solve_modulation(fw.table_gate("X"))


@pytest.mark.parametrize(
    "call",
    [lambda: fw.spin_projection_at_q(_SITE, np.nan),
     lambda: fw.spin_projection_at_q(_SITE, np.inf),
     lambda: fw.translation_kernel(1.0, np.inf),
     lambda: fw.translation_kernel(1.0, np.nan),
     lambda: fw.execute_two_qubit_lattice(["cnot"], 1.0),
     lambda: fw.execute_two_qubit_lattice(["cnot"], True),
     lambda: fw.WavepacketSpec(20, np.nan, (1, 0)),
     lambda: fw.WavepacketSpec(20, 0.0, (np.nan, 0)),
     lambda: fw.gate_fidelity(np.zeros((0, 0)), np.zeros((0, 0))),
     lambda: fw.hs_distance(np.zeros((0, 0)), np.zeros((0, 0))),
     lambda: fw.state_fidelity(np.zeros(0), np.zeros(0)),
     lambda: fw.evolve(_SITE, [_PARAMS, _PARAMS], n_steps=3),
     lambda: fw.table_gate("X", 0.3),
     lambda: fw.uk_matrix(_PARAMS, [[0.1], [0.2, 0.3]]),
     lambda: fw.ModulationParams(gamma=10**400),
     # a gate drive keys its packet tables by the spin only once it is valid
     lambda: fw.execute_gate_lattice(_X, 1.0, delta=20.0),
     lambda: fw.execute_gate_lattice(_X, (np.nan, 0), delta=20.0),
     lambda: fw.execute_gate_lattice(_X, (1, 0, 0), delta=20.0)],
    ids=["q-nan", "q-inf", "phi-inf", "phi-nan",
         "basis-float", "basis-bool", "packet-q-nan", "packet-spin-nan",
         "gate-fidelity-empty", "hs-distance-empty", "state-fidelity-empty",
         "schedule-length-mismatch", "angle-for-fixed-gate", "q-ragged",
         "gamma-past-float-range", "gate-spin-scalar", "gate-spin-nan", "gate-spin-shape"],
)
def test_bad_library_input_is_a_configuration_error(call):
    # none may reach a memo, where a NaN key would evict a real table
    memos = (fw.lattice._plane_wave, fw.lattice._envelope, fw.engine._grid_blocks,
             fw.engine._direct_kernels, fw.lattice._packet, fw.lattice._packet_q)
    before = [memo.cache_info() for memo in memos]
    with pytest.raises(fw.ConfigurationError):
        call()
    assert [memo.cache_info() for memo in memos] == before
