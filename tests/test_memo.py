"""The memoized lattice tables (`lattice._table`): the spectral blocks on
the FFT grid, the packet envelope, the read-out plane wave, the direct
taps, the m^2 table, and each basis packet and its q-space amplitudes,
from which a gate drive's first spectral roundtrip starts.

Every gate, preparation, two-qubit report and diffusion curve must be the
same bytes whatever the memos hold: built cold, read warm, or left behind
by other experiments on another lattice in any order.
"""

import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqwalk as fw
from freqwalk import engine, lattice

MEMOS = (engine._grid_blocks, lattice._envelope, lattice._plane_wave,
         engine._direct_kernels, lattice._squared_sites, lattice._packet,
         lattice._packet_q)
DELTAS = (20.0, 37.5)  # lattices of 181 and 339 sites, the same params


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def as_bytes(*values) -> bytes:
    """Every bit of the values, the sign of zero included."""
    return b"".join(np.asarray(v).tobytes() for v in values)


def gate(name, phi=None, engine="spectral"):
    def run(delta):
        solved = fw.solve_modulation(fw.table_gate(name, phi))
        r = fw.reconstruct_matrix(solved, delta=delta, engine=engine)
        return as_bytes(r.reconstructed, r.hs_distance, r.avg_gate_fidelity,
                        r.column_fidelities)
    return run


def prepare(phi1, phi2):
    def run(delta):
        return as_bytes(*fw.run_preparation(phi1, phi2, delta=delta))
    return run


def register(ops):
    def run(delta):
        r = fw.reconstruct_4x4(ops, delta=delta)
        return as_bytes(r.reconstructed, r.max_abs_error)
    return run


def diffusion(delta):
    state = fw.make_single_site(0, fw.Polarization.H, fw.LatticeConfig(int(4 * delta)))
    params = fw.ModulationParams(gamma=np.pi, phi_v=0.75 * np.pi, theta=-np.pi / 2)
    return as_bytes(fw.evolve(state, params, 3).series("diffusion"))


EXPERIMENTS = {
    "X": gate("X"),
    "Y": gate("Y"),
    "Z": gate("Z"),
    "H": gate("H"),
    "Rz(0.7)": gate("Rz", 0.7),
    "Rz(-2.1)": gate("Rz", -2.1),
    "H direct": gate("H", engine="direct"),
    "prepare(0.75pi, 0.25pi)": prepare(0.75 * np.pi, 0.25 * np.pi),
    "prepare(1.3, -2.0)": prepare(1.3, -2.0),
    "cnot": register(["cnot"]),
    "ms": register(["path_x", "cnot", "path_x"]),
    "cnot,cnot": register(["cnot", "cnot"]),  # two roundtrips of one batch
    "diffusion": diffusion,
}
RUNS = [(name, delta) for name in EXPERIMENTS for delta in DELTAS]


@pytest.fixture(scope="module")
def cold():
    """Each report from empty memos."""
    reports = {}
    for name, delta in RUNS:
        clear_memos()
        reports[name, delta] = EXPERIMENTS[name](delta)
    return reports


def test_warm_memo_gives_the_same_bytes(cold):
    for name, delta in RUNS:
        clear_memos()
        EXPERIMENTS[name](delta)
        assert EXPERIMENTS[name](delta) == cold[name, delta], (name, delta)


@settings(max_examples=15, deadline=None)
@given(order=st.permutations(RUNS))
def test_any_order_gives_the_same_bytes(cold, order):
    for name, delta in order:
        assert EXPERIMENTS[name](delta) == cold[name, delta], (name, delta)
        for memo in MEMOS:
            assert memo.cache_info().currsize <= 2


# the tables each experiment builds, in the order of MEMOS: one per
# distinct parameter set (a preparation's two H share one block, a
# register's basis inputs share the X and the idle roundtrip) and one
# packet per basis spin (a preparation drives H alone, a register's four
# inputs share H and V); only the direct engine reads taps, only the
# spectral engine reads q-space packets, only a diffusion curve reads m^2
BUILDS = {"H direct": (0, 1, 1, 1, 0, 2, 0), "prepare(0.75pi, 0.25pi)": (2, 1, 1, 0, 0, 1, 1),
          "prepare(1.3, -2.0)": (3, 1, 1, 0, 0, 1, 1), "cnot": (2, 1, 1, 0, 0, 2, 2),
          "ms": (2, 1, 1, 0, 0, 2, 2), "cnot,cnot": (2, 1, 1, 0, 0, 2, 2),
          "diffusion": (1, 0, 0, 0, 1, 0, 0)}


def test_each_table_built_once_per_experiment():
    for name, delta in RUNS:
        clear_memos()
        EXPERIMENTS[name](delta)
        misses = tuple(memo.cache_info().misses for memo in MEMOS)
        assert misses == BUILDS.get(name, (1, 1, 1, 0, 0, 2, 2)), name


def test_equal_keys_give_the_same_bytes():
    """-0.0 == 0.0, so either may build the table the other reads."""
    for zero in (0.0, -0.0):
        params = fw.ModulationParams(gamma=zero, theta=zero)
        assert not np.signbit([params.gamma, params.theta]).any()
        engine._grid_blocks.cache_clear()
        assert engine._grid_blocks(params, 9).tobytes() == engine.uk_matrix(
            fw.ModulationParams(gamma=0.0), engine._q_grid(9)
        ).tobytes()
    # the plane waves at q = -0.0 and 0.0 differ in the sign of zero
    # imaginary parts, which no read-out sum keeps
    cfg = fw.LatticeConfig(12)
    amp = fw.make_gaussian(fw.WavepacketSpec(2.0, 0.0, (1.0, 0.0)), cfg).amp
    amp[1] = np.copysign(0.0, np.sin(np.arange(2 * cfg.n_sites))).view(complex)
    state = fw.LatticeState(cfg, amp)  # the V row holds zeros of both signs
    reads = set()
    for first in (-0.0, 0.0):
        lattice._plane_wave.cache_clear()
        for q in (first, -first):
            v = fw.spin_projection_at_q(state, q, normalized=False)
            reads.add(v.tobytes())
    assert len(reads) == 1


@pytest.mark.parametrize(
    "memo, args",
    list(zip(MEMOS, [(fw.ModulationParams(gamma=1.0), 9), (2.0, 0.3, 9), (0.3, 9),
                     (fw.ModulationParams(gamma=1.0, phi_v=0.4),), (9,),
                     (2.0, 0.3, (1j, 0j), 9), (2.0, 0.3, (1j, 0j), 9)])),
)
def test_tables_are_read_only(memo, args):
    table = memo(*args)
    with pytest.raises(ValueError, match="read-only"):
        table[..., 0] = 0
    assert memo.cache_info().maxsize == 2


def test_every_memo_is_tested():
    # a memo missing from MEMOS would escape the cold and warm bit tests;
    # `_row_pool` holds the direct engine's worker thread, not a table
    modules = [fw] + [importlib.import_module(f"freqwalk.{m.name}")
                      for m in pkgutil.iter_modules(fw.__path__)]
    memos = {value for module in modules for value in vars(module).values()
             if hasattr(value, "cache_info")}
    assert memos == {*MEMOS, engine._row_pool}


def test_warm_drives_start_from_the_stored_q_space_rows(monkeypatch):
    """A drive's first spectral roundtrip starts from its packets' stored
    q-space rows, so a warm reconstruction makes no inverse FFT and a warm
    preparation makes one per later roundtrip, 3 of its 4, of 2 rows each."""
    solved = fw.solve_modulation(fw.table_gate("H"))
    runs = (lambda: fw.reconstruct_matrix(solved, delta=20.0),
            lambda: fw.run_preparation(0.75 * np.pi, 0.25 * np.pi, delta=20.0))
    for run in runs:
        run()
    rows = []
    real_ifft = np.fft.ifft

    def counted(a, *args, **kwargs):
        rows.append(a.size // a.shape[-1])
        return real_ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    runs[0]()
    assert rows == []
    runs[1]()
    assert rows == [2, 2, 2]


def test_equal_spins_share_one_packet():
    """Equal spins, -0.0 and 0.0 parts included, share one packet table,
    with the same bytes whichever of them builds it."""
    cfg = fw.LatticeConfig(12)
    spins = ((1, -0.0), (1 + 0j, complex(-0.0, -0.0)), (1, 0), (1.0, 0.0), np.array([1, 0]))
    specs = [fw.WavepacketSpec(2.0, 0.3, spin) for spin in spins]
    amps = set()
    for spec in specs:
        lattice._packet.cache_clear()
        amps.add(fw.make_gaussian(spec, cfg).amp.tobytes())
    amps |= {fw.make_gaussian(spec, cfg).amp.tobytes() for spec in specs}
    assert len(amps) == 1
    assert lattice._packet.cache_info()[1:] == (1, 2, 1)  # misses, maxsize, currsize
    keys = {lattice._packet_key(spec, cfg) for spec in specs}
    assert len(keys) == 1
    assert not np.signbit(np.array(keys.pop()[2]).view(float)).any()

