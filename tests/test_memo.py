"""The memoized lattice tables: the spectral blocks on the FFT grid, the
packet envelope, the read-out plane wave and the direct kernels.

Every gate, preparation and two-qubit report must be the same bytes
whatever the memos hold: built cold, read warm, or left behind by other
experiments on another lattice in any order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqwalk as fw
from freqwalk import engine, lattice

MEMOS = (engine._grid_blocks, lattice._envelope, lattice._plane_wave,
         engine._direct_kernels)
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


# distinct parameter sets per experiment: a preparation's two H share one
# block, a register's basis inputs share the X and the idle roundtrip
BLOCK_BUILDS = {"H direct": 0, "prepare(0.75pi, 0.25pi)": 2,
                "prepare(1.3, -2.0)": 3, "cnot": 2, "ms": 2, "cnot,cnot": 2}
KERNEL_BUILDS = {"H direct": 1}  # only the direct engine reads kernels


def test_each_table_built_once_per_experiment():
    for name, delta in RUNS:
        clear_memos()
        EXPERIMENTS[name](delta)
        misses = [memo.cache_info().misses for memo in MEMOS]
        assert misses == [BLOCK_BUILDS.get(name, 1), 1, 1,
                          KERNEL_BUILDS.get(name, 0)], name


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
    [(engine._grid_blocks, (fw.ModulationParams(gamma=1.0), 9)),
     (lattice._envelope, (2.0, 0.3, 9)),
     (lattice._plane_wave, (0.3, 9))],
)
def test_tables_are_read_only(memo, args):
    table = memo(*args)
    with pytest.raises(ValueError, match="read-only"):
        table[..., 0] = 0
    assert memo.cache_info().maxsize == 2


def test_direct_kernels_are_read_only():
    kernels = engine._direct_kernels(fw.ModulationParams(gamma=1.0, phi_v=0.4))
    for kern in kernels:
        with pytest.raises(ValueError, match="read-only"):
            kern.coeffs[0] = 0
    assert engine._direct_kernels.cache_info().maxsize == 2
