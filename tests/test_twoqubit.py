import numpy as np
import pytest

import freqwalk as fw
from freqwalk import gates
from freqwalk.twoqubit import reconstruct_4x4, sequence_matrix

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
MS = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def is_permutation(u):
    return np.array_equal(np.abs(u), np.abs(u) ** 2) and np.all(
        np.abs(u).sum(axis=0) == 1
    ) and np.all(np.abs(u).sum(axis=1) == 1)


class TestMatrices:
    def test_cnot_entries(self):
        c = fw.cnot_matrix()
        assert np.array_equal(c, CNOT)
        assert np.allclose(c @ c, np.eye(4))

    def test_cnot_action_on_basis(self):
        c = fw.cnot_matrix()
        assert np.array_equal(c @ np.eye(4)[2], np.eye(4)[3])  # |1H> -> |1V>
        assert np.array_equal(c @ np.eye(4)[0], np.eye(4)[0])  # |0H> fixed

    def test_path_x(self):
        x = fw.path_x()
        assert np.allclose(x @ x, np.eye(4))
        assert np.array_equal(x @ np.eye(4)[1], np.eye(4)[3])  # |0V> -> |1V>

    def test_ms_composition(self):
        assert np.array_equal(fw.sequence_ms(), MS)
        assert np.array_equal(fw.path_x() @ fw.cnot_matrix() @ fw.path_x(), MS)
        assert np.allclose(fw.sequence_ms() @ fw.sequence_ms().conj().T, np.eye(4))
        assert np.allclose(fw.sequence_ms(), fw.sequence_ms().conj().T)

    def test_pol_x_would_not_give_ms(self):
        # the X in the test sequence must act on the path qubit: the
        # polarization-side alternative collapses back to the plain CNOT
        pol_x = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
        assert np.array_equal(pol_x @ fw.cnot_matrix() @ pol_x, CNOT)

    def test_permutation_structure(self):
        for u in (fw.cnot_matrix(), fw.path_x(), fw.sequence_ms()):
            assert is_permutation(u)
            assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_sequence_matrix_unknown_op(self):
        with pytest.raises(fw.ConfigurationError):
            sequence_matrix(["cnot", "swap"])


class TestLattice:
    def test_cnot_on_1h(self):
        out = fw.execute_two_qubit_lattice(["cnot"], 2)
        assert np.max(np.abs(out - np.array([0, 0, 0, 1]))) < 1e-3

    def test_ms_on_0h(self):
        out = fw.execute_two_qubit_lattice(["path_x", "cnot", "path_x"], 0)
        assert np.max(np.abs(out - np.array([0, 1, 0, 0]))) < 1e-3

    def test_empty_sequence_is_identity(self):
        for i in range(4):
            out = fw.execute_two_qubit_lattice([], i)
            target = np.eye(4)[i]
            fid = abs(np.vdot(out / np.linalg.norm(out), target)) ** 2
            assert fid >= 1 - 1e-10

    def test_bad_basis_index(self):
        with pytest.raises(fw.ConfigurationError):
            fw.execute_two_qubit_lattice(["cnot"], 4)


class TestReconstruction:
    def test_ms_matches_published_matrix(self):
        report = reconstruct_4x4(["path_x", "cnot", "path_x"])
        assert np.max(np.abs(report.reconstructed - MS)) < 1e-3
        assert report.max_abs_error < 1e-3

    def test_cnot_alone(self):
        report = reconstruct_4x4(["cnot"])
        assert np.max(np.abs(report.reconstructed - CNOT)) < 1e-3

    def test_random_sequences_match_matrix_product(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            ops = list(rng.choice(["cnot", "path_x"], size=rng.integers(1, 5)))
            report = reconstruct_4x4(ops, delta=200.0)
            assert report.max_abs_error < 1e-3


class TestLockstepColumns:
    """The four basis packets of a reconstruction walk in lockstep; each
    column keeps the bits of that packet driven alone."""

    @pytest.mark.parametrize("engine", ["spectral", "direct"])
    @pytest.mark.parametrize(
        "ops", [[], ["cnot"], ["path_x", "cnot", "path_x"], ["cnot", "cnot"],
                ["cnot", "path_x", "cnot"]],
    )
    def test_columns_equal_single_packets(self, ops, engine):
        report = reconstruct_4x4(ops, delta=20.0, engine=engine)
        for i in range(4):
            alone = fw.execute_two_qubit_lattice(ops, i, delta=20.0, engine=engine)
            assert report.reconstructed[:, i].tobytes() == alone.tobytes(), i


class TestLatticeWork:
    """A basis packet sits on one path, so only its lattice is stepped:
    one roundtrip per CNOT, none per path-X.  The basis packets of a
    reconstruction are the members of one lockstep walk per roundtrip."""

    @pytest.mark.parametrize(
        "ops",
        [[], ["path_x"], ["cnot"], ["path_x", "cnot", "path_x"], ["path_x", "cnot"],
         ["cnot", "cnot"], ["cnot", "path_x", "cnot"]],
    )
    def test_one_step_per_cnot(self, ops, monkeypatch):
        walks = []  # the roundtrips of each member, per walk
        real_walk = gates._walk

        def counted(states, schedules, engine):
            schedules = [list(s) for s in schedules]
            walks.append([len(s) for s in schedules])
            assert len(states) == len(schedules)
            return real_walk(states, schedules, engine)

        monkeypatch.setattr(gates, "_walk", counted)
        for i in range(4):
            walks.clear()
            fw.execute_two_qubit_lattice(ops, i, delta=20.0)
            assert walks == [[1]] * ops.count("cnot")
        walks.clear()
        reconstruct_4x4(ops, delta=20.0)
        assert walks == [[1, 1, 1, 1]] * ops.count("cnot")
