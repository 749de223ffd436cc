import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqwalk as fw
from freqwalk.gates import sequence_matrix

SQ2 = 1 / np.sqrt(2)
TARGETS = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": SQ2 * np.array([[1, 1], [1, -1]], dtype=complex),
}
ALL_GATES = ["X", "Y", "Z", "H", "Rz"]


def solved(name, phi=None, **kw):
    return fw.solve_modulation(fw.table_gate(name, phi), **kw)


class TestTable:
    def test_x_row(self):
        g = fw.table_gate("X")
        assert (g.theta, g.a, g.b) == (np.pi, np.pi, 0.0)
        assert np.array_equal(g.target, TARGETS["X"])

    def test_rz_row(self):
        g = fw.table_gate("Rz", 0.7)
        assert (g.theta, g.a, g.b) == (0.0, 0.0, 0.7)
        assert np.allclose(g.target, np.diag([1, np.exp(0.7j)]))

    def test_unknown_gate(self):
        with pytest.raises(fw.ConfigurationError):
            fw.table_gate("W")

    def test_rz_requires_angle(self):
        with pytest.raises(fw.ConfigurationError):
            fw.table_gate("Rz")

    @pytest.mark.parametrize("name", ["X", "Y", "Z", "H"])
    def test_targets_unitary(self, name):
        t = fw.table_gate(name).target
        assert np.allclose(t @ t.conj().T, np.eye(2), atol=1e-12)


class TestSolve:
    def test_x_at_default_working_point(self):
        sp = solved("X", q_star=2 * np.pi / 3, gamma=np.pi)
        assert sp.params.phi_h == pytest.approx(
            fw.lattice.reduce_angle(-2 * np.pi / 3), abs=1e-12
        )
        assert sp.params.phi_v == pytest.approx(-2 * np.pi / 3 + np.pi / 2, abs=1e-12)

    def test_z_at_origin(self):
        sp = solved("Z", q_star=0.0, gamma=np.pi)
        assert sp.params.phi_h == pytest.approx(np.pi / 2, abs=1e-12)
        assert sp.params.phi_v == pytest.approx(0.0, abs=1e-12)

    def test_constraints_satisfied(self):
        for name in ["X", "Y", "Z", "H"]:
            sp = solved(name)
            g = sp.spec
            p = sp.params
            assert p.gamma * np.cos(sp.q_star + p.phi_h) == pytest.approx(
                g.a, abs=1e-12
            )
            assert p.gamma * np.cos(sp.q_star + p.phi_v) == pytest.approx(
                g.b, abs=1e-12
            )

    def test_infeasible_rz(self):
        with pytest.raises(fw.InfeasibleGateError):
            solved("Rz", 2 * np.pi, gamma=np.pi)

    def test_minus_branch_also_solves(self):
        sp = solved("Y", branch="-")
        assert np.allclose(fw.gate_matrix_analytic(sp), TARGETS["Y"], atol=1e-12)

    @pytest.mark.parametrize("branch", ["x", "", None, "+-"])
    def test_unknown_branch(self, branch):
        with pytest.raises(fw.ConfigurationError, match="branch"):
            solved("X", branch=branch)


class TestAnalyticMatrices:
    @pytest.mark.parametrize("name", ["X", "Y", "Z", "H"])
    def test_matches_target_exactly(self, name):
        u = fw.gate_matrix_analytic(solved(name))
        assert np.max(np.abs(u - TARGETS[name])) < 1e-12

    def test_rz_matrix(self):
        u = fw.gate_matrix_analytic(solved("Rz", 1.2))
        assert np.max(np.abs(u - np.diag([1, np.exp(1.2j)]))) < 1e-12


ANGLES = st.floats(-np.pi, np.pi)


@st.composite
def gate_specs(draw):
    """A table gate, or an Rz with any angle of its feasible range."""
    name = draw(st.sampled_from(ALL_GATES))
    return fw.table_gate(name, draw(ANGLES) if name == "Rz" else None)


class TestInversionProperties:
    @settings(max_examples=300, deadline=None)
    @given(spec=gate_specs(), q_star=ANGLES, branch=st.sampled_from("+-"),
           spare=st.floats(0.0, 1.0), data=st.data())
    def test_solved_block_is_the_target(self, spec, q_star, branch, spare, data):
        bound = max(abs(spec.a), abs(spec.b), 1e-9)
        gamma = data.draw(st.floats(bound, 100.0))
        sp = fw.solve_modulation(spec, q_star=q_star, gamma=gamma, branch=branch)
        assert np.max(np.abs(fw.gate_matrix_analytic(sp) - spec.target)) < 1e-12
        below = min(bound * spare, np.nextafter(bound, 0))
        with pytest.raises(fw.InfeasibleGateError):
            fw.solve_modulation(spec, q_star=q_star, gamma=below, branch=branch)

    @settings(max_examples=200, deadline=None)
    @given(phi1=st.floats(-4 * np.pi, 4 * np.pi), phi2=st.floats(-4 * np.pi, 4 * np.pi),
           q_star=ANGLES, gamma=st.none() | st.floats(np.pi, 100.0))
    def test_preparation_reaches_the_target(self, phi1, phi2, q_star, gamma):
        _, solved_list = fw.prepare_state_sequence(phi1, phi2, q_star, gamma)
        psi = sequence_matrix(solved_list) @ np.array([1.0, 0.0])
        target = fw.qubit_state(phi1, phi2)
        phase = np.vdot(target, psi)
        assert abs(abs(phase) - 1) < 1e-12
        assert np.max(np.abs(psi - phase * target)) < 1e-12


class TestMetrics:
    def test_hs_zero_iff_equal(self):
        x = TARGETS["X"]
        assert fw.hs_distance(x, x) == 0.0
        assert fw.hs_distance(-x, x) == pytest.approx(8.0)
        assert fw.hs_distance(TARGETS["X"], TARGETS["Z"]) == pytest.approx(4.0)

    def test_hs_dim_mismatch(self):
        with pytest.raises(fw.ConfigurationError):
            fw.hs_distance(np.eye(2), np.eye(3))

    def test_gate_fidelity(self):
        x = TARGETS["X"]
        assert fw.gate_fidelity(x, x) == pytest.approx(1.0)
        assert fw.gate_fidelity(np.exp(0.9j) * x, x) == pytest.approx(1.0)
        assert fw.gate_fidelity(TARGETS["X"], TARGETS["Z"]) == pytest.approx(0.0)

    def test_state_fidelity(self):
        h = np.array([1.0, 0.0])
        plus = np.array([1.0, 1.0]) * SQ2
        assert fw.state_fidelity(h, h) == pytest.approx(1.0)
        assert fw.state_fidelity(h, np.array([0.0, 1.0])) == 0.0
        assert fw.state_fidelity(plus, h) == pytest.approx(0.5)
        with pytest.raises(fw.ConfigurationError):
            fw.state_fidelity(2 * h, h)


class TestLatticeExecution:
    def test_x_gate_flips_h(self):
        out = fw.execute_gate_lattice(solved("X"), (1.0, 0.0))
        assert fw.state_fidelity(out, np.array([0.0, 1.0])) >= 0.999

    def test_identity_roundtrip(self):
        sp = fw.SolvedParams(
            fw.ModulationParams(gamma=0.0, theta=0.0), 2 * np.pi / 3,
            fw.table_gate("Z"),
        )
        spin = np.array([0.6, 0.8j])
        out = fw.execute_gate_lattice(sp, spin)
        assert fw.state_fidelity(out, spin) >= 1 - 1e-10

    def test_h_gate_makes_plus(self):
        out = fw.execute_gate_lattice(solved("H"), (1.0, 0.0))
        assert fw.state_fidelity(out, np.array([SQ2, SQ2])) >= 0.999


class TestReconstruction:
    @pytest.mark.parametrize("name", ALL_GATES)
    def test_all_gates_high_fidelity(self, name):
        phi = 0.6 * np.pi if name == "Rz" else None
        report = fw.reconstruct_matrix(solved(name, phi), delta=200.0)
        assert report.hs_distance < 1e-4
        assert report.avg_gate_fidelity > 0.9999
        assert np.max(np.abs(report.reconstructed - report.target)) < 1e-3

    def test_agrees_with_analytic(self):
        sp = solved("Y")
        report = fw.reconstruct_matrix(sp, delta=200.0)
        assert np.max(
            np.abs(report.reconstructed - fw.gate_matrix_analytic(sp))
        ) < 1e-3

    def test_error_shrinks_with_bandwidth(self):
        sp = solved("H")
        errs = [fw.reconstruct_matrix(sp, delta=d).hs_distance for d in (50, 200, 800)]
        assert errs[0] > errs[1] > errs[2]


class TestStatePreparation:
    def test_sequence_structure(self):
        schedule, solved_list = fw.prepare_state_sequence(0.3, 1.1)
        assert len(schedule) == 4
        names = [s.spec.name for s in solved_list]
        assert names == ["H", "Rz", "H", "Rz"]

    def test_sequence_product_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            phi1 = rng.uniform(0, np.pi)
            phi2 = rng.uniform(0, 2 * np.pi)
            _, solved_list = fw.prepare_state_sequence(phi1, phi2)
            psi = sequence_matrix(solved_list) @ np.array([1.0, 0.0])
            assert fw.state_fidelity(
                psi / np.linalg.norm(psi), fw.qubit_state(phi1, phi2)
            ) > 1 - 1e-12

    def test_phi1_zero_keeps_h(self):
        _, fid = fw.run_preparation(0.0, 0.8)
        assert fid >= 0.999

    def test_plus_state(self):
        psi, fid = fw.run_preparation(np.pi / 2, 0.0)
        assert fid >= 0.999
        assert fw.state_fidelity(psi, np.array([SQ2, SQ2])) >= 0.999

    def test_minus_state(self):
        psi, fid = fw.run_preparation(np.pi / 2, np.pi)
        assert fid >= 0.999
        assert fw.state_fidelity(psi, np.array([SQ2, -SQ2])) >= 0.999

    @pytest.mark.parametrize(
        "phi1,phi2",
        [
            (0.5 * np.pi, 0.0),
            (0.5 * np.pi, 0.5 * np.pi),
            (0.5 * np.pi, np.pi),
            (0.75 * np.pi, 0.25 * np.pi),
        ],
    )
    def test_published_targets(self, phi1, phi2):
        _, fid = fw.run_preparation(phi1, phi2)
        assert fid >= 0.999
