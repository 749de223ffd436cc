"""Single-qubit gates in quasimomentum space.

A gate is a target value pair (a, b) for Gamma*cos(q* + phi_H) and
Gamma*cos(q* + phi_V) together with a rotation angle theta; at the
working quasimomentum q* the roundtrip block then equals the gate
matrix, so one roundtrip applies the gate to the spin of a narrowband
wavepacket.  This module inverts the constraints into modulation
parameters, runs the gates on the lattice, and reconstructs the gate
matrix column by column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import ModulationParams, Schedule, step, uk_matrix
from .errors import ConfigurationError, InfeasibleGateError
from .lattice import (
    LatticeConfig,
    LatticeState,
    WavepacketSpec,
    make_gaussian,
    reduce_angle,
    spin_projection_at_q,
)

DEFAULT_Q_STAR = 2 * np.pi / 3
DEFAULT_DELTA = 200.0

_SQ2 = 1.0 / math.sqrt(2.0)

_TABLE = {
    "X": (np.pi, np.pi, 0.0, np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": (np.pi, np.pi / 2, np.pi / 2, np.array([[0, -1j], [1j, 0]])),
    "Z": (0.0, 0.0, np.pi, np.array([[1, 0], [0, -1]], dtype=complex)),
    # the Hadamard target is stored normalized (unitary)
    "H": (-np.pi / 2, 0.0, np.pi, _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)),
}


@dataclass(frozen=True)
class GateSpec:
    name: str
    theta: float
    a: float  # target Gamma*cos(q* + phi_H)
    b: float  # target Gamma*cos(q* + phi_V)
    target: np.ndarray


def table_gate(name: str, phi: float | None = None) -> GateSpec:
    """Named gate parameters: X, Y, Z, H, or Rz (which needs its angle)."""
    if name == "Rz":
        if phi is None:
            raise ConfigurationError("Rz gate requires the phase angle phi")
        target = np.array([[1, 0], [0, np.exp(1j * phi)]])
        return GateSpec("Rz", 0.0, 0.0, float(phi), target)
    if phi is not None:
        raise ConfigurationError(f"{name} gate takes no angle")
    try:
        theta, a, b, target = _TABLE[name]
    except KeyError:
        raise ConfigurationError(f"unknown gate {name!r}") from None
    return GateSpec(name, theta, a, b, target)


@dataclass(frozen=True)
class SolvedParams:
    """Modulation parameters realizing a gate at working point q_star."""

    params: ModulationParams
    q_star: float
    spec: GateSpec


def solve_modulation(
    spec: GateSpec,
    q_star: float = DEFAULT_Q_STAR,
    gamma: float | None = None,
    branch: str = "+",
) -> SolvedParams:
    """Invert the gate constraints: phi_p = -q* +- arccos(target/Gamma).

    Both arccos branches solve the constraints; '+' is the default.
    """
    if branch not in ("+", "-"):
        raise ConfigurationError(f"branch must be '+' or '-', got {branch!r}")
    if gamma is None:
        gamma = max(np.pi, abs(spec.a), abs(spec.b))
    if gamma < max(abs(spec.a), abs(spec.b), 1e-9):
        raise InfeasibleGateError(
            f"gamma={gamma} cannot reach targets a={spec.a}, b={spec.b}"
        )
    sign = 1.0 if branch == "+" else -1.0
    phi_h = -q_star + sign * math.acos(spec.a / gamma)
    phi_v = -q_star + sign * math.acos(spec.b / gamma)
    return SolvedParams(
        ModulationParams(gamma=gamma, phi_h=phi_h, phi_v=phi_v, theta=spec.theta),
        q_star,
        spec,
    )


def gate_matrix_analytic(solved: SolvedParams) -> np.ndarray:
    """Roundtrip block at the working point; equals the gate matrix."""
    return uk_matrix(solved.params, solved.q_star)


def hs_distance(u_o: np.ndarray, u_t: np.ndarray) -> float:
    """Hilbert-Schmidt distance Tr[(U_t - U_o)^dag (U_t - U_o)]; 0 at
    perfect agreement."""
    if u_o.shape != u_t.shape:
        raise ConfigurationError("matrix dimensions differ")
    d = u_t - u_o
    return float(np.real(np.trace(d.conj().T @ d)))


def gate_fidelity(u_o: np.ndarray, u_t: np.ndarray) -> float:
    """|Tr(U_t^dag U_o)|^2 / d^2: 1 iff equal up to a global phase."""
    if u_o.shape != u_t.shape:
        raise ConfigurationError("matrix dimensions differ")
    d = u_t.shape[0]
    return float(abs(np.trace(u_t.conj().T @ u_o)) ** 2 / d**2)


def state_fidelity(psi_o: np.ndarray, psi_t: np.ndarray) -> float:
    """|<psi_o|psi_t>|^2 for unit vectors."""
    for v in (psi_o, psi_t):
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ConfigurationError("state fidelity requires unit vectors")
    return float(abs(np.vdot(psi_o, psi_t)) ** 2)


def _drive(
    spin, schedule: Schedule, delta: float, q_star: float, engine: str
) -> tuple[LatticeState, LatticeState]:
    """The Gaussian packet with the given spin at q_star, and the state
    after one `step` per roundtrip of the schedule."""
    spec = WavepacketSpec(delta=delta, q=q_star, spin=(spin[0], spin[1]))
    # edge envelope < 1e-8 needs half_width > ~4.3*delta
    try:
        cfg = LatticeConfig(half_width=int(math.ceil(4.5 * delta)))
    except (ConfigurationError, OverflowError):  # 4.5 * delta unaddressable or inf
        raise ConfigurationError(
            f"delta {delta:g} too large: its lattice (half_width 4.5 delta) "
            "would exceed the addressable memory"
        ) from None
    packet = state = make_gaussian(spec, cfg)
    for params in schedule:
        state = step(state, params, engine)
    return packet, state


def _column(
    spin, schedule: Schedule, delta: float, q_star: float, engine: str
) -> np.ndarray:
    """Raw q* projection of the output over the input packet's norm there."""
    packet, out = _drive(spin, schedule, delta, q_star, engine)
    scale = np.linalg.norm(spin_projection_at_q(packet, q_star, normalized=False))
    return spin_projection_at_q(out, q_star, normalized=False) / scale


def execute_gate_lattice(
    solved: SolvedParams,
    input_spin,
    delta: float = DEFAULT_DELTA,
    engine: str = "spectral",
) -> np.ndarray:
    """Run one gate roundtrip on a narrowband wavepacket and read out the
    spin at the working quasimomentum (normalized)."""
    _, out = _drive(input_spin, [solved.params], delta, solved.q_star, engine)
    return spin_projection_at_q(out, solved.q_star)


@dataclass(frozen=True)
class GateReport:
    reconstructed: np.ndarray
    target: np.ndarray
    hs_distance: float
    avg_gate_fidelity: float
    column_fidelities: tuple[float, float]


def reconstruct_matrix(
    solved: SolvedParams, delta: float = DEFAULT_DELTA, engine: str = "spectral"
) -> GateReport:
    """Column-wise process reconstruction against the gate target.

    Each basis spin is driven through one roundtrip; the raw q*
    projection of the output, divided by the input packet's own real
    projection magnitude, gives one column with inter-column phase
    intact (the roundtrip block acts pointwise in q).
    """
    cols = [
        _column(spin, [solved.params], delta, solved.q_star, engine)
        for spin in ((1.0, 0.0), (0.0, 1.0))
    ]
    u_o = np.column_stack(cols)
    target = solved.spec.target
    col_f = tuple(
        state_fidelity(c / np.linalg.norm(c), target[:, i])
        for i, c in enumerate(cols)
    )
    return GateReport(
        reconstructed=u_o,
        target=target,
        hs_distance=hs_distance(u_o, target),
        avg_gate_fidelity=gate_fidelity(u_o, target),
        column_fidelities=col_f,
    )


def qubit_state(phi1: float, phi2: float) -> np.ndarray:
    """|phi1, phi2> = cos(phi1/2)|H> + sin(phi1/2) e^{i phi2}|V>."""
    return np.array(
        [math.cos(phi1 / 2), math.sin(phi1 / 2) * np.exp(1j * phi2)]
    )


def prepare_state_sequence(
    phi1: float,
    phi2: float,
    q_star: float = DEFAULT_Q_STAR,
    gamma: float | None = None,
) -> tuple[Schedule, list[SolvedParams]]:
    """Four-roundtrip schedule H, Rz(phi1), H, Rz(phi2 + pi/2) taking |H>
    to |phi1, phi2> (up to a global phase), each gate solved at q_star.

    Rz angles are reduced mod 2*pi into [-pi, pi) (same matrix), so the
    whole family stays feasible at the default Gamma = pi.
    """
    gates = [
        table_gate("H"),
        table_gate("Rz", reduce_angle(phi1)),
        table_gate("H"),
        table_gate("Rz", reduce_angle(phi2 + np.pi / 2)),
    ]
    solved = [solve_modulation(g, q_star, gamma) for g in gates]
    return [s.params for s in solved], solved


def sequence_matrix(solved: list[SolvedParams]) -> np.ndarray:
    """Matrix product of a gate sequence (application order)."""
    u = np.eye(2, dtype=complex)
    for s in solved:
        u = gate_matrix_analytic(s) @ u
    return u


def run_preparation(
    phi1: float,
    phi2: float,
    delta: float = DEFAULT_DELTA,
    q_star: float = DEFAULT_Q_STAR,
    engine: str = "spectral",
) -> tuple[np.ndarray, float]:
    """Drive an |H> wavepacket through the 4-gate schedule and compare
    the read-out spin with the target |phi1, phi2>."""
    schedule, _ = prepare_state_sequence(phi1, phi2, q_star)
    _, out = _drive((1.0, 0.0), schedule, delta, q_star, engine)
    psi_o = spin_projection_at_q(out, q_star)
    return psi_o, state_fidelity(psi_o, qubit_state(phi1, phi2))
