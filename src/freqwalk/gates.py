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

from .bands import BRANCHES
from .engine import ENGINES, ModulationParams, Schedule, _chunks, uk_matrix
from .errors import ConfigurationError, InfeasibleGateError, check_fits, check_name, check_number
from .lattice import (
    LatticeConfig,
    LatticeState,
    WavepacketSpec,
    _packet,
    _packet_key,
    _packet_q,
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
    if check_name("name", name, (*_TABLE, "Rz")) == "Rz":
        if phi is None:
            raise ConfigurationError("Rz gate requires the phase angle phi")
        target = np.array([[1, 0], [0, np.exp(1j * check_number("phi", phi))]])
        return GateSpec("Rz", 0.0, 0.0, float(phi), target)
    if phi is not None:
        raise ConfigurationError(f"{name} gate takes no angle")
    theta, a, b, target = _TABLE[name]
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
    check_name("branch", branch, BRANCHES)
    check_number("q_star", q_star)
    if gamma is None:
        gamma = max(np.pi, abs(spec.a), abs(spec.b))
    if check_number("gamma", gamma) < max(abs(spec.a), abs(spec.b), 1e-9):
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


def _operands(ndim: int, **arrays) -> list[np.ndarray]:
    """The named arrays, each checked finite, if they share one nonempty
    shape of `ndim` axes: two matrices, or two state vectors."""
    checked = [check_number(name, a, "complex array") for name, a in arrays.items()]
    if checked[0].ndim != ndim or len({a.shape for a in checked}) > 1 or not checked[0].size:
        shapes = " and ".join(str(a.shape) for a in checked)
        raise ConfigurationError(f"need nonempty {ndim}-d arrays of one shape, got {shapes}")
    return checked


def hs_distance(u_o: np.ndarray, u_t: np.ndarray) -> float:
    """Hilbert-Schmidt distance Tr[(U_t - U_o)^dag (U_t - U_o)]; 0 at
    perfect agreement."""
    u_o, u_t = _operands(2, u_o=u_o, u_t=u_t)
    d = u_t - u_o
    return float(np.real(np.trace(d.conj().T @ d)))


def gate_fidelity(u_o: np.ndarray, u_t: np.ndarray) -> float:
    """|Tr(U_t^dag U_o)|^2 / d^2: 1 iff equal up to a global phase."""
    u_o, u_t = _operands(2, u_o=u_o, u_t=u_t)
    d = u_t.shape[0]
    return float(abs(np.trace(u_t.conj().T @ u_o)) ** 2 / d**2)


def state_fidelity(psi_o: np.ndarray, psi_t: np.ndarray) -> float:
    """|<psi_o|psi_t>|^2 for unit vectors."""
    psi_o, psi_t = _operands(1, psi_o=psi_o, psi_t=psi_t)
    for v in (psi_o, psi_t):
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ConfigurationError("state fidelity requires unit vectors")
    return float(abs(np.vdot(psi_o, psi_t)) ** 2)


def _drive(
    spins, schedules: list[Schedule], delta: float, q_star: float, engine: str
) -> tuple[tuple[LatticeState, ...], tuple[LatticeState, ...]]:
    """The Gaussian packets with the given spins at q_star, one lattice
    for all, and the states after their schedules (all of one length),
    walked in lockstep one roundtrip at a time.  The packets are the
    read-only `_packet` tables.  Each roundtrip is a walk of its own, as a
    `step` is.  On either engine a walk hands out read-only complex128
    views of one buffer, valid until its next chunk; a roundtrip's walk
    ends after its one chunk, which is never refilled, so its states are
    views of that chunk, kept uncopied.  On the spectral engine the first roundtrip starts from the
    packets' stored q-space rows (`_packet_q`, the bits of their ifft), so
    a drive on packets that an earlier drive built does not transform them
    again; each later roundtrip transforms its states to q-space and back."""
    check_name("engine", engine, ENGINES)
    specs = [WavepacketSpec(delta=delta, q=q_star, spin=spin) for spin in spins]
    # every packet's (2, N) amplitudes, 9 delta + 3 >= N counted in floats:
    # inf, not an OverflowError, for a delta near the double range
    check_fits(f"delta {delta:g} too large: its lattice (half_width 4.5 delta)",
               len(specs) * 32 * (9 * delta + 3))
    # edge envelope < 1e-8 needs half_width > ~4.3*delta
    cfg = LatticeConfig(half_width=math.ceil(4.5 * delta))
    keys = [_packet_key(spec, cfg) for spec in specs]
    packets = states = tuple(LatticeState(cfg, _packet(*key)) for key in keys)
    for i, row in enumerate(zip(*schedules, strict=True)):
        start = None
        if engine == "spectral" and not i:
            start = np.stack([_packet_q(*key) for key in keys])
        ((amps, _),) = _chunks(states, [[params] for params in row], engine, start)
        states = tuple(s.with_amp(a) for s, a in zip(states, amps[0]))
    return packets, states


def _columns(
    spins, schedules: list[Schedule], delta: float, q_star: float, engine: str
) -> list[np.ndarray]:
    """Raw q* projection of each output over its input packet's norm there."""
    packets, outs = _drive(spins, schedules, delta, q_star, engine)
    return [
        spin_projection_at_q(out, q_star, normalized=False)
        / np.linalg.norm(spin_projection_at_q(packet, q_star, normalized=False))
        for packet, out in zip(packets, outs)
    ]


def execute_gate_lattice(
    solved: SolvedParams,
    input_spin,
    delta: float = DEFAULT_DELTA,
    engine: str = "spectral",
) -> np.ndarray:
    """Run one gate roundtrip on a narrowband wavepacket and read out the
    spin at the working quasimomentum (normalized)."""
    _, (out,) = _drive([input_spin], [[solved.params]], delta, solved.q_star, engine)
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

    Both basis spins are driven through one roundtrip, in lockstep; the
    raw q* projection of each output, divided by its input packet's own
    real projection magnitude, gives one column with inter-column phase
    intact (the roundtrip block acts pointwise in q).
    """
    cols = _columns(
        ((1.0, 0.0), (0.0, 1.0)), [[solved.params]] * 2, delta, solved.q_star, engine
    )
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
    check_number("phi1", phi1)
    check_number("phi2", phi2)
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
        table_gate("Rz", reduce_angle(check_number("phi1", phi1))),
        table_gate("H"),
        table_gate("Rz", reduce_angle(check_number("phi2", phi2) + np.pi / 2)),
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
    _, (out,) = _drive([(1.0, 0.0)], [schedule], delta, q_star, engine)
    psi_o = spin_projection_at_q(out, q_star)
    return psi_o, state_fidelity(psi_o, qubit_state(phi1, phi2))
