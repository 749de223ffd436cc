"""Two-qubit register: spatial path (control) x polarization (target).

Basis ordering |path, pol>: |0H>, |0V>, |1H>, |1V>.  The lattice
realization carries one synthetic frequency lattice per path; a CNOT is
one roundtrip with X-gate modulation on path 1 and an idle roundtrip on
path 0.  A basis wavepacket occupies one path at a time and the path-X
moves it to the other path, so only the lattice that holds it is
stepped; the other lattice carries nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import IDENTITY
from .errors import ConfigurationError, check_integer, check_name
from .gates import DEFAULT_DELTA, DEFAULT_Q_STAR, _columns, solve_modulation, table_gate


def cnot_matrix() -> np.ndarray:
    """Flip the polarization iff the path qubit is 1."""
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )


def path_x() -> np.ndarray:
    """X on the path (control) qubit: swap the two paths."""
    return np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2))


def sequence_ms() -> np.ndarray:
    """The test sequence path_x . CNOT . path_x."""
    return path_x() @ cnot_matrix() @ path_x()


_MATRICES = {"cnot": cnot_matrix, "path_x": path_x}


def sequence_matrix(ops: list[str]) -> np.ndarray:
    """4x4 product of an operation sequence, application order."""
    u = np.eye(4, dtype=complex)
    for op in check_name("ops", ops, _MATRICES, sequence=True):
        u = _MATRICES[op]() @ u
    return u


def _register_columns(
    ops: list[str], basis_indices, delta: float, q_star: float, engine: str
) -> list[np.ndarray]:
    """The 4-vector (0H, 0V, 1H, 1V) of q* projections, with common
    normalization, of each basis wavepacket driven through the sequence;
    all packets walk in lockstep, each with the schedule of its own path
    (an X roundtrip per CNOT on path 1, an idle one on path 0)."""
    x_params = solve_modulation(table_gate("X"), q_star).params
    check_name("ops", ops, _MATRICES, sequence=True)
    paths, spins, schedules = [], [], []
    for index in basis_indices:
        path, pol = divmod(index, 2)
        schedule = []
        for op in ops:
            if op == "path_x":
                path = 1 - path
            else:  # cnot
                schedule.append(x_params if path else IDENTITY)
        paths.append(path)
        spins.append((1.0, 0.0) if pol == 0 else (0.0, 1.0))
        schedules.append(schedule)
    outs = []
    for path, column in zip(paths, _columns(spins, schedules, delta, q_star, engine)):
        out = np.zeros(4, dtype=complex)
        out[2 * path : 2 * path + 2] = column
        outs.append(out)
    return outs


def execute_two_qubit_lattice(
    ops: list[str],
    basis_index: int,
    delta: float = DEFAULT_DELTA,
    q_star: float = DEFAULT_Q_STAR,
    engine: str = "spectral",
) -> np.ndarray:
    """Drive one basis wavepacket through the sequence; return the 4-vector
    (0H, 0V, 1H, 1V) of q* projections with common normalization."""
    if check_integer("basis_index", basis_index, 0) > 3:
        raise ConfigurationError(f"basis_index must be 0..3, got {basis_index}")
    return _register_columns(ops, [basis_index], delta, q_star, engine)[0]


@dataclass(frozen=True)
class TwoQubitReport:
    reconstructed: np.ndarray
    target: np.ndarray
    max_abs_error: float


def reconstruct_4x4(
    ops: list[str],
    delta: float = DEFAULT_DELTA,
    q_star: float = DEFAULT_Q_STAR,
    engine: str = "spectral",
) -> TwoQubitReport:
    """Column-wise reconstruction of the sequence from the four basis
    inputs, walked in lockstep, compared against the analytic matrix
    product."""
    u_o = np.column_stack(_register_columns(ops, range(4), delta, q_star, engine))
    target = sequence_matrix(ops)
    return TwoQubitReport(
        reconstructed=u_o,
        target=target,
        max_abs_error=float(np.max(np.abs(u_o - target))),
    )
