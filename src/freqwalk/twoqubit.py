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
from .errors import ConfigurationError
from .gates import DEFAULT_DELTA, DEFAULT_Q_STAR, _column, solve_modulation, table_gate


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
    for op in ops:
        try:
            u = _MATRICES[op]() @ u
        except KeyError:
            raise ConfigurationError(f"unknown two-qubit op {op!r}") from None
    return u


def execute_two_qubit_lattice(
    ops: list[str],
    basis_index: int,
    delta: float = DEFAULT_DELTA,
    q_star: float = DEFAULT_Q_STAR,
    engine: str = "spectral",
) -> np.ndarray:
    """Drive one basis wavepacket through the sequence; return the 4-vector
    (0H, 0V, 1H, 1V) of q* projections with common normalization."""
    if isinstance(basis_index, bool) or not isinstance(basis_index, (int, np.integer)):
        raise ConfigurationError(f"basis index must be an integer, got {basis_index!r}")
    if basis_index not in range(4):
        raise ConfigurationError("basis index must be 0..3")
    path, pol = divmod(basis_index, 2)
    x_params = solve_modulation(table_gate("X"), q_star).params
    schedule = []
    for op in ops:
        if op == "path_x":
            path = 1 - path
        elif op == "cnot":
            schedule.append(x_params if path else IDENTITY)
        else:
            raise ConfigurationError(f"unknown two-qubit op {op!r}")
    spin = (1.0, 0.0) if pol == 0 else (0.0, 1.0)
    out = np.zeros(4, dtype=complex)
    out[2 * path : 2 * path + 2] = _column(spin, schedule, delta, q_star, engine)
    return out


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
    inputs, compared against the analytic matrix product."""
    cols = [
        execute_two_qubit_lattice(ops, i, delta, q_star, engine) for i in range(4)
    ]
    u_o = np.column_stack(cols)
    target = sequence_matrix(ops)
    return TwoQubitReport(
        reconstructed=u_o,
        target=target,
        max_abs_error=float(np.max(np.abs(u_o - target))),
    )
