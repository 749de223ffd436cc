"""Floquet band structure of the walk in quasimomentum space.

The one-roundtrip operator is diagonal in quasimomentum q with a 2x2
block M(q).  Writing A = Gamma*(alpha+beta)/2, x = cos(Gamma*(alpha-beta)/2)
* cos(theta/2) with alpha = cos(q+phi_H), beta = cos(q+phi_V), the two
eigenvalues are exp(i(A +- delta)) with cos(delta) = x, so the closed
form of the quasienergy cosines is

    cos(2 pi eps_+-) = cos(A) x -+ sin(A) sqrt(1 - x^2).

Quasienergies are eigenphases per roundtrip folded into (-0.5, 0.5] in
units of the mode spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import ModulationParams, uk_matrix
from .errors import ConfigurationError, check_integer, check_name, check_number

BRANCHES = ("+", "-")


def fold_quasienergy(eps: np.ndarray | float):
    """Fold into the spectral first Brillouin zone (-0.5, 0.5]."""
    folded = -((-np.asarray(eps) + 0.5) % 1.0 - 0.5)
    return folded if np.ndim(eps) else float(folded)


def _angle_terms(params: ModulationParams, q):
    alpha = np.cos(q + params.phi_h)
    beta = np.cos(q + params.phi_v)
    a_sum = 0.5 * params.gamma * (alpha + beta)
    x = np.cos(0.5 * params.gamma * (alpha - beta)) * np.cos(params.theta / 2)
    return a_sum, x


def quasienergy_closed_form(params: ModulationParams, q):
    """Closed-form (eps_plus, eps_minus) at quasimomentum q (vectorizable).

    Branch +: eigenvalue exp(i(A + delta)); branch -: exp(i(A - delta)).
    """
    a_sum, x = _angle_terms(params, check_number("q", q, "real array"))
    delta = np.arccos(np.clip(x, -1.0, 1.0))
    eps_plus = fold_quasienergy(-(a_sum + delta) / (2 * np.pi))
    eps_minus = fold_quasienergy(-(a_sum - delta) / (2 * np.pi))
    return eps_plus, eps_minus


@dataclass(frozen=True)
class BandPoint:
    q: float
    eps_plus: float
    eps_minus: float
    nz_plus: float
    nz_minus: float
    spinor_plus: np.ndarray
    spinor_minus: np.ndarray


def _eig_sorted(params: ModulationParams, qs: np.ndarray):
    """Eigenpairs of the quasimomentum blocks at each q of `qs`, labeled
    by the sign of the SU(2) part of the eigenphase (the +delta / -delta
    convention above).  Returns eigenvalues (n, 2) and spinors (n, 2, 2),
    spinors[i, 0] of branch + and spinors[i, 1] of branch -, each with
    its largest component real positive."""
    vals, vecs = np.linalg.eig(np.moveaxis(uk_matrix(params, qs), -1, 0))
    a_sum, _ = _angle_terms(params, qs)
    mu = vals * np.exp(-1j * a_sum)[:, None]  # e^{+-i delta}, delta in [0, pi]
    ang = np.angle(mu * np.exp(1j * 1e-15))  # +delta first
    vals, spinors = _swap_branches(vals, np.swapaxes(vecs, 1, 2), ang[:, 1] > ang[:, 0])
    k = np.argmax(np.abs(spinors), axis=2)[..., None]
    return vals, spinors * np.exp(-1j * np.angle(np.take_along_axis(spinors, k, 2)))


def _swap_branches(vals: np.ndarray, spinors: np.ndarray, swap: np.ndarray):
    """Exchange the + and - labels at the points where `swap` is set."""
    return (
        np.where(swap[:, None], vals[:, ::-1], vals),
        np.where(swap[:, None, None], spinors[:, ::-1], spinors),
    )


def _band_points(qs: np.ndarray, vals: np.ndarray, spinors: np.ndarray) -> list:
    eps = fold_quasienergy(np.angle(vals) / (2 * np.pi) * -1.0)
    nz = np.abs(spinors[..., 0]) ** 2 - np.abs(spinors[..., 1]) ** 2
    return [
        BandPoint(q, e[0], e[1], n[0], n[1], s[0], s[1])
        for q, e, n, s in zip(qs.tolist(), eps.tolist(), nz.tolist(), spinors)
    ]


def quasienergy_numeric(params: ModulationParams, q: float) -> BandPoint:
    """Diagonalize the quasimomentum block; the independent route to the
    band data (energies, spinors, polarization projections)."""
    qs = np.array([float(check_number("q", q))])
    return _band_points(qs, *_eig_sorted(params, qs))[0]


@dataclass(frozen=True)
class BandGrid:
    params: ModulationParams
    points: list[BandPoint]

    @property
    def q(self) -> np.ndarray:
        return np.array([p.q for p in self.points])

    def branch(self, sign: str) -> np.ndarray:
        key = "eps_plus" if check_name("sign", sign, BRANCHES) == "+" else "eps_minus"
        return np.array([getattr(p, key) for p in self.points])


def band_grid(params: ModulationParams, n_k: int) -> BandGrid:
    """Sample both branches on a uniform q grid over [-pi, pi).

    Branch labels are kept continuous in q by spinor-overlap tracking,
    which keeps each curve smooth through folds and avoided crossings:
    point i takes the labels whose + spinor overlaps the + spinor of point
    i - 1 most.  The two spinors of a 2x2 unitary are orthonormal, so
    |<p+,c+>| = |<p-,c->| and |<p+,c->| = |<p-,c+>|.  Whether the raw
    labels of two adjacent points disagree is therefore decided by their
    raw spinors alone, and a point's labels are swapped exactly when the
    cumulative XOR of those decisions up to it is set.
    """
    n_k = check_integer("n_k", n_k, 16)
    qs = -np.pi + 2 * np.pi * np.arange(n_k) / n_k
    vals, spinors = _eig_sorted(params, qs)
    prev, plus, minus = spinors[:-1, 0].conj(), spinors[1:, 0], spinors[1:, 1]
    keep = np.abs((prev * plus).sum(axis=1)) ** 2
    swap = np.abs((prev * minus).sum(axis=1)) ** 2
    swapped = np.logical_xor.accumulate(np.concatenate([[False], swap > keep]))
    return BandGrid(params, _band_points(qs, *_swap_branches(vals, spinors, swapped)))


def eigen_spinor(params: ModulationParams, q: float, branch: str) -> np.ndarray:
    """Unit eigenvector of the quasimomentum block for one branch.

    Global phase fixed by making the largest component real positive.
    Raises at (near-)degenerate points, where the branch is undefined.
    """
    check_name("branch", branch, BRANCHES)
    vals, spinors = _eig_sorted(params, np.array([float(check_number("q", q))]))
    vals, (vp, vm) = vals[0], spinors[0]
    if abs(np.angle(vals[0] / vals[1])) < 1e-10:
        raise ConfigurationError(f"degenerate quasienergies at q={q}")
    return vp if branch == "+" else vm


def group_velocity(params: ModulationParams, q: float, branch: str) -> float:
    """d(eigenphase)/dq = 2*pi*d(eps)/dq for one branch: the derivative
    -(A' +- delta') of the closed form, with delta' = -x'/sqrt(1 - x^2).

    With u = Gamma*(alpha-beta)/2, x = cos(u) cos(theta/2), and
    sqrt(1 - x^2) = sin(delta) is taken as hypot(sin u, cos u sin(theta/2)),
    which does not cancel near x = +-1.  Raises where `eigen_spinor` does:
    at degenerate points the branch is undefined.
    """
    eigen_spinor(params, q, branch)
    g, half = params.gamma, params.theta / 2
    sin_h, sin_v = math.sin(q + params.phi_h), math.sin(q + params.phi_v)
    u = 0.5 * g * (math.cos(q + params.phi_h) - math.cos(q + params.phi_v))
    da = -0.5 * g * (sin_h + sin_v)  # A'
    du = -0.5 * g * (sin_h - sin_v)  # u'
    sin_delta = math.hypot(math.sin(u), math.cos(u) * math.sin(half))
    ddelta = math.sin(u) * du * math.cos(half) / sin_delta
    return -(da + ddelta) if branch == "+" else -(da - ddelta)
