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

from dataclasses import dataclass

import numpy as np

from .engine import ModulationParams, uk_matrix
from .errors import ConfigurationError


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
    a_sum, x = _angle_terms(params, q)
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


def _eigh_sorted(params: ModulationParams, q: float):
    """Eigenpairs of the quasimomentum block, labeled by the sign of the
    SU(2) part of the eigenphase (the +delta / -delta convention above)."""
    m = uk_matrix(params, q)
    vals, vecs = np.linalg.eig(m)
    a_sum, _ = _angle_terms(params, q)
    mu = vals * np.exp(-1j * a_sum)  # e^{+-i delta}, delta in [0, pi]
    order = np.argsort(-np.angle(mu * np.exp(1j * 1e-15)))  # +delta first
    vals, vecs = vals[order], vecs[:, order]
    return vals, [_fix_phase(vecs[:, 0]), _fix_phase(vecs[:, 1])]


def _fix_phase(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    return v * np.exp(-1j * np.angle(v[k]))


def _nz(v: np.ndarray) -> float:
    return float(abs(v[0]) ** 2 - abs(v[1]) ** 2)


def quasienergy_numeric(params: ModulationParams, q: float) -> BandPoint:
    """Diagonalize the quasimomentum block; the independent route to the
    band data (energies, spinors, polarization projections)."""
    vals, (vp, vm) = _eigh_sorted(params, q)
    eps = fold_quasienergy(np.angle(vals) / (2 * np.pi) * -1.0)
    return BandPoint(
        q=float(q),
        eps_plus=float(eps[0]),
        eps_minus=float(eps[1]),
        nz_plus=_nz(vp),
        nz_minus=_nz(vm),
        spinor_plus=vp,
        spinor_minus=vm,
    )


@dataclass(frozen=True)
class BandGrid:
    params: ModulationParams
    points: list[BandPoint]

    @property
    def q(self) -> np.ndarray:
        return np.array([p.q for p in self.points])

    def branch(self, sign: str) -> np.ndarray:
        key = "eps_plus" if sign == "+" else "eps_minus"
        return np.array([getattr(p, key) for p in self.points])


def band_grid(params: ModulationParams, n_k: int) -> BandGrid:
    """Sample both branches on a uniform q grid over [-pi, pi).

    Branch labels are kept continuous in q by spinor-overlap tracking,
    which keeps each curve smooth through folds and avoided crossings.
    """
    if n_k < 16:
        raise ConfigurationError("n_k must be >= 16")
    qs = -np.pi + 2 * np.pi * np.arange(n_k) / n_k
    points: list[BandPoint] = []
    prev: BandPoint | None = None
    for q in qs:
        pt = quasienergy_numeric(params, q)
        if prev is not None:
            keep = abs(np.vdot(prev.spinor_plus, pt.spinor_plus)) ** 2
            swap = abs(np.vdot(prev.spinor_plus, pt.spinor_minus)) ** 2
            if swap > keep:
                pt = BandPoint(
                    q=pt.q,
                    eps_plus=pt.eps_minus,
                    eps_minus=pt.eps_plus,
                    nz_plus=pt.nz_minus,
                    nz_minus=pt.nz_plus,
                    spinor_plus=pt.spinor_minus,
                    spinor_minus=pt.spinor_plus,
                )
        points.append(pt)
        prev = pt
    return BandGrid(params, points)


def eigen_spinor(params: ModulationParams, q: float, branch: str) -> np.ndarray:
    """Unit eigenvector of the quasimomentum block for one branch.

    Global phase fixed by making the largest component real positive.
    Raises at (near-)degenerate points, where the branch is undefined.
    """
    if branch not in ("+", "-"):
        raise ConfigurationError(f"branch must be '+' or '-', got {branch!r}")
    vals, (vp, vm) = _eigh_sorted(params, q)
    if abs(np.angle(vals[0] / vals[1])) < 1e-10:
        raise ConfigurationError(f"degenerate quasienergies at q={q}")
    return vp if branch == "+" else vm


def group_velocity(
    params: ModulationParams, q: float, branch: str, h: float = 1e-4
) -> float:
    """d(eigenphase)/dq = 2*pi*d(eps)/dq for one branch, by central
    differences with spinor matching across the stencil (no unwrapping
    ambiguity for small h away from band crossings)."""
    spin = eigen_spinor(params, q, branch)

    def matched_eigenvalue(qq: float) -> complex:
        vals, vecs = _eigh_sorted(params, qq)
        overlaps = [abs(np.vdot(spin, v)) ** 2 for v in vecs]
        if abs(overlaps[0] - overlaps[1]) < 0.1:
            raise ConfigurationError(
                f"band crossing near q={q}: branch tracking ambiguous"
            )
        return vals[int(np.argmax(overlaps))]

    lam_p = matched_eigenvalue(q + h)
    lam_m = matched_eigenvalue(q - h)
    # eigenphase chi with eigenvalue = e^{-i chi}; v = d chi / dq
    return float(-np.angle(lam_p / lam_m) / (2 * h))
