"""Floquet band structure of the walk in quasimomentum space.

The one-roundtrip operator is diagonal in quasimomentum q with a 2x2
block M(q).  Writing A = Gamma*(alpha+beta)/2, x = cos(Gamma*(alpha-beta)/2)
* cos(theta/2) with alpha = cos(q+phi_H), beta = cos(q+phi_V), the two
eigenvalues are exp(i(A +- delta)) with cos(delta) = x, so the closed
form of the quasienergy cosines is

    cos(2 pi eps_+-) = cos(A) x -+ sin(A) sqrt(1 - x^2).

The eigenpairs have a closed form too: e^{-iA} M(q) is in SU(2), a
rotation by 2 delta about a unit axis n, whose + spinor is the spin
state along n.  `_eig_sorted` reads delta and n from the blocks that
`uk_matrix` returns, so the band code calls no numerical eigensolver;
the tests check it against LAPACK's.

Quasienergies are eigenphases per roundtrip folded into (-0.5, 0.5] in
units of the mode spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import ModulationParams, uk_matrix
from .errors import ConfigurationError, check_fits, check_integer, check_name, check_number

BRANCHES = ("+", "-")
_POINT_BYTES = 288  # what `band_grid` holds at most a point (counted there)


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
    """Eigenpairs of the quasimomentum blocks at each q of `qs`, in closed
    form.  A block is e^{iA} V with V = cos(delta) + i sin(delta) n.sigma
    in SU(2), so Im V00 = sin(delta) n_z, -i V10 = sin(delta) (n_x + i n_y)
    and delta = atan2(sin(delta), Re V00) is in [0, pi].  Branch + (the
    +delta / -delta convention above) has eigenvalue e^{i(A + delta)} and
    spinor (1 + n_z, n_x + i n_y), or (n_x - i n_y, 1 - n_z) where n_z < 0:
    the larger of the two.  The - spinor is (-conj(v1), conj(v0)).  Where
    sin(delta) = 0 (V = +-I), n is left 0, which gives the spinors (1, 0)
    and (0, 1).  Returns the eigenphases (n, 2), A + delta and A - delta,
    and spinors (n, 2, 2), spinors[i, 0] of branch + and spinors[i, 1] of
    branch -, each with its largest component real positive."""
    a_sum = _angle_terms(params, qs)[0]
    v00, v10 = uk_matrix(params, qs)[:, 0] * np.exp(-1j * a_sum)
    n = np.array([v10.imag, -v10.real, v00.imag])  # sin(delta) n
    sin_delta = np.hypot(np.hypot(n[0], n[1]), n[2])
    delta = np.arctan2(sin_delta, v00.real)
    np.divide(n, sin_delta, out=n, where=sin_delta > 0)
    upper = n[2] >= 0
    top = np.where(upper, 1 + n[2], n[0] - 1j * n[1])
    bottom = np.where(upper, n[0] + 1j * n[1], 1 - n[2])
    norm = np.hypot(np.abs(top), np.abs(bottom))
    spinors = np.empty((len(qs), 2, 2), dtype=complex)
    spinors[:, 0, 0], spinors[:, 0, 1] = top / norm, bottom / norm
    spinors[:, 1, 0], spinors[:, 1, 1] = -spinors[:, 0, 1].conj(), spinors[:, 0, 0].conj()
    k = np.argmax(np.abs(spinors), axis=2)[..., None]
    spinors *= np.exp(-1j * np.angle(np.take_along_axis(spinors, k, 2)))
    return np.stack([a_sum + delta, a_sum - delta], axis=1), spinors


def _swap_branches(phases: np.ndarray, spinors: np.ndarray, swap: np.ndarray):
    """Exchange the + and - labels at the points where `swap` is set."""
    return (
        np.where(swap[:, None], phases[:, ::-1], phases),
        np.where(swap[:, None, None], spinors[:, ::-1], spinors),
    )


@dataclass(frozen=True)
class BandGrid:
    """Both branches of the band at each q of `q` (n_k,), as columns:
    `eps` and `nz` (n_k, 2) are the quasienergies and polarization
    projections, `spinors` (n_k, 2, 2) the eigen-spinors, and index 0
    is branch + in each.  `points` builds one `BandPoint` per q."""

    params: ModulationParams
    q: np.ndarray
    eps: np.ndarray
    nz: np.ndarray
    spinors: np.ndarray

    @property
    def points(self) -> list[BandPoint]:
        return list(map(BandPoint, self.q.tolist(), *self.eps.T.tolist(), *self.nz.T.tolist(),
                        *self.spinors.swapaxes(0, 1)))

    def branch(self, sign: str) -> np.ndarray:
        return self.eps[:, BRANCHES.index(check_name("sign", sign, BRANCHES))]


def _grid(params: ModulationParams, qs: np.ndarray, phases: np.ndarray,
          spinors: np.ndarray) -> BandGrid:
    eps = fold_quasienergy(phases / (-2 * np.pi))
    nz = np.abs(spinors[..., 0]) ** 2 - np.abs(spinors[..., 1]) ** 2
    return BandGrid(params, qs, eps, nz, spinors)


def quasienergy_numeric(params: ModulationParams, q: float) -> BandPoint:
    """The band data (energies, spinors, polarization projections) at one
    q, from the closed-form eigenpairs of `uk_matrix`'s block, as
    `band_grid` computes them; the tests check them against LAPACK."""
    qs = np.array([float(check_number("q", q))])
    return _grid(params, qs, *_eig_sorted(params, qs)).points[0]


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
    # the peak is in `_grid`: raw and labeled spinors (64 B a point each) and eigenphases
    # (16 B each), the conjugated previous + spinors (32 B), q and the two overlaps (8 B
    # each), eps and three (n_k, 2) temporaries of nz (16 B each) and the bool swaps: 283 B
    # a point, counted as _POINT_BYTES.  Traced: 281 B at n_k = 8,000 and 273 B at 40,000,
    # where numpy reuses temporaries.  The closed-form eigensolve traces 273-274 B a point.
    check_fits(f"n_k {n_k} too large: its (n_k, 2, 2) complex spinors", _POINT_BYTES * n_k)
    qs = -np.pi + 2 * np.pi * np.arange(n_k) / n_k
    phases, spinors = _eig_sorted(params, qs)
    prev, plus, minus = spinors[:-1, 0].conj(), spinors[1:, 0], spinors[1:, 1]
    keep = np.abs((prev * plus).sum(axis=1)) ** 2
    swap = np.abs((prev * minus).sum(axis=1)) ** 2
    swapped = np.logical_xor.accumulate(np.concatenate([[False], swap > keep]))
    return _grid(params, qs, *_swap_branches(phases, spinors, swapped))


def eigen_spinor(params: ModulationParams, q: float, branch: str) -> np.ndarray:
    """Unit eigenvector of the quasimomentum block for one branch.

    Global phase fixed by making the largest component real positive.
    Raises at (near-)degenerate points, where the branch is undefined.
    """
    check_name("branch", branch, BRANCHES)
    phases, spinors = _eig_sorted(params, np.array([float(check_number("q", q))]))
    vp, vm = spinors[0]
    if abs(math.remainder(phases[0, 0] - phases[0, 1], 2 * math.pi)) < 1e-10:
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
