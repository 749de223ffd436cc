"""The roundtrip step operator U = T R(theta) and its two engines.

The walk conserves quasimomentum, so one roundtrip is the 2x2 block
U(q) = T(q) R(theta) of `uk_matrix`, the only definition of the
operator.  `spectral` applies U(q) on the FFT quasimomentum grid (exactly
unitary, periodic boundary, O(N log N)); `evolve` stays in q-space across
steps and transforms back once per step for the boundary monitor and the
recorders.  `direct` rotates in position space and convolves with the
truncated Bessel kernel c_l = i^l J_l(Gamma) e^{i l phi} (open boundary,
amplitudes pushed past the edge are dropped and the leak reported).  The
two share no numerics and cross-validate each other.

Both operators are tables of the parameters (and N, for the blocks)
alone, so each engine reads a bounded memo of the last two, read-only:
`_grid_blocks` and `_direct_kernels`.  A walk looks its operator up once
per roundtrip and holds no tables of its own.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .bessel import bessel_j_sequence
from .errors import BoundaryLeakError, ConfigurationError
from .lattice import (
    LatticeState,
    boundary_mass,
    centroid,
    diffusion_distance,
    probability_distribution,
    reduce_angle,
    return_probability,
)

KERNEL_TOL = 1e-12
BOUNDARY_TOL = 1e-6


@dataclass(frozen=True)
class ModulationParams:
    """Per-roundtrip drive: modulation strength Gamma, the two modulation
    phases, and the polarization rotation angle."""

    gamma: float
    phi_h: float = 0.0
    phi_v: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        vals = (self.gamma, self.phi_h, self.phi_v, self.theta)
        if not all(np.isfinite(vals)):
            raise ConfigurationError(f"non-finite modulation parameters {vals}")
        if self.gamma < 0:
            raise ConfigurationError("gamma must be >= 0")
        object.__setattr__(self, "phi_h", reduce_angle(self.phi_h))
        object.__setattr__(self, "phi_v", reduce_angle(self.phi_v))
        # -0.0 == 0.0, so both must give the same operator, down to the
        # sign of its zero entries: equal params share one memoized table
        for name in ("gamma", "theta"):
            if getattr(self, name) == 0:
                object.__setattr__(self, name, 0.0)


Schedule = list[ModulationParams]

IDENTITY = ModulationParams(gamma=0.0)


def uk_matrix(params: ModulationParams, q) -> np.ndarray:
    """2x2 quasimomentum-space block of the roundtrip operator,
    U(q) = diag(e^{i Gamma cos(q + phi_H)}, e^{i Gamma cos(q + phi_V)}) R(theta).

    Broadcasts over an array of q: the result then has shape (2, 2, n).
    """
    alpha = np.cos(q + params.phi_h)
    beta = np.cos(q + params.phi_v)
    c, s = np.cos(params.theta / 2), np.sin(params.theta / 2)
    eh = np.exp(1j * params.gamma * alpha)
    ev = np.exp(1j * params.gamma * beta)
    return np.array([[eh * c, -eh * s], [ev * s, ev * c]])


@dataclass(frozen=True)
class TranslationKernel:
    """Truncated hop coefficients c_l = i^l J_l(Gamma) e^{i l phi},
    l in [-lmax, lmax]."""

    gamma: float
    phi: float
    coeffs: np.ndarray  # length 2*lmax + 1, index l + lmax
    lmax: int
    tail_bound: float


def translation_kernel(
    gamma: float, phi: float, tol: float = KERNEL_TOL
) -> TranslationKernel:
    """Smallest truncation with 1 - sum_{|l|<=L} J_l(Gamma)^2 < tol.

    The tail is tested at L = 0, 4, 8, ..., each on its own sequence
    J_0 .. J_L, and the first L that meets tol is backed off order by order
    on that sequence.  One sequence, doubled until it meets tol, locates
    that first L by its running sums; then only the multiples of 4 next to
    it are tested, so the cost is linear in Gamma and the result is the
    same as testing every multiple of 4, near-ties included.
    """
    if not (0 < tol <= 1e-6):
        raise ConfigurationError(f"kernel tolerance {tol} outside (0, 1e-6]")
    if not (np.isfinite(gamma) and gamma >= 0 and np.isfinite(phi)):
        raise ConfigurationError(f"need a finite gamma >= 0 and phi, got {gamma}, {phi}")
    bound = 4 * (int(gamma) // 2 + 2)  # a multiple of 4, doubled if short
    j = bessel_j_sequence(bound, gamma)
    while _kernel_tail(j) >= tol:
        bound *= 2
        j = bessel_j_sequence(bound, gamma)
    partial = j[0] ** 2 + 2.0 * np.cumsum(np.concatenate(([0.0], j[1:] ** 2)))
    first = np.flatnonzero(1.0 - partial[::4] < tol)
    lmax = 4 * int(first[0]) if first.size else bound
    # the running sums round differently from the tests themselves, so
    # settle the first L on its own sequences
    j = bessel_j_sequence(lmax, gamma)
    while _kernel_tail(j) >= tol:
        lmax += 4
        j = bessel_j_sequence(lmax, gamma)
    while lmax > 0:
        shorter = bessel_j_sequence(lmax - 4, gamma)
        if _kernel_tail(shorter) >= tol:
            break
        lmax, j = lmax - 4, shorter
    # back off to the smallest L that still meets tol
    while lmax > 0 and _kernel_tail(j[:lmax]) < tol:
        lmax -= 1
    return _build_kernel(gamma, phi, lmax)


def _kernel_tail(j: np.ndarray) -> float:
    """1 - sum_{|l|<=L} J_l^2, from J_0 .. J_L."""
    return 1.0 - (j[0] ** 2 + 2.0 * (j[1:] ** 2).sum())


def _build_kernel(gamma: float, phi: float, lmax: int) -> TranslationKernel:
    j = bessel_j_sequence(lmax, gamma)
    ls = np.arange(-lmax, lmax + 1)
    jl = np.concatenate([j[:0:-1] * (-1.0) ** np.arange(lmax, 0, -1), j])
    coeffs = (1j**ls) * jl * np.exp(1j * ls * phi)
    tail = 1.0 - float((np.abs(coeffs) ** 2).sum())
    return TranslationKernel(gamma, phi, coeffs, lmax, tail)


def _rotate(amp: np.ndarray, theta: float) -> np.ndarray:
    """R(theta) applied to the (H, V) rows of a (2, n) amplitude array."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    out = np.empty_like(amp)
    out[0] = c * amp[0] - s * amp[1]
    out[1] = s * amp[0] + c * amp[1]
    return out


def apply_rotation(state: LatticeState, theta: float) -> LatticeState:
    """Coin operation: rotate (a_H, a_V) by R(theta) at every site."""
    return state.with_amp(_rotate(state.amp, theta))


@functools.lru_cache(maxsize=2)
def _direct_kernels(
    params: ModulationParams,
) -> tuple[TranslationKernel, TranslationKernel]:
    """The H-row and V-row kernels of the direct translation, read-only.

    Memoized for the last two params, like `_grid_blocks`.
    """
    base_lmax = translation_kernel(params.gamma, params.phi_h).lmax
    # a few guard orders past the tolerance cutoff: the Bessel tail
    # decays super-exponentially there, so this buys ~4 extra digits
    # of agreement with the exact (spectral) translation for free
    kernels = tuple(
        _build_kernel(params.gamma, phi, base_lmax + 8)
        for phi in (params.phi_h, params.phi_v)
    )
    for kern in kernels:
        kern.coeffs.flags.writeable = False
    return kernels


def _convolve_direct(
    state: LatticeState,
    kernels: tuple[TranslationKernel, TranslationKernel],
    theta: float,
) -> LatticeState:
    """Rotate by R(theta), then convolve each polarization row with its
    kernel, open boundary.

    Only the occupied window is worked on: the sites from 2*lmax before the
    first to 2*lmax after the last nonzero site.  Every output that can be
    nonzero is then the same full-length kernel dot product as over the
    whole lattice, so the result does not depend on the window (up to the
    sign of zero); the cost scales with the occupied sites, not with N.
    """
    edge = boundary_mass(state)
    if edge > 1e-9:
        warnings.warn(f"boundary mass {edge:.2e} before direct translation")
    occupied = state.amp.any(axis=0)
    first = int(occupied.argmax())  # the first True, found without an index array
    if not occupied[first]:
        return state.with_amp(np.zeros_like(state.amp), norm_leak=0.0)
    n = state.config.n_sites
    last = n - 1 - int(occupied[::-1].argmax())
    pad = 2 * max(kern.lmax for kern in kernels)
    a = max(0, first - pad)
    window = _rotate(state.amp[:, a : last + pad + 1], theta)
    # allocated after the rotation, so it does not add to the peak memory
    # of the rotation's temporaries
    amp = np.zeros_like(state.amp)
    leak = 0.0
    for row, kern in enumerate(kernels):
        full = np.convolve(window[row], kern.coeffs, mode="full")
        start = a - kern.lmax  # the site of full[0]
        lo, hi = max(0, start), min(n, start + full.size)
        amp[row, lo:hi] = full[lo - start : hi - start]
        dropped = np.concatenate([full[: lo - start], full[hi - start :]])
        leak += float((np.abs(dropped) ** 2).sum())
    if leak > 1e-6:
        warnings.warn(f"norm leak {leak:.2e} past lattice edge")
    return state.with_amp(amp, norm_leak=leak)


def apply_translation_direct(
    state: LatticeState, params: ModulationParams
) -> LatticeState:
    """Kernel-convolution translation with open (truncated) boundary: the
    direct roundtrip with theta = 0.

    The norm lost past the lattice edge is recorded in the result's
    meta["norm_leak"]; a leak above 1e-6 additionally raises a warning.
    """
    return step(state, replace(params, theta=0.0), "direct")


def _q_grid(n_sites: int) -> np.ndarray:
    """Quasimomenta of the FFT bins: ifft row k carries e^{+i q_k m}."""
    return 2 * np.pi * np.fft.fftfreq(n_sites)


@functools.lru_cache(maxsize=2)
def _grid_blocks(params: ModulationParams, n_sites: int) -> np.ndarray:
    """`uk_matrix` on the FFT grid of an n_sites lattice, read-only.

    Memoized for the last two (params, n_sites): enough for every
    experiment to reuse its tables (the H and Rz of a preparation, the X
    and the idle roundtrip of a register) without holding more.
    """
    u = uk_matrix(params, _q_grid(n_sites))
    u.flags.writeable = False
    return u


def _apply_blocks(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """U(q) b(q) at every grid point, for (2, 2, N) blocks and (2, N)
    q-space amplitudes."""
    return u[:, 0] * b[0] + u[:, 1] * b[1]


def apply_translation_spectral(
    state: LatticeState, params: ModulationParams
) -> LatticeState:
    """Exactly unitary translation: the roundtrip block with theta = 0,
    a phase multiplication on the FFT grid.

    Periodic (circular) boundary semantics.
    """
    return step(state, replace(params, theta=0.0))


def step(
    state: LatticeState, params: ModulationParams, engine: str = "spectral"
) -> LatticeState:
    """One roundtrip: coin rotation, then polarization-dependent translation."""
    return next(_walk(state, [params], engine))


def _walk(state: LatticeState, schedule: Schedule, engine: str):
    """Yield the state after each roundtrip of the schedule.

    Each roundtrip looks its operator up in the engine's memo, the direct
    kernels of `_direct_kernels` or the blocks U(q) of `_grid_blocks`; the
    walk holds no tables of its own, and a walk on the lattice and
    parameters of a recent one builds nothing.  The spectral engine
    carries the q-space amplitudes from step to step and transforms back
    to position space once per step.
    """
    if engine == "direct":
        for params in schedule:
            state = _convolve_direct(state, _direct_kernels(params), params.theta)
            yield state
        return
    if engine != "spectral":
        raise ConfigurationError(f"unknown engine {engine!r}")
    n = state.config.n_sites
    b = np.fft.ifft(state.amp, axis=1)
    for params in schedule:
        b = _apply_blocks(_grid_blocks(params, n), b)
        yield state.with_amp(np.fft.fft(b, axis=1))


@dataclass
class Trajectory:
    """Per-step records of an evolution, step 0 = initial state."""

    records: list[dict] = field(default_factory=list)

    @property
    def steps(self) -> list[int]:
        return [r["step"] for r in self.records]

    def series(self, key: str) -> np.ndarray:
        return np.asarray([r[key] for r in self.records])


_RECORDERS = {
    "prob": lambda s, s0: probability_distribution(s),
    "diffusion": lambda s, s0: diffusion_distance(s),
    "centroid": lambda s, s0: centroid(s),
    "return": lambda s, s0: return_probability(s, s0),
    "boundary": lambda s, s0: boundary_mass(s),
    "state": lambda s, s0: s,
}


def evolve(
    state: LatticeState,
    schedule: Schedule | ModulationParams,
    n_steps: int | None = None,
    engine: str = "spectral",
    record: tuple[str, ...] = ("diffusion",),
    boundary_tol: float = BOUNDARY_TOL,
) -> Trajectory:
    """Run a schedule (or n_steps repeats of one parameter set), recording
    the requested observables after every step.

    Aborts with BoundaryLeakError if probability piles up at the lattice
    edge, since past that point the truncation falsifies the dynamics.
    """
    if isinstance(schedule, ModulationParams):
        if n_steps is None or n_steps < 0:
            raise ConfigurationError("n_steps >= 0 required with fixed params")
        schedule = [schedule] * n_steps
    elif n_steps is not None and n_steps != len(schedule):
        raise ConfigurationError("n_steps disagrees with schedule length")
    unknown = set(record) - set(_RECORDERS)
    if unknown:
        raise ConfigurationError(f"unknown observables {sorted(unknown)}")

    initial = state
    traj = Trajectory()

    def snapshot(i, s):
        rec = {"step": i}
        for key in record:
            rec[key] = _RECORDERS[key](s, initial)
        traj.records.append(rec)

    snapshot(0, state)
    for i, state in enumerate(_walk(state, schedule, engine), start=1):
        mass = boundary_mass(state)
        if mass > boundary_tol:
            raise BoundaryLeakError(i, mass)
        snapshot(i, state)
    return traj
