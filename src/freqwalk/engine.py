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
"""

from __future__ import annotations

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
    """Smallest truncation with 1 - sum_{|l|<=L} J_l(Gamma)^2 < tol."""
    if not (0 < tol <= 1e-6):
        raise ConfigurationError(f"kernel tolerance {tol} outside (0, 1e-6]")
    lmax = 0
    while True:
        j = bessel_j_sequence(lmax, gamma)
        total = j[0] ** 2 + 2.0 * (j[1:] ** 2).sum()
        tail = 1.0 - total
        if tail < tol:
            break
        lmax += 4
    # back off to the smallest L that still meets tol
    while lmax > 0:
        shorter = 1.0 - (j[0] ** 2 + 2.0 * (j[1 : lmax] ** 2).sum())
        if shorter < tol:
            lmax -= 1
        else:
            break
    return _build_kernel(gamma, phi, lmax)


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


def _direct_kernels(
    params: ModulationParams, tol: float = KERNEL_TOL
) -> tuple[TranslationKernel, TranslationKernel]:
    """The H-row and V-row kernels of the direct translation."""
    base_lmax = translation_kernel(params.gamma, params.phi_h, tol).lmax
    # a few guard orders past the tolerance cutoff: the Bessel tail
    # decays super-exponentially there, so this buys ~4 extra digits
    # of agreement with the exact (spectral) translation for free
    return tuple(
        _build_kernel(params.gamma, phi, base_lmax + 8)
        for phi in (params.phi_h, params.phi_v)
    )


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
        warnings.warn(
            f"boundary mass {edge:.2e} before direct translation", stacklevel=3
        )
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
        warnings.warn(f"norm leak {leak:.2e} past lattice edge", stacklevel=3)
    return state.with_amp(amp, norm_leak=leak)


def apply_translation_direct(
    state: LatticeState, params: ModulationParams, tol: float = KERNEL_TOL
) -> LatticeState:
    """Kernel-convolution translation with open (truncated) boundary.

    The norm lost past the lattice edge is recorded in the result's
    meta["norm_leak"]; a leak above 1e-6 additionally raises a warning.
    """
    return _convolve_direct(state, _direct_kernels(params, tol), theta=0.0)


def _q_grid(n_sites: int) -> np.ndarray:
    """Quasimomenta of the FFT bins: ifft row k carries e^{+i q_k m}."""
    return 2 * np.pi * np.fft.fftfreq(n_sites)


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


def _per_step(schedule: Schedule, build):
    """Yield (params, build(params)) for each roundtrip of the schedule,
    building once per distinct parameter set and dropping the result
    after its last use, so an all-distinct schedule holds one at a time."""
    last_use = {params: i for i, params in enumerate(schedule)}
    built: dict = {}
    for i, params in enumerate(schedule):
        op = built.get(params)
        if op is None:
            op = built[params] = build(params)
        if last_use[params] == i:
            del built[params]
        yield params, op


def _walk(state: LatticeState, schedule: Schedule, engine: str):
    """Yield the state after each roundtrip of the schedule.

    Each engine builds its operator once per distinct parameter set: the
    direct engine its two kernels, the spectral engine the block U(q).
    The spectral engine carries the q-space amplitudes from step to step
    and transforms back to position space once per step.
    """
    if engine == "direct":
        for params, kernels in _per_step(schedule, _direct_kernels):
            state = _convolve_direct(state, kernels, params.theta)
            yield state
        return
    if engine != "spectral":
        raise ConfigurationError(f"unknown engine {engine!r}")
    q = _q_grid(state.config.n_sites)
    b = np.fft.ifft(state.amp, axis=1)
    for _, u in _per_step(schedule, lambda params: uk_matrix(params, q)):
        b = _apply_blocks(u, b)
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
