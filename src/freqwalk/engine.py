"""The roundtrip step operator U = T R(theta) and its two engines.

The walk conserves quasimomentum, so one roundtrip is the 2x2 block
U(q) = T(q) R(theta) of `uk_matrix`, the only definition of the
operator.  `spectral` applies U(q) on the FFT quasimomentum grid (exactly
unitary, periodic boundary, O(N log N)); `evolve` stays in q-space across
steps and transforms back once per step for the boundary monitor and the
recorders; walks that share a lattice run in lockstep (`_walk`), one FFT
call per step for all of them.  `direct` rotates in position space and
convolves with the truncated Bessel kernel c_l = i^l J_l(Gamma) e^{i l phi}
(open boundary, amplitudes pushed past the edge are dropped and the leak
reported); it convolves the V row on a worker thread while the caller
convolves the H row, each row the same `np.convolve` call as alone, so
the bits do not depend on the threads.  The two share no numerics and
cross-validate each other.

Both operators are tables of the parameters (and N, for the blocks)
alone, so each engine reads a bounded memo of the last two, read-only:
`_grid_blocks` and `_direct_kernels`.  A walk looks a member's operator
up when that member's params change, and holds no more tables than it
has members.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bessel import bessel_j_sequence
from .errors import (
    BoundaryLeakError,
    ConfigurationError,
    check_fits,
    check_integer,
    check_name,
    check_number,
)
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
ENGINES = ("spectral", "direct")


@dataclass(frozen=True)
class ModulationParams:
    """Per-roundtrip drive: modulation strength Gamma, the two modulation
    phases, and the polarization rotation angle."""

    gamma: float
    phi_h: float = 0.0
    phi_v: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        check_number("gamma", self.gamma, "real >= 0")
        for name in ("phi_h", "phi_v", "theta"):
            check_number(name, getattr(self, name))
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
    q = check_number("q", q, "real array")
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


def translation_kernel(gamma: float, phi: float) -> TranslationKernel:
    """Smallest truncation with 1 - sum_{|l|<=L} J_l(Gamma)^2 < KERNEL_TOL.

    The tail is tested at L = 0, 4, 8, ..., each on its own sequence
    J_0 .. J_L, and the first L that meets the tolerance is backed off
    order by order on that sequence.  The running sums of one sequence
    J_0 .. J_{4(int(Gamma)//2 + 2)} guess that first L; they round
    differently from the tests themselves, so the search settles upward
    from one multiple of 4 below the guess (from the end of the sequence
    if its sums never meet the tolerance), each L on its own sequence.
    The cost is linear in Gamma.
    """
    check_number("gamma", gamma, "real >= 0")
    check_number("phi", phi)

    @functools.cache
    def sequence(order: int) -> np.ndarray:  # each order computed once
        return bessel_j_sequence(order, gamma)

    bound = 4 * (int(gamma) // 2 + 2)
    # the guess sequence and the two arrays its running sums hold at once;
    # within physical memory, its orders are addressable
    check_fits(f"gamma {gamma:g} too large: its kernel search", 3 * 8 * (bound + 1))
    j = sequence(bound)
    partial = j[0] ** 2 + 2.0 * np.cumsum(np.concatenate(([0.0], j[1:] ** 2)))
    first = np.flatnonzero(1.0 - partial[::4] < KERNEL_TOL)
    lmax = max(0, 4 * int(first[0]) - 4) if first.size else bound
    j = sequence(lmax)
    while _kernel_tail(j) >= KERNEL_TOL:
        lmax += 4
        j = sequence(lmax)
    # back off to the smallest L that still meets the tolerance
    while lmax > 0 and _kernel_tail(j[:lmax]) < KERNEL_TOL:
        lmax -= 1
    return _build_kernel(gamma, phi, sequence(lmax))


def _kernel_reach(gamma: float) -> int:
    """An upper bound on `translation_kernel(gamma, phi).lmax`, in closed
    form and without Bessel work: gamma + 5 gamma^(1/3) + 2.

    The Airy transition of J_l(gamma) near l = gamma puts lmax at
    gamma + O(gamma^(1/3)) (DLMF 10.19(iii)); lmax - gamma is 4.65 to 5.0
    gamma^(1/3) for gamma = 1e3 to 1e6, and the 2 covers small gamma,
    whose few orders sit up to 1.4 above 5 gamma^(1/3).  Only used to
    refuse a run; the search sets lmax.
    """
    return math.ceil(gamma + 5.0 * gamma ** (1 / 3)) + 2


def _kernel_tail(j: np.ndarray) -> float:
    """1 - sum_{|l|<=L} J_l^2, from J_0 .. J_L."""
    return 1.0 - (j[0] ** 2 + 2.0 * (j[1:] ** 2).sum())


def _build_kernel(gamma: float, phi: float, j: np.ndarray) -> TranslationKernel:
    """The kernel of orders -lmax .. lmax from j = J_0(Gamma) .. J_lmax(Gamma)."""
    lmax = len(j) - 1
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
    return state.with_amp(_rotate(state.amp, check_number("theta", theta)))


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
    j = bessel_j_sequence(base_lmax + 8, params.gamma)
    kernels = tuple(
        _build_kernel(params.gamma, phi, j) for phi in (params.phi_h, params.phi_v)
    )
    for kern in kernels:
        kern.coeffs.flags.writeable = False
    return kernels


@functools.cache
def _row_pool():
    """The one worker thread of `_convolve_direct` (numpy's correlate loop
    releases the GIL).  Built on the first direct step, so importing
    freqwalk does not import concurrent.futures; a forked child builds
    its own."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="freqwalk-direct")


os.register_at_fork(after_in_child=_row_pool.cache_clear)


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
    The V row is convolved on the `_row_pool` thread while this thread
    convolves the H row; the warnings, the copy into the lattice and the
    leak sum (H row first) stay in this thread.
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
    v_row = _row_pool().submit(np.convolve, window[1], kernels[1].coeffs, "full")
    fulls = (np.convolve(window[0], kernels[0].coeffs, "full"), v_row.result())
    leak = 0.0
    for row, (kern, full) in enumerate(zip(kernels, fulls)):
        start = a - kern.lmax  # the site of full[0]
        lo, hi = max(0, start), min(n, start + full.size)
        amp[row, lo:hi] = full[lo - start : hi - start]
        dropped = np.concatenate([full[: lo - start], full[hi - start :]])
        leak += float((np.abs(dropped) ** 2).sum())
    if leak > 1e-6:
        warnings.warn(f"norm leak {leak:.2e} past lattice edge")
    return state.with_amp(amp, norm_leak=leak)


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


def _apply_blocks(
    u: np.ndarray, b: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> None:
    """out = U(q) b(q) at every grid point, for (2, 2, N) blocks and (2, N)
    q-space amplitudes; `scratch`, a (2, N) array, holds the second term."""
    np.multiply(u[:, 0], b[0], out=out)
    out += np.multiply(u[:, 1], b[1], out=scratch)


def step(
    state: LatticeState, params: ModulationParams, engine: str = "spectral"
) -> LatticeState:
    """One roundtrip: coin rotation, then polarization-dependent
    translation; with theta = 0, the translation alone.

    The spectral engine is periodic.  The direct engine drops what it
    pushes past the lattice edge and records that norm in the result's
    meta["norm_leak"]; a leak above 1e-6 also raises a warning.
    """
    ((state,),) = _walk((state,), ([params],), check_name("engine", engine, ENGINES))
    return state


def _walk(states, schedules, engine: str):
    """Step k states on one lattice in lockstep, one schedule (an iterable
    of ModulationParams) each, all of one length; yield the tuple of the k
    states after each roundtrip.

    Each member looks its operator up in the engine's memo, the direct
    kernels of `_direct_kernels` or the blocks U(q) of `_grid_blocks`,
    only when its params change, so the walk holds at most k tables and a
    walk on the lattice and parameters of a recent one builds nothing.
    The direct engine steps the members one after another.  The spectral
    engine stacks them into one (k, 2, N) array, carries its q-space
    amplitudes from step to step and transforms back to position space
    once per step, one FFT call for all members; pocketfft gives each row
    the bits it gives that row alone.
    """
    n = states[0].config.n_sites
    lookup = _direct_kernels if engine == "direct" else lambda p: _grid_blocks(p, n)
    keys = [None] * len(states)  # each member's params, and their tables
    tables = [None] * len(states)

    def look_up(row):
        for i, params in enumerate(row):
            if params != keys[i]:
                keys[i], tables[i] = params, lookup(params)

    rows = zip(*schedules, strict=True)
    if engine == "direct":
        for row in rows:
            look_up(row)
            states = tuple(
                _convolve_direct(s, kernels, params.theta)
                for s, kernels, params in zip(states, tables, row)
            )
            yield states
        return
    b = np.fft.ifft(np.stack([s.amp for s in states]), axis=-1)
    out, scratch = np.empty_like(b), np.empty_like(b[0])  # no state holds b or out
    for row in rows:
        look_up(row)
        for u, member, product in zip(tables, b, out):
            _apply_blocks(u, member, product, scratch)
        b, out = out, b
        states = tuple(s.with_amp(amp) for s, amp in zip(states, np.fft.fft(b, axis=-1)))
        yield states


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
) -> Trajectory:
    """Run a schedule (or n_steps repeats of one parameter set), recording
    the requested observables of the initial state and after every step.

    Aborts with BoundaryLeakError once `boundary_mass` exceeds
    BOUNDARY_TOL, since past that point the truncation falsifies the
    dynamics.  The walk and its abort rule are `_monitored_walk`, which
    the CLI's `evolve` streams from without keeping the records.
    """
    if isinstance(schedule, ModulationParams):
        schedule = [schedule] * check_integer("n_steps", n_steps, 0)
    elif n_steps is not None and check_integer("n_steps", n_steps, 0) != len(schedule):
        raise ConfigurationError("n_steps disagrees with schedule length")
    check_name("engine", engine, ENGINES)
    check_name("record", record, _RECORDERS, sequence=True)

    traj = Trajectory()
    for i, (s,) in _monitored_walk((state,), (schedule,), engine):
        traj.records.append({"step": i, **{key: _RECORDERS[key](s, state) for key in record}})
    return traj


def _monitored_walk(states, schedules, engine: str):
    """Yield (step, states) for step 0 (the initial states) to the end of
    the schedules, walked in lockstep by `_walk`; raise BoundaryLeakError
    at the first step where any member's `boundary_mass` exceeds
    BOUNDARY_TOL, before yielding it, with the mass of the first such
    member."""
    yield 0, tuple(states)
    for i, states in enumerate(_walk(states, schedules, engine), start=1):
        for s in states:
            mass = boundary_mass(s)
            if mass > BOUNDARY_TOL:
                raise BoundaryLeakError(i, mass)
        yield i, states
