"""The roundtrip step operator U = T R(theta) and its two engines.

The walk conserves quasimomentum, so one roundtrip is the 2x2 block
U(q) = T(q) R(theta) of `uk_matrix`, the only definition of the
operator.  `spectral` applies U(q) on the FFT quasimomentum grid (exactly
unitary, periodic boundary, O(N log N)); `evolve` stays in q-space across
steps and transforms back for the boundary monitor and the recorders, one
FFT call per chunk of roundtrips (`_CHUNK_BYTES`); walks that share a
lattice run in lockstep (`_chunks`), one FFT call per chunk for all of
them.  No read-out feeds back into the q-space amplitudes, and pocketfft
gives each row the bits it gives that row alone, so the chunking does not
change a bit.  `direct` rotates in position space and
convolves with the truncated Bessel kernel c_l = i^l J_l(Gamma) e^{i l phi}
(open boundary, amplitudes pushed past the edge are dropped and the leak
reported); it convolves the V row on a worker thread while the caller
convolves the H row, each row the same `np.convolve` call as alone, so
the bits do not depend on the threads.  The two share no numerics and
cross-validate each other.

Both engines hand out the walk the same way: `_chunks` refills one
complex128 chunk buffer, allocated once, and yields read-only views of
it, each valid until the walk is asked for its next chunk; a caller that
keeps amplitudes longer keeps a copy.  A walk runs in complex128,
whatever the dtype of its states.  The boundary monitor and the
read-outs (`lattice._probabilities`, `_diffusion_distances`,
`_boundary_masses`) read a whole chunk at a time, each row with the bits
of that state alone.

Both operators are tables of the parameters (and N, for the blocks)
alone, each a `lattice._table`: `_grid_blocks`, the (2, 2, N) blocks
U(q), and `_direct_kernels`, the (2, 2 lmax + 1) hop taps of the H and V
rows.  A walk keeps the tables of its current row's params, looks up
only the params the previous row lacked, and holds no more tables than
it has members; members with equal params share one.
"""

from __future__ import annotations

import functools
import itertools
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
    _boundary_masses,
    _diffusion_distances,
    _probabilities,
    _table,
    centroid,
    reduce_angle,
    return_probability,
)

KERNEL_TOL = 1e-12
BOUNDARY_TOL = 1e-6
ENGINES = ("spectral", "direct")
_CHUNK_BYTES = 1 << 19  # q-space rows per FFT call: amortizes its fixed cost, bounds look-ahead


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


@_table
def _direct_kernels(params: ModulationParams) -> np.ndarray:
    """The hop taps of the direct translation, a (2, 2 lmax + 1) array:
    row 0 the H-row kernel, row 1 the V-row kernel, order l at index
    l + lmax, both from one Bessel sequence."""
    base_lmax = translation_kernel(params.gamma, params.phi_h).lmax
    # a few guard orders past the tolerance cutoff: the Bessel tail
    # decays super-exponentially there, so this buys ~4 extra digits
    # of agreement with the exact (spectral) translation for free
    j = bessel_j_sequence(base_lmax + 8, params.gamma)
    return np.array(
        [_build_kernel(params.gamma, phi, j).coeffs for phi in (params.phi_h, params.phi_v)]
    )


@functools.cache
def _row_pool():
    """The one worker thread of `_convolve_direct` (numpy's correlate loop
    releases the GIL).  Built on the first direct step, so importing
    freqwalk does not import concurrent.futures; a forked child builds
    its own."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="freqwalk-direct")


os.register_at_fork(after_in_child=_row_pool.cache_clear)


def _convolve_direct(amp: np.ndarray, taps: np.ndarray, theta: float, out: np.ndarray) -> float:
    """Rotate the (2, N) amplitudes `amp` by R(theta), then convolve each
    polarization row with its row of `taps` (a `_direct_kernels` table),
    open boundary, into `out`; return the norm pushed past the lattice edge.

    Only the occupied window is worked on: the sites from 2*lmax before the
    first to 2*lmax after the last nonzero site.  Every output that can be
    nonzero is then the same full-length kernel dot product as over the
    whole lattice, so the result does not depend on the window (up to the
    sign of zero); the cost scales with the occupied sites, not with N.
    The window is rotated into a copy before `out` is written, so `out` may
    be `amp` itself.  The V row is convolved on the `_row_pool` thread while
    this thread convolves the H row; the warnings, the copy into `out` and
    the leak sum (H row first) stay in this thread.
    """
    edge = float(_boundary_masses(amp))
    if edge > 1e-9:
        warnings.warn(f"boundary mass {edge:.2e} before direct translation")
    occupied = amp.any(axis=0)
    first = int(occupied.argmax())  # the first True, found without an index array
    if not occupied[first]:
        out[...] = 0
        return 0.0
    n = amp.shape[1]
    last = n - 1 - int(occupied[::-1].argmax())
    lmax = taps.shape[1] // 2
    pad = 2 * lmax
    a = max(0, first - pad)
    window = _rotate(amp[:, a : last + pad + 1], theta)
    v_row = _row_pool().submit(np.convolve, window[1], taps[1], "full")
    fulls = (np.convolve(window[0], taps[0], "full"), v_row.result())
    start = a - lmax  # the site of full[0]
    lo, hi = max(0, start), min(n, start + fulls[0].size)
    out[:, :lo] = 0
    out[:, hi:] = 0
    leak = 0.0
    for row, full in enumerate(fulls):
        out[row, lo:hi] = full[lo - start : hi - start]
        dropped = np.concatenate([full[: lo - start], full[hi - start :]])
        leak += float((np.abs(dropped) ** 2).sum())
    if leak > 1e-6:
        warnings.warn(f"norm leak {leak:.2e} past lattice edge")
    return leak


def _q_grid(n_sites: int) -> np.ndarray:
    """Quasimomenta of the FFT bins: ifft row k carries e^{+i q_k m}."""
    return 2 * np.pi * np.fft.fftfreq(n_sites)


@_table
def _grid_blocks(params: ModulationParams, n_sites: int) -> np.ndarray:
    """`uk_matrix` on the FFT grid of an n_sites lattice."""
    return uk_matrix(params, _q_grid(n_sites))


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
    meta["norm_leak"]; a leak above 1e-6 also raises a warning.  The
    result is complex128, whatever the dtype of `state`.
    """
    ((amps, leaks),) = _chunks((state,), ([params],), check_name("engine", engine, ENGINES))
    return state.with_amp(amps[0, 0].copy(), **_metas(amps, leaks)[0])


def _metas(amps: np.ndarray, leaks) -> list[dict]:
    """The meta dicts of the first member's states in a chunk of `_chunks`:
    the direct engine's norm leak, none on the spectral engine."""
    if leaks is None:
        return [{}] * len(amps)
    return [{"norm_leak": float(leak)} for leak in leaks[:, 0]]


def _chunks(states, schedules, engine: str, start=None):
    """Step k states on one lattice in lockstep, one schedule (an iterable
    of ModulationParams) each, all of one length; yield (amps, leaks) per
    chunk of roundtrips.  `amps` is a read-only (rows, k, 2, N) complex128
    view of the position-space amplitudes after each roundtrip of the
    chunk; `leaks` is the direct engine's (rows, k) norm leak, None on the
    spectral engine.  Both engines refill one buffer, allocated once, so a
    chunk is valid until the walk is asked for its next chunk: a caller
    that keeps amplitudes longer keeps a copy.  A walk runs in complex128,
    whatever the dtype of the states.  Non-finite amplitudes are a
    ConfigurationError, as for a state, checked once per chunk.

    The walk keeps one dict of the current row's tables (the direct taps
    of `_direct_kernels` or the blocks U(q) of `_grid_blocks`), keyed by
    params.  Members with equal params share one table, and a row looks up
    only the params the previous row lacked, so the walk holds at most k
    tables and a walk on the lattice and parameters of a recent one builds
    nothing.
    The direct engine steps the members one after another in place, one
    roundtrip per chunk, and ignores `start`.  The spectral engine carries
    the members' q-space amplitudes from step to step.  They start from
    `start`, a writable (k, 2, N) complex128 array with the bits of the
    states' ifft that the walk takes over, if the caller holds one, else
    from that ifft.  It propagates up to `_CHUNK_BYTES // start.nbytes`
    roundtrips ahead (at least one) into one chunk, each row from the
    previous one, and transforms the chunk back to position space with one
    FFT call.  No read-out feeds back into the q-space rows, and pocketfft
    gives each row the bits it gives that row alone, so the rows have the
    bits of one FFT call per roundtrip.  The chunk buffer is as long as the
    first chunk; the q-space start is refilled for every chunk too.  The at
    most rows - 1 roundtrips past a boundary abort are computed and thrown
    away.
    """
    n = states[0].config.n_sites
    lookup = _direct_kernels if engine == "direct" else lambda p: _grid_blocks(p, n)
    tables = {}  # the current row's params and their tables
    rows = zip(*schedules, strict=True)
    if engine == "direct":
        buffer = _stacked(states).copy()
        for row in rows:
            tables = {p: tables[p] if p in tables else lookup(p) for p in row}
            leaks = np.array([[_convolve_direct(amp, tables[p], p.theta, amp)
                               for p, amp in zip(row, buffer[0])]])
            _check_finite(buffer)
            yield _read_only(buffer[:]), leaks
        return
    if start is None:
        start = np.fft.ifft(_stacked(states)[0], axis=-1)
    steps = max(1, _CHUNK_BYTES // start.nbytes)
    scratch = np.empty_like(start[0])
    buffer = None
    while chunk_rows := list(itertools.islice(rows, steps)):
        if buffer is None:  # no later chunk is longer than the first
            buffer = np.empty((len(chunk_rows), *start.shape), start.dtype)
        chunk = buffer[: len(chunk_rows)]
        b = start
        for row, out in zip(chunk_rows, chunk):
            tables = {p: tables[p] if p in tables else lookup(p) for p in row}
            for p, member, product in zip(row, b, out):
                _apply_blocks(tables[p], member, product, scratch)
            b = out
        np.copyto(start, b)  # the next chunk's start; the transform overwrites the chunk
        np.fft.fft(chunk, axis=-1, out=chunk)  # in place (numpy >= 2.0)
        _check_finite(chunk)
        yield _read_only(chunk), None


def _check_finite(chunk: np.ndarray) -> None:
    """What a state checks, once for a whole complex chunk: its real and
    imaginary parts as one float array take half the time of complex
    isfinite."""
    if not np.isfinite(chunk.view(chunk.real.dtype)).all():
        raise ConfigurationError("non-finite amplitudes")


def _stacked(states) -> np.ndarray:
    """The amplitudes of k states as one complex128 (1, k, 2, N) chunk: a
    view of one complex128 state's array, else a copy."""
    if len(states) == 1:
        return states[0].amp.astype(complex, copy=False)[None, None]
    return np.stack([s.amp for s in states]).astype(complex, copy=False)[None]


def _read_only(amps: np.ndarray) -> np.ndarray:
    """`amps`, flagged read-only: the flag of this view alone."""
    amps.flags.writeable = False
    return amps


@dataclass
class Trajectory:
    """Per-step records of an evolution, step 0 = initial state."""

    records: list[dict] = field(default_factory=list)

    @property
    def steps(self) -> list[int]:
        return [r["step"] for r in self.records]

    def series(self, key: str) -> np.ndarray:
        return np.asarray([r[key] for r in self.records])


# each reads one member's rows of a chunk, (rows, 2, N) amplitudes and a
# meta dict per row, given the walk's initial state s0; one value per row
_RECORDERS = {
    "prob": lambda amps, metas, s0: list(_probabilities(amps)),
    "diffusion": lambda amps, metas, s0: _diffusion_distances(amps).tolist(),
    "centroid": lambda amps, metas, s0: [centroid(s0.with_amp(a)) for a in amps],
    "return": lambda amps, metas, s0: [return_probability(s0.with_amp(a), s0) for a in amps],
    "boundary": lambda amps, metas, s0: _boundary_masses(amps).tolist(),
    "state": lambda amps, metas, s0: [s0.with_amp(a.copy(), **m) for a, m in zip(amps, metas)],
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
    dynamics.  The walk and its abort rule are `_monitored_chunks`, which
    the CLI's `evolve` and `diffusion` stream from without keeping the
    records; each recorder reads a whole chunk.
    """
    if isinstance(schedule, ModulationParams):
        schedule = [schedule] * check_integer("n_steps", n_steps, 0)
    elif n_steps is not None and check_integer("n_steps", n_steps, 0) != len(schedule):
        raise ConfigurationError("n_steps disagrees with schedule length")
    check_name("engine", engine, ENGINES)
    check_name("record", record, _RECORDERS, sequence=True)

    traj = Trajectory()
    for first, amps, leaks in _monitored_chunks((state,), (schedule,), engine):
        metas = _metas(amps, leaks) if first else [state.meta]
        columns = {key: _RECORDERS[key](amps[:, 0], metas, state) for key in record}
        for j in range(len(amps)):
            traj.records.append({"step": first + j, **{k: c[j] for k, c in columns.items()}})
    return traj


def _monitored_chunks(states, schedules, engine: str):
    """Yield (step, amps, leaks) per chunk: step 0, the initial states as a
    one-row chunk with no leaks, then the chunks of `_chunks`, each with the
    step of its first row.  At the first step where any member's
    `boundary_mass` exceeds BOUNDARY_TOL, the rows before it are yielded as
    a chunk of their own, then BoundaryLeakError is raised with that step
    and the mass of the first such member."""
    yield 0, _read_only(_stacked(states)), None
    first = 1
    for amps, leaks in _chunks(states, schedules, engine):
        masses = _boundary_masses(amps)  # (rows, k)
        over = masses > BOUNDARY_TOL
        if over.any():
            row, member = np.unravel_index(over.argmax(), over.shape)  # the first, row by row
            if row:
                yield first, amps[:row], None if leaks is None else leaks[:row]
            raise BoundaryLeakError(first + int(row), float(masses[row, member]))
        yield first, amps, leaks
        first += len(amps)
