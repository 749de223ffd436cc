"""States on the synthetic frequency lattice and their observables.

A state lives on sites m in [-M, M] with a two-component polarization
(pseudo-spin) per site, stored as a (2, N) complex array with row 0 = H,
row 1 = V and column index m + M.  States are treated as immutable
values: every operation returns a new state.

P(m), the diffusion distance M and the boundary mass are each written
once, for a (..., 2, N) stack of amplitudes (`_probabilities`,
`_diffusion_distances`, `_boundary_masses`), so a walk reads out a whole
chunk of states in one pass; the per-state functions call them on one
state, and every state of a stack gets the bits of that state alone.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, check_fits, check_integer, check_number

EDGE_MARGIN = 5  # sites counted as "boundary" by the truncation monitor


def _table(build):
    """`build`, a lattice table of its arguments alone, memoized for its
    last two keys and returned read-only.  Two are enough for every
    experiment to reuse its tables (the H and Rz of a preparation, the X
    and the idle roundtrip of a register) without holding more."""

    def read_only(*key):
        array = build(*key)
        array.flags.writeable = False
        return array

    return functools.lru_cache(maxsize=2)(functools.wraps(build)(read_only))


class Polarization(enum.Enum):
    H = 0
    V = 1


@dataclass(frozen=True)
class LatticeConfig:
    """Truncated frequency lattice: sites m in [-half_width, half_width].

    Units are dimensionless: mode spacing = 1, reference frequency = 0.
    A half_width whose (2, N) complex amplitudes would not fit in physical
    memory is a ConfigurationError (`check_fits`), raised before any array
    exists.
    """

    half_width: int

    def __post_init__(self):
        hw = check_integer("half_width", self.half_width, 1)
        check_fits(f"half_width {hw} too large: its (2, N) complex amplitudes", 32 * (2 * hw + 1))
        object.__setattr__(self, "half_width", hw)

    @property
    def n_sites(self) -> int:
        return 2 * self.half_width + 1

    @property
    def sites(self) -> np.ndarray:
        """Site coordinates m, in storage order."""
        return np.arange(-self.half_width, self.half_width + 1)

    def index(self, m: int) -> int:
        if abs(m) > self.half_width:
            raise ConfigurationError(
                f"site {m} outside lattice |m| <= {self.half_width}"
            )
        return m + self.half_width


@dataclass(frozen=True)
class LatticeState:
    """Polarization-resolved amplitudes a_{m,p} on the lattice."""

    config: LatticeConfig
    amp: np.ndarray  # (2, N) complex
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        amp, n = self.amp, self.config.n_sites
        if not isinstance(amp, np.ndarray) or amp.shape != (2, n) or amp.dtype.kind not in "fc":
            raise ConfigurationError(f"amplitudes must be a (2, {n}) float or complex array")
        if not np.isfinite(amp).all():
            raise ConfigurationError("non-finite amplitudes")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def with_amp(self, amp: np.ndarray, **meta) -> "LatticeState":
        return LatticeState(self.config, amp, dict(meta))


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian envelope exp(-m^2/delta^2) * exp(-i q m) * spin."""

    delta: float
    q: float
    spin: tuple[complex, complex]

    def __post_init__(self):
        check_number("delta", self.delta, "real > 0")
        check_number("q", self.q)  # a NaN key would evict a real `_packet` table
        spin = check_number("spin", self.spin, "complex array")
        if spin.shape != (2,) or abs(np.linalg.norm(spin) - 1.0) > 1e-9:
            raise ConfigurationError(f"spin must be a unit 2-vector, got {self.spin!r}")
        object.__setattr__(self, "q", reduce_angle(self.q))


def reduce_angle(a: float) -> float:
    """Reduce an angle into [-pi, pi)."""
    return (a + np.pi) % (2 * np.pi) - np.pi


def make_single_site(m0: int, pol: Polarization, cfg: LatticeConfig) -> LatticeState:
    amp = np.zeros((2, cfg.n_sites), dtype=complex)
    amp[pol.value, cfg.index(check_integer("m0", m0))] = 1.0
    return LatticeState(cfg, amp)


def make_gaussian(spec: WavepacketSpec, cfg: LatticeConfig) -> LatticeState:
    """Unit-norm Gaussian wavepacket carrying quasimomentum and spin.

    Requires the envelope to be negligible (< 1e-8) at the lattice edge,
    otherwise the truncation would be visible in the state.  The state owns
    a copy of the `_packet` table of its `_packet_key`.
    """
    return LatticeState(cfg, _packet(*_packet_key(spec, cfg)).copy())


def _packet_key(spec: WavepacketSpec, cfg: LatticeConfig) -> tuple:
    """(delta, q, spin, half_width), the key of the `_packet` and `_packet_q`
    tables of a packet: a ConfigurationError if its envelope is not
    negligible at the lattice edge.  The spin, validated by `spec`, is a
    pair of Python complex values with -0.0 folded to 0.0, so equal spins
    given as ints, floats or an array share one table."""
    ratio = cfg.half_width / spec.delta
    # a float product past the double range is inf, not an OverflowError
    # as from **, and exp(-inf) is the edge envelope 0 that it stands for
    edge = math.exp(-ratio * ratio)
    if edge >= 1e-8:
        raise ConfigurationError(
            f"delta={spec.delta} too wide for half_width={cfg.half_width} "
            f"(edge envelope {edge:.2e} >= 1e-8)"
        )
    # x + 0.0 is 0.0 for x = -0.0 and x otherwise
    spin = tuple(complex(z.real + 0.0, z.imag + 0.0) for z in map(complex, spec.spin))
    return spec.delta, spec.q, spin, cfg.half_width


@_table
def _packet(delta: float, q: float, spin: tuple, half_width: int) -> np.ndarray:
    """The unit-norm (2, N) amplitudes of a Gaussian packet: its `_envelope`
    times each spin component.  A gate experiment drives the same two basis
    spins, H and V, on every packet of one width."""
    envelope = _envelope(delta, q, half_width)
    amp = np.array([spin[0] * envelope, spin[1] * envelope])
    return amp / np.linalg.norm(amp)


@_table
def _packet_q(delta: float, q: float, spin: tuple, half_width: int) -> np.ndarray:
    """The q-space amplitudes of a `_packet`, its rows' `np.fft.ifft`: the
    bits that each row has in the transform of any stack of states, so a
    spectral walk may start from them."""
    return np.fft.ifft(_packet(delta, q, spin, half_width), axis=-1)


@_table
def _envelope(delta: float, q: float, half_width: int) -> np.ndarray:
    """exp(-m^2/delta^2) exp(-i q m) on the sites."""
    m = LatticeConfig(half_width).sites
    # sites too far out for (m/delta)^2 to be a double have envelope
    # exp(-inf) = 0, which is exact
    with np.errstate(over="ignore"):
        return np.exp(-(m / delta) ** 2) * np.exp(-1j * q * m)


def probability_distribution(state: LatticeState) -> np.ndarray:
    """P(m) = sum_p |a_{m,p}|^2, in storage (site) order."""
    return _probabilities(state.amp)


def _probabilities(amp: np.ndarray) -> np.ndarray:
    """P(m) of each state in `amp`, a (..., 2, N) array of amplitudes: an
    (..., N) array.  Each state's P(m) has the bits of that state alone
    (an elementwise sum over the polarization axis)."""
    p = np.abs(amp)
    np.square(p, out=p)  # what ** 2 computes, without a second array
    return p.sum(axis=-2)


def diffusion_distance(state: LatticeState) -> float:
    """Root-mean-square displacement sqrt(sum_m m^2 P(m))."""
    return float(_diffusion_distances(state.amp))


def _diffusion_distances(amp: np.ndarray) -> np.ndarray:
    """sqrt(sum_m m^2 P(m)) of each state in a (..., 2, N) array: an (...)
    array, each entry one pairwise sum over its own contiguous row, as
    for that state alone."""
    p = _probabilities(amp)
    return np.sqrt((_squared_sites(p.shape[-1] // 2) * p).sum(axis=-1))


@_table
def _squared_sites(half_width: int) -> np.ndarray:
    """m^2 on the sites: the int64 squares cast to float64, as numpy casts
    them in `sites**2 * p` (a float m squared would round differently past
    |m| = 2^26.5)."""
    return (LatticeConfig(half_width).sites ** 2).astype(float)


def centroid(state: LatticeState) -> float:
    """Mean position <m> = sum_m m P(m)."""
    return float((state.config.sites * probability_distribution(state)).sum())


def return_probability(state: LatticeState, ref: LatticeState) -> float:
    """Overlap probability |<ref|state>|^2."""
    if state.config != ref.config:
        raise ConfigurationError("states live on different lattices")
    return float(abs(np.vdot(ref.amp, state.amp)) ** 2)


def boundary_mass(state: LatticeState) -> float:
    """Probability within EDGE_MARGIN sites of either lattice edge.

    Reads only the edge columns.  A lattice of at most 2*EDGE_MARGIN sites
    is all boundary, so its mass is the total probability.
    """
    return float(_boundary_masses(state.amp))


def _boundary_masses(amp: np.ndarray) -> np.ndarray:
    """`boundary_mass` of each state in a (..., 2, N) array: an (...) array,
    each entry summed as for that state alone."""
    n = amp.shape[-1]
    if n <= 2 * EDGE_MARGIN:
        return _probabilities(amp).sum(axis=-1)
    left = (np.abs(amp[..., :EDGE_MARGIN]) ** 2).sum(axis=-2)
    right = (np.abs(amp[..., n - EDGE_MARGIN :]) ** 2).sum(axis=-2)
    return left.sum(axis=-1) + right.sum(axis=-1)


def spin_projection_at_q(
    state: LatticeState, q: float, normalized: bool = True
) -> np.ndarray:
    """Polarization 2-vector of the quasimomentum-q component.

    v[p] = sum_m a_{m,p} e^{+i q m}.  Exact for any step of the walk,
    which conserves quasimomentum.  With normalized=False the raw
    (unnormalized) projection is returned, preserving relative phase and
    magnitude between different states.  The plane wave e^{+i q m} is a
    `_table` of (q, half_width): a gate experiment reads its input and
    output packets at the same q.
    """
    check_number("q", q)  # a NaN key would evict a real `_plane_wave` table
    v = state.amp @ _plane_wave(q, state.config.half_width)
    if not normalized:
        return v
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise ConfigurationError(f"state has no amplitude at q={q}")
    return v / n


@_table
def _plane_wave(q: float, half_width: int) -> np.ndarray:
    """e^{+i q m} on the sites."""
    return np.exp(1j * q * LatticeConfig(half_width).sites)
