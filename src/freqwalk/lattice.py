"""States on the synthetic frequency lattice and their observables.

A state lives on sites m in [-M, M] with a two-component polarization
(pseudo-spin) per site, stored as a (2, N) complex array with row 0 = H,
row 1 = V and column index m + M.  States are treated as immutable
values: every operation returns a new state.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

EDGE_MARGIN = 5  # sites counted as "boundary" by the truncation monitor


class Polarization(enum.Enum):
    H = 0
    V = 1


@dataclass(frozen=True)
class LatticeConfig:
    """Truncated frequency lattice: sites m in [-half_width, half_width].

    Units are dimensionless: mode spacing = 1, reference frequency = 0.
    """

    half_width: int

    def __post_init__(self):
        hw = self.half_width
        if isinstance(hw, bool) or not isinstance(hw, (int, np.integer)):
            raise ConfigurationError(f"half_width must be an integer, got {hw!r}")
        if hw < 1:
            raise ConfigurationError("half_width must be >= 1")
        if 2 * (2 * hw + 1) * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
            raise ConfigurationError(
                f"half_width {hw} too large: its (2, N) complex amplitudes "
                "would exceed the addressable memory"
            )
        object.__setattr__(self, "half_width", int(hw))

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
        if self.amp.shape != (2, self.config.n_sites):
            raise ConfigurationError(
                f"amplitude shape {self.amp.shape} does not match lattice"
            )
        if not np.isfinite(self.amp).all():
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
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ConfigurationError(f"delta must be positive and finite, got {self.delta}")
        sn = math.hypot(abs(self.spin[0]), abs(self.spin[1]))
        if abs(sn - 1.0) > 1e-9:
            raise ConfigurationError("spin vector must have unit norm")
        object.__setattr__(self, "q", reduce_angle(self.q))


def reduce_angle(a: float) -> float:
    """Reduce an angle into [-pi, pi)."""
    return (a + np.pi) % (2 * np.pi) - np.pi


def make_single_site(m0: int, pol: Polarization, cfg: LatticeConfig) -> LatticeState:
    amp = np.zeros((2, cfg.n_sites), dtype=complex)
    amp[pol.value, cfg.index(m0)] = 1.0
    return LatticeState(cfg, amp)


def make_gaussian(spec: WavepacketSpec, cfg: LatticeConfig) -> LatticeState:
    """Unit-norm Gaussian wavepacket carrying quasimomentum and spin.

    Requires the envelope to be negligible (< 1e-8) at the lattice edge,
    otherwise the truncation would be visible in the state.  The envelope
    is a table of (delta, q, half_width) alone, memoized for the last two
    keys: a gate experiment drives every basis spin on the same packet.
    """
    edge = math.exp(-((cfg.half_width / spec.delta) ** 2))
    if edge >= 1e-8:
        raise ConfigurationError(
            f"delta={spec.delta} too wide for half_width={cfg.half_width} "
            f"(edge envelope {edge:.2e} >= 1e-8)"
        )
    envelope = _envelope(spec.delta, spec.q, cfg.half_width)
    amp = np.array([spec.spin[0] * envelope, spec.spin[1] * envelope])
    return LatticeState(cfg, amp / np.linalg.norm(amp))


@functools.lru_cache(maxsize=2)
def _envelope(delta: float, q: float, half_width: int) -> np.ndarray:
    """exp(-m^2/delta^2) exp(-i q m) on the sites, read-only."""
    m = LatticeConfig(half_width).sites
    envelope = np.exp(-(m / delta) ** 2) * np.exp(-1j * q * m)
    envelope.flags.writeable = False
    return envelope


def probability_distribution(state: LatticeState) -> np.ndarray:
    """P(m) = sum_p |a_{m,p}|^2, in storage (site) order."""
    return (np.abs(state.amp) ** 2).sum(axis=0)


def diffusion_distance(state: LatticeState) -> float:
    """Root-mean-square displacement sqrt(sum_m m^2 P(m))."""
    p = probability_distribution(state)
    return float(np.sqrt((state.config.sites**2 * p).sum()))


def centroid(state: LatticeState) -> float:
    """Mean position <m> = sum_m m P(m)."""
    return float((state.config.sites * probability_distribution(state)).sum())


def return_probability(state: LatticeState, ref: LatticeState) -> float:
    """Overlap probability |<ref|state>|^2."""
    if state.config != ref.config:
        raise ConfigurationError("states live on different lattices")
    return float(abs(np.vdot(ref.amp, state.amp)) ** 2)


def boundary_mass(state: LatticeState, margin: int = EDGE_MARGIN) -> float:
    """Probability within `margin` sites of either lattice edge.

    Reads only the edge columns.  A lattice of at most 2*margin sites is
    all boundary, so its mass is the total probability.
    """
    if isinstance(margin, bool) or not isinstance(margin, (int, np.integer)) or margin < 0:
        raise ConfigurationError(f"margin must be an integer >= 0, got {margin!r}")
    n = state.config.n_sites
    if n <= 2 * margin:
        return float(probability_distribution(state).sum())
    left = (np.abs(state.amp[:, :margin]) ** 2).sum(axis=0)
    right = (np.abs(state.amp[:, n - margin :]) ** 2).sum(axis=0)
    return float(left.sum() + right.sum())


def spin_projection_at_q(
    state: LatticeState, q: float, normalized: bool = True
) -> np.ndarray:
    """Polarization 2-vector of the quasimomentum-q component.

    v[p] = sum_m a_{m,p} e^{+i q m}.  Exact for any step of the walk,
    which conserves quasimomentum.  With normalized=False the raw
    (unnormalized) projection is returned, preserving relative phase and
    magnitude between different states.  The plane wave e^{+i q m} is a
    table of (q, half_width) alone, memoized for the last two keys: a gate
    experiment reads its input and output packets at the same q.
    """
    if not math.isfinite(q):  # a NaN key would evict a real table from the memo
        raise ConfigurationError(f"q must be finite, got {q}")
    v = state.amp @ _plane_wave(q, state.config.half_width)
    if not normalized:
        return v
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise ConfigurationError(f"state has no amplitude at q={q}")
    return v / n


@functools.lru_cache(maxsize=2)
def _plane_wave(q: float, half_width: int) -> np.ndarray:
    """e^{+i q m} on the sites, read-only."""
    phase = np.exp(1j * q * LatticeConfig(half_width).sites)
    phase.flags.writeable = False
    return phase
