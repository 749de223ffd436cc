"""Reference walks: classical random walk and the conventional coined
DTQW (Hadamard coin), used for the diffusion-speed comparison."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .errors import check_integer
from .lattice import (
    LatticeConfig,
    LatticeState,
    Polarization,
    diffusion_distance,
    make_single_site,
)

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / sqrt(2.0)


@dataclass(frozen=True)
class ClassicalDistribution:
    """Exact binomial position distribution after n unbiased steps."""

    n: int
    prob: np.ndarray  # over m = -n .. n

    @property
    def sites(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    def diffusion_distance(self) -> float:
        return float(np.sqrt((self.sites**2 * self.prob).sum()))


def classical_walk_distribution(n: int) -> ClassicalDistribution:
    """P(m) = C(n, (n+m)/2) / 2^n for m+n even, else 0."""
    n = check_integer("n", n, 0)
    prob = np.zeros(2 * n + 1)
    for m in range(-n, n + 1, 2):
        # int / int true division is correctly rounded and never
        # overflows; a float 2.0**n would for n >= 1024
        prob[m + n] = comb(n, (n + m) // 2) / (1 << n)
    return ClassicalDistribution(n, prob)


def dtqw_step(state: LatticeState) -> LatticeState:
    """Hadamard coin, then shift: H-component to m+1, V-component to m-1.

    Amplitude shifted past the lattice edge is dropped (open boundary),
    matching the truncation semantics of the direct engine.
    """
    b = _HADAMARD @ state.amp
    amp = np.zeros_like(state.amp)
    amp[0, 1:] = b[0, :-1]
    amp[1, :-1] = b[1, 1:]
    return state.with_amp(amp)


def _dtqw_bytes(n: int) -> int:
    """What `dtqw_diffusion(n)` holds at most at once on its N = 2n + 3
    sites: three (2, N) complex states (a step's input, coin output and
    shifted state), the bool array of their finite check, the m^2 table
    and the n distances."""
    return (3 * 32 + 2 + 8) * (2 * n + 3) + 8 * n


def dtqw_diffusion(n: int) -> np.ndarray:
    """Diffusion distance M(1..n) of the conventional DTQW from |0,H>
    (empty for n = 0)."""
    n = check_integer("n", n, 0)
    cfg = LatticeConfig(half_width=n + 1)
    state = make_single_site(0, Polarization.H, cfg)
    out = np.empty(n)
    for i in range(n):
        state = dtqw_step(state)
        out[i] = diffusion_distance(state)
    return out
