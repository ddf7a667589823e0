"""Time evolution of the multi-component walk on the integer line.

One step applies the coin to the internal state and then shifts channel m by
-2m sites.  All shifts are even multiples of the lattice spacing relative to
each other, so the support after t steps lives on x = -2jt, -2jt+2, ..., 2jt
and is stored densely with stride 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coin import rotation_matrix
from .errors import DomainError
from .halfint import HalfInt, _require_nonneg_int
from .qudit import Qudit

__all__ = [
    "WaveField",
    "Distribution",
    "BinnedDensity",
    "initial_state",
    "step",
    "evolve",
    "position_distribution",
    "pseudovelocity_moment",
    "binned_density",
]


@dataclass(frozen=True)
class WaveField:
    """Amplitudes over position and channel after t steps.

    Row s holds position x = lo + 2s; column i holds channel m = j - i.
    """

    tj: int
    t: int
    lo: int
    amps: np.ndarray

    @property
    def j(self) -> HalfInt:
        return HalfInt(self.tj)

    @property
    def positions(self) -> np.ndarray:
        return self.lo + 2 * np.arange(self.amps.shape[0])


def initial_state(qudit: Qudit) -> WaveField:
    """Walker at the origin with the given internal state."""
    return WaveField(qudit.tj, 0, 0, qudit.amplitudes[None, :].copy())


def step(field: WaveField, coin: np.ndarray) -> WaveField:
    """Advance one time step under the given coin matrix."""
    n, dim = field.amps.shape
    if coin.shape != (dim, dim):
        raise DomainError(f"coin shape {coin.shape} does not match {dim} channels")
    mixed = field.amps @ coin.T
    out = np.zeros((n + field.tj, dim), dtype=complex)
    for i in range(dim):
        # channel i carries m = j - i and shifts by -(tj - 2i) sites
        out[i : i + n, i] = mixed[:, i]
    return WaveField(field.tj, field.t + 1, field.lo - field.tj, out)


def evolve(qudit: Qudit, angles, t: int) -> WaveField:
    """Run t steps from the origin with the coin R(alpha, beta, gamma)."""
    t = _require_nonneg_int(t, "t")
    coin = rotation_matrix(qudit.j, angles)
    field = initial_state(qudit)
    for _ in range(t):
        field = step(field, coin)
    return field


@dataclass(frozen=True)
class Distribution:
    """Probability mass over integer positions."""

    x: np.ndarray
    p: np.ndarray


def position_distribution(field: WaveField) -> Distribution:
    p = np.abs(field.amps) ** 2
    return Distribution(field.positions, p.sum(axis=1))


def pseudovelocity_moment(dist: Distribution, t: int, r: int) -> float:
    """r-th empirical moment of X_t / t."""
    if t < 1:
        raise DomainError(f"moment of X_t/t needs t >= 1, got {t}")
    r = _require_nonneg_int(r, "moment order")
    return float(np.sum(dist.p * (dist.x / t) ** r))


@dataclass(frozen=True)
class BinnedDensity:
    """Histogram of X_t/t on bins centered at integer multiples of the width."""

    centers: np.ndarray
    density: np.ndarray
    bin_width: float

    @property
    def edges(self) -> np.ndarray:
        k = np.arange(self.centers.size + 1)
        return self.centers[0] + (k - 0.5) * self.bin_width

    @property
    def masses(self) -> np.ndarray:
        return self.density * self.bin_width


def binned_density(dist: Distribution, t: int, bin_width: float, v_max=None) -> BinnedDensity:
    """Bin the empirical pseudovelocity distribution into a density estimate.

    Bin k covers ((k - 1/2) w, (k + 1/2) w], so v = 0 sits at a bin center and
    no lattice value 2m cos(beta/2) can land exactly on an edge boundary of
    interest.  Passing v_max widens the range to cover at least [-v_max, v_max].

    Occupied sites all share the parity of the step offsets, so assigning each
    site's whole mass to one bin leaves a spurious comb: neighboring bins catch
    alternately more and fewer sites no matter how large t is.  Instead each
    site's mass is spread uniformly over its lattice cell [x-1, x+1), which
    makes the histogram converge to the limit density without that artifact.
    """
    if t < 1:
        raise DomainError(f"binning X_t/t needs t >= 1, got {t}")
    w = float(bin_width)
    if not 0.0 < w < np.inf:
        raise DomainError(f"bin width must be positive and finite, got {bin_width!r}")
    lo = (dist.x - 1.0) / t
    hi = (dist.x + 1.0) / t
    # fractional bin coordinate: bin k covers [k - 1/2, k + 1/2) here
    blo = np.floor(lo / w + 0.5).astype(int)
    bhi = np.floor(hi / w + 0.5).astype(int)
    half = int(max(np.max(np.abs(blo)), np.max(np.abs(bhi)))) if dist.x.size else 0
    if v_max is not None:
        if not 0.0 <= float(v_max) < math.inf:
            raise DomainError(f"v_max must be finite and nonnegative, got {v_max!r}")
        half = max(half, int(np.ceil(float(v_max) / w - 0.5)))
    mass = np.zeros(2 * half + 1)
    for off in range(int(np.max(bhi - blo)) + 1):
        k = blo + off
        sel = k <= bhi
        left = np.maximum(lo[sel], (k[sel] - 0.5) * w)
        right = np.minimum(hi[sel], (k[sel] + 0.5) * w)
        np.add.at(mass, k[sel] + half, dist.p[sel] * (right - left) / (hi - lo)[sel])
    centers = np.arange(-half, half + 1) * w
    return BinnedDensity(centers, mass / w, w)
