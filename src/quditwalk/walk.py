"""Time evolution of the multi-component walk on the integer line.

One step applies the coin to the internal state and then shifts channel m by
-2m sites.  All shifts are even multiples of the lattice spacing relative to
each other, so the support after t steps lives on x = -2jt, -2jt+2, ..., 2jt
and is stored densely with stride 2.

``evolve`` keeps the walk channel-major, in one (2j+1) x (1 + 2jt) complex
buffer allocated before the first step and reused at every step, so each
channel's shift is a copy into one contiguous row.  A position-major scratch
of the same size takes the coin product.  Both buffers together need
2 (1 + 2jt)(2j+1) 16 bytes; a request above ``FIELD_BUDGET_BYTES`` raises
DomainError before anything is allocated.  The public ``step`` runs the same
kernel once on freshly sized buffers.
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

# Most memory evolve may ask for, in bytes, for its field and scratch buffers
# together: 2 GiB admits 130 components at t = 1000 (0.54 GB) and 130
# components up to t = 4001.
FIELD_BUDGET_BYTES = 2 * 2**30


@dataclass(frozen=True)
class WaveField:
    """Amplitudes over position and channel after t steps.

    Row s of ``amps`` holds position x = lo + 2s; column i holds channel
    m = j - i.  The walk stores each channel as one contiguous row, so
    ``amps`` is the transposed view of that channel-major buffer: indexing
    and shape are position-major, the memory layout is not.
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


def _advance(field: np.ndarray, n: int, coin: np.ndarray, scratch: np.ndarray) -> None:
    """One step in place on channel-major storage.

    ``field[:, :n]`` holds the walk on entry and ``field[:, :n + 2j]`` on
    return; ``scratch`` is position-major with at least n rows.
    """
    dim = coin.shape[0]
    mixed = scratch[:n]
    # a position-major product amps @ coin.T adds in the same order as on a
    # position-major array; a channel-major coin @ field[:, :n] does not
    np.matmul(field[:, :n].T, coin.T, out=mixed)
    for i in range(dim):
        # channel i carries m = j - i and shifts by -(tj - 2i) sites
        row = field[i]
        row[:i] = 0.0
        row[i : i + n] = mixed[:, i]
        row[i + n : n + dim - 1] = 0.0


def step(field: WaveField, coin: np.ndarray) -> WaveField:
    """Advance one time step under the given coin matrix."""
    n, dim = field.amps.shape
    if coin.shape != (dim, dim):
        raise DomainError(f"coin shape {coin.shape} does not match {dim} channels")
    out = np.empty((dim, n + field.tj), dtype=complex)
    out[:, :n] = field.amps.T
    _advance(out, n, coin, np.empty((n, dim), dtype=complex))
    return WaveField(field.tj, field.t + 1, field.lo - field.tj, out.T)


def _require_field_budget(tj: int, t: int) -> None:
    """Raise DomainError if evolve's two buffers for t steps at doubled spin
    tj would exceed FIELD_BUDGET_BYTES."""
    need = 2 * (1 + tj * t) * (tj + 1) * np.dtype(complex).itemsize
    if need > FIELD_BUDGET_BYTES:
        raise DomainError(
            f"{tj + 1} components for t = {t} steps need {need} bytes, "
            f"above the walk's budget of {FIELD_BUDGET_BYTES}"
        )


def evolve(qudit: Qudit, angles, t: int) -> WaveField:
    """Run t steps from the origin with the coin R(alpha, beta, gamma).

    Raises DomainError, before allocating, when the field and its scratch
    would need more than FIELD_BUDGET_BYTES.
    """
    t = _require_nonneg_int(t, "t")
    tj, dim = qudit.tj, qudit.dim
    _require_field_budget(tj, t)
    coin = rotation_matrix(qudit.j, angles)
    width = 1 + tj * t
    field = np.empty((dim, width), dtype=complex)
    scratch = np.empty((width, dim), dtype=complex)
    field[:, 0] = qudit.amplitudes
    for n in range(1, width, tj):  # n positions before each step
        _advance(field, n, coin, scratch)
    return WaveField(tj, t, -tj * t, field.T)


@dataclass(frozen=True)
class Distribution:
    """Probability mass over integer positions."""

    x: np.ndarray
    p: np.ndarray


def position_distribution(field: WaveField) -> Distribution:
    # |amps|^2 in position-major order: summing over the channel axis of the
    # channel-major layout adds in another order and changes the last bits
    # of p from 8 components up
    p = np.abs(field.amps, order="C") ** 2
    return Distribution(field.positions, p.sum(axis=1))


def pseudovelocity_moment(dist: Distribution, t: int, r: int) -> float:
    """r-th empirical moment of X_t / t."""
    t = _require_nonneg_int(t, "t")
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
    t = _require_nonneg_int(t, "t")
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
