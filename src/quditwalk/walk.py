"""Time evolution of the multi-component walk on the integer line.

One step applies the coin to the internal state and then shifts channel m by
-2m sites.  All shifts are even multiples of the lattice spacing relative to
each other, so the support after t steps lives on x = -2jt, -2jt+2, ..., 2jt
and is stored densely with stride 2: N = 1 + 2jt sites, index s at
x = -2jt + 2s.

``evolve`` takes the walk at time t in closed form in momentum space (the
Fourier picture of Grimmett, Janson & Scudo, Phys. Rev. E 69, 026119, 2004).
In the stored index one step multiplies channel i (m = j - i) by z^i after
the coin; at z = e^{-2ik} that is e^{-2ijk} D^j(h(k)), the spin-j image of

    h(k) = e^{-i(alpha - 2k) sigma_z/2} e^{-i beta sigma_y/2} e^{-i gamma sigma_z/2}

in SU(2).  So the walk at time t and momentum k is e^{-2ijkt} D^j(h(k)^t)
psi_0.  ``evolve`` takes M momenta k_n = pi n/M, with M the smallest
2^a 3^b 5^c >= N (``_fft_length``), raises each h(k_n) to the power t by
binary powering, reads the Euler angles of h^t off its first column,
applies D^j(h^t) through the J_y eigenvectors V = P U of ``coin._jy_eig``
and returns to positions with one inverse FFT of length M.  Each of its
three phase tables per chunk of momenta is a ``coin._powers`` ladder from
two exponentials.  P = diag(i^k) rides on them, P^dag with psi_0 on the
first and P as a step times i on the last, so the two products with the
cached real U are real matrices times the complex tables' float views.
The support has N <= M sites, so that transform is exact: the M - N sites
past the support come out as rounding and are dropped.  Nothing steps,
and the cost is O((2j+1)^2 M) plus the FFT, against O((2j+1)^2 j t^2)
for t steps.

The momenta go in chunks of ``_CHUNK``.  ``evolve`` holds one (2j+1) x M
complex field, which the FFT overwrites in place, plus two (2j+1) x _CHUNK
complex work arrays and some chunk-length vectors, and a cold call builds
the cached (2j+1) x (2j+1) eigenvectors (``_field_bytes``); a request
over ``FIELD_BUDGET_BYTES`` raises DomainError before anything is
allocated.  The public ``step`` applies one coin product and shift, on a
fresh array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coin import _euler, _ipow, _jy_eig, _powers
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

# Most memory evolve may ask for, in bytes (``_field_bytes``): 2 GiB admits
# 130 components at t = 1000 (0.27 GB) and 130 components up to t = 7937.
FIELD_BUDGET_BYTES = 2 * 2**30

# Momenta per chunk of evolve's Fourier pass.
_CHUNK = 1024
# Complex vectors of _CHUNK entries that evolve's count allows beside its
# arrays: the SU(2) powers, the angles and their temporaries, plus numpy's
# ufunc buffers, which do not shrink with a short chunk (measured: about 30
# from 12 to 200 components).
_CHUNK_VECTORS = 48


@dataclass(frozen=True)
class WaveField:
    """Amplitudes over position and channel after t steps.

    Row s of ``amps`` holds position x = lo + 2s; column i holds channel
    m = j - i.  ``evolve`` stores each channel as one contiguous row, so its
    ``amps`` is a transposed view of that channel-major array: indexing and
    shape are position-major, the memory layout is not.
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


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length the FFT takes fastest."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _field_bytes(tj: int, t: int) -> int:
    """Bytes evolve holds for t steps at doubled spin tj: the (tj+1) x M
    field, M = ``_fft_length(1 + tj t)``, two (tj+1) x chunk work arrays,
    the chunk-length vectors and, on a cold call, the J_y generator and
    its eigenvectors, two (tj+1) x (tj+1) float matrices, the size of one
    complex one."""
    dim = tj + 1
    modes = _fft_length(1 + tj * t)
    chunk = min(_CHUNK, modes)
    return np.dtype(complex).itemsize * (dim * (modes + 2 * chunk + dim) + _CHUNK_VECTORS * _CHUNK)


def _require_field_budget(tj: int, t: int) -> None:
    """Raise DomainError if evolve would hold more than FIELD_BUDGET_BYTES
    for t steps at doubled spin tj."""
    need = _field_bytes(tj, t)
    if need > FIELD_BUDGET_BYTES:
        raise DomainError(
            f"{tj + 1} components for t = {t} steps need {need} bytes, "
            f"above the walk's budget of {FIELD_BUDGET_BYTES}"
        )


def _su2_power(p: np.ndarray, q: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """First column (p, q) of h^t for the SU(2) elements h = [[p, -q*], [q, p*]].

    Binary powering needs only products, (p1, q1)(p2, q2) =
    (p1 p2 - q1* q2, q1 p2 + p1* q2), so no rotation angle is divided by and
    h = I is no special case.
    """
    rp, rq = p, q
    t -= 1
    while t:
        if t & 1:
            rp, rq = rp * p - np.conj(rq) * q, rq * p + np.conj(rp) * q
        t >>= 1
        if t:
            p, q = p * p - np.conj(q) * q, q * p + np.conj(p) * q
    return rp, rq


def evolve(qudit: Qudit, angles, t: int) -> WaveField:
    """The walk after t steps from the origin with the coin R(alpha, beta,
    gamma), in closed form (see the module docstring); t = 0 returns the
    initial state.

    Raises DomainError, before allocating, when the field and its work
    arrays would need more than FIELD_BUDGET_BYTES.
    """
    t = _require_nonneg_int(t, "t")
    alpha, beta, gamma = _euler(angles)
    if t == 0:
        return initial_state(qudit)
    tj, dim = qudit.tj, qudit.dim
    _require_field_budget(tj, t)
    j = tj / 2.0
    _, vec = _jy_eig(tj)
    # P^dag psi_0 rides on the first phase table
    start = np.conj(_ipow(np.arange(dim))) * qudit.amplitudes
    width = 1 + tj * t
    modes = _fft_length(width)
    field = np.empty((dim, modes), dtype=complex)
    work = np.empty((2, dim, min(_CHUNK, modes)), dtype=complex)
    # h(k) = [[p0 e^{ik}, -q*], [q0 e^{-ik}, p*]]
    p0 = math.cos(0.5 * beta) * cmath.exp(-0.5j * (alpha + gamma))
    q0 = math.sin(0.5 * beta) * cmath.exp(0.5j * (alpha - gamma))
    for lo in range(0, modes, _CHUNK):
        n = np.arange(lo, min(lo + _CHUNK, modes))
        k = np.pi * n / modes
        turn = np.exp(1j * k)
        p, q = _su2_power(p0 * turn, q0 * np.conj(turn), t)
        # h^t = e^{-i a sigma_z/2} e^{-i b sigma_y/2} e^{-i c sigma_z/2} has
        # p = e^{-i(a+c)/2} cos(b/2) and q = e^{i(a-c)/2} sin(b/2).  The
        # phases a m + c m' = (a+c)/2 (m+m') + (a-c)/2 (m-m') need only
        # those half-angles, whose 2 pi ambiguity drops out of e^{-i...}
        # since m +- m' are integers: half-integer j needs no sign fix
        half_sum, half_diff = -np.angle(p), np.angle(q)
        b = 2.0 * np.arctan2(np.abs(q), np.abs(p))
        phase, mixed = work[0, :, : n.size], work[1, :, : n.size]
        out = field[:, lo : lo + n.size]
        # P^dag e^{-i c m'} psi_0, then d^j(b) = P U diag(e^{-i b lam}) U^T
        # P^dag with lam = -j..j ascending; U is real, so each product is
        # a float matrix times a complex table's float view
        c = half_sum - half_diff
        _powers(np.exp(-1j * j * c), np.exp(1j * c), phase)
        phase *= start[:, None]
        np.matmul(vec.T, phase.view(float), out=mixed.view(float))
        mixed *= _powers(np.exp(1j * j * b), np.exp(-1j * b), phase)
        np.matmul(vec, mixed.view(float), out=out.view(float))
        # P, then e^{-i a m}: row i of the ladder times i^i, a step times
        # i, which is exact; e^{-2ijkt} puts x = -2jt at s = 0, its angle
        # pi n (N - 1)/M reduced mod 2 pi in integers
        a = half_sum + half_diff
        shift = np.pi / modes * (n * (width - 1) % (2 * modes))
        out *= _powers(np.exp(-1j * (shift + j * a)), 1j * np.exp(1j * a), phase)
    np.fft.ifft(field, axis=1, out=field)
    return WaveField(tj, t, -tj * t, field[:, :width].T)


@dataclass(frozen=True)
class Distribution:
    """Probability mass over integer positions."""

    x: np.ndarray
    p: np.ndarray


def position_distribution(field: WaveField) -> Distribution:
    # one contiguous channel at a time into one float vector, with no
    # position-major copy of the field; the channels add left to right, as
    # numpy's row sum does below 8 terms
    amps = field.amps
    p = np.abs(amps[:, 0]) ** 2
    for col in range(1, amps.shape[1]):
        p += np.abs(amps[:, col]) ** 2
    return Distribution(field.positions, p)


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
