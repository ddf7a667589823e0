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
binary powering, applies D^j(h^t) through the J_y eigenvectors V = P U of
``coin._jy_eig`` and returns to positions with one inverse FFT of length M.
The support has N <= M sites, so that transform is exact: the M - N sites
past the support come out as rounding and are dropped.  Nothing steps,
and the cost is O((2j+1)^2 M) plus the FFT, against O((2j+1)^2 j t^2)
for t steps.

D^j(h^t) = e^{-i a J_z} d^j(b) e^{-i c J_z} enters as three phase tables,
each a ``coin._powers`` ladder: row i is a first row times i steps.  No
momentum takes an exp, angle or arctan2 of its own.  The twiddles e^{ik_n}
and e^{-2ijk_n t} are products of two tables of about sqrt(2M) entries
(``_turn_tables``).  The ladders' first rows and steps come from h^t's
first column (p, q) alone, by products and square roots: half turns of p
and q, and e^{ib/2} from |p| and |q| (``_ladders``).  P = diag(i^k) rides
on the tables, P^dag with psi_0 on the first and P as a step times i on
the last, so the two products with the cached real U are real matrices
times the complex tables' float views.

The per-momentum scalars go in blocks of ``_BLOCK`` momenta, the ladders in
chunks of ``_CHUNK``.  ``evolve`` holds one (2j+1) x M complex field, which
the FFT overwrites in place, plus two (2j+1) x _CHUNK complex work arrays
and some block-length vectors, and a cold call builds the cached
(2j+1) x (2j+1) eigenvectors (``_field_bytes``); a request over
``FIELD_BUDGET_BYTES`` raises DomainError before anything is allocated.
The public ``step`` applies one coin product and shift, on a fresh array.
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
# Momenta per block of evolve's per-momentum scalars (``_ladders``): a
# walk of M <= _BLOCK momenta, t = 1000 at 12 components or t = 300 at 50,
# takes them in one block.
_BLOCK = 16 * _CHUNK
# Complex vectors of _BLOCK entries that evolve's count allows beside its
# arrays: the SU(2) powers with their temporaries, then the half turns and
# the ladders' first rows and steps, which from the second block on sit
# beside the field (tracemalloc: at most 10.4 from 2 to 200 components).
_BLOCK_VECTORS = 16


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
    the block-length vectors and, on a cold call, the J_y generator and
    its eigenvectors, two (tj+1) x (tj+1) float matrices, the size of one
    complex one."""
    dim = tj + 1
    modes = _fft_length(1 + tj * t)
    chunk = min(_CHUNK, modes)
    return np.dtype(complex).itemsize * (dim * (modes + 2 * chunk + dim) + _BLOCK_VECTORS * _BLOCK)


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
    h = I is no special case.  The products go into six vectors, p and q
    among them, which are overwritten (``_su2_times``).
    """
    rp, rq = p.copy(), q.copy()
    a, b = np.empty_like(p), np.empty_like(p)
    t -= 1
    while t:
        if t & 1:
            _su2_times(rp, rq, p, q, a, b)
            rp, a = a, rp
        t >>= 1
        if t:
            _su2_times(p, q, p, q, a, b)
            p, a = a, p
    return rp, rq


def _su2_times(p1, q1, p2, q2, a, b) -> None:
    """(a, q1) = (p1, q1)(p2, q2), with b as scratch; p2 may be p1 and q2
    q1.  p1 is left to the caller as the next scratch."""
    np.multiply(p1, p2, out=a)
    a -= np.multiply(np.conjugate(q1, out=b), q2, out=b)
    np.multiply(np.conjugate(p1, out=b), q2, out=b)
    q1 *= p2
    q1 += b


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 as re^2 + im^2, with no hypot."""
    return np.square(z.real) + np.square(z.imag)


def _int_power(z: np.ndarray, n: int) -> np.ndarray:
    """z^n for an integer n >= 0 by square-and-multiply: about 2 log2(n)
    products and no pow call.  The result is a fresh array."""
    out = np.ones_like(z)
    square = None
    while n:
        if n & 1:
            out *= z
        n >>= 1
        if n:
            z = square = np.square(z, out=square)
    return out


def _unit(z: np.ndarray) -> np.ndarray:
    """Scale the contiguous complex vector z to unit modulus in place."""
    z.view(float).reshape(-1, 2)[...] /= np.sqrt(_abs2(z))[:, None]
    return z


def _turn_tables(modes: int) -> tuple[np.ndarray, np.ndarray]:
    """e^{i pi r/M} for r < L and for the multiples of L below 2M, with L
    the least power of two >= sqrt(2M): ``_turn`` makes e^{i pi r/M} for
    any 0 <= r < 2M from one entry of each.

    Each entry is i^q e^{i pi (2r - qM)/(2M)} with q the nearest quarter
    turn, so exp sees angles of at most pi/4 and i^q is exact: an entry is
    within 2.4e-16 of e^{i pi r/M}, where exp(i pi r/M) strays up to 1.3e-15.
    """
    size = 1 << math.isqrt(2 * modes - 1).bit_length()
    r = np.arange(size)
    r = np.concatenate((r, size * r[: -(-2 * modes // size)]))
    quarter = (4 * r + modes) // (2 * modes)
    turns = _ipow(quarter) * np.exp(1j * np.pi / (2 * modes) * (2 * r - quarter * modes))
    return turns[:size], turns[size:]


def _turn(r: np.ndarray, tables: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """e^{i pi r/M} for integers 0 <= r < 2M: one product of table entries."""
    low, high = tables
    return low[r & (low.size - 1)] * high[r >> (low.size.bit_length() - 1)]


def _half_turn(z: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """e^{i arg(z)/2} on np.angle's branch, the principal square root of
    z/|z| for mod = |z|, from square roots alone; 1 where z = 0.

    The part of larger size, at least 1/sqrt 2, is sqrt((1 + |x|)/2) for x
    = Re z/|z|; the other follows from 2 Re Im = Im z/|z| with no
    cancellation.  A negative real z on the -0.0 side of the cut turns by
    -pi/2, as np.angle gives it -pi.
    """
    live = mod > 0.0
    x = np.divide(z.real, mod, out=np.ones_like(mod), where=live)
    y = np.divide(z.imag, mod, out=np.zeros_like(mod), where=live)
    right = x >= 0.0
    big = np.sqrt(0.5 + 0.5 * np.abs(x, out=x), out=x)
    other = np.divide(np.multiply(0.5, y, out=y), big, out=y)
    out = np.empty(z.shape, dtype=complex)
    out.real = np.where(right, big, np.abs(other))
    out.imag = np.where(right, other, np.copysign(big, other))
    return out


def _ladders(p: np.ndarray, q: np.ndarray, t: int, tj: int):
    """First rows and steps of evolve's three phase ladders, e^{-i c m'},
    d^j's e^{-i b lam} and e^{-i a m}, at a block of momenta, from the first
    column (p, q) of h, raised here to the power t, with no transcendental
    call per momentum.

    h^t = e^{-i a sigma_z/2} e^{-i b sigma_y/2} e^{-i c sigma_z/2} has first
    column p = e^{-i(a+c)/2} cos(b/2) and q = e^{i(a-c)/2} sin(b/2), so
    e^{-i(a+c)/4} and e^{i(a-c)/4} are the half turns of p and q, and
    e^{ib/2} = (|p| + i|q|)/sqrt(|p|^2 + |q|^2).  The ladders need
    e^{-ijc}, e^{ijb} and e^{-ija}, powers 2j of e^{-ic/2}, e^{ib/2} and
    e^{-ia/2}, renormalized, and the steps e^{ic}, e^{-ib} and i e^{ia},
    their conjugate squares.  Any branch of the half turns would do: a
    sign flip of either flips the first and last ladders' rows alike by
    (-1)^{2j}.  Each block-length array goes as soon as it is read, p and
    q included, since the caller passes them as temporaries.
    """
    p, q = _su2_power(p, q, t)
    mod_p, mod_q = np.sqrt(_abs2(p)), np.sqrt(_abs2(q))
    half_p = _half_turn(p, mod_p)
    del p
    half_q = _half_turn(q, mod_q)
    del q
    half_b = np.empty(half_p.shape, dtype=complex)
    half_b.real, half_b.imag = mod_p, mod_q
    del mod_p, mod_q
    half_c = half_p * half_q
    half_p *= np.conj(half_q, out=half_q)
    del half_q
    # e^{-ic/2}, e^{ib/2} and e^{-ia/2}, the last in half_p's place
    halves = (half_c, _unit(half_b), half_p)
    firsts = [_unit(_int_power(half, tj)) for half in halves]
    steps = [np.conj(np.square(half, out=half), out=half) for half in halves]
    steps[2] *= 1j
    return list(zip(firsts, steps))


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
    _, vec = _jy_eig(tj)
    # P^dag psi_0 rides on the first phase table
    start = np.conj(_ipow(np.arange(dim))) * qudit.amplitudes
    width = 1 + tj * t
    modes = _fft_length(width)
    field = work = None
    tables = _turn_tables(modes)
    # h(k) = [[p0 e^{ik}, -q*], [q0 e^{-ik}, p*]]
    p0 = math.cos(0.5 * beta) * cmath.exp(-0.5j * (alpha + gamma))
    q0 = math.sin(0.5 * beta) * cmath.exp(0.5j * (alpha - gamma))
    for top in range(0, modes, _BLOCK):
        n = np.arange(top, min(top + _BLOCK, modes))
        turn = _turn(n, tables)
        (c0, c1), (b0, b1), (a0, a1) = _ladders(p0 * turn, q0 * np.conj(turn), t, tj)
        # e^{-2ijkt} puts x = -2jt at s = 0, its angle pi n (N - 1)/M
        # reduced mod 2 pi in integers
        a0 *= np.conj(_turn(n * (width - 1) % (2 * modes), tables))
        del turn
        if field is None:
            # allocated once the first block's temporaries are gone
            field = np.empty((dim, modes), dtype=complex)
            work = np.empty((2, dim, min(_CHUNK, modes)), dtype=complex)
        for lo in range(0, n.size, _CHUNK):
            size = min(_CHUNK, n.size - lo)
            rows = slice(lo, lo + size)
            phase, mixed = work[0, :, :size], work[1, :, :size]
            out = field[:, top + lo : top + lo + size]
            # P^dag e^{-i c m'} psi_0, then d^j(b) = P U diag(e^{-i b lam})
            # U^T P^dag with lam = -j..j ascending; U is real, so each
            # product is a float matrix times a complex table's float view
            _powers(c0[rows], c1[rows], phase)
            phase *= start[:, None]
            np.matmul(vec.T, phase.view(float), out=mixed.view(float))
            mixed *= _powers(b0[rows], b1[rows], phase)
            np.matmul(vec, mixed.view(float), out=out.view(float))
            # P, then e^{-i a m}: row i of the ladder times i^i, a step times
            # i, which is exact
            out *= _powers(a0[rows], a1[rows], phase)
        del c0, c1, b0, b1, a0, a1
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
    p = _abs2(amps[:, 0])
    for col in range(1, amps.shape[1]):
        p += _abs2(amps[:, col])
    return Distribution(field.positions, p)


def pseudovelocity_moment(dist: Distribution, t: int, r: int) -> float:
    """r-th empirical moment of X_t / t."""
    t = _require_nonneg_int(t, "t")
    if t < 1:
        raise DomainError(f"moment of X_t/t needs t >= 1, got {t}")
    r = _require_nonneg_int(r, "moment order")
    return float(np.sum(dist.p * _int_power(dist.x / t, r)))


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
    # every offset's (bin, weight) pairs in one bincount, which adds them in
    # the order given: offset by offset, as one add.at per offset would
    bins, weights = [], []
    for off in range(int(np.max(bhi - blo)) + 1):
        k = blo + off
        sel = k <= bhi
        left = np.maximum(lo[sel], (k[sel] - 0.5) * w)
        right = np.minimum(hi[sel], (k[sel] + 0.5) * w)
        bins.append(k[sel] + half)
        weights.append(dist.p[sel] * (right - left) / (hi - lo)[sel])
    mass = np.bincount(np.concatenate(bins), np.concatenate(weights), minlength=2 * half + 1)
    centers = np.arange(-half, half + 1) * w
    return BinnedDensity(centers, mass / w, w)
