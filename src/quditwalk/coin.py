"""Wigner rotation matrices used as coin operators.

The coin acting on a (2j+1)-component internal space is the spin-j rotation

    R(alpha, beta, gamma)[m, m'] = exp(-i alpha m) d[m, m'](beta) exp(-i gamma m'),

with d the real Wigner small-d matrix.  Rows and columns are ordered by
descending magnetic number m = j, j-1, ..., -j throughout the package.

d is exp(-i beta J_y) in the z basis.  It is evaluated through the exact
spectrum of the tridiagonal J_y generator (eigenvalues -j..j).  J_y is
P S P^dag with P = diag(i^k) and S the real symmetric tridiagonal matrix
with off-diagonals sqrt((j-m)(j+m+1))/2, so its eigenvectors are V = P U
for the real orthogonal eigenvectors U of S (``_jy_spectrum``, one eigh).
P holds the exact values +-1 and +-i (``_ipow``), and each caller folds it
into a product it takes anyway.
``small_d`` writes d as the deviation from the identity,

    d - I = Re V diag(e^{-i beta lam} - 1) V^dag,
    e^{-i beta lam} - 1 = -2 sin^2(beta lam / 2) - i sin(beta lam),

whose entry (a, b) is (-1)^floor((a-b)/2) times U diag(-2 sin^2) U^T
where a - b is even and U diag(sin) U^T where it is odd.  S has a zero
diagonal, so D S D = -S for D = diag((-1)^k), and the eigenvector of -lam
is +-D times that of lam: summed over +-lam, the cos part lives on the
blocks where a and b share their parity and the sin part on the others,
and lam = 0 adds nothing.  Each block is then one real product over the
eigenvalues lam > 0 alone, with (-1)^floor(a/2) folded into the rows:
the same-parity blocks -B B^T for B = U diag(2 sin(beta lam / 2)), the
odd-even block U diag(2 sin(beta lam)) U^T, and the even-odd block minus
its transpose, about (2j+1)^3 / 4 multiply-adds in all.  So d stays
orthogonal to machine precision at any size and beta = 0 gives the
identity exactly.  ``rotation_matrix`` writes d into the real part of its
complex result and applies its two phases there.

The coin reads only U's columns for lam > 0.  Its cached per-size entry
(``_coin_rows``) holds them with the row signs (-1)^floor(a/2) folded in,
as two contiguous blocks of the even and the odd rows, beside the
eigenvalues lam > 0 and the magnetic numbers of the phases: 8 (2j+1)
floor((2j+1)/2) bytes plus O(2j+1), so B on either parity is one product
from its block.  The whole U, 8 (2j+1)^2 bytes, is cached apart
(``_jy_eig``) for the walk and the limit law alone, so a size scan that
only the coin visits pins about half of it per size.  Both caches come
from the same eigh and hold the same bits.

``_small_d`` is the package's one full small-d evaluator: it serves the
coin and, at alpha = arccos(-x), the weight matrices on a channel's
support (``density._point_factors``).  The classical factorial sum
survives only in ``small_d_coeff``, one of its terms from exact integers.

Rotations taken through that spectrum need phases e^{i lam theta},
lam = -j..j; ``_powers`` is the package's one ladder of them, products of
a first row and a step z = e^{i theta}, for the walk and the limit law.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .halfint import HalfInt, _require_nonneg_int, walk_index

__all__ = ["EulerAngles", "small_d_coeff", "small_d", "rotation_matrix"]


class EulerAngles(NamedTuple):
    """z-y-z Euler angles of a coin rotation, in radians."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0


def _ell_range(tj: int, tm: int, tmp: int) -> tuple[int, int]:
    lo = max(0, (tm - tmp) // 2)
    hi = min((tj - tmp) // 2, (tj + tm) // 2)
    return lo, hi


def small_d_coeff(j, m, mp, ell: int) -> float:
    """Signed coefficient of the ell-th term of the small-d factorial sum,
    (-1)^ell sqrt(num) / den for num = (j+m)! (j-m)! (j+m')! (j-m')! and
    den = (j-m'-ell)! (j+m-ell)! ell! (m'-m+ell)!, from their exact
    integers: within an ulp or two at any size.

    Raises DomainError when (m, mp) do not belong to spin j or when ell is
    not an integer in the range where all four denominator factorials are
    defined.
    """
    tj = walk_index(j)
    tm = HalfInt.parse(m).doubled
    tmp = HalfInt.parse(mp).doubled
    for t in (tm, tmp):
        if abs(t) > tj or (t - tj) % 2 != 0:
            raise DomainError(f"magnetic number {HalfInt(t)} invalid for j = {HalfInt(tj)}")
    ell = _require_nonneg_int(ell, "ell")
    lo, hi = _ell_range(tj, tm, tmp)
    if not lo <= ell <= hi:
        raise DomainError(f"ell = {ell} outside [{lo}, {hi}]")
    f = math.factorial
    num = f((tj + tm) // 2) * f((tj - tm) // 2) * f((tj + tmp) // 2) * f((tj - tmp) // 2)
    den = f((tj - tmp) // 2 - ell) * f((tj + tm) // 2 - ell) * f(ell) * f(ell + (tmp - tm) // 2)
    # the integer square root of num times 4^k holds 65 bits or more, and
    # one correctly rounded integer division leaves it: no float on the way
    # overflows, as num / den^2 does from about 530 components
    k = max(0, 66 - num.bit_length() // 2)
    mag = math.isqrt(num << 2 * k) / (den << k)
    return -mag if ell % 2 else mag


# Largest dense matrix the package builds, in bytes: ``rotation_matrix``'s
# complex result, 16 (2j+1)^2 bytes, so 256 MiB admits 4096 components
# (eigh needs a few times the matrix again).
DENSE_BUDGET_BYTES = 2**28


def _require_dense(dim: int, itemsize: int, what: str) -> None:
    """Raise DomainError if a dim x dim matrix of ``itemsize``-byte entries
    would exceed DENSE_BUDGET_BYTES."""
    need = dim * dim * itemsize
    if need > DENSE_BUDGET_BYTES:
        raise DomainError(
            f"{what} of size {dim} needs {need} bytes, "
            f"above the dense-matrix budget of {DENSE_BUDGET_BYTES}"
        )


def _ipow(k) -> np.ndarray:
    """i^k for integer k, exactly: 1, i, -1 or -i by k mod 4, no power."""
    return np.array((1.0, 1j, -1.0, -1j))[np.asarray(k) % 4]


def _jy_spectrum(tj: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, U) at doubled spin tj, new arrays: J_y = P S P^dag
    with P = diag(i^k), and U the real orthogonal eigenvectors of the real
    tridiagonal S, so V = P U diagonalizes J_y.

    The eigenvalues are replaced by their exact ascending values -j ... j,
    which eigh only approximates.  A size over DENSE_BUDGET_BYTES, counted
    for ``rotation_matrix``'s complex result, raises DomainError before
    anything is built.
    """
    dim = tj + 1
    _require_dense(dim, np.dtype(complex).itemsize, "the J_y generator")
    m = np.arange(tj, -tj - 1, -2) / 2.0
    half_lad = 0.5 * np.sqrt((tj / 2.0 - m[1:]) * (tj / 2.0 + m[1:] + 1.0))
    _, vec = np.linalg.eigh(np.diag(half_lad, 1) + np.diag(half_lad, -1))
    lam = np.arange(-tj, tj + 1, 2) / 2.0
    return lam, vec


@lru_cache(maxsize=None)
def _jy_eig(tj: int) -> tuple[np.ndarray, np.ndarray]:
    """``_jy_spectrum(tj)`` cached read-only, U of 8 (2j+1)^2 bytes: the
    whole eigenbasis, for the walk and the limit law."""
    lam, vec = _jy_spectrum(tj)
    lam.setflags(write=False)
    vec.setflags(write=False)
    return lam, vec


@lru_cache(maxsize=None)
def _coin_rows(tj: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lam, even, odd, m) at doubled spin tj, read-only: the coin's whole
    per-size entry, 8 (2j+1) floor((2j+1)/2) bytes plus O(2j+1).

    lam holds the eigenvalues lam > 0; even and odd are the even and the
    odd rows a of U's columns for them, each times (-1)^floor(a/2), as two
    contiguous blocks; m holds the magnetic numbers j..-j of
    ``rotation_matrix``'s phases.
    """
    lam, vec = _jy_spectrum(tj)
    npos = (tj + 1) // 2
    pos = vec[:, tj + 1 - npos :]  # the eigenvectors of lam > 0
    k = np.arange(tj + 1)
    signs = (1.0 - 2.0 * (k // 2 % 2))[:, None]
    even = pos[::2] * signs[::2]
    odd = pos[1::2] * signs[1::2]
    lam = lam[tj + 1 - npos :].copy()
    m = (tj - 2 * k) / 2.0
    for arr in (lam, even, odd, m):
        arr.setflags(write=False)
    return lam, even, odd, m


def _small_d(tj: int, beta: float, dtype) -> np.ndarray:
    """A new (2j+1) x (2j+1) array of ``dtype``, zero but for d^j(beta) in
    its real part; ``_coin_rows`` refuses a size over the budget before
    anything is allocated.

    The work arrays hold half the result's entries (B) and then one block
    at a time.
    """
    lam, even, odd, _ = _coin_rows(tj)
    half = (0.5 * beta) * lam
    # the result first, so that the work arrays freed after it leave no
    # hole in the heap below the next call's result
    out = np.zeros((tj + 1, tj + 1), dtype)
    d = out.real
    # B = U diag(2 sin(beta lam/2)) with its row signs, by parity
    two_sin = 2.0 * np.sin(half)
    b_even = even * two_sin
    b_odd = odd * two_sin
    for p, b in ((0, b_even), (1, b_odd)):
        # I - B B^T on either parity, a product with its own transpose; the
        # 0 - x turns any -0.0 into +0.0, so d(0) is I bit for bit
        gram = b @ b.T
        gram.ravel()[:: len(gram) + 1] -= 1.0
        np.subtract(0.0, gram, out=d[p::2, p::2])
    del gram
    # the odd-even block U diag(2 sin(beta lam)) U^T, as (U 2 cos(beta
    # lam/2)) B^T on the odd rows of U and the even ones of B, and the
    # even-odd block minus its transpose
    np.multiply(odd, 2.0 * np.cos(half), out=b_odd)
    cross = b_odd @ b_even.T
    np.add(cross, 0.0, out=d[1::2, ::2])
    np.subtract(0.0, cross.T, out=d[::2, 1::2])
    return out


def small_d(j, beta: float) -> np.ndarray:
    """Wigner small-d matrix d^j(beta), real, rows and columns m-descending."""
    tj = walk_index(j)
    beta = float(beta)
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta!r}")
    return _small_d(tj, beta, float)


def _powers(first, z, out: np.ndarray) -> np.ndarray:
    """Fill row k of ``out`` with first z^k and return ``out``.

    Rows [n, 2n) are rows [0, n) times z^n, z^n by repeated squaring: about
    log2(rows) numpy calls, products only.  Row k's rounding grows about
    linearly in k, as that of the angle k arg(z) does.
    """
    out[0] = first
    n = 1
    while n < len(out):
        dst = out[n : 2 * n]
        np.multiply(out[: len(dst)], z, out=dst)
        n *= 2
        if n < len(out):
            z = z * z
    return out


def _euler(angles) -> tuple[float, float, float]:
    """(alpha, beta, gamma) as floats; a count other than three or a
    non-finite angle raises DomainError."""
    angles = tuple(float(a) for a in angles)
    if len(angles) != 3:
        raise DomainError(f"expected 3 Euler angles (alpha, beta, gamma), got {len(angles)}")
    alpha, beta, gamma = angles
    for name, a in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not math.isfinite(a):
            raise DomainError(f"{name} must be finite, got {a!r}")
    return alpha, beta, gamma


def rotation_matrix(j, angles) -> np.ndarray:
    """Full coin R(alpha, beta, gamma) = e^{-i alpha J_z} d(beta) e^{-i gamma J_z}."""
    tj = walk_index(j)
    alpha, beta, gamma = _euler(angles)
    # d goes straight into the real part of the result, and the phases in
    # place, so the call leaves no other matrix behind
    out = _small_d(tj, beta, complex)
    m = _coin_rows(tj)[3]
    out *= np.exp(-1j * alpha * m)[:, None]
    out *= np.exp(-1j * gamma * m)
    return out
