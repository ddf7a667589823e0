"""Wigner rotation matrices used as coin operators.

The coin acting on a (2j+1)-component internal space is the spin-j rotation

    R(alpha, beta, gamma)[m, m'] = exp(-i alpha m) d[m, m'](beta) exp(-i gamma m'),

with d the real Wigner small-d matrix.  Rows and columns are ordered by
descending magnetic number m = j, j-1, ..., -j throughout the package.

d is exp(-i beta J_y) in the z basis.  It is evaluated through the exact
spectrum of the tridiagonal J_y generator (eigenvalues -j..j).  J_y is
P S P^dag with P = diag(i^k) and S the real symmetric tridiagonal matrix
with off-diagonals sqrt((j-m)(j+m+1))/2, so its eigenvectors are V = P U
for the real orthogonal eigenvectors U of S, cached once per size
(``_jy_eig``) at (2j+1)^2 floats.  P holds the exact values +-1 and +-i
(``_ipow``), and each caller folds it into a product it takes anyway.
``small_d`` writes d as the deviation from the identity,

    d - I = Re V diag(e^{-i beta lam} - 1) V^dag,
    e^{-i beta lam} - 1 = -2 sin^2(beta lam / 2) - i sin(beta lam),

whose entry (a, b) is (-1)^floor((a-b)/2) times U diag(-2 sin^2) U^T
where a - b is even and U diag(sin) U^T where it is odd: one real product.
So d stays orthogonal to machine precision at any size and beta = 0 gives
the identity exactly.  The classical factorial sum survives only in its
coefficient rows (``_coeff_row``, one entry of which ``small_d_coeff``
returns), which the off-support weight-matrix polynomials are built from.

Rotations taken through that spectrum need phases e^{i lam theta},
lam = -j..j; ``_powers`` is the package's one ladder of them, products of
a first row and a step z = e^{i theta}, for the walk and the limit law.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .halfint import HalfInt, walk_index

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


def _coeff_row(tj: int, tm: int, tmp: int) -> tuple[int, np.ndarray]:
    """(lo, row): the signed factorial-sum coefficients for ell = lo..hi.

    The first term comes from one exact rational, each next one from the
    exact ratio of neighbours -(A - ell)(B - ell) / ((ell + 1)(ell + 1 + C))
    with A = j - m', B = j + m, C = m' - m: a few ulps at any size.
    """
    lo, hi = _ell_range(tj, tm, tmp)
    big_a, big_b, big_c = (tj - tmp) // 2, (tj + tm) // 2, (tmp - tm) // 2
    f = math.factorial
    num = f(big_b) * f(tj - big_b) * f(tj - big_a) * f(big_a)
    den = f(big_a - lo) * f(big_b - lo) * f(lo) * f(lo + big_c)
    row = np.empty(hi - lo + 1)
    row[0] = (-1) ** lo * math.sqrt(float(Fraction(num, den * den)))
    for k, ell in enumerate(range(lo, hi)):
        ratio = (big_a - ell) * (big_b - ell) / ((ell + 1) * (ell + 1 + big_c))
        row[k + 1] = -row[k] * ratio
    return lo, row


def small_d_coeff(j, m, mp, ell: int) -> float:
    """Signed coefficient of the ell-th term of the small-d factorial sum.

    Raises DomainError when (m, mp) do not belong to spin j or when ell lies
    outside the range where all four denominator factorials are defined.
    """
    tj = walk_index(j)
    tm = HalfInt.parse(m).doubled
    tmp = HalfInt.parse(mp).doubled
    for t in (tm, tmp):
        if abs(t) > tj or (t - tj) % 2 != 0:
            raise DomainError(f"magnetic number {HalfInt(t)} invalid for j = {HalfInt(tj)}")
    lo, row = _coeff_row(tj, tm, tmp)
    if not lo <= ell < lo + row.size:
        raise DomainError(f"ell = {ell} outside [{lo}, {lo + row.size - 1}]")
    return float(row[ell - lo])


# Largest dense matrix the package builds, in bytes: ``small_d`` works in
# one (2j+1) x 2(2j+1) float array, 16 (2j+1)^2 bytes, so 256 MiB admits
# 4096 components (eigh needs a few times the matrix again).
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


@lru_cache(maxsize=None)
def _jy_eig(tj: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, U) at doubled spin tj: J_y = P S P^dag with P =
    diag(i^k), and U the real orthogonal eigenvectors of the real
    tridiagonal S, so V = P U diagonalizes J_y.

    The eigenvalues are replaced by their exact ascending values -j ... j,
    which eigh only approximates.  Both are read-only float arrays, U of
    8 (2j+1)^2 bytes.  A size over DENSE_BUDGET_BYTES, counted for
    ``small_d``'s work array, raises DomainError.
    """
    dim = tj + 1
    _require_dense(dim, 2 * np.dtype(float).itemsize, "the J_y generator")
    m = np.arange(tj, -tj - 1, -2) / 2.0
    half_lad = 0.5 * np.sqrt((tj / 2.0 - m[1:]) * (tj / 2.0 + m[1:] + 1.0))
    _, vec = np.linalg.eigh(np.diag(half_lad, 1) + np.diag(half_lad, -1))
    lam = np.arange(-tj, tj + 1, 2) / 2.0
    lam.setflags(write=False)
    vec.setflags(write=False)
    return lam, vec


def small_d(j, beta: float) -> np.ndarray:
    """Wigner small-d matrix d^j(beta), real, rows and columns m-descending."""
    tj = walk_index(j)
    beta = float(beta)
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta!r}")
    lam, vec = _jy_eig(tj)
    half = np.sin(0.5 * beta * lam)
    # rows 0..dim-1: U diag(-2 sin^2(beta lam/2)) U^T, the cos part of
    # d - I; rows dim..2 dim-1: U diag(sin(beta lam)) U^T, its sin part
    work = (vec * np.stack((-2.0 * half * half, np.sin(beta * lam)))[:, None, :]).reshape(-1, tj + 1)
    work = (work @ vec.T).reshape(2, tj + 1, tj + 1)
    d, sin_part = work
    # i^(a-b) (cos - i sin): the sin part where a - b is odd, negated
    # where a is even; then (-1)^floor(a/2) (-1)^floor(b/2) throughout
    np.negative(sin_part[::2, 1::2], out=d[::2, 1::2])
    d[1::2, ::2] = sin_part[1::2, ::2]
    for sign_flip in (d[2::4], d[3::4], d[:, 2::4], d[:, 3::4]):
        sign_flip *= -1.0
    # in place, so the call keeps one work array; the sum also turns any
    # -0.0 off the diagonal into +0.0, so d(0) is I bit for bit
    d += np.eye(tj + 1)
    return d


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
    """(alpha, beta, gamma) as floats; a non-finite angle raises DomainError."""
    alpha, beta, gamma = (float(a) for a in angles)
    for name, a in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not math.isfinite(a):
            raise DomainError(f"{name} must be finite, got {a!r}")
    return alpha, beta, gamma


def rotation_matrix(j, angles) -> np.ndarray:
    """Full coin R(alpha, beta, gamma) = e^{-i alpha J_z} d(beta) e^{-i gamma J_z}."""
    tj = walk_index(j)
    alpha, beta, gamma = _euler(angles)
    m = np.arange(tj, -tj - 1, -2) / 2.0
    # in place, so the call leaves no complex matrix behind but its result
    out = np.multiply(np.exp(-1j * alpha * m)[:, None], small_d(tj / 2.0, beta))
    out *= np.exp(-1j * gamma * m)
    return out
