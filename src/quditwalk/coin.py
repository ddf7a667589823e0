"""Wigner rotation matrices used as coin operators.

The coin acting on a (2j+1)-component internal space is the spin-j rotation

    R(alpha, beta, gamma)[m, m'] = exp(-i alpha m) d[m, m'](beta) exp(-i gamma m'),

with d the real Wigner small-d matrix.  Rows and columns are ordered by
descending magnetic number m = j, j-1, ..., -j throughout the package.

d is exp(-i beta J_y) in the z basis.  It is evaluated through the exact
spectrum of the tridiagonal J_y generator (eigenvalues -j..j, eigenvectors
from one cached eigendecomposition per size), written as the deviation from
the identity,

    d = I + Re V diag(e^{-i beta lam} - 1) V^dag,
    e^{-i beta lam} - 1 = -2 sin^2(beta lam / 2) - i sin(beta lam),

so d stays orthogonal to machine precision at any size and beta = 0 gives
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


# Largest dense matrix the package builds, in bytes: the complex J_y
# generator of 2j+1 components takes 16 (2j+1)^2, so 256 MiB admits 4096
# components (eigh needs a few times that again).
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


@lru_cache(maxsize=None)
def _jy_eig(tj: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the tridiagonal J_y generator at doubled spin tj.

    Returns (eigenvalues, eigenvector matrix); the eigenvalues are replaced
    by their exact ascending values -j ... j, which eigh only approximates.
    A generator above DENSE_BUDGET_BYTES raises DomainError.
    """
    dim = tj + 1
    _require_dense(dim, np.dtype(complex).itemsize, "the J_y generator")
    m = np.arange(tj, -tj - 1, -2) / 2.0
    lad = np.sqrt((tj / 2.0 - m[1:]) * (tj / 2.0 + m[1:] + 1.0))
    jy = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim - 1)
    jy[idx, idx + 1] = -0.5j * lad
    jy[idx + 1, idx] = 0.5j * lad
    _, vec = np.linalg.eigh(jy)
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
    d = ((vec * (-2.0 * half * half - 1j * np.sin(beta * lam))) @ vec.conj().T).real
    # in place, so the call keeps one matrix-sized result; the sum also
    # turns any -0.0 off the diagonal into +0.0, so d(0) is I bit for bit
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
    d = small_d(tj / 2.0, beta)
    return np.exp(-1j * alpha * m)[:, None] * d * np.exp(-1j * gamma * m)[None, :]
