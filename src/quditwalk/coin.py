"""Wigner rotation matrices used as coin operators.

The coin acting on a (2j+1)-component internal space is the spin-j rotation

    R(alpha, beta, gamma)[m, m'] = exp(-i alpha m) d[m, m'](beta) exp(-i gamma m'),

with d the real Wigner small-d matrix.  Rows and columns are ordered by
descending magnetic number m = j, j-1, ..., -j throughout the package.

Two evaluation paths are provided for d.  For small dimensions the classical
factorial sum is exact enough and fast.  The sum alternates in sign and loses
roughly one digit per ten components, so beyond ``_SPECTRAL_DIM`` components
we instead exponentiate the tridiagonal J_y generator through its
eigendecomposition, which stays unitary to machine precision at any size.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .halfint import HalfInt, walk_index

__all__ = ["EulerAngles", "small_d_coeff", "small_d", "rotation_matrix"]

# Largest dimension 2j+1 handled by the exact-rational coefficient path and
# by the direct factorial sum, respectively.  Above these we switch to
# log-gamma coefficients and to the spectral exponential.
_LOG_DIM = 30
_SPECTRAL_DIM = 20


class EulerAngles(NamedTuple):
    """z-y-z Euler angles of a coin rotation, in radians."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0


def _ell_range(tj: int, tm: int, tmp: int) -> tuple[int, int]:
    lo = max(0, (tm - tmp) // 2)
    hi = min((tj - tmp) // 2, (tj + tm) // 2)
    return lo, hi


def _coeff_exact(tj: int, tm: int, tmp: int, ell: int) -> float:
    """Summation coefficient via exact integer arithmetic."""
    from fractions import Fraction

    num = (
        math.factorial((tj + tm) // 2)
        * math.factorial((tj - tm) // 2)
        * math.factorial((tj + tmp) // 2)
        * math.factorial((tj - tmp) // 2)
    )
    den = (
        math.factorial((tj - tmp) // 2 - ell)
        * math.factorial((tj + tm) // 2 - ell)
        * math.factorial(ell)
        * math.factorial(ell + (tmp - tm) // 2)
    )
    mag = math.sqrt(float(Fraction(num, den * den)))
    return -mag if ell % 2 else mag


def _coeff_log(tj: int, tm: int, tmp: int, ell: int) -> float:
    """Summation coefficient via log-gamma, for dimensions past ``_LOG_DIM``."""
    lg = math.lgamma
    half_num = 0.5 * (
        lg((tj + tm) // 2 + 1)
        + lg((tj - tm) // 2 + 1)
        + lg((tj + tmp) // 2 + 1)
        + lg((tj - tmp) // 2 + 1)
    )
    log_den = (
        lg((tj - tmp) // 2 - ell + 1)
        + lg((tj + tm) // 2 - ell + 1)
        + lg(ell + 1)
        + lg(ell + (tmp - tm) // 2 + 1)
    )
    mag = math.exp(half_num - log_den)
    return -mag if ell % 2 else mag


@lru_cache(maxsize=None)
def _coeff(tj: int, tm: int, tmp: int, ell: int) -> float:
    if tj + 1 <= _LOG_DIM:
        return _coeff_exact(tj, tm, tmp, ell)
    return _coeff_log(tj, tm, tmp, ell)


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
    lo, hi = _ell_range(tj, tm, tmp)
    if not lo <= ell <= hi:
        raise DomainError(f"ell = {ell} outside [{lo}, {hi}]")
    return _coeff(tj, tm, tmp, ell)


def _small_d_sum(tj: int, beta: float) -> np.ndarray:
    c = math.cos(0.5 * beta)
    s = math.sin(0.5 * beta)
    dim = tj + 1
    out = np.empty((dim, dim))
    for i1, tm in enumerate(range(tj, -tj - 1, -2)):
        for i2, tmp in enumerate(range(tj, -tj - 1, -2)):
            lo, hi = _ell_range(tj, tm, tmp)
            out[i1, i2] = math.fsum(
                _coeff(tj, tm, tmp, ell)
                * c ** (tj + (tm - tmp) // 2 - 2 * ell)
                * s ** (2 * ell + (tmp - tm) // 2)
                for ell in range(lo, hi + 1)
            )
    return out


@lru_cache(maxsize=None)
def _jy_eig(tj: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the tridiagonal J_y generator at doubled spin tj.

    Returns (eigenvalues, eigenvector matrix); the eigenvalues are replaced
    by their exact ascending values -j ... j, which eigh only approximates.
    """
    dim = tj + 1
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


def _small_d_spectral(tj: int, beta: float) -> np.ndarray:
    lam, vec = _jy_eig(tj)
    phase = np.exp(-1j * beta * lam)
    return ((vec * phase) @ vec.conj().T).real


def small_d(j, beta: float) -> np.ndarray:
    """Wigner small-d matrix d^j(beta), real, rows and columns m-descending."""
    tj = walk_index(j)
    beta = float(beta)
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta!r}")
    if tj + 1 <= _SPECTRAL_DIM:
        return _small_d_sum(tj, beta)
    return _small_d_spectral(tj, beta)


def rotation_matrix(j, angles) -> np.ndarray:
    """Full coin R(alpha, beta, gamma) = e^{-i alpha J_z} d(beta) e^{-i gamma J_z}."""
    tj = walk_index(j)
    alpha, beta, gamma = (float(a) for a in angles)
    for name, a in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not math.isfinite(a):
            raise DomainError(f"{name} must be finite, got {a!r}")
    m = np.arange(tj, -tj - 1, -2) / 2.0
    d = small_d(tj / 2.0, beta)
    return np.exp(-1j * alpha * m)[:, None] * d * np.exp(-1j * gamma * m)[None, :]
