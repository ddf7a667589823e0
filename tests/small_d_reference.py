"""Independent small-d evaluators that the tests compare the package against.

``small_d_sum`` is the classical factorial sum

    d_{m m'}(beta) = sum_ell Gamma(j, m, m', ell)
                     cos(beta/2)^(2j + m - m' - 2 ell) sin(beta/2)^(2 ell + m' - m),

term by term in ``math.fsum``, with each coefficient from exact integer
arithmetic (``coeff_square``, ``coeff_exact``) over its own ell range
(``ell_range``).  It alternates in sign and loses roughly one digit per
ten components, so it is a reference up to about 30 components.

``two_path_small_d`` is the package's earlier two-path evaluator: that sum
up to 20 components, and above them the plain complex J_y spectral product
Re(V e^{-i beta lam} V^dag), with no identity split off and V from its own
eigendecomposition of the complex generator (``complex_jy_eig``);
``two_path_small_d_column`` forms one column of it.  It takes neither
``small_d``, the package's real eigenvectors nor the density module's
folded small-d column, so the channel-weight cross-checks compare two
different evaluations.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def ell_range(tj: int, tm: int, tmp: int) -> range:
    """The ell of the factorial sum, where all four factorials of its
    denominator are defined."""
    return range(max(0, (tm - tmp) // 2), min((tj - tmp) // 2, (tj + tm) // 2) + 1)


def coeff_square(tj: int, tm: int, tmp: int, ell: int) -> Fraction:
    """The square of the ell-th small-d summation coefficient, exactly."""
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
    return Fraction(num, den * den)


def coeff_exact(tj: int, tm: int, tmp: int, ell: int) -> float:
    """Signed small-d summation coefficient from its exact square."""
    mag = math.sqrt(float(coeff_square(tj, tm, tmp, ell)))
    return -mag if ell % 2 else mag


def small_d_sum(tj: int, beta: float) -> np.ndarray:
    c = math.cos(0.5 * beta)
    s = math.sin(0.5 * beta)
    dim = tj + 1
    out = np.empty((dim, dim))
    for i1, tm in enumerate(range(tj, -tj - 1, -2)):
        for i2, tmp in enumerate(range(tj, -tj - 1, -2)):
            out[i1, i2] = math.fsum(
                coeff_exact(tj, tm, tmp, ell)
                * c ** (tj + (tm - tmp) // 2 - 2 * ell)
                * s ** (2 * ell + (tmp - tm) // 2)
                for ell in ell_range(tj, tm, tmp)
            )
    return out


def jy_generator(tj: int) -> np.ndarray:
    """The complex J_y matrix at doubled spin tj, rows and columns
    m-descending."""
    m = np.arange(tj, -tj - 1, -2) / 2.0
    lad = np.sqrt((tj / 2.0 - m[1:]) * (tj / 2.0 + m[1:] + 1.0))
    jy = np.zeros((tj + 1, tj + 1), dtype=complex)
    idx = np.arange(tj)
    jy[idx, idx + 1] = -0.5j * lad
    jy[idx + 1, idx] = 0.5j * lad
    return jy


@lru_cache(maxsize=None)
def complex_jy_eig(tj: int) -> tuple[np.ndarray, np.ndarray]:
    """(exact eigenvalues -j..j ascending, complex eigenvectors) of
    ``jy_generator`` by eigh."""
    _, vec = np.linalg.eigh(jy_generator(tj))
    return np.arange(-tj, tj + 1, 2) / 2.0, vec


def two_path_small_d(tj: int, beta: float) -> np.ndarray:
    if tj + 1 <= 20:
        return small_d_sum(tj, beta)
    lam, vec = complex_jy_eig(tj)
    return ((vec * np.exp(-1j * beta * lam)) @ vec.conj().T).real


def two_path_small_d_column(tj: int, beta: float, col: int) -> np.ndarray:
    """Column ``col`` of ``two_path_small_d``; above 20 components one
    matrix-vector product, so no (2j+1)^2 matrix is formed."""
    if tj + 1 <= 20:
        return small_d_sum(tj, beta)[:, col]
    lam, vec = complex_jy_eig(tj)
    return (vec @ (np.exp(-1j * beta * lam) * vec[col].conj())).real
