"""Independent evaluator of the top-channel weight matrix M^(j,j)(x).

``grown_top`` grows the matrix half a spin at a time from the two-by-two
j = 1/2 seed

    M^(1/2,1/2)(x) = [[1 - x, tau x e^{i gamma}], [tau x e^{-i gamma}, 1 + x]].

Each half step scales the wedge entries (m1 <= m2, m1 >= -m2) of the matrix
one half spin down by (1 - x) times a ladder factor, and adds the closing
corner M_{-j,j} = 2^(1-2j) f_{2j}(x) e^{-2ij gamma} from ``offdiag_poly``.
The entries off the wedge follow by hermiticity and the reflection
M_{-m2,-m1}(x) = (-1)^(m1+m2+2m) M_{m1,m2}(-x), so the recurrence carries
the matrices at x and -x together.  It uses neither the rank-two support
vectors nor the wedge polynomial tables of the package's evaluator, so the
tests that compare the two compare different constructions.
"""

import cmath
import math

import numpy as np

from quditwalk.density import offdiag_poly


def _wedge(tj: int):
    """Lower-triangle positions (rows >= cols) and which of them lie off
    the wedge (rows + cols > tj, m1 < -m2)."""
    rows, cols = np.tril_indices(tj + 1)
    return rows, cols, rows + cols > tj


def _lift(tj: int, prev: np.ndarray, x: float, tau: float, gamma: float) -> np.ndarray:
    """Wedge of M^(j,j) at doubled spin tj from the full matrix one half
    step down, evaluated at the same point."""
    rows, cols, mirror = _wedge(tj)
    # the wedge entries but the corner: m1 = -j there forces m2 = j
    keep = ~mirror & (rows < tj)
    r, c = rows[keep], cols[keep]
    top = np.zeros((tj + 1, tj + 1), dtype=complex)
    top[r, c] = tj / np.sqrt(4 * (tj - r) * (tj - c)) * (1.0 - x) * prev[r, c]
    top[tj, 0] = 2.0 ** (1 - tj) * offdiag_poly(tj, tau, x) * cmath.exp(-1j * tj * gamma)
    return top


def _complete(tj: int, top_x: np.ndarray, top_mx: np.ndarray) -> np.ndarray:
    """Fill a full matrix from its wedge at x and the wedge at -x."""
    rows, cols, mirror = _wedge(tj)
    r, c = rows[mirror], cols[mirror]
    # (-1)^(m1+m2+2m) at m = j, with m = j - index
    sign = np.where((r + c) % 2 == 1, -1.0, 1.0)
    ent = top_x.copy()
    ent[r, c] = sign * top_mx[tj - c, tj - r]
    iu = np.triu_indices(tj + 1, 1)
    ent[iu] = np.conj(ent.T[iu])
    return ent


def grown_top(tj: int, x: float, beta: float, gamma: float = 0.0) -> np.ndarray:
    """M^(j,j)(x) at doubled spin tj, grown from the j = 1/2 seed."""
    tau = math.tan(0.5 * beta)
    ph = cmath.exp(1j * gamma)

    def seed(y):
        return np.array([[1.0 - y, tau * y * ph], [tau * y * ph.conjugate(), 1.0 + y]])

    p, q = seed(x), seed(-x)
    for tjj in range(2, tj + 1):
        tp = _lift(tjj, p, x, tau, gamma)
        tq = _lift(tjj, q, -x, tau, gamma)
        p, q = _complete(tjj, tp, tq), _complete(tjj, tq, tp)
    return p
