"""Independent evaluators of the weight matrices M^(j,m)(x).

``grown_top`` grows the matrix half a spin at a time from the two-by-two
j = 1/2 seed

    M^(1/2,1/2)(x) = [[1 - x, tau x e^{i gamma}], [tau x e^{-i gamma}, 1 + x]].

Each half step scales the wedge entries (m1 <= m2, m1 >= -m2) of the matrix
one half spin down by (1 - x) times a ladder factor, and adds the closing
corner M_{-j,j} = 2^(1-2j) f_{2j}(x) e^{-2ij gamma} from ``offdiag_poly``.
The entries off the wedge follow by hermiticity and the reflection
M_{-m2,-m1}(x) = (-1)^(m1+m2+2m) M_{m1,m2}(-x), so the recurrence carries
the matrices at x and -x together.  It uses neither the rank-two support
vectors nor the small-d recurrence of the package's evaluator, so the
tests that compare the two compare different constructions.

``decimal_matrix`` evaluates any channel's matrix for |x| < 1 from the
collapsed entry

    M_{m1 m2}(x) = 2 d_{m1 m}(theta) d_{m2 m}(theta) f_n(x) / (1 - x^2)^(n/2)
                   * e^{-i (m2 - m1) gamma},   n = |m2 - m1|,

with cos(theta) = -x, so cos^2(theta/2) = (1 - x)/2, each small-d the
literal factorial sum and f_n = (1/2)[(tau x + w)^n + (tau x - w)^n],
w^2 = (1 + tau^2) x^2 - 1.  Each factor and each entry's real part
2 d d f_n / (1 - x^2)^(n/2) is formed in ``decimal`` and the entry
rounded to a float once, so a small-d entry below the float range
and an f_n above it meet before either is rounded; the phase multiplies in
floats.  The factorial sums alternate and cancel by up to about
2j log10(2) digits, and so does f_n on the support; off it f_n grows like
an exponential.  So every sum runs in 60 digits plus 2j log10(2)
(``_digits``): 217 at 520 components, where 60 alone leave a small-d
entry off by 1e15.  The package's small-d code takes no part.
"""

import cmath
import decimal
import math
from decimal import Decimal
from functools import lru_cache

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


def _digits(tj: int) -> int:
    """Working digits at doubled spin tj: 60 beyond what the alternating
    sums cancel."""
    return 60 + math.ceil(tj * math.log10(2))


def _powers(base: Decimal, top: int) -> list[Decimal]:
    """[base^0, ..., base^top] by repeated products (Decimal refuses 0^0)."""
    out = [Decimal(1)]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _small_d_decimal(tj: int, tm: int, tmp: int, cp: list[Decimal], sp: list[Decimal]) -> Decimal:
    """d_{m m'} as the factorial sum, term by term, given the powers
    cp[k] = cos(theta/2)^k and sp[k] = sin(theta/2)^k.  Each term's
    factorial ratio is the previous one's times a ratio of small integers."""
    f = math.factorial
    jm, jmm = (tj + tm) // 2, (tj - tm) // 2
    jp, jmp = (tj + tmp) // 2, (tj - tmp) // 2
    shift = (tmp - tm) // 2
    lo, hi = max(0, -shift), min(jmp, jm)
    # sqrt((j+m)! (j-m)! (j+m')! (j-m')!) / [(j-m'-l)! (j+m-l)! l! (l+m'-m)!] at l = lo
    ratio = Decimal(f(jm) * f(jmm) * f(jp) * f(jmp)).sqrt() / (
        f(jmp - lo) * f(jm - lo) * f(lo) * f(lo + shift)
    )
    total = Decimal(0)
    for ell in range(lo, hi + 1):
        term = ratio * cp[tj - shift - 2 * ell] * sp[2 * ell + shift]
        total += -term if ell % 2 else term
        ratio = ratio * ((jmp - ell) * (jm - ell)) / ((ell + 1) * (ell + 1 + shift))
    return total


@lru_cache(maxsize=64)
def _decimal_column(tj: int, tm: int, x: float) -> tuple[Decimal, ...]:
    """d_{m_i m}(theta), cos(theta) = -x, for every component i, in
    ``_digits`` digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = _digits(tj)
        dx = Decimal(x)
        cp = _powers(((1 - dx) / 2).sqrt(), tj)
        sp = _powers(((1 + dx) / 2).sqrt(), tj)
        return tuple(_small_d_decimal(tj, tj - 2 * i, tm, cp, sp) for i in range(tj + 1))


def decimal_column(tj: int, tm: int, x: float) -> np.ndarray:
    """``_decimal_column`` rounded to floats: column c = j - m of
    d^j(theta) at cos(theta) = -x."""
    return np.array([float(v) for v in _decimal_column(tj, tm, float(x))])


@lru_cache(maxsize=64)
def _decimal_offdiag(tj: int, x: float, beta: float) -> tuple[Decimal, ...]:
    """F_n = f_n(x) / (1 - x^2)^(n/2) for n = 0..tj, in ``_digits``
    digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = _digits(tj)
        dx, tau = Decimal(x), Decimal(math.tan(0.5 * beta))
        # odd powers of w cancel, so f_n is a sum over even ones; q < 0 on
        # the support, where w is imaginary
        up = _powers(tau * dx, tj)
        qp = _powers((1 + tau * tau) * dx * dx - 1, tj // 2)
        rp = _powers((1 - dx * dx).sqrt(), tj)
        return tuple(
            sum(math.comb(n, 2 * k) * up[n - 2 * k] * qp[k] for k in range(n // 2 + 1)) / rp[n]
            for n in range(tj + 1)
        )


@lru_cache(maxsize=64)
def _decimal_real(tj: int, tm: int, x: float, beta: float) -> np.ndarray:
    """2 d_a d_b F_|a-b| for every entry, each product in 60 digits and
    rounded to a float once, so that a factor past the float range meets
    its partner before it is rounded; read-only, since the cache shares it."""
    d = _decimal_column(tj, tm, x)
    f = _decimal_offdiag(tj, x, beta)
    out = np.empty((tj + 1, tj + 1))
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for a in range(tj + 1):
            twice = 2 * d[a]
            out[a, a:] = [float(twice * d[b] * f[b - a]) for b in range(a, tj + 1)]
    out = np.triu(out) + np.triu(out, 1).T
    out.setflags(write=False)
    return out


def decimal_matrix(tj: int, tm: int, x: float, beta: float, gamma: float = 0.0) -> np.ndarray:
    """M^(j,m)(x) at doubled spin tj and doubled channel tm, for |x| < 1,
    with tau = tan(beta/2) rounded to a float as the package rounds it.
    The real part of each entry is cached per point and channel, so other
    gammas reuse it; the phase e^{-i (m2 - m1) gamma} multiplies in floats."""
    x, beta = float(x), float(beta)
    n = np.subtract.outer(np.arange(tj + 1), np.arange(tj + 1))  # m2 - m1 = i1 - i2
    return _decimal_real(tj, tm, x, beta) * np.exp(-1j * n * gamma)
