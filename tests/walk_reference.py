"""Independent position-major walk that the tests compare the package against.

``reference_evolve`` keeps the amplitudes as a (positions x channels) array
and allocates a fresh one at every step: the coin product ``amps @ coin.T``,
then each channel written as a strided column of a zeroed array one shift
longer.  ``reference_distribution`` sums ``|amps|**2`` across the channels of
that contiguous array.  Neither touches the package's channel-major buffer
or its step kernel, nor its coin: ``exact_coin`` takes each entry from
60-digit decimals -- the factorial-sum small-d of ``weight_reference`` and
the phases from their Taylor series -- rounded to a float once, so over
1000 steps the oracle carries no coin rounding for the walk to be held to.
"""

import decimal
from decimal import Decimal
from functools import lru_cache

import numpy as np

from weight_reference import _powers, _small_d_decimal

PREC = 60


def _cos_sin(theta: Decimal) -> tuple[Decimal, Decimal]:
    """(cos theta, sin theta) from their Taylor series to ``PREC`` digits.
    The largest term is about e^|theta|, so the sum carries that many more
    digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = PREC + 10 + int(abs(theta) / 2)
        cos, sin, term, k = Decimal(0), Decimal(0), Decimal(1), 0
        # term = theta^k / k!, its sign set by the k mod 4 cycle
        while k <= abs(theta) or abs(term) > Decimal(10) ** -(PREC + 5):
            if k % 2:
                sin += term if k % 4 == 1 else -term
            else:
                cos += term if k % 4 == 0 else -term
            k += 1
            term = term * theta / k
        return +cos, +sin


@lru_cache(maxsize=32)
def exact_coin(tj: int, angles: tuple[float, float, float]) -> np.ndarray:
    """R(alpha, beta, gamma) = e^{-i alpha J_z} d(beta) e^{-i gamma J_z} at
    doubled spin tj, rows and columns in m-descending order, each entry's
    real and imaginary part rounded once from ``PREC`` digits; read-only,
    since the cache shares it per (2j, angles)."""
    alpha, beta, gamma = (Decimal(float(a)) for a in angles)
    with decimal.localcontext() as ctx:
        ctx.prec = PREC
        c, s = _cos_sin(beta / 2)
        cp, sp = _powers(c, tj), _powers(s, tj)
        # e^{-i angle m} for m = j - i, as (cos, -sin)
        rows = [_cos_sin(alpha * (tj - 2 * i) / 2) for i in range(tj + 1)]
        cols = [_cos_sin(gamma * (tj - 2 * k) / 2) for k in range(tj + 1)]
        coin = np.empty((tj + 1, tj + 1), dtype=complex)
        for i, (ca, sa) in enumerate(rows):
            for k, (cg, sg) in enumerate(cols):
                d = _small_d_decimal(tj, tj - 2 * i, tj - 2 * k, cp, sp)
                coin[i, k] = complex(float(d * (ca * cg - sa * sg)), float(-d * (sa * cg + ca * sg)))
    coin.setflags(write=False)
    return coin


def reference_step(amps: np.ndarray, coin: np.ndarray) -> np.ndarray:
    """One step of a position-major field: row s is position lo + 2s."""
    n, dim = amps.shape
    mixed = amps @ coin.T
    out = np.zeros((n + dim - 1, dim), dtype=complex)
    for i in range(dim):
        # channel i carries m = j - i and shifts by -(tj - 2i) sites
        out[i : i + n, i] = mixed[:, i]
    return out


def reference_evolve(qudit, angles, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes after t steps from the origin with ``exact_coin``, and the
    positions of their rows."""
    coin = exact_coin(qudit.tj, tuple(float(a) for a in angles))
    amps = qudit.amplitudes[None, :].copy()
    for _ in range(t):
        amps = reference_step(amps, coin)
    return amps, -qudit.tj * t + 2 * np.arange(amps.shape[0])


def reference_distribution(amps: np.ndarray) -> np.ndarray:
    """Probability of each position row."""
    return (np.abs(amps) ** 2).sum(axis=1)
