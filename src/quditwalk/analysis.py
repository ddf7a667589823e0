"""Large-j structure of the limit densities.

Everything here is for the fixed symmetric setup alpha = gamma = 0 with the
endpoint state (q, 0, ..., 0, conj(q)), q = (1+i)/2.  As j grows the limit
density flattens between its pikes and turns concave down at the origin;
the operations below quantify that: the closed-form second derivative at
v = 0, the j beyond which it stays negative, the weight each channel puts
on its own pike (whose zeros wipe the interior pikes out), and the
rescaling to the fixed support (-1, 1).
"""

from __future__ import annotations

import decimal
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import DegenerateSpecError, DomainError
from .halfint import HalfInt, _weight_indices, doubled_channels, walk_index

if TYPE_CHECKING:
    import numpy as np

    from .density import LimitSpec

# The closed forms (curvature, critical j, pike weights, zero region) need
# only math and decimal; numpy and the density code are imported by the
# functions that use them, so the CLI's closed-form scans never load them.

__all__ = [
    "curvature_at_origin",
    "ConvexityReport",
    "critical_j",
    "pike_weight",
    "pike_weight_paths",
    "pike_zero_region",
    "pike_weight_scaled",
    "rescaled_density",
]


def _require_curvature_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 < beta < math.pi:
        raise DomainError(f"curvature needs beta in (0, pi), got {beta!r}")
    return beta


def _curvature(tj: int, beta: float, row: list[int]) -> float:
    """``curvature_at_origin`` at doubled spin tj, with ``row`` the exact
    binomial row C(tj, k), k = 0..tj."""
    a = math.cos(0.5 * beta)
    inv2 = 1.0 / (a * a)
    den = 2 ** (tj - 1)
    # one integer ratio: the binomial and 2^(2j-1) leave float range alone
    terms = [
        (2.0 + inv2 + (tm * tm - tj)) * (row[(tj + tm) // 2] / den) / tm**3
        for tm in doubled_channels(tj)
    ]
    return math.sin(0.5 * beta) / (math.pi * a) * math.fsum(terms)


def curvature_at_origin(j, beta: float) -> float:
    """Second derivative of the limit density at v = 0, in closed form."""
    tj = walk_index(j)
    beta = _require_curvature_beta(beta)
    row = [1]
    for k in range(tj):
        row.append(row[-1] * (tj - k) // (k + 1))
    return _curvature(tj, beta, row)


@dataclass(frozen=True)
class ConvexityReport:
    """Curvatures at the origin over a range of j at fixed beta.

    ``j_critical`` is the smallest tested j from which the curvature stays
    negative through the end of the tested range, or None if the last row
    is still nonnegative.
    """

    beta: float
    rows: tuple
    j_critical: HalfInt | None


def critical_j(beta: float, j_max) -> ConvexityReport:
    """``curvature_at_origin`` at every j from 1/2 to ``j_max``.

    Each spin's binomial row is the previous one's Pascal sum, exact in
    integers, so the rows cost O(j_max^2) big-integer additions and every
    curvature equals ``curvature_at_origin``'s bit for bit.
    """
    tmax = walk_index(j_max)
    beta = _require_curvature_beta(beta)
    rows = []
    row = [1]
    for tj in range(1, tmax + 1):
        row = [1, *map(operator.add, row[:-1], row[1:]), 1]
        rows.append((HalfInt(tj), _curvature(tj, beta, row)))
    jc = None
    for jv, d2 in reversed(rows):
        if d2 < 0.0:
            jc = jv
        else:
            break
    return ConvexityReport(float(beta), tuple(rows), jc)


def _pike_indices(j, m) -> tuple[int, int]:
    tj, tm = _weight_indices(j, m)
    if tm == 0:
        raise DomainError(f"channel m = {HalfInt(tm)} invalid for j = {HalfInt(tj)}")
    return tj, tm


@lru_cache(maxsize=64)
def _half_angle(beta: float) -> tuple[decimal.Decimal, decimal.Decimal]:
    """(sin(beta/2), cos(beta/2)) of the float beta as 40-digit decimals,
    from their Taylor series.  math.sin and math.cos round to half an ulp,
    which the powers in ``pike_weight`` would raise up to 2j-fold."""
    with decimal.localcontext(decimal.Context(prec=40)):
        x = decimal.Decimal(beta) / 2
        sin, cos, term, k = decimal.Decimal(0), decimal.Decimal(0), decimal.Decimal(1), 0
        # term = x^k / k!, its sign set by the k mod 4 cycle; x <= pi/2
        while term > decimal.Decimal("1e-45"):
            if k % 2:
                sin += term if k % 4 == 1 else -term
            else:
                cos += term if k % 4 == 0 else -term
            k += 1
            term = term * x / k
        return sin, cos


def pike_weight(j, beta: float, m) -> float:
    """Channel weight at its own pike x = cos(beta/2).

    The alternating double sum defining it splits under a parity projector
    into two same-sign products, so this form has no cancellation and is
    safe out to thousands of components:

        C(2j, j+m) 2^(-2j) [(1-c)^(j+m) (1+c)^(j-m) + (1+c)^(j+m) (1-c)^(j-m)]

    Its factors leave float range from 2j+1 ~ 1030 on, so the product,
    as (b^2)^(j-m) [(1-c)^2m + (1+c)^2m] with b = sin(beta/2) and
    (1-c)(1+c) = b^2, is formed in 34-digit decimal and rounded to float
    once, with b and c from ``_half_angle`` and 1 - c as b^2/(1+c), which
    keeps its digits at small beta.
    """
    tj, tm = _pike_indices(j, m)
    beta = float(beta)
    if not 0.0 <= beta <= math.pi:
        raise DomainError(f"pike weights need beta in [0, pi], got {beta!r}")
    p = (tj + tm) // 2
    q = (tj - tm) // 2
    with decimal.localcontext(decimal.Context(prec=34)):
        b, c = _half_angle(beta)
        hi = 1 + c
        lo = b * b / hi
        pair = (b * b) ** q if q else 1  # decimal refuses 0^0 (beta = 0)
        return float(math.comb(tj, p) * pair * (lo ** (p - q) + hi ** (p - q)) / 2**tj)


@lru_cache(maxsize=8)
def _sym_qudit(tj: int):
    """The "paper-sym" preset qudit at doubled spin tj, built once per size
    for every channel's ``pike_weight_paths``, with read-only amplitudes."""
    from .qudit import preset_qudit

    qudit = preset_qudit("paper-sym", HalfInt(tj))
    qudit.amplitudes.setflags(write=False)
    return qudit


def pike_weight_paths(j, beta: float, m) -> tuple[float, float]:
    """(closed form, weight-matrix quadratic form) for the pike weight.

    The second path contracts the weight matrix at x = cos(beta/2) with
    the symmetric endpoint state; the gap between the two numbers is a live
    accuracy estimate for the matrix machinery.  The state, built once per
    size (``_sym_qudit``), has two nonzero components, so on the support
    the form reads only the matrix's 2x2 block on them
    (``density._support_block``), each entry and the contraction bit for
    bit those of ``weight_scalar`` on the full matrix, from two entries of
    the channel's column of the coin's d^j(alpha) at the pike; a pike
    point more than a few ulps off the support takes the full matrix from
    the off-support small-d recurrence and ``weight_scalar``.  Every
    channel at the pike reads one d^j(alpha) and one Toeplitz factor,
    built once per point (``density._point_factors``).
    """
    import numpy as np

    from .density import _support_block, weight_matrix_direct, weight_scalar

    tj, tm = _pike_indices(j, m)
    closed = pike_weight(j, beta, m)
    x = math.cos(0.5 * float(beta))
    qudit = _sym_qudit(tj)
    rows = np.flatnonzero(qudit.amplitudes)
    block = _support_block(tj, tm, x, beta, 0.0, rows)
    if block is None:
        mat = weight_matrix_direct(HalfInt(tj), HalfInt(tm), x, beta, 0.0)
        return closed, weight_scalar(mat, qudit)
    q = qudit.amplitudes[rows]
    return closed, complex(np.conj(q) @ block @ q).real


def pike_zero_region(j, beta: float, threshold: float = 1e-8) -> tuple[HalfInt, ...]:
    """Contiguous run of small channels whose pike weight is below threshold.

    Scans m upward from the smallest channel and stops at the first weight
    at or above threshold; an empty tuple means even the innermost pike
    survives.  A nan threshold raises DomainError: no weight compares
    below it, so it would report an empty region.
    """
    tj = walk_index(j)
    if math.isnan(threshold):
        raise DomainError("the zero-region threshold must not be nan")
    run = []
    for tm in doubled_channels(tj):
        if abs(pike_weight(HalfInt(tj), beta, HalfInt(tm))) < threshold:
            run.append(HalfInt(tm))
        else:
            break
    return tuple(run)


def pike_weight_scaled(j, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Pike weights on the j-independent axis: (m / sigma, sigma * H(m))
    with sigma = sqrt(2) j.  On this scale the region where the weights are
    appreciably nonzero stops moving as j grows."""
    import numpy as np

    tj = walk_index(j)
    sigma = tj / math.sqrt(2.0)
    tms = np.array(doubled_channels(tj))
    h = np.array([pike_weight(HalfInt(tj), beta, HalfInt(int(tm))) for tm in tms])
    return tms / (2.0 * sigma), sigma * h


def rescaled_density(spec: LimitSpec, u):
    """Continuous limit density of the rescaled pseudovelocity
    X_t / (2 j a t), supported in (-1, 1); a nan u raises DomainError."""
    import numpy as np

    from .density import continuous_density

    a = spec.a
    if a == 0.0:
        raise DegenerateSpecError("support collapses at a = 0; nothing to rescale")
    s = spec.tj * a
    return s * continuous_density(spec, s * np.asarray(u, dtype=float))
