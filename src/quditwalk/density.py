"""Exact pseudovelocity limit densities of the walk.

As t grows, X_t / t converges weakly to a fixed law: a sum over channels
m = j, j-1, ..., (>0) of Konno arcsine-type densities stretched to the
interval (-2m a, 2m a) with a = cos(beta/2), each weighted by a polynomial
that depends on the initial qudit, plus (when the number of components is
odd) a point mass at the origin.  The channel weight is a quadratic form
phi0^dag M^(j,m)(x) phi0 in a hermitian matrix whose entries this module
evaluates pointwise.

The defining double alternating sum over ladder indices factorizes: each
single sum is a Wigner small-d entry at the tilted angle arccos(-x), so on
a channel's own support (|x| <= cos(beta/2)) the entry collapses to

    M_{m1 m2}(x) = 2 d_{m1 m}(arccos(-x)) d_{m2 m}(arccos(-x))
                   * cos((m2 - m1) phi) e^{-i (m2 - m1) gamma},

with phi the phase of tau*x + i*sqrt(1 - (1+tau^2) x^2).  Every factor is
bounded, nothing cancels at any j, and the full matrix is a rank-two sum
M = v1 v1^dag + v2 v2^dag of outer products -- so positive semidefiniteness
holds to rounding.  The channel weight there is |v1^dag phi0|^2 +
|v2^dag phi0|^2: one batched evaluator (``_support_vectors``) forms the two
vectors for a whole block of points in one (points x 2j+1) product, and
serves both the density quadratures and ``weight_matrix_direct``.

Off the support the same collapse holds with cos turned into a growing
exponential that amplifies the small-d rounding floor at large j, so there
entries instead go through a factored polynomial in rho = (1+x)/(1-x)
whose coefficients never cancel when formed; the one remaining alternating
Horner recursion runs in extended precision and its conditioning is
reported via ``cancellation``.  Points with |x| essentially 1 (beyond
``_EDGE``, which quadrature nodes reach only for beta of order 1e-3) are
summed term by term, which is exact at x = +-1.  This wedge route is the
fallback for every point the rank-two evaluator does not take: entries are
computed on the wedge m1 <= m2, m1 >= -m2 and spread by hermiticity and the
reflection symmetry M_{-m2,-m1}(x) = (-1)^{m1+m2+2m} M_{m1,m2}(-x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .coin import _coeff, _ell_range, _jy_eig
from .errors import DegenerateSpecError, DomainError
from .halfint import HalfInt, walk_index
from .qudit import Qudit

__all__ = [
    "konno_density",
    "offdiag_poly",
    "WeightMatrix",
    "weight_matrix_direct",
    "weight_matrix_top",
    "weight_matrix_second",
    "weight_scalar",
    "LimitSpec",
    "continuous_density",
    "limit_moment",
    "delta_mass",
    "limit_bin_masses",
]

# Points with |x| at or beyond this are evaluated term by term instead of
# through the rho = (1+x)/(1-x) factorization, which needs |x| bounded away
# from 1.  Quadrature nodes never get here; direct matrix evaluation can.
_EDGE = 0.999999

# Gauss-Legendre orders: moments use one rule across a channel's support,
# bin masses use a short rule per (bin, channel) slice.
_GL_ORDER = 200
_BIN_ORDER = 24

# Points per batch of the on-support evaluator.  Its work arrays grow as
# points x 2j+1, so a fixed block keeps memory flat when bin masses send a
# channel's whole (slices x _BIN_ORDER) node set in one call.
_BLOCK = 1024


def konno_density(x, a: float):
    """Konno's density sqrt(1-a^2) / [pi (1-x^2) sqrt(a^2-x^2)] on |x| < |a|.

    Zero outside the open support, including at the (divergent) endpoints.
    """
    a = float(a)
    if not abs(a) <= 1.0:
        raise DomainError(f"need |a| <= 1, got {a!r}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    x1 = np.atleast_1d(arr)
    out = np.zeros(x1.shape)
    inside = np.abs(x1) < abs(a)
    if inside.any():
        xi = x1[inside]
        out[inside] = math.sqrt(1.0 - a * a) / (
            math.pi * (1.0 - xi * xi) * np.sqrt(a * a - xi * xi)
        )
    return float(out[0]) if scalar else out


def offdiag_poly(order: int, tau: float, x):
    """Degree-``order`` polynomial factor of entries ``order`` places off
    the diagonal, for tau = tan(beta/2).

    The defining triple binomial sum collapses to

        (1/2) [(tau x + w)^order + (tau x - w)^order],
        w = sqrt((1 + tau^2) x^2 - 1),

    which for (1+tau^2) x^2 <= 1 (all of a channel's support) is the real
    oscillation (1-x^2)^(order/2) cos(order * phi) with
    phi = atan2(sqrt(1 - (1+tau^2) x^2), tau x).  Both branches are stable;
    the expanded coefficients would cancel catastrophically by order ~ 30.
    Odd orders give odd functions of x and even orders even ones, exactly.
    """
    if order != int(order) or order < 0:
        raise DomainError(f"order must be a nonnegative integer, got {order!r}")
    order = int(order)
    tau = float(tau)
    if not math.isfinite(tau):
        raise DomainError(f"tau must be finite, got {tau!r}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    x1 = np.atleast_1d(arr)
    ax = np.abs(x1)
    out = np.empty(ax.shape)
    disc = (1.0 + tau * tau) * ax * ax
    trig = disc <= 1.0
    if trig.any():
        xt = ax[trig]
        s = np.sqrt(np.maximum(1.0 - disc[trig], 0.0))
        phi = np.arctan2(s, tau * xt)
        out[trig] = np.power(1.0 - xt * xt, 0.5 * order) * np.cos(order * phi)
    hyp = ~trig
    if hyp.any():
        xh = ax[hyp]
        w = np.sqrt(disc[hyp] - 1.0)
        u = tau * xh + w
        # tau x - w = (1 - x^2)/u avoids subtracting nearby quantities
        out[hyp] = 0.5 * (u**order + ((1.0 - xh * xh) / u) ** order)
    if order % 2:
        out = np.where(x1 < 0.0, -out, out)
    return float(out[0]) if scalar else out


@lru_cache(maxsize=65536)
def _gamma_vec(tj: int, tm1: int, tm: int):
    """Ladder coefficients Gamma(j, m1, m, ell) over the valid ell range."""
    lo, hi = _ell_range(tj, tm1, tm)
    vals = np.array([_coeff(tj, tm1, tm, ell) for ell in range(lo, hi + 1)])
    vals.setflags(write=False)
    return lo, vals


class _EntryTable(NamedTuple):
    order: int  # m2 - m1, the off-diagonal distance
    p1: int  # power of (1 - x) in front of the rho polynomial
    p2: int  # power of (1 + x)
    poly: tuple  # coefficients in rho, ascending, alternating in sign
    absx: tuple  # their absolute values, for conditioning estimates
    scale: float  # 2^(1-2j)


@lru_cache(maxsize=65536)
def _entry_table(tj: int, tm: int, tm1: int, tm2: int) -> _EntryTable:
    l1, g1 = _gamma_vec(tj, tm1, tm)
    l2, g2 = _gamma_vec(tj, tm2, tm)
    # Terms of the clashing double sum with equal ell1+ell2 all share one
    # sign, so convolving in floats is safe.
    conv = np.convolve(g1, g2)
    a0 = tj - (tm - tm1) // 2
    b0 = (tm - tm2) // 2
    return _EntryTable(
        order=(tm2 - tm1) // 2,
        p1=a0 - l1 - l2,
        p2=b0 + l1 + l2,
        poly=tuple(float(c) for c in conv),
        absx=tuple(abs(float(c)) for c in conv),
        scale=2.0 ** (1 - tj),
    )


def _on_support(x, tau: float):
    """Points the rank-two evaluator takes: inside the channel support
    (1+tau^2) x^2 <= 1 and short of the |x| >= _EDGE term-by-term route."""
    return (np.abs(x) < _EDGE) & ((1.0 + tau * tau) * x * x <= 1.0)


def _support_vectors(tj, tm, x, tau, gamma, rows):
    """The two vectors of M^(j,m)(x) = v1 v1^dag + v2 v2^dag at each point.

    For a 1-D array of points on the channel support, returns v1 and v2 as
    (points, len(rows)) arrays holding only the components ``rows`` (indices
    i in m-descending order, m_i = j - i):

        v1_i = d_{m_i m}(arccos(-x)) e^{-i m_i (phi - gamma)},
        v2_i = d_{m_i m}(arccos(-x)) e^{+i m_i (phi + gamma)},

    each up to a phase common to the whole vector, which v v^dag drops.
    This reproduces the collapsed entry 2 d1 d2 cos((m2-m1) phi)
    e^{-i (m2-m1) gamma}.  The small-d column comes from the J_y spectrum,

        d_{m_i m}(angle) = Re sum_k e^{-i angle lam_k} vec[i, k] conj(vec[col, k]),

    whose eigenvalues lam = -j..j pair up as +-lam (columns k and 2j-k), so
    each pair's real part is cos(angle lam) (Re c+ + Re c-) + sin(angle lam)
    (Im c+ - Im c-): one real product over the lam > 0 half.
    """
    lam, vec = _jy_eig(tj)
    coef = vec[rows] * np.conj(vec[(tj - tm) // 2])
    npos = (tj + 1) // 2  # eigenvalues above zero; an odd dimension adds lam = 0
    plus = coef[:, tj + 1 - npos :]
    minus = coef[:, npos - 1 :: -1]
    ang = np.multiply.outer(np.arccos(-x), lam[tj + 1 - npos :])
    dd = np.cos(ang) @ (plus.real + minus.real).T + np.sin(ang) @ (plus.imag - minus.imag).T
    if tj % 2 == 0:
        dd += coef[:, tj // 2].real
    phi = np.arctan2(np.sqrt(np.maximum(1.0 - (1.0 + tau * tau) * x * x, 0.0)), tau * x)
    turn = np.exp(1j * np.multiply.outer(phi, rows))
    tilt = np.exp(-1j * gamma * np.asarray(rows))
    return dd * turn * tilt, dd * np.conj(turn) * tilt


def _top_values(tj, tm, tm1, tm2, x, tau, gamma):
    """One wedge entry M_{m1 m2} of M^(j,m) on a 1-D array of points that
    lie off the channel support or at |x| >= _EDGE.

    Returns (values, cancel): cancel is the worst ratio between the
    absolute-value sum and the net alternating sum, and a value near 10^10
    or above means the entry has shed that many digits.
    """
    x = np.asarray(x, dtype=float)
    real = np.empty(x.shape, dtype=float)
    worst = 1.0
    edge = np.abs(x) >= _EDGE
    far = ~edge
    order = (tm2 - tm1) // 2
    tab = _entry_table(tj, tm, tm1, tm2)
    if far.any():
        xs = x[far].astype(np.longdouble)
        rho = (1.0 + xs) / (1.0 - xs)
        acc = np.full(xs.shape, tab.poly[-1], dtype=np.longdouble)
        aac = np.full(xs.shape, tab.absx[-1], dtype=np.longdouble)
        for c, ac in zip(tab.poly[-2::-1], tab.absx[-2::-1]):
            acc = acc * rho + c
            aac = aac * rho + ac
        pref = (1.0 - xs) ** tab.p1 * (1.0 + xs) ** tab.p2
        real[far] = (pref * acc).astype(float) * (
            tab.scale * offdiag_poly(order, tau, x[far])
        )
        denom = np.maximum(np.abs(acc), aac * np.longdouble(1e-30))
        ratio = np.where(aac > 0, aac / np.maximum(denom, np.longdouble(1e-300)), 1.0)
        worst = max(worst, float(ratio.max()))
    for k in np.flatnonzero(edge):
        xe = float(x[k])
        terms = [
            c * (1.0 - xe) ** (tab.p1 - u) * (1.0 + xe) ** (tab.p2 + u)
            for u, c in enumerate(tab.poly)
        ]
        val = math.fsum(terms)
        real[k] = val * tab.scale * offdiag_poly(order, tau, xe)
        sabs = math.fsum(abs(t) for t in terms)
        if sabs > 0.0:
            worst = max(worst, sabs / max(abs(val), sabs * 1e-30))
    phase = complex(np.exp(-1j * order * gamma))
    return real * phase, worst


def _reflect_sign(tm1: int, tm2: int, tm: int) -> float:
    return -1.0 if ((tm1 + tm2) // 2 + tm) % 2 else 1.0


def _wedge_block(tj, tm, x, tau, gamma, rows):
    """M^(j,m) on the components ``rows`` x ``rows`` at each point of a 1-D
    array, for points that ``_on_support`` rejects.

    Each entry with m1 <= m2 comes from the wedge (m1 >= -m2 directly, the
    rest by reflection through -x); the others follow by hermiticity.
    Returns (entries of shape (points, len(rows), len(rows)), worst
    cancellation ratio met).
    """
    n = len(rows)
    ent = np.empty((x.size, n, n), dtype=complex)
    worst = 1.0
    for a in range(n):
        tm1 = tj - 2 * int(rows[a])
        for b in range(a + 1):
            tm2 = tj - 2 * int(rows[b])
            if tm1 >= -tm2:
                vals, c = _top_values(tj, tm, tm1, tm2, x, tau, gamma)
            else:
                vals, c = _top_values(tj, tm, -tm2, -tm1, -x, tau, gamma)
                vals = _reflect_sign(tm1, tm2, tm) * vals
            ent[:, b, a] = np.conj(vals)
            ent[:, a, b] = vals
            worst = max(worst, c)
    return ent, worst


def _require_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 <= beta < math.pi:
        raise DomainError(
            f"weight matrices need beta in [0, pi), got {beta!r}"
        )
    return math.tan(0.5 * beta)


@dataclass(frozen=True)
class WeightMatrix:
    """Hermitian channel-weight matrix M^(j,m) evaluated at one point x.

    ``cancellation`` carries the worst alternating-sum conditioning ratio
    met while assembling entries.  It stays 1.0 wherever none occurs: on
    the recurrence path, and on the channel support |x| <= cos(beta/2),
    where the rank-two evaluation is cancellation-free.  Off the
    support, results with ratios beyond ~1e10 should not be trusted to
    more than a few digits.
    """

    tj: int
    tm: int
    x: float
    beta: float
    gamma: float
    entries: np.ndarray
    cancellation: float = 1.0

    @property
    def j(self) -> HalfInt:
        return HalfInt(self.tj)

    @property
    def m(self) -> HalfInt:
        return HalfInt(self.tm)

    @property
    def dim(self) -> int:
        return self.tj + 1


def _weight_indices(j, m) -> tuple[int, int]:
    tj = walk_index(j)
    tm = HalfInt.parse(m).doubled
    if tm < 0 or tm > tj or (tj - tm) % 2 != 0:
        raise DomainError(f"channel m = {HalfInt(tm)} invalid for j = {HalfInt(tj)}")
    return tj, tm


def weight_matrix_direct(j, m, x, beta, gamma=0.0) -> WeightMatrix:
    """Evaluate M^(j,m)(x) from the defining sum, collapsed per regime.

    On the channel support the whole matrix is assembled at once as a sum
    of two outer products; elsewhere entries are evaluated one at a time on
    the wedge and spread by symmetry.  Accepts m = 0 so the m = j-1
    recurrence can be cross-checked at j = 1, although the density itself
    only sums channels with m > 0.
    """
    tj, tm = _weight_indices(j, m)
    tau = _require_beta(beta)
    gamma = float(gamma)
    x = float(x)
    xs = np.array([x])
    rows = np.arange(tj + 1)
    if _on_support(xs, tau)[0]:
        # rank-two assembly: exactly hermitian and PSD
        v1, v2 = (v[0] for v in _support_vectors(tj, tm, xs, tau, gamma, rows))
        ent = np.outer(v1, np.conj(v1)) + np.outer(v2, np.conj(v2))
        return WeightMatrix(tj, tm, x, float(beta), gamma, ent)
    ent, worst = _wedge_block(tj, tm, xs, tau, gamma, rows)
    return WeightMatrix(tj, tm, x, float(beta), gamma, ent[0], worst)


def _base_matrix(x: float, tau: float, gamma: float) -> np.ndarray:
    ph = complex(np.exp(1j * gamma))
    return np.array(
        [[1.0 - x, tau * x * ph], [tau * x * ph.conjugate(), 1.0 + x]],
        dtype=complex,
    )


def _lift_top(tjj: int, prev: np.ndarray, x: float, tau: float, gamma: float) -> np.ndarray:
    """Wedge of M^(j,j) at doubled spin tjj from the full matrix one half
    step down, evaluated at the same point."""
    dim = tjj + 1
    top = np.zeros((dim, dim), dtype=complex)
    for i1 in range(dim):
        tm1 = tjj - 2 * i1
        for i2 in range(i1 + 1):
            tm2 = tjj - 2 * i2
            if tm1 < -tm2:
                continue
            if tm1 == -tjj:
                # within the wedge m1 = -j forces m2 = j: the corner term
                top[i1, i2] = (
                    2.0 ** (1 - tjj)
                    * offdiag_poly(tjj, tau, x)
                    * complex(np.exp(-1j * tjj * gamma))
                )
            else:
                fac = tjj / math.sqrt((tjj + tm1) * (tjj + tm2))
                top[i1, i2] = fac * (1.0 - x) * prev[i1, i2]
    return top


def _complete(tjj: int, tm: int, top_x: np.ndarray, top_mx: np.ndarray) -> np.ndarray:
    """Fill a full matrix from its wedge at x and the wedge at -x."""
    dim = tjj + 1
    ent = top_x.copy()
    for i1 in range(dim):
        tm1 = tjj - 2 * i1
        for i2 in range(i1 + 1):
            tm2 = tjj - 2 * i2
            if tm1 >= -tm2:
                continue
            r = (tjj + tm2) // 2
            c = (tjj + tm1) // 2
            ent[i1, i2] = _reflect_sign(tm1, tm2, tm) * top_mx[r, c]
    iu = np.triu_indices(dim, 1)
    ent[iu] = np.conj(ent.T[iu])
    return ent


def weight_matrix_top(j, x, beta, gamma=0.0) -> WeightMatrix:
    """M^(j,j)(x) grown half a spin at a time from the j = 1/2 seed.

    Each half step scales wedge entries by (1-x) times a ladder factor and
    injects the closing corner; symmetry completion needs the mirrored
    point, so the recursion carries matrices at x and -x together.
    """
    tj = walk_index(j)
    tau = _require_beta(beta)
    gamma = float(gamma)
    x = float(x)
    p = _base_matrix(x, tau, gamma)
    q = _base_matrix(-x, tau, gamma)
    for tjj in range(2, tj + 1):
        tp = _lift_top(tjj, p, x, tau, gamma)
        tq = _lift_top(tjj, q, -x, tau, gamma)
        p = _complete(tjj, tjj, tp, tq)
        q = _complete(tjj, tjj, tq, tp)
    return WeightMatrix(tj, tj, x, float(beta), gamma, p)


def weight_matrix_second(j, x, beta, gamma=0.0, top: WeightMatrix | None = None) -> WeightMatrix:
    """M^(j,j-1)(x), an entrywise rational rescaling of M^(j,j)(x)."""
    tj = walk_index(j)
    if tj < 2:
        raise DomainError("the m = j-1 matrix needs j >= 1")
    x = float(x)
    if x in (1.0, -1.0):
        raise DomainError("the m = j-1 rescaling is singular at x = +-1")
    if top is None:
        top = weight_matrix_top(j, x, beta, gamma)
    elif (top.tj, top.tm) != (tj, tj) or top.x != x:
        raise DomainError("supplied top matrix does not match (j, x)")
    tms = np.arange(tj, -tj - 1, -2, dtype=float)
    g = tj * x + tms
    fac = np.outer(g, g) / (tj * (1.0 - x) * (1.0 + x))
    return WeightMatrix(
        tj, tj - 2, x, float(beta), float(gamma), fac * top.entries, top.cancellation
    )


def weight_scalar(mat: WeightMatrix, qudit: Qudit) -> float:
    """Quadratic form phi0^dag M phi0; real because M is hermitian."""
    if qudit.dim != mat.dim:
        raise DomainError(
            f"qudit dimension {qudit.dim} does not match matrix dimension {mat.dim}"
        )
    q = qudit.amplitudes
    form = complex(np.conj(q) @ mat.entries @ q)
    if abs(form.imag) > 1e-10 * max(1.0, abs(form)):
        raise DomainError(f"weight matrix is not hermitian: the form is {form}")
    return form.real


@dataclass(frozen=True)
class LimitSpec:
    """Everything the limit law depends on: the qudit and (beta, gamma).

    alpha drops out of the limit density, so it is not a field here; it only
    matters to finite-time simulation.
    """

    qudit: Qudit
    beta: float
    gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "gamma", float(self.gamma))
        if not 0.0 <= self.beta <= math.pi:
            raise DomainError(f"beta must lie in [0, pi], got {self.beta!r}")
        if not math.isfinite(self.gamma):
            raise DomainError(f"gamma must be finite, got {self.gamma!r}")

    @property
    def tj(self) -> int:
        return self.qudit.tj

    @property
    def j(self) -> HalfInt:
        return HalfInt(self.tj)

    @property
    def a(self) -> float:
        val = math.cos(0.5 * self.beta)
        # cos(pi/2) lands at ~6e-17, not 0; snap so support tests stay exact
        return 0.0 if val < 1e-12 else val

    @property
    def channels(self) -> tuple[int, ...]:
        """Doubled m for every channel with m > 0, largest first."""
        return tuple(range(self.tj, 0, -2))

    @property
    def has_point_mass(self) -> bool:
        return (self.tj + 1) % 2 == 1

    @property
    def is_degenerate(self) -> bool:
        """True when the limit law carries no representable mass profile:
        a = 1 (no spreading; the continuous part vanishes identically) or
        a = 0 with an even number of components (no point mass allowed)."""
        a = self.a
        return a == 1.0 or (a == 0.0 and not self.has_point_mass)


def _scalar_grid(spec: LimitSpec, tm: int, x: np.ndarray) -> np.ndarray:
    """Channel weight phi0^dag M^(j,m)(x) phi0 over a 1-D array of points.

    On the support the weight is |v1^dag phi0|^2 + |v2^dag phi0|^2 with the
    rank-two vectors of ``_support_vectors`` restricted to the nonzero qudit
    components, evaluated in blocks of ``_BLOCK`` points.  Points that
    ``_on_support`` rejects (|x| >= _EDGE at very small beta, or rounding
    just past the support edge) take the wedge route of ``_wedge_block``.
    """
    q = spec.qudit.amplitudes
    rows = np.flatnonzero(q)
    qn = q[rows]
    tj = spec.tj
    tau = _require_beta(spec.beta)
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    on = _on_support(x, tau)
    idx = np.flatnonzero(on)
    for lo in range(0, idx.size, _BLOCK):
        blk = idx[lo : lo + _BLOCK]
        v1, v2 = _support_vectors(tj, tm, x[blk], tau, spec.gamma, rows)
        out[blk] = np.abs(np.conj(v1) @ qn) ** 2 + np.abs(np.conj(v2) @ qn) ** 2
    if not on.all():
        ent, _ = _wedge_block(tj, tm, x[~on], tau, spec.gamma, rows)
        out[~on] = np.einsum("i,nij,j->n", np.conj(qn), ent, qn).real
    return out


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def continuous_density(spec: LimitSpec, v):
    """The continuous part of the limit density at pseudovelocity v."""
    arr = np.asarray(v, dtype=float)
    scalar = arr.ndim == 0
    v1 = np.atleast_1d(arr)
    out = np.zeros(v1.shape)
    a = spec.a
    if 0.0 < a < 1.0:
        for tm in spec.channels:
            mask = np.abs(v1) < tm * a
            if not mask.any():
                continue
            x = v1[mask] / tm
            out[mask] += konno_density(x, a) * _scalar_grid(spec, tm, x) / tm
    return float(out[0]) if scalar else out


def _channel_moment(spec: LimitSpec, tm: int, r: int) -> float:
    """(2m)^r * integral of x^r mu(x; a) W_m(x) via the x = a sin(theta)
    substitution, which removes the endpoint singularity."""
    a = spec.a
    nodes, weights = _gauss_legendre(_GL_ORDER)
    theta = 0.5 * math.pi * nodes
    s = a * np.sin(theta)
    vals = _scalar_grid(spec, tm, s) / (1.0 - s * s)
    if r:
        vals = vals * s**r
    integral = 0.5 * math.pi * float(np.dot(weights, vals))
    return float(tm) ** r * math.sqrt(1.0 - a * a) / math.pi * integral


def limit_moment(spec: LimitSpec, r: int) -> float:
    """r-th moment of the limit law (point mass included; it only ever
    contributes to r = 0)."""
    if r != int(r) or r < 0:
        raise DomainError(f"moment order must be a nonnegative integer, got {r!r}")
    r = int(r)
    total = 0.0
    if 0.0 < spec.a < 1.0:
        total = math.fsum(_channel_moment(spec, tm, r) for tm in spec.channels)
    if r == 0 and spec.has_point_mass:
        total += delta_mass(spec)
    return total


def delta_mass(spec: LimitSpec) -> float:
    """Mass of the origin point-term: the normalization deficit of the
    continuous part.  Zero whenever the component count is even."""
    if not spec.has_point_mass:
        return 0.0
    cont = 0.0
    if 0.0 < spec.a < 1.0:
        cont = math.fsum(_channel_moment(spec, tm, 0) for tm in spec.channels)
    deficit = 1.0 - cont
    if not -1e-8 <= deficit <= 1.0 + 1e-8:
        raise DomainError(f"continuous mass {cont} outside [0, 1]: the quadrature failed")
    return min(max(deficit, 0.0), 1.0)


def limit_bin_masses(spec: LimitSpec, edges) -> np.ndarray:
    """Exact limit-law mass per bin for a sorted array of bin edges.

    Each (channel, bin) overlap is integrated in the theta variable with a
    ``_BIN_ORDER``-node Gauss-Legendre rule, so the pikes at channel
    boundaries are captured without special casing.  The nodes of all of a
    channel's non-empty slices go to the channel-weight evaluator in one
    (slices x nodes) batch, which takes them on-support in blocks and any
    edge points by the wedge route.  The point mass, if any, is added to the
    bin containing v = 0.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise DomainError("edges must be a strictly increasing 1-D array")
    out = np.zeros(edges.size - 1)
    a = spec.a
    if 0.0 < a < 1.0:
        nodes, weights = _gauss_legendre(_BIN_ORDER)
        pref = math.sqrt(1.0 - a * a) / math.pi
        for tm in spec.channels:
            th = np.arcsin(np.clip(edges / (tm * a), -1.0, 1.0))
            t1, t2 = th[:-1], th[1:]
            k = np.flatnonzero(t2 > t1)
            if not k.size:
                continue
            hw = 0.5 * (t2[k] - t1[k])
            theta = (0.5 * (t1[k] + t2[k]))[:, None] + hw[:, None] * nodes
            s = a * np.sin(theta)
            vals = _scalar_grid(spec, tm, s.ravel()).reshape(s.shape) / (1.0 - s * s)
            out[k] += pref * hw * (vals @ weights)
    if spec.has_point_mass:
        dm = delta_mass(spec)
        if dm > 0.0:
            k0 = int(np.searchsorted(edges, 0.0, side="right")) - 1
            if 0 <= k0 < out.size:
                out[k0] += dm
    return out
