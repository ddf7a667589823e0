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

Off the support, which only the public weight-matrix API visits, the same
collapse holds with cos turned into a growing exponential that amplifies
the small-d rounding floor at large j.  There entries instead go through a
factored polynomial in rho = (1+x)/(1-x) whose coefficients never cancel
when formed.  One extended-precision Horner pass per point evaluates every
lower-triangle entry m1 <= m2 at x = -|x|, where rho never exceeds 1 in
magnitude, so x = +-1 needs no route of its own.  The upper triangle
follows by hermiticity, and x > 0 by the reflection symmetry
M_{m1 m2}(x) = (-1)^{m1+m2+2m} M_{-m2,-m1}(-x), which therefore holds
exactly.  The conditioning of that one alternating sum is reported via
``cancellation``.

Moments and the point mass use the Gauss rule of Konno's measure itself
(``_konno_rule``), a Bernstein-Szego weight with a closed-form Jacobi
matrix.  The channel weight is a polynomial of degree <= 2j on the support,
so j + O(1) nodes make every moment exact at every beta, down to the
ballistic law at beta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .coin import _coeff_row, _jy_eig
from .errors import DegenerateSpecError, DomainError
from .halfint import HalfInt, _require_nonneg_int, _weight_indices, doubled_channels, walk_index
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

# Gauss-Legendre order of the rule bin masses use per (bin, channel) slice.
_BIN_ORDER = 24

# Points per batch of the on-support evaluator.  Its work arrays grow as
# points x 2j+1, so a fixed block keeps memory flat when bin masses send a
# channel's whole (slices x _BIN_ORDER) node set in one call.
_BLOCK = 1024


def _sample_points(v) -> tuple[np.ndarray, bool]:
    """(v as a 1-d float array, whether v was a scalar).  A nan sample
    raises DomainError: it has no density, and 0.0 would read as one.  An
    infinite sample lies outside every support."""
    arr = np.asarray(v, dtype=float)
    if np.isnan(arr).any():
        raise DomainError("density samples must not be nan")
    return np.atleast_1d(arr), arr.ndim == 0


def konno_density(x, a: float):
    """Konno's density sqrt(1-a^2) / [pi (1-x^2) sqrt(a^2-x^2)] on |x| < |a|.

    Zero outside the open support, including at the (divergent) endpoints
    and at +-inf; a nan x raises DomainError.
    """
    a = float(a)
    if not abs(a) <= 1.0:
        raise DomainError(f"need |a| <= 1, got {a!r}")
    x1, scalar = _sample_points(x)
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
    order = _require_nonneg_int(order, "order")
    tau = float(tau)
    if not math.isfinite(tau):
        raise DomainError(f"tau must be finite, got {tau!r}")
    arr = np.asarray(x, dtype=float)
    out = _offdiag(order, tau, np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


def _offdiag(order, tau: float, x: np.ndarray) -> np.ndarray:
    """``offdiag_poly`` without its checks, broadcasting integer orders
    against points."""
    order, x = np.broadcast_arrays(order, x)
    ax = np.abs(x)
    out = np.empty(ax.shape)
    disc = (1.0 + tau * tau) * ax * ax
    trig = disc <= 1.0
    if trig.any():
        xt, n = ax[trig], order[trig]
        s = np.sqrt(np.maximum(1.0 - disc[trig], 0.0))
        phi = np.arctan2(s, tau * xt)
        out[trig] = np.power(1.0 - xt * xt, 0.5 * n) * np.cos(n * phi)
    hyp = ~trig
    if hyp.any():
        xh, n = ax[hyp], order[hyp]
        w = np.sqrt(disc[hyp] - 1.0)
        u = tau * xh + w
        # tau x - w = (1 - x^2)/u avoids subtracting nearby quantities
        out[hyp] = 0.5 * (u**n + ((1.0 - xh * xh) / u) ** n)
    return np.where((order % 2 == 1) & (x < 0.0), -out, out)


class _WedgeTable(NamedTuple):
    """Every lower-triangle entry (m1 <= m2) of M^(j,m) as a polynomial at
    x = -|x|, for points off the support.

    Entry M_{m1 m2}(x) is 2^(1-2j) f_{m2-m1}(x) e^{-i (m2-m1) gamma} times
    (1-x)^p1 (1+x)^p2 P(rho), rho = (1+x)/(1-x), where P convolves two
    ladder rows whose terms at equal total ell share one sign, so its
    coefficients never cancel when formed.  With r = (1-|x|)/(1+|x|) <= 1,
    the entry at x = -|x| is (1+|x|)^p1 (1-|x|)^p2 P(r); rows and columns
    count m = j - i.
    """

    rows: np.ndarray  # lower-triangle positions, rows >= cols
    cols: np.ndarray
    coef: np.ndarray  # (width, entry), ascending in r, zero-padded
    up: np.ndarray  # p1, the power of 1 + |x|
    down: np.ndarray  # p2, the power of 1 - |x|


@lru_cache(maxsize=16)
def _wedge_table(tj: int, tm: int) -> _WedgeTable:
    r, c = np.tril_indices(tj + 1)
    # each component's ladder row from its lowest ell
    h = (tj - tm) // 2
    fwd = np.zeros((tj + 1, h + 1))
    lo = np.empty(tj + 1, dtype=int)
    top = np.empty(tj + 1, dtype=int)
    for i in range(tj + 1):
        lo[i], g = _coeff_row(tj, tj - 2 * i, tm)
        fwd[i, : g.size] = g
        top[i] = g.size - 1
    conv = np.zeros((r.size, 2 * h + 1))
    for u in range(h + 1):
        conv[:, u : u + h + 1] += fwd[r, u, None] * fwd[c]
    deg = top[r] + top[c]
    coef = np.ascontiguousarray(conv[:, : deg.max() + 1].T)
    tab = _WedgeTable(r, c, coef, tj + h - r - lo[r] - lo[c], c - h + lo[r] + lo[c])
    for arr in tab:
        arr.setflags(write=False)
    return tab


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


def _wedge_matrix(tj, tm, x: float, tau, gamma):
    """M^(j,m) at one point x off the support from the polynomials of
    ``_wedge_table``, at -|x| in one Horner pass.

    The upper triangle follows by hermiticity, and x > 0 by the reflection
    M_{m1 m2}(x) = (-1)^(m1+m2+2m) M_{-m2,-m1}(-x): a flip on the
    anti-diagonal, negated where i1 + i2 is odd (2m has the parity of 2j).
    Returns (entries, worst): worst is the largest ratio, over the
    entries, between the Horner sum of absolute coefficients and the net
    sum; a value near 10^10 or above means an entry has shed that many
    digits.  An entry past the float range raises DomainError.
    """
    tab = _wedge_table(tj, tm)
    t = np.longdouble(abs(x))
    r = (1.0 - t) / (1.0 + t)
    acc = np.zeros(tab.coef.shape[1], dtype=np.longdouble)
    aac = np.zeros_like(acc)
    for col in tab.coef[::-1]:
        acc = acc * r + col
        aac = aac * r + np.abs(col)
    order = tab.rows - tab.cols
    # f_n(x) overflows first, and inf times a zero entry would read as nan
    with np.errstate(over="ignore", invalid="ignore"):
        pref = (1.0 + t) ** tab.up * (1.0 - t) ** tab.down
        low = (pref * acc).astype(float) * (2.0 ** (1 - tj) * _offdiag(order, tau, -abs(x)))
        low = low * np.exp(-1j * order * gamma)
    if not np.isfinite(low).all():
        raise DomainError(f"weight matrix at x = {x!r} overflows floats at 2j+1 = {tj + 1}")
    denom = np.maximum(np.abs(acc), aac * np.longdouble(1e-30))
    ratio = np.where(aac > 0, aac / np.maximum(denom, np.longdouble(1e-300)), 1.0)
    ent = np.empty((tj + 1, tj + 1), dtype=complex)
    ent[tab.cols, tab.rows] = np.conj(low)
    ent[tab.rows, tab.cols] = low
    if x > 0:
        ent = ent[::-1, ::-1].T.copy()
        ent[1::2, ::2] *= -1
        ent[::2, 1::2] *= -1
    return ent, max(1.0, float(ratio.max()))


def _require_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 <= beta < math.pi:
        raise DomainError(f"weight matrices need beta in [0, pi), got {beta!r}")
    return math.tan(0.5 * beta)


def _weight_args(x, beta, gamma) -> tuple[float, float, float]:
    """(x, tau, gamma) of a weight-matrix request, checked: beta in
    [0, pi), x and gamma finite."""
    tau = _require_beta(beta)
    x, gamma = float(x), float(gamma)
    if not (math.isfinite(x) and math.isfinite(gamma)):
        raise DomainError(f"weight matrices need a finite x and gamma, got {x!r} and {gamma!r}")
    return x, tau, gamma


@dataclass(frozen=True)
class WeightMatrix:
    """Hermitian channel-weight matrix M^(j,m) evaluated at one point x.

    ``cancellation`` carries the worst conditioning ratio of the off-support
    polynomials, over every lower-triangle entry at -|x|: the Horner sum of
    absolute coefficients over the net sum.  It stays 1.0 on the channel
    support (1+tau^2) x^2 <= 1 (up to a few ulps past it), where the
    rank-two evaluation is cancellation-free, and for m = j everywhere,
    whose polynomials have one term each.  Off the support, results with
    ratios beyond ~1e10 should not be trusted to more than a few digits.
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


def weight_matrix_direct(j, m, x, beta, gamma=0.0) -> WeightMatrix:
    """Evaluate M^(j,m)(x) from the defining sum, collapsed per regime.

    On the channel support (1+tau^2) x^2 <= 1, and within a few ulps past
    it, the whole matrix is the sum of two outer products of
    ``_support_vectors``.  Off it the lower-triangle entries at -|x| are
    polynomials evaluated in one Horner pass, and hermiticity and the
    reflection give the rest (``_wedge_matrix``); entries past the float
    range raise DomainError.
    Accepts m = 0 so that ``weight_matrix_second`` can be checked against
    it at j = 1, although the density itself only sums channels with m > 0.
    """
    tj, tm = _weight_indices(j, m)
    x, tau, gamma = _weight_args(x, beta, gamma)
    # a point a few ulps past the edge (a pike point cos(beta/2) can round
    # there) takes the rank-two form at the edge, where the wedge
    # polynomials would cancel catastrophically
    if (1.0 + tau * tau) * x * x <= 1.0 + 8.0 * np.finfo(float).eps:
        # rank-two assembly: exactly hermitian and PSD
        vecs = _support_vectors(tj, tm, np.array([x]), tau, gamma, np.arange(tj + 1))
        v1, v2 = (v[0] for v in vecs)
        ent = np.outer(v1, np.conj(v1)) + np.outer(v2, np.conj(v2))
        return WeightMatrix(tj, tm, x, float(beta), gamma, ent)
    ent, worst = _wedge_matrix(tj, tm, x, tau, gamma)
    return WeightMatrix(tj, tm, x, float(beta), gamma, ent, worst)


def weight_matrix_top(j, x, beta, gamma=0.0) -> WeightMatrix:
    """M^(j,j)(x), the top channel's matrix: ``weight_matrix_direct`` at
    m = j, where every off-support polynomial is a single term."""
    return weight_matrix_direct(j, j, x, beta, gamma)


def weight_matrix_second(j, x, beta, gamma=0.0, top: WeightMatrix | None = None) -> WeightMatrix:
    """M^(j,j-1)(x), an entrywise rational rescaling of M^(j,j)(x).

    ``top`` may pass an M^(j,j) already evaluated at the same (x, beta,
    gamma); by default it comes from ``weight_matrix_top``.  The rescaling
    divides by 1 - x^2, so x = +-1 is refused.
    """
    tj = walk_index(j)
    if tj < 2:
        raise DomainError("the m = j-1 matrix needs j >= 1")
    x, _, gamma = _weight_args(x, beta, gamma)
    if x in (1.0, -1.0):
        raise DomainError("the m = j-1 rescaling is singular at x = +-1")
    if top is None:
        top = weight_matrix_top(j, x, beta, gamma)
    elif (top.tj, top.tm, top.x, top.beta, top.gamma) != (tj, tj, x, float(beta), gamma):
        raise DomainError("supplied top matrix does not match (j, x, beta, gamma)")
    tms = np.arange(tj, -tj - 1, -2, dtype=float)
    g = tj * x + tms
    fac = np.outer(g, g) / (tj * (1.0 - x) * (1.0 + x))
    return WeightMatrix(tj, tj - 2, x, float(beta), gamma, fac * top.entries, top.cancellation)


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
        return tuple(reversed(doubled_channels(self.tj)))

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
    """Channel weight phi0^dag M^(j,m)(x) phi0 over a 1-D array of points on
    the channel support.

    The weight is |v1^dag phi0|^2 + |v2^dag phi0|^2 with the rank-two
    vectors of ``_support_vectors`` restricted to the nonzero qudit
    components, evaluated in blocks of ``_BLOCK`` points.  Every caller
    passes support points: density samples with |v| < 2m a, moment nodes
    a t with |t| <= 1, and bin nodes a sin(theta).  A point that rounding
    puts just past the support edge is taken at the edge, where
    ``_support_vectors`` clamps the discriminant at 0.
    """
    q = spec.qudit.amplitudes
    rows = np.flatnonzero(q)
    qn = q[rows]
    tau = _require_beta(spec.beta)
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    for lo in range(0, x.size, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        v1, v2 = _support_vectors(spec.tj, tm, x[blk], tau, spec.gamma, rows)
        out[blk] = np.abs(np.conj(v1) @ qn) ** 2 + np.abs(np.conj(v2) @ qn) ** 2
    return out


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def continuous_density(spec: LimitSpec, v):
    """The continuous part of the limit density at pseudovelocity v; a nan
    v raises DomainError."""
    v1, scalar = _sample_points(v)
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


def _konno_rule(spec: LimitSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss rule (nodes x, weights) for Konno's measure.

    In t = x/a, with b = sin(beta/2), the measure is the Bernstein-Szego
    weight (b/pi) dt / ((1 - a^2 t^2) sqrt(1 - t^2)) of mass 1.  Its Jacobi
    matrix has a zero diagonal and squared off-diagonals 1/(1+b),
    b/(2(1+b)), then 1/4; by Golub-Welsch its eigenvalues are the nodes and
    its squared first eigenvector components the weights.  At b = 0 the
    matrix splits and the rule puts weight 1/2 on t = +-1.
    """
    b = math.sin(0.5 * spec.beta)
    off = np.full(n - 1, 0.5)
    off[:2] = np.sqrt([1.0 / (1.0 + b), 0.5 * b / (1.0 + b)])[: n - 1]
    t, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return spec.a * t, vec[0] ** 2


def _continuous_moment(spec: LimitSpec, r: int) -> float:
    """r-th moment of the continuous part alone (r = 0: its mass).

    Channel m adds (2m)^r sum_k w_k x_k^r W_m(x_k) over ``_konno_rule``'s
    n = floor((2j + r)/2) + 1 nodes, exact to degree 2n - 1 >= 2j + r, so
    exact for the polynomial W_m.  At a = 1 the nodes sit on x = +-1: the
    ballistic law.
    """
    if spec.a == 0.0:
        return 0.0
    x, w = _konno_rule(spec, (spec.tj + r) // 2 + 1)
    wr = w * x**r
    return math.fsum(tm**r * float(wr @ _scalar_grid(spec, tm, x)) for tm in spec.channels)


def _point_mass(cont: float) -> float:
    """The point mass left by a continuous mass ``cont``, checked to lie in
    [0, 1] up to 1e-8 and then clamped there."""
    deficit = 1.0 - cont
    if not -1e-8 <= deficit <= 1.0 + 1e-8:
        raise DomainError(f"continuous mass {cont} outside [0, 1]: the quadrature failed")
    return min(max(deficit, 0.0), 1.0)


def limit_moment(spec: LimitSpec, r: int) -> float:
    """r-th moment of the limit law (point mass included; it only ever
    contributes to r = 0), exact to rounding at every beta through the
    Gauss rule of ``_continuous_moment``."""
    r = _require_nonneg_int(r, "moment order")
    total = _continuous_moment(spec, r)
    if r == 0 and spec.has_point_mass:
        total += _point_mass(total)
    return total


def delta_mass(spec: LimitSpec) -> float:
    """Mass of the origin point-term: the normalization deficit of the
    continuous part.  Zero whenever the component count is even."""
    if not spec.has_point_mass:
        return 0.0
    return _point_mass(_continuous_moment(spec, 0))


def limit_bin_masses(spec: LimitSpec, edges) -> np.ndarray:
    """Exact limit-law mass per bin for a sorted array of bin edges.

    Each (channel, bin) overlap is integrated in the theta variable with a
    ``_BIN_ORDER``-node Gauss-Legendre rule, so the pikes at channel
    boundaries are captured without special casing.  The nodes of all of a
    channel's non-empty slices go to the channel-weight evaluator in one
    (slices x nodes) batch, which takes them in blocks.  The point mass, if
    any, is added to the bin containing v = 0.  A degenerate spec raises
    DegenerateSpecError: at a = 1 there is no continuous part to bin.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise DomainError("edges must be a strictly increasing 1-D array")
    if spec.is_degenerate:
        raise DegenerateSpecError(f"no limit density to bin at beta = {spec.beta!r}")
    out = np.zeros(edges.size - 1)
    a = spec.a
    if a > 0.0:
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
        k0 = int(np.searchsorted(edges, 0.0, side="right")) - 1
        if 0 <= k0 < out.size:
            out[k0] += delta_mass(spec)
    return out
