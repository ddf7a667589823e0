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
holds to rounding.  The channel weight there is |v1^dag phi0|^2 + |v2^dag
phi0|^2, and v^dag phi0 is a component of d^T psi for the qudit psi
twisted by the phase, whose evaluator the layout of the points picks.
Points that every channel shares (the moments' nodes, the bin masses'
samples) go through the J_y eigenbasis (``_scalar_grid``), one real
product in and one back out onto every channel's column.  The eigenvectors
there are V = P U, U real (``coin._jy_eig``) and P = diag(i^k): P rides on
the twisted qudit going in and drops out of |.|^2 coming back.  Points
that each carry their own channel (``continuous_density`` puts every
channel's samples into one pass) go through that channel's small-d column
(``_point_weights``): the real small-d coefficients of the nonzero
components (``_small_d_fold``) against cos and sin rows of the rotation.
``weight_matrix_direct`` reads its column from the whole d^j(alpha) of
the coin's own evaluator (``coin._small_d``), and builds M as outer(d, d)
times the hermitian Toeplitz factor 2 cos(k phi) e^{-i k gamma},
k = m2 - m1, read from one vector whose negative-k half is the exact
conjugate of the rest, so that M is exactly hermitian.  d and the factor
depend on the point alone, so the channels at one point share one cached
entry (``_point_factors``), and a caller that reads a few rows of M forms
only their entries (``_support_entries``).

The two evaluators read the small-d entries as a spectral sum over the
J_y eigenvalues lam = -j..j, which needs e^{i lam alpha} at alpha =
arccos(-x).  The half angle has the closed forms cos(alpha/2) =
sqrt((1 - x)/2) and sin(alpha/2) = sqrt((1 + x)/2), and cos(alpha) = -x,
sin(alpha) = sqrt(1 - x^2).  The two evaluators make no trigonometric call
for it (``_rotation``): the values for lam = 1/2 or 1 upward are the phase
ladder of ``coin._powers`` (the walk's too) from that start with the step
z = e^{i alpha}, products only, and -lam takes the conjugate.  Its
rounding grows about linearly in j, as that of the angle lam * alpha
does.  ``weight_matrix_direct``, once per point, takes alpha from the
half angle by one atan2 and hands it to ``coin._small_d``, whose entries
sin(alpha lam) and sin^2(alpha lam / 2) round the same way.
The support test, the phase phi and the off-diagonal polynomials read one
discriminant 1 - (1+tau^2) x^2 (``_phase``), which cancels near the pikes:
it is (1 - |x|)(1 + |x|) - (tau |x|)^2 in extended precision.  Konno's factor
(``_konno``) takes b = sin(beta/2); sqrt(1 - a^2) loses it at small beta.

Off the support, which only the public weight-matrix API visits, the same
collapse holds with cos(k phi) turned into cosh(k theta), e^theta =
(tau |x| + w)/sin(alpha), which multiplies the small-d error by up to
e^{2j theta}: a spectral column such as ``coin._small_d``'s, accurate
only to its largest entry, would lose every digit of the small ones.
There the column comes from
the three-term recurrence in m' at fixed m, run in extended precision
from both closed-form ends towards its classical row, which keeps every
entry to its own relative precision, with each row carried times
e^{+-(a - i*) theta} so that one loop covers x = +-1 (``_point_factors``,
``_off_support_entries``); M is (P Q^T + Q P^T) times a Toeplitz factor,
exactly hermitian, and the reflection M_{m1 m2}(x) = (-1)^{m1+m2+2m}
M_{-m2,-m1}(-x) holds to rounding without being imposed.  Every route is
accurate per entry, so ``cancellation`` reads 1.0.

Moments use the Gauss rule of Konno's measure itself (``_konno_rule``,
built once per (beta, n)), a Bernstein-Szego weight with a closed-form
Jacobi matrix.  The channel weight is a polynomial of degree <= 2j on the
support, so j + O(1) nodes make every moment exact at every beta, down to
the ballistic law at beta = 0.  One evaluator pass on those nodes serves
every channel, and channel 0's at half weight is the point mass.

Bin masses take each channel's antiderivative in theta, x = a sin(theta),
in closed form: there Konno's measure is a Poisson kernel and W(a sin
theta) a trigonometric polynomial of degree <= 2j, whose coefficients one
DCT-II of one evaluator pass over every channel at W's 2j+1 first-kind
Chebyshev nodes, none on a pike, gives exactly.  A bin's mass is the
antiderivative's difference at its edges, so it is exact at every beta,
pikes included (``limit_bin_masses``).  An edge past a channel's support
needs no series: there the antiderivative is P_0 arcsin(+-1).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coin import _ipow, _jy_eig, _powers, _require_dense, _small_d
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

# Points per batch of the on-support evaluators (and (channel, edge) pairs
# per batch of bin masses).  Their work arrays grow as points x 2j+1, so a
# fixed block keeps memory flat on a density grid, which the CLI allows up
# to 10^6 points.
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

    ``_konno`` with b = sqrt((1-|a|)(1+|a|)), the best b that ``a`` alone
    gives, so it keeps its digits up to the pikes.  Zero outside the open
    support, including at the (divergent) endpoints and at +-inf; a nan x
    raises DomainError.
    """
    a = abs(float(a))
    if not a <= 1.0:
        raise DomainError(f"need |a| <= 1, got |a| = {a!r}")
    x1, scalar = _sample_points(x)
    out = np.zeros(x1.shape)
    inside = np.abs(x1) < a
    if inside.any():
        out[inside] = _konno(np.abs(x1[inside]), a, math.sqrt((1.0 - a) * (1.0 + a)))
    return float(out[0]) if scalar else out


def _konno(ax: np.ndarray, a: float, b: float) -> np.ndarray:
    """Konno's density b / [pi (1 - ax^2) sqrt(a^2 - ax^2)] at ax = |x| < a,
    b = sqrt(1 - a^2), each difference of squares taken as a product."""
    return b / (math.pi * (1.0 - ax) * (1.0 + ax) * np.sqrt((a - ax) * (a + ax)))


def offdiag_poly(order: int, tau: float, x):
    """Degree-``order`` polynomial factor of entries ``order`` places off
    the diagonal, for tau = tan(beta/2).

    The defining triple binomial sum collapses to

        (1/2) [(tau x + w)^order + (tau x - w)^order],
        w = sqrt(-disc),  disc = 1 - (1 + tau^2) x^2,

    with (phi, disc) from ``_phase``.  Where disc >= 0 (all of a channel's
    support) this is the real oscillation (1-x^2)^(order/2) cos(order phi).
    Both branches are stable, just past the pikes too;
    the expanded coefficients would cancel catastrophically by order ~ 30.
    Odd orders give odd functions of x and even orders even ones, exactly.
    A non-finite x raises DomainError.
    """
    order = _require_nonneg_int(order, "order")
    tau = float(tau)
    if not math.isfinite(tau):
        raise DomainError(f"tau must be finite, got {tau!r}")
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("offdiag_poly needs finite x")
    x = np.atleast_1d(arr)
    ax = np.abs(x)
    phi, disc = _phase(ax, tau)
    # the order as an array: for a scalar exponent of 2 or 1/2 np.power
    # takes square or sqrt, which round apart from pow
    n = np.full(ax.shape, order)
    out = np.empty(ax.shape)
    trig = disc >= 0.0
    if trig.any():
        xt, nt = ax[trig], n[trig]
        out[trig] = np.power((1.0 - xt) * (1.0 + xt), 0.5 * nt) * np.cos(nt * phi[trig])
    hyp = ~trig
    if hyp.any():
        xh, nh = ax[hyp], n[hyp]
        w = np.sqrt(-disc[hyp])
        u = tau * xh + w
        # tau x - w = (1 - x^2)/u avoids subtracting nearby quantities
        out[hyp] = 0.5 * (u**nh + ((1.0 - xh) * (1.0 + xh) / u) ** nh)
    if order % 2 == 1:
        out = np.where(x < 0.0, -out, out)
    return float(out[0]) if arr.ndim == 0 else out


def _phase(x, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(phi, disc) at each point: the discriminant disc = 1 - (1+tau^2) x^2,
    >= 0 on a channel's support and -w^2 off it, and the phase phi of
    tau x + i sqrt(disc), clamped to 0 past the edge.

    disc cancels near the pike points, where phi is small and its rounding
    grows n-fold in e^{i n phi}: formed as (1 - |x|)(1 + |x|) - (tau |x|)^2
    in extended precision, it keeps its relative error near one ulp, also
    at small beta, where 1 - x^2 itself is small.
    """
    xl = np.abs(x).astype(np.longdouble)
    disc = ((1.0 - xl) * (1.0 + xl) - (np.longdouble(tau) * xl) ** 2).astype(float)
    return np.arctan2(np.sqrt(np.maximum(disc, 0.0)), tau * x), disc


def _rotation(tj: int, x: np.ndarray) -> np.ndarray:
    """e^{i lam alpha} at alpha = arccos(-x) for the J_y eigenvalues
    lam > 0, ascending (lam = 1/2 or 1 upward), as an (eigenvalues, points)
    array.

    The half angle is e^{i alpha/2} = sqrt((1 - x)/2) + i sqrt((1 + x)/2)
    and its square is z = e^{i alpha} = -x + i sqrt(1 - x^2); the table
    starts at one of them and climbs by z (``coin._powers``), so no point or
    eigenvalue costs a cos or sin.  A point that rounding puts past |x| = 1
    (at beta = 0) is taken at the edge.
    """
    half = np.empty(x.size, dtype=complex)
    half.real, half.imag = np.sqrt(np.maximum(0.5 + np.multiply.outer((-0.5, 0.5), x), 0.0))
    z = half * half
    rot = np.empty(((tj + 1) // 2, x.size), dtype=complex)
    return _powers(z if tj % 2 == 0 else half, z, rot)


def _trig(tj: int, rot: np.ndarray) -> np.ndarray:
    """The real rows that small-d entries combine (``_small_d_fold``):
    cos(lam alpha), then sin(lam alpha), for lam > 0 from a ``_rotation``
    table, then, for integer j, a row of ones (lam = 0)."""
    return np.concatenate((rot.real, rot.imag, np.ones((1 - tj % 2, rot.shape[1]))))


def _small_d_fold(tj, rows, cols) -> np.ndarray:
    """Coefficients f with d_{i c}(alpha) = sum_k f[c, k, i] t_k(alpha) over
    the rows t_k of ``_trig``, for the components i in ``rows`` and c in
    ``cols`` (indices in m-descending order), as a real (len(cols), rows of
    ``_trig``, len(rows)) array: ``_point_weights``' small-d columns, for a
    group of channels at a time.

    With V = P U (``coin._jy_eig``), d_{i c}(alpha) = Re i^(i-c) sum_k
    e^{-i alpha lam_k} U_ik U_ck; the eigenvalues lam = -j..j pair up as
    +-lam (columns k and 2j-k), so with g+- = U_i,+-lam U_c,+-lam each
    pair adds Re(i^(i-c)) cos(alpha lam) (g+ + g-) + Im(i^(i-c))
    sin(alpha lam) (g+ - g-): cos where i - c is even and sin where it is
    odd, and lam = 0 adds Re(i^(i-c)) g0.
    """
    _, vec = _jy_eig(tj)
    npos = (tj + 1) // 2
    ipow = _ipow(np.subtract.outer(rows, cols)).T[:, None, :]  # i^(i-c)
    coef = np.swapaxes(vec[cols][:, None, :] * vec[rows], 1, 2)
    plus, minus = coef[:, tj + 1 - npos :], coef[:, npos - 1 :: -1]
    fold = np.empty((len(cols), 2 * npos + 1 - tj % 2, len(rows)))
    np.multiply(plus + minus, ipow.real, out=fold[:, :npos])
    np.multiply(plus - minus, ipow.imag, out=fold[:, npos : 2 * npos])
    if tj % 2 == 0:
        np.multiply(coef[:, tj // 2 : tj // 2 + 1], ipow.real, out=fold[:, 2 * npos :])
    return fold


class _OffSupport(tuple):
    """``_point_factors`` off the support, all but the last in extended
    precision: kappa = sqrt((1 - x)/2), eps = sqrt((1 + x)/2), tau |x| + w,
    e^{-2 k theta} for k = 0..2j, the ladder roots sqrt((2j - a)(a + 1))
    for a = 0..2j (the last 0) and them times e^{-2 theta} as tuples, and
    T_{a-b}, T_k = sign(x)^k e^{-i k gamma}.  A tuple type of its own, so
    that a ``_point_factors`` entry tells its kind."""


def _toeplitz(half: np.ndarray) -> np.ndarray:
    """The hermitian Toeplitz matrix T_{a-b} from T_k for k = 0..2j, read-
    only.  Row a, T_{a-b} over b, is the run from k = a down of one vector
    over k = 2j..-2j whose negative-k half is the exact conjugate of the
    rest, one strided view of it, so T is exactly hermitian."""
    tj = half.size - 1
    back = np.concatenate((half[::-1], half[1:].conj()))
    step = back.itemsize
    toeplitz = np.ndarray((tj + 1, tj + 1), complex, back, tj * step, (-step, step))
    back.setflags(write=False)
    toeplitz.setflags(write=False)
    return toeplitz


@lru_cache(maxsize=2)
def _point_factors(tj: int, key: bytes):
    """The factors of ``weight_matrix_direct`` that every channel shares at
    one point, keyed by 2j and the bytes of (x, tau, gamma) -- bytes, since
    -0.0 and 0.0 compare equal but may give other phases: off the support
    an ``_OffSupport``, else (d^j(alpha) at alpha = arccos(-x), the
    hermitian Toeplitz factor), read-only.

    On the support an entry holds (2j+1)^2 floats, so the cache keeps two
    points: every channel at one point (``pike_weight_paths``,
    ``weight_matrix_top`` then ``weight_matrix_second``) and the pair x,
    -x.  A point a few ulps past the edge (a pike point cos(beta/2) can
    round there) counts as on the support and takes the rank-two form at
    the edge.  alpha comes from its half angle, whose cos and sin are
    sqrt((1 -+ x)/2), by one atan2, and d from the coin's own evaluator
    (``coin._small_d``).  On the support T_k = 2 cos(k phi) e^{-i k gamma}
    (``_toeplitz``).  Off it w = sqrt((tau x)^2 - (1 - x^2)) > 0 and
    e^{-2 theta} = (1 - x^2)/(tau |x| + w)^2, which is 0 at x = +-1.
    """
    x, tau, gamma = struct.unpack("3d", key)
    phi, disc = _phase(x, tau)
    k = np.arange(tj + 1)
    if not disc >= -8.0 * np.finfo(float).eps:
        xl = np.longdouble(x)
        tx = np.longdouble(tau) * abs(xl)
        sin2 = (1.0 - xl) * (1.0 + xl)
        grow = tx + np.sqrt(tx * tx - sin2)
        damp = (sin2 / (grow * grow)) ** k
        damp.setflags(write=False)
        roots = np.sqrt(((tj - k) * (k + 1)).astype(np.longdouble))
        half = np.exp(-1j * gamma * k)
        if x < 0.0:
            half[1::2] *= -1.0
        kappa, eps = np.sqrt(0.5 * (1.0 - xl)), np.sqrt(0.5 * (1.0 + xl))
        return _OffSupport((kappa, eps, grow, damp, tuple(roots), tuple(roots * damp[1]), _toeplitz(half)))
    alpha = 2.0 * math.atan2(math.sqrt(0.5 * (1.0 + x)), math.sqrt(0.5 * (1.0 - x)))
    d = _small_d(tj, alpha, float)
    d.setflags(write=False)
    return d, _toeplitz(2.0 * np.cos(phi * k) * np.exp(-1j * gamma * k))


def _climb(start, coef, roots, cross, count: int) -> list:
    """``count`` rows of the scaled three-term recurrence from ``start``:
    roots_a y_{a+1} = coef_a y_a - cross_{a-1} y_{a-1}, with y_{-1} = 0
    (cross_{-1}, at a = 2j, is 0)."""
    rows, prev, cur = [start], 0.0, start
    for a in range(count - 1):
        prev, cur = cur, (coef[a] * cur - cross[a - 1] * prev) / roots[a]
        rows.append(cur)
    return rows[:count]


def _off_support_entries(tj: int, tm: int, x: float, factors: _OffSupport) -> np.ndarray:
    """M^(j,m) at a point x off the support, |x| <= 1, with
    ``_point_factors``' entry.

    Entry (a, b) is 2 d_a d_b cosh((a - b) theta) T_{a-b}, d the small-d
    column c = j - m at cos(alpha) = -x and cosh(theta) = tau |x| /
    sin(alpha): (P_a Q_b + Q_a P_b) T_{a-b} for P_a = d_a e^{(a - i*) theta}
    and Q_a = d_a e^{(i* - a) theta}, i* = round(j + m x) the classical row.
    The recurrence 2 (m - m' cos alpha) d_a = sin(alpha) [sqrt((2j - a)(a +
    1)) d_{a+1} + sqrt(a (2j - a + 1)) d_{a-1}], m' = j - a, takes Q from
    row 0 to i* and P back from row 2j to i* + 1 in extended precision,
    from the closed-form ends (-1)^(j-m) sqrt(C(2j, j+m)) kappa^(j+m)
    eps^(j-m) and sqrt(C(2j, j+m)) kappa^(j-m) eps^(j+m).  Scaled so, its
    coefficient is 2 (m - m' cos alpha)/(tau |x| + w) and e^{-2 theta}
    damps its cross term, which covers x = +-1, where sin(alpha) = 0.  Both
    runs move towards the classical region, where the column grows, so
    neither amplifies its rounding; the other of P and Q is the run times
    powers of e^{-2 theta}.  P Q^T + Q P^T, exactly symmetric, is rounded
    to floats once.  A scaled end below the extended range, or an entry
    past the float range, raises DomainError.
    """
    kappa, eps, grow, damp, roots, cross, toeplitz = factors
    p, q = (tj + tm) // 2, (tj - tm) // 2  # j + m, j - m
    mid = round(0.5 * (tj + tm * x))
    binom = np.sqrt(np.longdouble(math.comb(tj, p)))
    half = 0.5 * grow
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        top = (-1) ** q * binom * kappa ** (p - mid) * eps ** (q - mid) * half**mid
        bottom = binom * kappa ** (mid - p) * eps ** (mid - q) * half ** (tj - mid)
        if not min(abs(top), abs(bottom)) >= np.finfo(np.longdouble).smallest_normal:
            raise DomainError(
                f"weight matrix at x = {x!r} has a small-d column end below "
                f"the extended range at 2j+1 = {tj + 1}"
            )
        coef = list((tm + np.arange(tj, -tj - 1, -2) * np.longdouble(x)) / grow)
        front = np.array(_climb(top, coef, roots, cross, mid + 1))  # Q, rows 0..i*
        back = np.array(_climb(bottom, coef[::-1], roots, cross, tj - mid), dtype=np.longdouble)[::-1]
        pp = np.concatenate((front * damp[mid::-1], back))
        qq = np.concatenate((front, back * damp[1 : tj - mid + 1]))
        sym = np.multiply.outer(pp, qq)
        real = np.empty(sym.shape)
        np.add(sym, sym.T, out=real, casting="unsafe")
    if not np.isfinite(real).all():
        raise DomainError(f"weight matrix at x = {x!r} overflows floats at 2j+1 = {tj + 1}")
    return real * toeplitz


def _support_entries(tj: int, tm: int, factors, rows=slice(None)) -> np.ndarray:
    """M^(j,m)'s entries on the rows ``rows`` and the same columns, at a
    point on the support with the ``_point_factors`` ``factors``: column
    c = j - m of the cached d^j(alpha) on ``rows``, its outer product and
    the Toeplitz factor there.  Every entry is the one the full matrix
    holds."""
    d, toeplitz = factors
    col = d[rows, (tj - tm) // 2]
    return np.multiply.outer(col, col) * toeplitz[rows][:, rows]


def _require_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 <= beta < math.pi:
        raise DomainError(f"weight matrices need beta in [0, pi), got {beta!r}")
    return math.tan(0.5 * beta)


def _weight_args(x, beta, gamma) -> tuple[float, float, float]:
    """(x, tau, gamma) of a weight-matrix request, checked: beta in
    [0, pi), x in [-1, 1] and gamma finite."""
    tau = _require_beta(beta)
    x, gamma = float(x), float(gamma)
    if not (abs(x) <= 1.0 and math.isfinite(gamma)):
        raise DomainError(f"weight matrices need |x| <= 1 and a finite gamma, got {x!r} and {gamma!r}")
    return x, tau, gamma


@dataclass(frozen=True)
class WeightMatrix:
    """Hermitian channel-weight matrix M^(j,m) evaluated at one point x.

    ``cancellation`` bounds the factor by which cancellation multiplies
    an entry's rounding.  It is 1.0 on every route: on the support the
    rank-two form sums no terms of opposite sign, and off it every small-d
    entry keeps its own relative precision and an entry is the sum of two
    products of one sign.
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
    it, the whole matrix is v1 v1^dag + v2 v2^dag with
    v1_i = d_{i c} e^{-i m_i (phi - gamma)} and
    v2_i = d_{i c} e^{+i m_i (phi + gamma)}, c = j - m, each up to a phase
    common to the whole vector, with phi from ``_phase``: the collapsed
    entry 2 d1 d2 cos((m2-m1) phi) e^{-i (m2-m1) gamma}.  The small-d
    column is column c of d^j(alpha) at alpha = arccos(-x), the coin's own
    evaluator (``coin._small_d``), and the entries are outer(d, d) times a
    hermitian Toeplitz factor taken from one vector over k = m2 - m1 =
    -2j..2j.  Both depend on the point alone, so every channel at one
    point reads them from one cached entry (``_point_factors``); a call
    forms only the outer product of its column (``_support_entries``).
    Off the support, for |x| <= 1, the column comes from its three-term
    recurrence in extended precision, accurate per entry, and M from its
    rows scaled by e^{+-(a - i*) theta} (``_off_support_entries``), with
    the per-point factors from the same cache.  x outside [-1, 1], where
    no angle has cos(alpha) = -x, and entries past the float range raise
    DomainError.
    Accepts m = 0 so that ``weight_matrix_second`` can be checked against
    it at j = 1, although the density itself only sums channels with m > 0.
    """
    tj, tm = _weight_indices(j, m)
    x, tau, gamma = _weight_args(x, beta, gamma)
    factors = _point_factors(tj, struct.pack("3d", x, tau, gamma))
    if isinstance(factors, _OffSupport):
        ent = _off_support_entries(tj, tm, x, factors)
    else:
        ent = _support_entries(tj, tm, factors)
    return WeightMatrix(tj, tm, x, float(beta), gamma, ent)


def _support_block(tj: int, tm: int, x, beta, gamma, rows) -> np.ndarray | None:
    """The entries of ``weight_matrix_direct`` at doubled spin tj and
    channel tm on the rows ``rows`` and the same columns, bit for bit,
    without the rest of the matrix; None where x lies off the support."""
    x, tau, gamma = _weight_args(x, beta, gamma)
    factors = _point_factors(tj, struct.pack("3d", x, tau, gamma))
    return None if isinstance(factors, _OffSupport) else _support_entries(tj, tm, factors, rows)


def weight_matrix_top(j, x, beta, gamma=0.0) -> WeightMatrix:
    """M^(j,j)(x), the top channel's matrix: ``weight_matrix_direct`` at
    m = j."""
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
    return WeightMatrix(tj, tj - 2, x, float(beta), gamma, fac * top.entries)


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
    def has_law(self) -> bool:
        """False for an even size at a = 0: its law would have mass 0."""
        return self.a != 0.0 or self.has_point_mass

    @property
    def is_degenerate(self) -> bool:
        """No representable mass profile: a = 1 (no continuous part) or no law."""
        return self.a == 1.0 or not self.has_law


def _tilted_qudit(spec: LimitSpec) -> tuple[int, np.ndarray, float, np.ndarray]:
    """(tj, rows, tau, tilted): 2j, the nonzero components, tan(beta/2), and
    phi0_i e^{-i m_i gamma} on them, up to the common phase e^{-i j gamma}."""
    q = spec.qudit.amplitudes
    rows = np.flatnonzero(q)
    return spec.tj, rows, _require_beta(spec.beta), q[rows] * np.exp(1j * spec.gamma * rows)


def _scalar_grid(spec: LimitSpec, tms, x: np.ndarray) -> np.ndarray:
    """Channel weights phi0^dag M^(j,m)(x) phi0 for every doubled m in
    ``tms`` at points that every channel shares, on their supports (the
    moments' nodes a t, |t| <= 1, and the bin masses' first-kind Chebyshev
    nodes -a cos((i + 1/2) pi/(2j+1))), as a (channels, points) array.

    The weight is |v1^dag phi0|^2 + |v2^dag phi0|^2 with the rank-two
    vectors of ``weight_matrix_direct``: v1^dag phi0 = sum_i d_{i c}
    psi1_i, c = j - m, for the twisted qudit psi1_i = phi0_i
    e^{i m_i (phi - gamma)}, and v2^dag phi0 likewise with psi2_i =
    phi0_i e^{-i m_i (phi + gamma)}, on the nonzero components.  Here d^T
    psi = conj(P) U e^{-i alpha Lam} U^T P psi: both twisted qudits, P
    folded into the twist, go into the eigenbasis in one real product, take
    one phase per eigenvalue from ``_rotation`` and come back onto every
    channel's column in another, where |.|^2 drops conj(P).  A point that
    rounding puts just past the support edge is taken at the edge, where
    ``_phase`` clamps the discriminant at 0.
    """
    tj, rows, tau, tilted = _tilted_qudit(spec)
    _, vec = _jy_eig(tj)
    npos = (tj + 1) // 2
    tilted *= _ipow(rows)
    into, back = vec[rows].T, vec[(tj - np.asarray(tms)) // 2]
    step = _BLOCK // 2  # 2 x (2j+1) numbers per point, _BLOCK x (2j+1) per block
    out = np.empty((back.shape[0], x.size))
    for lo in range(0, x.size, step):
        xb = x[lo : lo + step]
        rot = _rotation(tj, xb)
        # psi1 and psi2 as (components, points), so that the real products
        # take their float views; each step frees the last
        amp = _twisted(np.multiply.outer(rows, _phase(xb, tau)[0]), tilted[:, None])
        amp = (into @ amp.view(float)).view(complex)
        amp[:, npos - 1 :: -1] *= rot
        amp[:, tj + 1 - npos :] *= np.conjugate(rot, out=rot)
        del rot
        amp = (back @ amp.view(float)).view(complex)
        amp = amp.real**2 + amp.imag**2
        out[:, lo : lo + step] = amp[0] + amp[1]
    return out


def _point_weights(spec: LimitSpec, tms, x: np.ndarray, chan: np.ndarray) -> np.ndarray:
    """The weight of each point of ``x`` in its own channel, on its support,
    as a (points,) array; ``chan`` holds one index into ``tms`` per point,
    non-decreasing.

    The sum d^T psi of ``_scalar_grid`` on each point's own column, here
    through ``_small_d_fold``'s real coefficients (for a group of channels
    at a time) against the ``_trig`` rows, on each run of points that
    shares its channel, each run writing its two sums into one buffer per
    block, which is squared once.  Blocks of _BLOCK points, and groups of
    _BLOCK / R channels for R nonzero components, keep every work array
    within _BLOCK x (2j+1) numbers.
    """
    tj, rows, tau, tilted = _tilted_qudit(spec)
    cols = (tj - np.asarray(tms)) // 2
    group = max(1, _BLOCK // rows.size)
    first = fold = None
    out = np.empty(x.size)
    for lo in range(0, x.size, _BLOCK):
        xb, cb = x[lo : lo + _BLOCK], chan[lo : lo + _BLOCK]
        amp = _twisted(np.multiply.outer(_phase(xb, tau)[0], rows), tilted)
        trig = _trig(tj, _rotation(tj, xb))
        cut = [0, *(np.flatnonzero(np.diff(cb)) + 1), cb.size]
        res = np.empty((2, xb.size), dtype=complex)
        for s, e in zip(cut[:-1], cut[1:]):
            if fold is None or not first <= cb[s] < first + group:
                first = cb[s]
                fold = _small_d_fold(tj, rows, cols[first : first + group])
            # d_{rows, c} at each point, as (points, rows)
            np.einsum("kpi,pi->kp", amp[:, s:e], trig[:, s:e].T @ fold[cb[s] - first], out=res[:, s:e])
        res = res.real**2 + res.imag**2
        out[lo : lo + xb.size] = res[0] + res[1]
    return out


def _twisted(phase: np.ndarray, tilted) -> np.ndarray:
    """psi1 = tilted e^{i phase} and psi2 = tilted e^{-i phase}, stacked
    on a new first axis."""
    amp = np.zeros((2, *phase.shape), dtype=complex)
    amp[1].imag = phase
    np.exp(amp[1], out=amp[1])
    np.conjugate(amp[1], out=amp[0])
    amp *= tilted
    return amp


def _require_law(spec: LimitSpec) -> None:
    """Refuse a spec without a law (``LimitSpec.has_law``)."""
    if not spec.has_law:
        raise DegenerateSpecError(f"no limit law at beta = {spec.beta!r} for {spec.tj + 1} components")


def continuous_density(spec: LimitSpec, v):
    """The continuous part of the limit density at pseudovelocity v; a nan
    v raises DomainError, an even size at a = 0 DegenerateSpecError.

    The samples go in blocks of ``_BLOCK``.  Each block's support points in
    every channel go into one evaluator pass, channel-major, and their
    terms add back sample by sample in channel order.
    """
    _require_law(spec)
    v1, scalar = _sample_points(v)
    out = np.zeros(v1.shape)
    a = spec.a
    if 0.0 < a < 1.0:
        b = math.sin(0.5 * spec.beta)
        tms = np.array(spec.channels)
        for lo in range(0, v1.size, _BLOCK):
            vb = v1[lo : lo + _BLOCK]
            chan, idx = np.nonzero(np.abs(vb) < tms[:, None] * a)
            tm = tms[chan]
            x = vb[idx] / tm
            w = _konno(np.abs(x), a, b) * _point_weights(spec, tms, x, chan) / tm
            np.add.at(out, lo + idx, w)
    return float(out[0]) if scalar else out


@lru_cache(maxsize=32)
def _konno_rule(beta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss rule (nodes t = x/a, weights) for Konno's measure,
    cached per (beta, n) as read-only arrays.

    In t = x/a, with b = sin(beta/2), the measure is the Bernstein-Szego
    weight (b/pi) dt / ((1 - a^2 t^2) sqrt(1 - t^2)) of mass 1.  Its Jacobi
    matrix has a zero diagonal and squared off-diagonals 1/(1+b),
    b/(2(1+b)), then 1/4; by Golub-Welsch its eigenvalues are the nodes and
    its squared first eigenvector components the weights.  At b = 0 the
    matrix splits and the rule puts weight 1/2 on t = +-1.  A matrix above
    ``coin.DENSE_BUDGET_BYTES`` raises DomainError.
    """
    _require_dense(n, np.dtype(float).itemsize, "the Konno Jacobi matrix")
    b = math.sin(0.5 * beta)
    off = np.full(n - 1, 0.5)
    off[:2] = np.sqrt([1.0 / (1.0 + b), 0.5 * b / (1.0 + b)])[: n - 1]
    t, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vec[0] ** 2
    t.setflags(write=False)
    weights.setflags(write=False)
    return t, weights


def _law_moments(spec: LimitSpec, orders, tms=None) -> list[float]:
    """Moment of each order r of the law's terms in the doubled channels
    ``tms``: by default every m > 0, and m = 0 for an odd size at r = 0.

    Channel m adds (2m)^r sum_k w_k x_k^r W_m(x_k) over ``_konno_rule``'s
    n = floor((2j + R)/2) + 1 nodes for the largest order R, exact to
    degree 2n - 1 >= 2j + r for every r <= R, so exact for the polynomial
    W_m.  Channel 0's matrix counts the pair +-0 twice, so its row is
    halved, and 0^0 = 1 puts it at the origin: the point mass.  One
    ``_scalar_grid`` pass on the shared nodes gives every W_m.  At a = 1
    the nodes sit on x = +-1: the ballistic law.
    """
    orders = list(orders)
    if tms is None:
        tms = spec.channels + (0,) * (spec.has_point_mass and 0 in orders)
    if spec.a == 0.0:
        return [float(r == 0 and 0 in tms) for r in orders]
    # the channel weights need the (cached) J_y spectrum: building it first
    # refuses an oversized one before the Gauss rule's own eigh
    _jy_eig(spec.tj)
    t, w = _konno_rule(spec.beta, (spec.tj + max(orders)) // 2 + 1)
    x = spec.a * t
    weights = _scalar_grid(spec, tms, x)
    if 0 in tms:
        weights[tms.index(0)] *= 0.5
    moments = []
    for r in orders:
        sums = [float(s).as_integer_ratio() for s in weights @ (w * x**r)]
        try:
            # (2m)^r times each sum in integers, rounded once by the
            # division: (2m)^r alone passes the float range long before the
            # moment does
            moments.append(math.fsum(tm**r * num / den for tm, (num, den) in zip(tms, sums)))
        except OverflowError:
            raise DomainError(f"moment of order {r} overflows floats at 2j+1 = {spec.tj + 1}") from None
    return moments


def limit_moment(spec: LimitSpec, r: int) -> float:
    """r-th moment of the limit law, point mass included (it adds to r = 0
    alone), exact to rounding at every beta through the Gauss rule of
    ``_law_moments``.  A moment past the float range raises DomainError,
    an even size at a = 0 DegenerateSpecError."""
    r = _require_nonneg_int(r, "moment order")
    _require_law(spec)
    return _law_moments(spec, (r,))[0]


def delta_mass(spec: LimitSpec) -> float:
    """Mass of the origin point-term: half of channel 0's own mass
    (``_law_moments``), |phi0(0)|^2 at beta = 0, checked to lie in [0, 1]
    up to 1e-8.  Zero for an even size, except at a = 0: that raises
    DegenerateSpecError."""
    _require_law(spec)
    if not spec.has_point_mass:
        return 0.0
    if spec.beta == 0.0:
        return float(abs(spec.qudit.amplitudes[spec.tj // 2]) ** 2)
    (mass,) = _law_moments(spec, (0,), (0,))
    if not -1e-8 <= mass <= 1.0 + 1e-8:
        raise DomainError(f"point mass {mass} outside [0, 1]: the quadrature failed")
    return min(max(mass, 0.0), 1.0)


def _bin_series(spec: LimitSpec):
    """(coef, geo, root, gap) of ``limit_bin_masses``' antiderivatives, at
    a > 0: per channel (rows), coef[:, 0] = P_0 and coef[:, l] = 2 P_l / l,
    less the tails' part where they are closed; geo the tails' two
    geometric sequences B_s (rows, l = s), or None where the series runs
    on past l = 2j instead; sqrt(rho), and gap = 1 - sqrt(rho).
    """
    a, tj = spec.a, spec.tj
    b = math.sin(0.5 * spec.beta)
    # rho = (a/(1 + b))^2 and 1 - sqrt(rho) = 2b/((1 + b)(1 + sqrt(rho)))
    # keep their digits as beta -> pi and beta -> 0
    rho = (a / (1.0 + b)) ** 2
    root = math.sqrt(rho)
    gap = 2.0 * b / ((1.0 + b) * (1.0 + root))
    closed = rho ** (0.5 * tj) >= 1e-3
    terms = tj
    if not closed and rho > 0.0:
        terms += 2 * (math.floor(math.log(1e-17) / math.log(rho)) + 1)
    # W_m at its 2j+1 first-kind Chebyshev nodes, none on a pike, and their DCT-II
    k = np.arange(tj + 1)
    w = _scalar_grid(spec, spec.channels, -a * np.cos(math.pi / (tj + 1) * (k + 0.5)))
    c = np.fft.rfft(np.concatenate((w, w[:, ::-1]), axis=1))[:, : tj + 1]
    c = (c * np.exp(-0.5j * math.pi / (tj + 1) * k)).real / (2 * (tj + 1))
    c = np.concatenate((c[:, :0:-1], c), axis=1)  # k = -2j..2j
    lag = np.arange(terms + 1)[:, None] - np.arange(-tj, tj + 1)
    even = lag % 2 == 0
    coef = c @ (even * rho ** (np.abs(lag) / 2)).T
    geo = None
    if closed:
        # geo[:, l] = sum_k c_k rho^{(l-k)/2}: the two geometric
        # sequences, B_s at l = s, which P_l joins from l = 2j on
        geo = c @ (even * rho ** (lag / 2)).T
        coef[:, 1:] -= geo[:, 1:]
    coef[:, 1:] *= 2.0 / np.arange(1, terms + 1)
    return coef, geo, root, gap


def limit_bin_masses(spec: LimitSpec, edges) -> np.ndarray:
    """Exact limit-law mass per bin for a sorted array of bin edges.

    Channel m's mass in a bin is G_m(theta2) - G_m(theta1) at the bin's
    edges, theta = arcsin(v / (2m a)) clipped to [-pi/2, pi/2], for a
    closed-form antiderivative G_m of its density in theta, so the pikes at
    channel boundaries need no special casing.  In theta, Konno's measure
    is the Poisson kernel (1/pi) sum_n (-rho)^|n| e^{2 i n theta} with
    rho = (1 - b)/(1 + b), b = sin(beta/2), and W_m(a sin theta) is a
    trigonometric polynomial of degree <= 2j: W_m(a sin theta) =
    sum_k c_k e^{i k (theta + pi/2)}, |k| <= 2j, with c_k real and even in
    k, which one DCT-II of one ``_scalar_grid`` pass over every channel at
    the 2j+1 first-kind Chebyshev nodes (none on a pike) gives exactly.
    Their product has the coefficients i^l P_l, P_l = sum_k c_k
    rho^{|l-k|/2} over l - k even, so with zeta = i e^{i theta}

        pi G_m(theta) = P_0 theta + 2 Im sum_{l>=1} P_l zeta^l / l.

    Past l = 2j, P_l = rho^q B_s for l = s + 2q, B_s = sum_k c_k
    rho^{(s-k)/2}: one geometric sequence per parity s, whose tail sums to
    a log and an atanh.  That closed form is exact but cancels by up to
    rho^-j, so it is taken while rho^-j <= 1e3; beyond, the series is
    summed until rho^q < 1e-17, at most about 6j more terms per parity.
    An edge past a channel's support clips to theta = +-pi/2, where
    zeta = -+1 is real and both tails vanish, so G_m there is P_0
    arcsin(+-1) exactly and the series runs only on the (channel, edge)
    pairs inside the support, in blocks of ``_BLOCK``: the cost is
    O(channels x edges x j) at every beta at most.  Each channel's per-bin
    increment is the integral of a non-negative function, so a
    rounding-level negative one is taken as 0.  The point mass, if any, is
    added to the bin containing v = 0.  A degenerate spec raises
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
        coef, geo, root, gap = _bin_series(spec)
        terms = coef.shape[1] - 1
        # the (channel, edge) pairs, channel-major; a clipped one (|s| = 1)
        # is P_0 arcsin(s) exactly, so only the rest run the series, in blocks
        s = np.clip(edges / (np.array(spec.channels)[:, None] * a), -1.0, 1.0).ravel()
        ch = np.repeat(np.arange(len(spec.channels)), edges.size)
        g = coef[ch, 0] * np.arcsin(s)
        inner = np.flatnonzero(np.abs(s) < 1.0)
        for lo in range(0, inner.size, _BLOCK):
            pick = inner[lo : lo + _BLOCK]
            sb, cb = s[pick], ch[pick]
            # cos theta from s, not cos(arcsin s), which is 6e-17 at s = 1
            cos = np.sqrt((1.0 - sb) * (1.0 + sb))
            zeta = 1j * cos - sb
            table = _powers(zeta, zeta, np.empty((terms, sb.size), dtype=complex)).imag
            g[pick] += np.einsum("pl,lp->p", coef[cb, 1:], table)
            if geo is not None:
                # Im of the tails -log(1 - rho zeta^2)/2 and atanh(sqrt(rho) zeta)/sqrt(rho)
                up = np.arctan2(root * cos, gap + root * (1.0 - sb))
                down = np.arctan2(root * cos, gap + root * (1.0 + sb))
                g[pick] += geo[cb, 1] * (up + down) / root - geo[cb, 0] * (up - down)
        steps = np.diff(g.reshape(len(spec.channels), edges.size), axis=1)
        out += np.maximum(steps, 0.0).sum(axis=0) / math.pi
    if spec.has_point_mass:
        k0 = int(np.searchsorted(edges, 0.0, side="right")) - 1
        if 0 <= k0 < out.size:
            out[k0] += delta_mass(spec)
    return out
