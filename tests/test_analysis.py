import decimal
import math

import numpy as np
import pytest

from quditwalk import (
    DegenerateSpecError,
    DomainError,
    HalfInt,
    LimitSpec,
    continuous_density,
    critical_j,
    curvature_at_origin,
    delta_mass,
    pike_weight,
    pike_weight_paths,
    pike_weight_scaled,
    pike_zero_region,
    preset_qudit,
    rescaled_density,
    weight_matrix_direct,
    weight_scalar,
)
import quditwalk.analysis as analysis
import quditwalk.density as density

BETAS = (math.pi / 10, math.pi / 2, 22 * math.pi / 25)


# ------------------------------------------------------ curvature at v = 0

def test_curvature_half_spin_is_four_over_pi():
    assert curvature_at_origin("1/2", math.pi / 2) == pytest.approx(4.0 / math.pi, abs=1e-12)
    # tan(beta/2) (2 + 1/a^2) / pi in general, a = cos(beta/2); at small
    # beta sin(beta/2) formed as sqrt(1 - a^2) would keep few digits
    for beta in (1e-6, 1e-3, *BETAS):
        a = math.cos(0.5 * beta)
        want = math.tan(0.5 * beta) * (2.0 + 1.0 / (a * a)) / math.pi
        assert curvature_at_origin("1/2", beta) == pytest.approx(want, rel=1e-14, abs=0.0), beta


def test_curvature_rejects_degenerate_angles():
    with pytest.raises(DomainError):
        curvature_at_origin(1, 0.0)
    with pytest.raises(DomainError):
        curvature_at_origin(1, math.pi)


def test_curvature_sign_sequence_at_right_angle():
    report = critical_j(math.pi / 2, HalfInt(49))
    signs = "".join("+" if d2 > 0 else "-" for _, d2 in report.rows)
    assert signs == "++++++-+" + "-" * 41
    # within each parity class of 2j the sign flips exactly once
    for parity in (0, 1):
        family = [d2 > 0 for jv, d2 in report.rows if jv.doubled % 2 == parity]
        flips = sum(a != b for a, b in zip(family, family[1:]))
        assert flips == 1, (parity, family)


def test_origin_bump_survives_at_nine_components():
    # the 2m = 2 term's bracket 2 + 1/a**2 + (2m)**2 - 2j vanishes exactly at
    # a**2 = 1/2, 2j = 8, letting the positive outer channels win once more
    val = curvature_at_origin(4, math.pi / 2)
    assert val > 0.0
    assert val == pytest.approx(0.016294414091055264, rel=1e-12)
    spec = LimitSpec(preset_qudit("paper-sym", 4), math.pi / 2, 0.0)
    h = 1e-3
    fd = (
        continuous_density(spec, h)
        - 2.0 * continuous_density(spec, 0.0)
        + continuous_density(spec, -h)
    ) / h**2
    assert fd == pytest.approx(val, rel=1e-4)


def test_critical_j_table():
    assert critical_j(math.pi / 2, HalfInt(49)).j_critical == HalfInt(9)
    assert critical_j(math.pi / 10, HalfInt(49)).j_critical == HalfInt(7)
    assert critical_j(22 * math.pi / 25, HalfInt(49)).j_critical == HalfInt(37)
    assert critical_j(46 * math.pi / 50, HalfInt(49)).j_critical is None
    # from 2j+1 ~ 1030 on C(2j, j+m) is past the float range, and 2^(1-2j)
    # underflows from 2j+1 = 1077 on; their ratio is neither
    for dim in (1031, 1201, 2001):
        d2 = curvature_at_origin(HalfInt(dim - 1), math.pi / 2)
        assert math.isfinite(d2) and d2 < 0.0, (dim, d2)


@pytest.mark.parametrize("beta", BETAS)
def test_critical_j_rows_equal_the_single_curvatures(beta):
    # Pascal rows in the scan, one multiplicative row per single call: both
    # exact, so every float must agree bit for bit
    report = critical_j(beta, HalfInt(300))
    assert len(report.rows) == 300
    for jv, d2 in report.rows:
        assert d2 == curvature_at_origin(jv, beta), jv


# ----------------------------------------------------------- pike weights

def test_pike_weight_half_spin_is_one():
    for beta in BETAS:
        assert pike_weight("1/2", beta, "1/2") == pytest.approx(1.0, abs=1e-15)


def test_pike_weight_outermost_channel():
    c = math.cos(math.pi / 20)
    expect = 2.0**-7 * ((1.0 - c) ** 7 + (1.0 + c) ** 7)
    assert pike_weight("7/2", math.pi / 10, "7/2") == pytest.approx(expect, rel=1e-14)


def test_pike_weights_sum_to_one():
    for tj in (1, 7, 29):
        for beta in BETAS:
            total = math.fsum(
                pike_weight(HalfInt(tj), beta, HalfInt(tm)) for tm in range(1, tj + 1, 2)
            )
            assert total == pytest.approx(1.0, abs=1e-12), (tj, beta)
    # past 2j+1 ~ 1030 the binomial, and past ~1330 (1+c)^(j+m), leave the
    # float range on their own; the weights themselves do not
    for tj in (1099, 2000):
        _, h = pike_weight_scaled(HalfInt(tj), math.pi / 2)
        weights = h / (tj / math.sqrt(2.0))
        assert np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12), tj


def _decimal_sin_cos(x):
    """(sin x, cos x) for a Decimal x, from their Taylor series in the
    current decimal context."""
    sin, cos, term, k = decimal.Decimal(0), decimal.Decimal(0), decimal.Decimal(1), 0
    eps = decimal.Decimal(10) ** -(decimal.getcontext().prec + 5)
    while abs(term) > eps:
        if k % 2:
            sin += term if k % 4 == 1 else -term
        else:
            cos += term if k % 4 == 0 else -term
        k += 1
        term = term * x / k
    return sin, cos


@pytest.mark.parametrize("beta", (1e-3, 0.01, math.pi / 2, 2.9))
def test_pike_weights_are_correctly_rounded(beta):
    # 1 - c formed from the float c = cos(beta/2) keeps only the digits
    # that c has below 1 (1.3e-11 off at beta = 0.01), and the float sin
    # and cos carry half an ulp into powers up to 2j: the weights come from
    # decimal sin(beta/2) and cos(beta/2) instead
    worst = 0.0
    with decimal.localcontext(decimal.Context(prec=50)):
        b, c = _decimal_sin_cos(decimal.Decimal(beta) / 2)
        for dim in (4, 50, 130):
            tj = dim - 1
            for tm in range(tj % 2 or 2, tj + 1, 2):
                p, q = (tj + tm) // 2, (tj - tm) // 2
                ref = math.comb(tj, p) * ((1 - c) ** p * (1 + c) ** q + (1 + c) ** p * (1 - c) ** q) / 2**tj
                got = pike_weight(HalfInt(tj), beta, HalfInt(tm))
                # weights past the float range round to 0 (or a subnormal)
                # in both
                gap = abs(decimal.Decimal(got) - ref) - decimal.Decimal(math.ulp(0.0))
                worst = max(worst, float(gap / ref))
    assert worst <= 2.3e-16, worst


def test_pike_weight_rejects_bad_channels():
    with pytest.raises(DomainError):
        pike_weight(1, math.pi / 2, 0)
    with pytest.raises(DomainError):
        pike_weight(1, math.pi / 2, "1/2")


def test_pike_weight_rejects_beta_outside_zero_pi():
    for beta in (math.nan, 7.0):
        with pytest.raises(DomainError):
            pike_weight(1, beta, 1)


def test_paths_agree_at_steep_angles():
    for beta in (math.pi / 2, 22 * math.pi / 25):
        worst = 0.0
        for tj in range(1, 30):
            for tm in range(2 - tj % 2, tj + 1, 2):
                if tm == 0:
                    continue
                closed, quad = pike_weight_paths(HalfInt(tj), beta, HalfInt(tm))
                worst = max(worst, abs(closed - quad) / max(abs(closed), 1e-300))
        assert worst < 1e-8, (beta, worst)


def test_paths_at_shallow_angle_hit_the_precision_floor():
    # at beta = pi/10 the matrix path subtracts terms of order (1+a)^2j ~ 2^2j
    # to reach weights of order (1-a)^2j ~ 80^-2j, so its relative error grows
    # like 160^2j * eps and saturates near 7e-5 by 2j = 29; the closed form is
    # the accurate one.  This floor is why the two-path cross-check in the
    # acceptance suite only covers the steeper angles.
    worst = 0.0
    for tj in range(1, 30):
        for tm in range(2 - tj % 2, tj + 1, 2):
            if tm == 0:
                continue
            closed, quad = pike_weight_paths(HalfInt(tj), math.pi / 10, HalfInt(tm))
            worst = max(worst, abs(closed - quad) / max(abs(closed), 1e-300))
    assert worst < 1e-3, worst


@pytest.mark.parametrize("dim", (2, 3, 7, 50, 130, 260))
def test_paths_match_the_public_pieces_bit_for_bit(dim):
    # the cached paper-sym qudit, point factors and 2x2 block change no bit
    # of the matrix path against a fresh qudit, matrix and quadratic form
    tj = dim - 1
    for beta in (math.pi / 2, 22 * math.pi / 25, 0.3, 1e-3):
        for tm in range(2 - tj % 2, tj + 1, 2):
            closed, quad = pike_weight_paths(HalfInt(tj), beta, HalfInt(tm))
            mat = weight_matrix_direct(HalfInt(tj), HalfInt(tm), math.cos(0.5 * beta), beta, 0.0)
            want = weight_scalar(mat, preset_qudit("paper-sym", HalfInt(tj)))
            assert (closed, quad.hex()) == (pike_weight(HalfInt(tj), beta, HalfInt(tm)), want.hex())
    amps = analysis._sym_qudit(tj).amplitudes
    with pytest.raises(ValueError):
        amps *= 2


@pytest.mark.parametrize("dim", (7, 50, 130))
def test_paths_off_the_support_take_the_full_matrix(monkeypatch, dim):
    # no beta is known to put a pike off the support, so the 2x2 block is
    # refused by hand: the full matrix and weight_scalar agree bit for bit
    tj = dim - 1
    for beta in (math.pi / 2, 22 * math.pi / 25):
        paths = [(HalfInt(tj), beta, HalfInt(tm)) for tm in range(2 - tj % 2, tj + 1, 2)]
        block = [pike_weight_paths(*args) for args in paths]
        with monkeypatch.context() as mp:
            mp.setattr(density, "_support_block", lambda *args: None)
            full = [pike_weight_paths(*args) for args in paths]
        assert [(c, q.hex()) for c, q in full] == [(c, q.hex()) for c, q in block]


def test_innermost_pike_at_fifty_components():
    got = pike_weight(HalfInt(49), math.pi / 2, "1/2")
    assert got == pytest.approx(math.comb(49, 25) / 2**72, rel=1e-13)
    assert got > 1e-8  # no channel dies at the default threshold yet


def test_zero_region_growth():
    assert pike_zero_region(HalfInt(49), math.pi / 2) == ()
    z96 = pike_zero_region(HalfInt(95), math.pi / 2)
    z130 = pike_zero_region(HalfInt(129), math.pi / 2)
    assert len(z96) == 11 and z96[-1] == HalfInt(21)
    assert len(z130) == 20 and z130[-1] == HalfInt(39)
    with pytest.raises(DomainError):
        pike_zero_region(HalfInt(49), math.pi / 2, math.nan)


# ------------------------------------------------------- rescaled structure

def test_scaled_envelope_half_spin():
    u, h = pike_weight_scaled("1/2", math.pi / 2)
    assert u.shape == (1,) and h.shape == (1,)
    assert u[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert h[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


def test_scaled_envelope_sharpens_with_j():
    inner, peaks, argmax = [], [], []
    for tj in (49, 95, 129):
        u, h = pike_weight_scaled(HalfInt(tj), math.pi / 2)
        assert u.shape == ((tj + 1) // 2,)
        alive = u[h > 1e-6]
        inner.append(float(alive.min()))
        peaks.append(float(h.max()))
        argmax.append(float(u[h.argmax()]))
    assert inner[0] < inner[1] < inner[2]  # the dead zone widens
    assert inner == pytest.approx([0.0433, 0.1712, 0.2247], abs=1e-3)
    assert peaks[0] < peaks[1] < peaks[2]
    assert peaks == pytest.approx([5.561, 7.707, 8.997], abs=1e-2)
    for am in argmax:
        assert abs(am - 0.5) < 0.02  # the envelope crests near u = 1/2


def _integral_between_pikes(f, knots, order=80):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * math.pi * nodes
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        u = mid + half * np.sin(theta)
        total += float(np.sum(f(u) * half * np.cos(theta) * 0.5 * math.pi * weights))
    return total


def test_rescaled_density_mass_balances_the_point_mass():
    tj = 10
    spec = LimitSpec(preset_qudit("paper-sym", HalfInt(tj)), math.pi / 2, 0.0)
    assert np.all(rescaled_density(spec, np.array([-math.inf, -2.0, -1.0, 1.0, 3.0, math.inf])) == 0.0)
    for bad in (math.nan, np.array([0.0, math.nan])):
        with pytest.raises(DomainError):
            rescaled_density(spec, bad)
    knots = [tm / tj for tm in range(-tj, tj + 1, 2)]
    total = _integral_between_pikes(lambda u: rescaled_density(spec, u), knots)
    assert total == pytest.approx(1.0 - delta_mass(spec), abs=1e-6)


def test_rescaled_density_rejects_collapsed_support():
    spec = LimitSpec(preset_qudit("paper-sym", 1), math.pi)  # a = 0, odd size
    with pytest.raises(DegenerateSpecError):
        rescaled_density(spec, 0.0)
