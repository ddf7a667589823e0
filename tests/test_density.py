import ast
import cmath
import decimal
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditwalk
from quditwalk import (
    DegenerateSpecError,
    DomainError,
    HalfInt,
    LimitSpec,
    Qudit,
    continuous_density,
    delta_mass,
    konno_density,
    limit_bin_masses,
    limit_moment,
    offdiag_poly,
    preset_qudit,
    weight_matrix_direct,
    weight_matrix_second,
    weight_matrix_top,
    weight_scalar,
)
import quditwalk.density as density
from quditwalk.coin import _jy_eig
from weight_reference import decimal_matrix, grown_top

BETAS = (math.pi / 10, math.pi / 2, 22 * math.pi / 25)
PI = Decimal("3.14159265358979323846264338327950288419716939937511")


def _worse(worst, gap):
    """The larger of two gaps, or of two tuples by their first entries,
    where a nan wins and stays: max(0.0, nan) is 0.0, which would let a
    nan matrix pass a sweep."""
    old, new = (v[0] if isinstance(v, tuple) else v for v in (worst, gap))
    return worst if math.isnan(old) or old >= new else gap


def _konno_decimal(x: float, a: float, b: float) -> Decimal:
    """b / [pi (1 - x^2) sqrt(a^2 - x^2)] in 40 digits at the floats given."""
    with decimal.localcontext(decimal.Context(prec=40)):
        x, a = Decimal(x), Decimal(a)
        return Decimal(b) / (PI * (1 - x * x) * (a * a - x * x).sqrt())


# ------------------------------------------------------------ base density

def test_konno_support_and_values():
    a = 0.8
    assert konno_density(0.0, a) == pytest.approx(math.sqrt(1 - a * a) / (math.pi * a), abs=1e-15)
    assert konno_density(a, a) == 0.0  # divergent endpoint clipped to zero
    assert konno_density(-1.0, a) == 0.0
    assert konno_density(-math.inf, a) == 0.0
    arr = konno_density(np.array([-0.9, 0.1, 0.9]), a)
    assert arr[0] == 0.0 and arr[1] > 0.0 and arr[2] == 0.0
    with pytest.raises(DomainError):
        konno_density(0.0, 1.5)
    for bad in (math.nan, np.array([0.1, math.nan])):
        with pytest.raises(DomainError):
            konno_density(bad, a)
    # up to a relative 1e-14 inside the pike, where a^2 - x^2 and, at small
    # beta, 1 - a^2 and 1 - x^2 would cancel if formed from the squares
    worst = 0.0
    for beta in BETAS + (1e-3,):
        a = math.cos(0.5 * beta)
        b = math.sqrt((1.0 - a) * (1.0 + a))
        for k in range(2, 15):
            x = a * (1.0 - 10.0**-k)
            got = konno_density(x, a)
            worst = _worse(worst, abs(float(Decimal(got) / _konno_decimal(x, a, b)) - 1.0))
    assert worst <= 2e-15, worst


def test_konno_normalization_and_second_moment():
    # x = a sin(theta) absorbs the endpoint divergence, leaving a smooth
    # integrand that Gauss-Legendre nails
    nodes, weights = np.polynomial.legendre.leggauss(400)
    theta = 0.5 * math.pi * nodes
    for a in (0.3, 1.0 / math.sqrt(2.0), 0.95):
        x = a * np.sin(theta)
        vals = konno_density(x, a) * a * np.cos(theta) * 0.5 * math.pi
        assert float(np.dot(weights, vals)) == pytest.approx(1.0, abs=1e-10)
        second = float(np.dot(weights, vals * x * x))
        assert second == pytest.approx(1.0 - math.sqrt(1.0 - a * a), abs=1e-10)
    # the moments' n-node Gauss rule for this measure is exact to degree
    # 2n - 1; dividing x^(2k) (1 - x^2) out of the density leaves an arcsine
    # law, so m_(2k+2) = m_(2k) - b a^(2k) C(2k, k) / 4^k with b = sin(beta/2)
    for beta in (1e-6, 0.3, math.pi / 2, 3.0):
        spec = LimitSpec(preset_qudit("up", "1/2"), beta)
        a, b = spec.a, math.sin(0.5 * beta)
        for n in range(1, 9):
            t, w = density._konno_rule(beta, n)
            x = a * t
            assert np.all(np.abs(x) < a) and np.all(w > 0.0)
            mom = 1.0
            for k in range(n):
                assert float(w @ x ** (2 * k)) == pytest.approx(mom, abs=1e-14), (beta, n, k)
                assert abs(float(w @ x ** (2 * k + 1))) < 1e-14
                mom -= b * a ** (2 * k) * math.comb(2 * k, k) / 4**k


# ------------------------------------------------------- entry polynomials

def _f_literal(order, tau, x):
    if order == 0:
        return np.ones_like(x)
    if order == 1:
        return tau * x
    if order == 2:
        return (2 * tau**2 + 1) * x**2 - 1
    if order == 3:
        return (4 * tau**3 + 3 * tau) * x**3 - 3 * tau * x
    return (8 * tau**4 + 8 * tau**2 + 1) * x**4 - (8 * tau**2 + 2) * x**2 + 1


def test_offdiag_poly_matches_low_order_literals():
    xs = np.linspace(-1.0, 1.0, 41)
    worst = 0.0
    for beta in BETAS:
        tau = math.tan(0.5 * beta)
        for order in range(5):
            lit = _f_literal(order, tau, xs)
            gap = np.abs(offdiag_poly(order, tau, xs) - lit) / np.maximum(1.0, np.abs(lit))
            worst = _worse(worst, float(gap.max()))
    assert worst < 5e-13, worst


def test_offdiag_poly_parity_is_exact():
    xs = np.linspace(-1.0, 1.0, 16)  # no exact zero: f3(0) rounds to ~1e-16
    assert np.array_equal(offdiag_poly(3, 0.7, -xs), -offdiag_poly(3, 0.7, xs))
    assert np.array_equal(offdiag_poly(4, 0.7, -xs), offdiag_poly(4, 0.7, xs))


def test_offdiag_poly_keeps_its_digits_at_the_pikes():
    # f_n = Re (tau x + i w)^n with w^2 = 1 - (1+tau^2) x^2, exact in
    # rationals for float tau and x.  Near the pike w^2 cancels: just inside,
    # a float discriminant's rounding would grow n-fold in cos(n phi), and
    # just outside w = sqrt(-w^2) would keep few of its digits; at small
    # beta 1 - x^2 is small too, and 1 - x*x would lose its digits
    steps = np.logspace(-15, -6, 19)
    for beta in BETAS + (1e-3,):
        tau = math.tan(0.5 * beta)
        xs = np.concatenate((1.0 - steps, 1.0 + steps)) / math.sqrt(1.0 + tau * tau)
        for order in (5, 20, 60):
            got = offdiag_poly(order, tau, xs)
            for x, g in zip(xs, got):
                tx = Fraction(tau) * Fraction(x)
                w2 = 1 - (1 + Fraction(tau) ** 2) * Fraction(x) ** 2
                exact = sum(
                    math.comb(order, 2 * k) * tx ** (order - 2 * k) * (-w2) ** k
                    for k in range(order // 2 + 1)
                )
                if w2 >= 0:
                    scale = (1.0 - x * x) ** (0.5 * order)  # |tau x + i w|^n
                else:
                    scale = (tau * x + math.sqrt(float(-w2))) ** order
                assert abs(g - float(exact)) <= 2e-13 * scale, (beta, order, x)


def test_offdiag_poly_validates_arguments():
    with pytest.raises(DomainError):
        offdiag_poly(-1, 0.5, 0.0)
    with pytest.raises(DomainError):
        offdiag_poly(2, math.inf, 0.0)
    for bad in (math.inf, math.nan, 1.5):
        with pytest.raises(DomainError):
            offdiag_poly(bad, 0.5, 0.2)
    for bad in (math.nan, math.inf, -math.inf, [0.3, math.nan]):
        with pytest.raises(DomainError):
            offdiag_poly(3, 0.5, bad)


# -------------------------------------- the defining sum, summed literally

def _ladder_coeff(tj, tm1, tm, ell):
    num = (
        math.factorial((tj + tm1) // 2)
        * math.factorial((tj - tm1) // 2)
        * math.factorial((tj + tm) // 2)
        * math.factorial((tj - tm) // 2)
    )
    den = (
        math.factorial((tj - tm) // 2 - ell)
        * math.factorial((tj + tm1) // 2 - ell)
        * math.factorial(ell)
        * math.factorial(ell + (tm - tm1) // 2)
    )
    return (-1) ** ell * math.sqrt(num) / den


def _f_triple_sum(order, tau, x):
    total = 0.0
    for k0 in range(order // 2 + 1):
        for k1 in range(k0 + 1):
            for k2 in range(k1 + 1):
                total += (
                    math.comb(order, 2 * k0)
                    * math.comb(k0, k1)
                    * math.comb(k1, k2)
                    * (-1) ** (k0 + k1)
                    * tau ** (order - 2 * (k0 - k2))
                    * x ** (order - 2 * (k0 - k1))
                )
    return total


def _entry_by_brute_force(tj, tm, tm1, tm2, x, beta, gamma):
    # wedge entries only: m1 <= m2 and m1 >= -m2
    tau = math.tan(0.5 * beta)
    terms = []
    for l1 in range(max(0, (tm1 - tm) // 2), min((tj - tm) // 2, (tj + tm1) // 2) + 1):
        for l2 in range(max(0, (tm2 - tm) // 2), min((tj - tm) // 2, (tj + tm2) // 2) + 1):
            a = tj - (tm - tm1) // 2 - (l1 + l2)
            b = (tm - tm2) // 2 + (l1 + l2)
            if a < 0 or b < 0:
                continue
            gg = _ladder_coeff(tj, tm1, tm, l1) * _ladder_coeff(tj, tm2, tm, l2)
            for k1 in range(a + 1):
                for k2 in range(b + 1):
                    terms.append(
                        gg
                        * math.comb(a, k1)
                        * math.comb(b, k2)
                        * (-1) ** k1
                        * x ** (k1 + k2)
                    )
    order = (tm2 - tm1) // 2
    return (
        2.0 ** (1 - tj)
        * math.fsum(terms)
        * _f_triple_sum(order, tau, x)
        * cmath.exp(-1j * order * gamma)
    )


def _any_entry_by_brute_force(tj, tm, tm1, tm2, x, beta, gamma):
    # hermiticity and the reflection M_{m1 m2}(x) = (-1)^(m1+m2+2m) M_{-m2,-m1}(-x)
    # carry every entry to a wedge entry
    if tm1 > tm2:
        return _any_entry_by_brute_force(tj, tm, tm2, tm1, x, beta, gamma).conjugate()
    if tm1 < -tm2:
        sign = (-1) ** (((tm1 + tm2) // 2 + tm) % 2)
        return sign * _entry_by_brute_force(tj, tm, -tm2, -tm1, -x, beta, gamma)
    return _entry_by_brute_force(tj, tm, tm1, tm2, x, beta, gamma)


def test_entries_match_the_literal_sum_at_small_sizes():
    # every entry at both signs of x, on the support and off it, against
    # the defining double sum.  Entries reach 3e7 at 22pi/25, so past 100
    # the bound is relative.
    worst = 0.0
    for tj in (3, 5, 8):
        for tm in range(tj % 2, tj + 1, 2):
            for beta in BETAS:
                for x in (-0.97, -0.9, -0.35, 0.2, 0.9, 0.97):
                    full = weight_matrix_direct(tj / 2, tm / 2, x, beta, 0.3).entries
                    for i1 in range(tj + 1):
                        for i2 in range(tj + 1):
                            brute = _any_entry_by_brute_force(
                                tj, tm, tj - 2 * i1, tj - 2 * i2, x, beta, 0.3
                            )
                            gap = abs(full[i1, i2] - brute)
                            worst = _worse(worst, gap / max(1.0, 1e-2 * abs(brute)))
    assert worst < 1e-10, worst


# ------------------------------------------------------- matrix structure

def test_hermitian_and_reflection_by_explicit_indices():
    for tj, tm in ((5, 3), (8, 4), (8, 0)):
        for x in (-0.7, 0.33):
            m = weight_matrix_direct(tj / 2, tm / 2, x, math.pi / 2, 0.9).entries
            n = weight_matrix_direct(tj / 2, tm / 2, -x, math.pi / 2, 0.9).entries
            assert float(np.abs(m - m.conj().T).max()) < 1e-14
            for i1 in range(tj + 1):
                for i2 in range(tj + 1):
                    tm1, tm2 = tj - 2 * i1, tj - 2 * i2
                    r, c = (tj + tm2) // 2, (tj + tm1) // 2
                    sign = (-1) ** (((tm1 + tm2) // 2 + tm) % 2)
                    assert abs(m[r, c] - sign * n[i1, i2]) < 1e-12


@pytest.mark.parametrize("dim", (2, 3, 4, 5, 13, 50, 51, 130, 260))
def test_on_support_matrices_are_exactly_hermitian(dim):
    # numpy may fuse a complex product's multiply-adds, so v_a conj(v_b) and
    # v_b conj(v_a) can round apart and the diagonal gain an imaginary part
    tj = dim - 1
    for beta in (0.01, 1.0, math.pi / 2, 3.0):
        a = math.cos(0.5 * beta)
        for tm in range(tj % 2, tj + 1, 2):
            for x in (-0.83 * a, 0.2 * a, 0.97 * a):
                m = weight_matrix_direct(HalfInt(tj), HalfInt(tm), x, beta, 0.4).entries
                assert np.array_equal(m, m.conj().T), (beta, tm, x)


def test_half_spin_weights():
    # M at j = 1/2 against its two-by-two closed form, contracted with "up"
    for x in (-0.9, -0.2, 0.55):
        mat = weight_matrix_direct("1/2", "1/2", x, math.pi / 2)
        assert weight_scalar(mat, preset_qudit("up", "1/2")) == pytest.approx(1.0 - x, abs=1e-14)


def test_matrix_argument_validation():
    with pytest.raises(DomainError):
        weight_matrix_direct(1, "1/2", 0.3, math.pi / 2)  # m off the lattice
    with pytest.raises(DomainError):
        weight_matrix_direct(1, -1, 0.3, math.pi / 2)  # negative channel
    with pytest.raises(DomainError):
        weight_matrix_direct(1, 1, 0.3, math.pi)  # beta must stay below pi
    with pytest.raises(DomainError):
        weight_matrix_second(2, 1.0, math.pi / 2)  # rescaling blows up at x = 1
    top = weight_matrix_top(2, 0.4, math.pi / 2)
    with pytest.raises(DomainError):
        weight_matrix_second(2, 0.5, math.pi / 2, top=top)  # mismatched point
    for beta, gamma in ((0.3, 0.0), (math.pi / 2, 1.0), (5.0, 0.0)):
        with pytest.raises(DomainError):  # mismatched beta or gamma, or beta outside [0, pi)
            weight_matrix_second(2, 0.4, beta, gamma, top)
    with pytest.raises(DomainError):
        weight_matrix_second(2, 0.4, 5.0)
    # non-finite points and gamma, on the support and off it
    for x, gamma in ((math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.3, math.inf), (0.9, math.nan)):
        for call in (
            lambda: weight_matrix_direct(2, 2, x, math.pi / 2, gamma),
            lambda: weight_matrix_direct(2, 1, x, math.pi / 2, gamma),
            lambda: weight_matrix_top(2, x, math.pi / 2, gamma),
            lambda: weight_matrix_second(2, x, math.pi / 2, gamma),
        ):
            with pytest.raises(DomainError):
                call()


def test_matrices_past_the_unit_interval_are_refused():
    # x = -cos(alpha) has no angle past |x| = 1, one ulp past it included
    for x in (np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0), 4.0, -4.0):
        for call in (
            lambda: weight_matrix_direct(2, 1, x, math.pi / 2),
            lambda: weight_matrix_top(2, x, math.pi / 2),
            lambda: weight_matrix_second(2, x, math.pi / 2),
        ):
            with pytest.raises(DomainError, match=r"\|x\| <= 1"):
                call()


def test_matrices_past_the_float_range_are_refused():
    # at x = 1 and beta = 3.1 the corner entry grows like tau^200, past the
    # float range at 201 components: an error, not inf or nan entries
    with pytest.raises(DomainError, match="overflows"):
        weight_matrix_top(100, 1.0, 3.1)


def test_column_ends_past_the_extended_range_are_refused():
    # at x = 1 and beta = 1e-6 the top channel's scaled column starts at
    # tau^1000 ~ 1e-6300, below even the extended range: a recurrence from
    # 0 would return a zero matrix whose last entry is really 2
    with pytest.raises(DomainError, match="extended range"):
        weight_matrix_top(500, 1.0, 1e-6)


def test_grown_matrix_matches_direct_at_small_sizes():
    worst = 0.0
    for j in (1.0, 1.5, 3.0):
        for beta in (math.pi / 10, math.pi / 2):
            for x in (-0.8, -0.3, 0.1, 0.6, 0.95):
                grown = grown_top(int(2 * j), x, beta, 0.45)
                direct = weight_matrix_direct(j, j, x, beta, 0.45).entries
                worst = _worse(worst, float(np.abs(grown - direct).max()))
    assert worst < 1e-11, worst


def test_grown_matrix_matches_direct_at_fifty_components():
    worst = 0.0
    for tj in (49, 50):
        for beta in (math.pi / 2, 22 * math.pi / 25):
            for x in (-1.0, -0.9999995, -0.85, -0.3, 0.4, 0.9, 0.9999995, 1.0):
                direct = weight_matrix_direct(tj / 2, tj / 2, x, beta, 0.6)
                grown = grown_top(tj, x, beta, 0.6)
                gap = np.linalg.norm(direct.entries - grown)
                worst = _worse(worst, float(gap / np.linalg.norm(grown)))
    assert worst < 1e-6, worst


def test_top_matrix_matches_the_grown_oracle():
    # the public top-channel matrix against the half-spin recurrence, off
    # the support and on it, up to 130 components, x = +-1 included
    worst = 0.0
    for tj, betas in ((1, BETAS), (2, BETAS), (3, BETAS), (29, BETAS), (49, BETAS), (129, (math.pi / 2,))):
        for beta in betas:
            for x in (-1.0, -0.9999995, -0.3, 0.4, 0.85, 0.9999995, 1.0):
                top = weight_matrix_top(tj / 2, x, beta, 0.6)
                grown = grown_top(tj, x, beta, 0.6)
                assert top.cancellation == 1.0, (tj, beta, x)
                gap = np.linalg.norm(top.entries - grown) / np.linalg.norm(grown)
                worst = _worse(worst, float(gap))
    assert worst < 1e-13, worst


def test_off_support_entries_match_the_decimal_oracle():
    # every entry of channels below the top one, whose factorial sums
    # cancel, against the 60-digit factorial-sum oracle
    for dim, tm, x, beta, gamma in (
        (50, 1, 0.85, math.pi / 2, 0.7),
        (65, 2, 0.9, 22 * math.pi / 25, 0.0),
        (40, 5, 0.6, 3.1, 0.0),
    ):
        ref = decimal_matrix(dim - 1, tm, x, beta, gamma)
        got = weight_matrix_direct((dim - 1) / 2, tm / 2, x, beta, gamma).entries
        gap = float((np.abs(got - ref) / np.abs(ref)).max())
        assert gap <= 1e-9, (dim, tm, gap)


@pytest.mark.parametrize("dim", (30, 40, 50))
def test_benchmark_off_support_points_match_the_decimal_oracle(dim):
    # the off-support points of the benchmark's weight-matrix jobs: channel
    # m = j-1 at x = +-0.85, beta = pi/2, gamma = 0.7, every entry against
    # the 60-digit factorial-sum oracle
    tj = dim - 1
    for x in (0.85, -0.85):
        ref = decimal_matrix(tj, tj - 2, x, math.pi / 2, 0.7)
        got = weight_matrix_direct(HalfInt(tj), HalfInt(tj - 2), x, math.pi / 2, 0.7).entries
        gap = float((np.abs(got - ref) / np.abs(ref)).max())
        assert gap <= 1e-13, (x, gap)


def test_entries_just_past_the_pikes_match_the_decimal_oracle():
    # off the support, from 1e-13 to 1e-5 past either pike, where
    # w^2 = (1+tau^2) x^2 - 1 cancels, up to 130 components and from a
    # shallow beta to 22pi/25
    worst = (0.0,)
    for beta in (math.pi / 10, 0.01, math.pi / 2, 22 * math.pi / 25):
        tau = math.tan(0.5 * beta)
        edge = 1.0 / math.sqrt(1.0 + tau * tau)
        for x in edge * (1.0 + np.array([1e-13, 1e-11, 1e-9, 1e-7, 1e-5])):
            for sx in (-x, x):
                for dim in (13, 50, 130):
                    tj = dim - 1
                    for tm in (tj, tj - 2, 2 - tj % 2):
                        ref = decimal_matrix(tj, tm, sx, beta, 0.3)
                        got = weight_matrix_direct(tj / 2, tm / 2, sx, beta, 0.3).entries
                        gap = float(np.abs(got - ref).max()) / max(1.0, float(np.abs(ref).max()))
                        worst = _worse(worst, (gap, beta, sx, dim, tm))
    assert worst[0] <= 1e-14, worst


@pytest.mark.parametrize("dim", (130, 260))
def test_off_support_matrices_at_large_sizes_match_the_decimal_oracle(dim):
    # every entry of the top, second and smallest channel far off the
    # support, near |x| = 1 and in between, where the entries reach 1e262;
    # at beta = 3.1 they pass the float range at 260 components, where the
    # oracle holds infinities and the package must refuse
    tj = dim - 1
    worst = (0.0,)
    far = 22 * math.pi / 25
    for beta, x in ((3.1, 0.9999995), (2.0, -0.9999995), (math.pi / 2, 0.95), (far, -0.3), (far, 0.99)):
        for tm in (tj, tj - 2, 2 - tj % 2):
            ref = decimal_matrix(tj, tm, x, beta, 0.4)
            if not np.isfinite(ref).all():
                assert dim == 260 and beta == 3.1, (beta, x, tm)
                with pytest.raises(DomainError, match="overflows"):
                    weight_matrix_direct(tj / 2, tm / 2, x, beta, 0.4)
                continue
            got = weight_matrix_direct(tj / 2, tm / 2, x, beta, 0.4).entries
            gap = float(np.abs(got - ref).max()) / max(1.0, float(np.abs(ref).max()))
            worst = _worse(worst, (gap, beta, x, tm))
    assert worst[0] <= 1e-14, worst


@pytest.mark.parametrize("dim", (130, 260))
def test_on_support_entries_match_the_decimal_oracle(dim):
    # the coin's d^j(alpha) column and the phase, on the support
    # at large j: a relative 1e-9 inside either pike, at 0 and between, for
    # beta near 0, at pi/2 and near pi; channels m = j, j-1 and the smallest
    tj = dim - 1
    worst = (0.0,)
    for beta in (1e-3, math.pi / 2, math.pi - 1e-3):
        a = math.cos(0.5 * beta)
        for x in (-(1.0 - 1e-9) * a, -0.55 * a, 0.0, 0.3 * a, (1.0 - 1e-9) * a):
            for tm in (tj, tj - 2, 2 - tj % 2):
                for gamma in (0.0, 0.4):
                    ref = decimal_matrix(tj, tm, x, beta, gamma)
                    mat = weight_matrix_direct(tj / 2, tm / 2, x, beta, gamma)
                    assert mat.cancellation == 1.0, (beta, x, tm)
                    gap = float(np.abs(mat.entries - ref).max()) / max(1.0, float(np.abs(ref).max()))
                    worst = _worse(worst, (gap, beta, x, tm, gamma))
    assert worst[0] <= 1e-13, worst


def test_pike_point_takes_the_rank_two_form():
    # x = +-cos(beta/2) can round one ulp past (1+tau^2) x^2 <= 1 (it does
    # at beta = 22pi/25); within a few ulps it takes the rank-two form at
    # the edge, and past them the off-support column
    rng = np.random.default_rng(2025)
    worst = 0.0
    for beta in (22 * math.pi / 25, *rng.uniform(0.2, 3.0, size=3)):
        tau = math.tan(0.5 * beta)
        for sign in (1.0, -1.0):
            pike = sign * math.cos(0.5 * beta)
            xs = [pike]
            for target in (2.0 * sign, 0.0):  # two ulps outward, two inward
                x = pike
                for _ in range(2):
                    x = float(np.nextafter(x, target))
                    xs.append(x)
            # the nearest point on the support, whose matrix is the reference
            edge = pike
            while (1.0 + tau * tau) * edge * edge > 1.0:
                edge = float(np.nextafter(edge, 0.0))
            for tj in (29, 49, 129):
                for tm in range(2 - tj % 2, tj + 1, 2):
                    ref = weight_matrix_direct(tj / 2, tm / 2, edge, beta).entries
                    scale = float(np.abs(ref).max())
                    for x in xs:
                        mat = weight_matrix_direct(tj / 2, tm / 2, x, beta)
                        assert mat.cancellation == 1.0, (beta, tj, tm, x)
                        if (1.0 + tau * tau) * x * x > 1.0:
                            gap = float(np.abs(mat.entries - ref).max()) / scale
                            worst = _worse(worst, gap)
    assert worst <= 1e-10, worst


def test_second_channel_rescaling_matches_direct():
    worst = 0.0
    for j, beta, x in (
        (1.0, math.pi / 2, -0.8),
        (1.5, math.pi / 10, 0.1),
        (3.0, math.pi / 2, 0.6),
        (24.5, math.pi / 2, 0.15),
        (25.0, math.pi / 10, -0.6),
    ):
        second = weight_matrix_second(j, x, beta, 0.45).entries
        direct = weight_matrix_direct(j, j - 1, x, beta, 0.45).entries
        worst = _worse(worst, float(np.linalg.norm(second - direct) / np.linalg.norm(second)))
    assert worst < 1e-6, worst


def test_weight_scalar_checks_dimensions():
    mat = weight_matrix_direct(1, 1, 0.2, math.pi / 2)
    with pytest.raises(DomainError):
        weight_scalar(mat, preset_qudit("up", "1/2"))


@settings(deadline=None, max_examples=40)
@given(
    tj=st.integers(1, 10),
    beta=st.floats(0.3, 2.8),
    gamma=st.floats(-math.pi, math.pi),
    data=st.data(),
)
def test_on_support_matrices_are_psd(tj, beta, gamma, data):
    tm = data.draw(st.sampled_from(list(range(tj % 2, tj + 1, 2))))
    a = math.cos(0.5 * beta)
    x = data.draw(st.floats(-a, a))
    mat = weight_matrix_direct(HalfInt(tj), HalfInt(tm), x, beta, gamma).entries
    assert float(np.abs(mat - mat.conj().T).max()) < 1e-12
    assert float(np.linalg.eigvalsh(mat)[0]) > -1e-9


# ----------------------------------------------------------- limit density

def test_spec_properties_and_validation():
    spec = LimitSpec(preset_qudit("paper-sym", 2), math.pi / 2, 0.0)
    assert spec.channels == (4, 2)
    assert spec.has_point_mass and not spec.is_degenerate
    assert LimitSpec(preset_qudit("up", "1/2"), 0.0).is_degenerate  # a = 1
    assert LimitSpec(preset_qudit("up", "1/2"), math.pi).is_degenerate  # even, a = 0
    assert not LimitSpec(preset_qudit("up", 1), math.pi).is_degenerate  # pure point mass
    assert not LimitSpec(preset_qudit("up", "1/2"), math.pi).has_law
    assert LimitSpec(preset_qudit("up", 1), math.pi).has_law
    assert LimitSpec(preset_qudit("up", "1/2"), 0.0).has_law
    with pytest.raises(DomainError):
        LimitSpec(preset_qudit("up", 1), -0.1)
    with pytest.raises(DomainError):
        LimitSpec(preset_qudit("up", 1), math.pi / 2, math.nan)


def test_channel_up_reduction():
    # with all weight on m = j = 1/2 the density is the base law tilted by 1 - x
    spec = LimitSpec(preset_qudit("up", "1/2"), math.pi / 2)
    v = np.linspace(-0.9, 0.9, 37)
    expect = konno_density(v, spec.a) * (1.0 - v)
    assert float(np.abs(continuous_density(spec, v) - expect).max()) < 1e-12
    assert limit_moment(spec, 2) == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-10)
    assert limit_moment(spec, 0) == pytest.approx(1.0, abs=1e-12)
    # the closed forms m2 = 1 - sin(beta/2) and mass 1 over the whole domain,
    # where the law's peak near +-a is only sin(beta/2) wide
    for beta in (0.0, 1e-9, 1e-6, 1e-3, 0.002, 0.05, math.pi / 2, 3.0, math.pi - 1e-9):
        spec = LimitSpec(preset_qudit("up", "1/2"), beta)
        assert limit_moment(spec, 2) == pytest.approx(1.0 - math.sin(0.5 * beta), abs=1e-14)
        assert limit_moment(spec, 0) == pytest.approx(1.0, abs=1e-14)


def test_density_vanishes_outside_the_widest_channel():
    spec = LimitSpec(preset_qudit("paper-sym", HalfInt(5)), math.pi / 2, 0.0)
    vmax = 5 * spec.a
    assert isinstance(continuous_density(spec, 0.0), float)
    assert np.all(continuous_density(spec, np.array([-vmax - 0.1, vmax, vmax + 2.0])) == 0.0)
    assert continuous_density(spec, math.inf) == 0.0
    for bad in (math.nan, np.array([0.0, math.nan])):
        with pytest.raises(DomainError):
            continuous_density(spec, bad)


def test_moment_and_mass_bookkeeping():
    for bad in (-1, 1.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            limit_moment(LimitSpec(preset_qudit("up", 1), math.pi / 2), bad)
    rng = np.random.default_rng(7)
    for tj in (3, 8, 21):
        amps = rng.normal(size=tj + 1) + 1j * rng.normal(size=tj + 1)
        spec = LimitSpec(Qudit(HalfInt(tj), amps), math.pi / 2, 0.8)
        assert limit_moment(spec, 0) == pytest.approx(1.0, abs=1e-6)
    for tj in (1, 4, 11):
        spec = LimitSpec(preset_qudit("paper-sym", HalfInt(tj)), math.pi / 2, 0.0)
        for r in (1, 3):
            assert abs(limit_moment(spec, r)) < 1e-10


def test_moments_past_the_float_range_of_the_scale():
    # (2m)^r passes 1.8e308 from r = 150 at 130 components, the moment
    # itself only at r = 162; as long as it is a float it is returned
    spec = LimitSpec(preset_qudit("up", "129/2"), math.pi / 2)
    m146, m148, m150 = (limit_moment(spec, r) for r in (146, 148, 150))
    assert 1e284 < m150 <= (129 * spec.a) ** 4 * m146  # a law on |v| <= 129 a
    assert m148 * m148 <= m146 * m150 * (1.0 + 1e-12)  # Cauchy-Schwarz
    with pytest.raises(DomainError, match="overflows"):
        limit_moment(spec, 170)


def test_dense_matrices_over_the_budget_are_refused():
    # a Jacobi matrix of 6000 x 6000 floats is 288 MB; refused unbuilt
    with pytest.raises(DomainError, match="budget"):
        density._konno_rule(math.pi / 2, 6000)


def test_point_mass_values():
    assert delta_mass(LimitSpec(preset_qudit("paper-sym", "1/2"), math.pi / 2)) == 0.0
    rest = LimitSpec(Qudit(1, (0, 1, 0)), 0.0)
    assert delta_mass(rest) == 1.0  # a = 1: nothing ever spreads
    # a = 1 in float, though b = 5e-9: the law is within O(b) of the
    # ballistic one, +-2 with no mass at the origin
    shallow = LimitSpec(preset_qudit("up", 1), 1e-8)
    assert shallow.a == 1.0
    assert delta_mass(shallow) < 1e-8
    assert limit_moment(shallow, 2) == pytest.approx(4.0, abs=1e-7)
    spread = LimitSpec(preset_qudit("paper-sym", 1), math.pi / 2)
    assert delta_mass(spread) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=1e-12)


@pytest.mark.parametrize("beta, tol", ((0.3, 2e-15), (0.01, 5e-14), (1e-4, 1e-11), (1e-6, 2e-10), (1e-8, 2e-8)))
def test_point_mass_keeps_its_digits_at_small_beta(beta, tol):
    # spin 1 from |up> leaves sin(beta/2)/2 at the origin; a mass taken as
    # 1 - (continuous mass) cancels to 1.6e-9 (relative) at beta = 1e-6
    want = math.sin(0.5 * beta) / 2.0
    got = delta_mass(LimitSpec(preset_qudit("up", 1), beta))
    assert abs(got - want) <= tol * want, (got, want)


@pytest.mark.parametrize("dim", (3, 5, 13, 51, 129))
def test_law_mass_is_one(dim):
    # the channel masses and the point mass sum to 1, unforced
    qudit = _dense(dim, 8000 + dim)
    for beta in (math.pi / 2, 0.01, 3.1):
        total = limit_moment(LimitSpec(qudit, beta, 0.4), 0)
        assert abs(total - 1.0) <= 1e-13, (beta, total)


def test_bin_masses_sum_to_total_mass():
    spec = LimitSpec(preset_qudit("paper-sym", 2), math.pi / 2, 0.0)
    edges = np.linspace(-3.0, 3.0, 61)
    masses = limit_bin_masses(spec, edges)
    assert np.all(masses >= 0.0)
    assert masses.sum() == pytest.approx(1.0, abs=1e-6)  # includes the point mass
    with pytest.raises(DomainError):
        limit_bin_masses(spec, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        limit_bin_masses(spec, np.array([1.0]))
    # a = 1 has no continuous part to bin, but its ballistic law has mass 1
    ballistic = LimitSpec(Qudit(1, (1, 0, 0)), 0.0)
    with pytest.raises(DegenerateSpecError):
        limit_bin_masses(ballistic, edges)
    assert limit_moment(ballistic, 0) == pytest.approx(1.0, abs=1e-14)
    # an odd size at a = 0 is a point mass of 1 at the origin
    point = LimitSpec(preset_qudit("up", 1), math.pi)
    assert limit_moment(point, 0) == delta_mass(point) == 1.0
    assert limit_moment(point, 2) == 0.0 and continuous_density(point, 0.0) == 0.0
    # an even size at a = 0 (beta = pi, or close enough that LimitSpec.a
    # snaps to 0) has no law at all
    for degenerate in (
        LimitSpec(preset_qudit("paper-sym", "1/2"), math.pi),
        LimitSpec(preset_qudit("up", "3/2"), math.pi - 1e-12, 0.4),
    ):
        assert degenerate.a == 0.0
        with pytest.raises(DegenerateSpecError):
            limit_bin_masses(degenerate, edges)
        with pytest.raises(DegenerateSpecError):
            limit_moment(degenerate, 0)
        with pytest.raises(DegenerateSpecError):
            continuous_density(degenerate, 0.0)
        with pytest.raises(DegenerateSpecError):
            delta_mass(degenerate)


@pytest.mark.parametrize("beta", (1e-6, 1e-3, 2e-3))
def test_bin_masses_keep_their_digits_at_the_pikes(beta):
    # the spin-1/2 symmetric qudit has channel weight 1, so a bin between
    # theta1 and theta2 (v = a sin theta) holds exactly
    # [atan2(b sin theta, cos theta)]/pi between them, b = sin(beta/2); near
    # the pike 1 - a^2 sin^2 theta formed from the float a sin theta would
    # lose about log10(1/(1 - a^2 sin^2 theta)) digits, and cos(arcsin s)
    # is 6e-17 at s = 1
    spec = LimitSpec(preset_qudit("paper-sym", "1/2"), beta)
    a, b = spec.a, math.sin(0.5 * beta)
    edges = a * np.sin(0.5 * math.pi - np.array([8.0, 4.0, 2.0, 1.0, 0.5]) * 1e-4)
    s = edges / a  # as the library takes it
    want = np.diff(np.arctan2(b * s, np.sqrt((1.0 - s) * (1.0 + s)))) / math.pi
    got = limit_bin_masses(spec, edges)
    assert float(np.abs(got / want - 1.0).max()) < 1e-12, got / want - 1.0


@pytest.mark.parametrize("beta", (1e-6, 1e-3, 2e-3, math.pi / 2))
def test_density_keeps_its_digits_at_the_pikes(beta):
    # the spin-1/2 symmetric qudit has channel weight 1, so the density is
    # Konno's, b / [pi (1 - v^2) sqrt(a^2 - v^2)] with b = sin(beta/2): at
    # small beta b formed from a would keep few digits, and near the pike
    # so would a^2 - v^2 formed from the squares
    spec = LimitSpec(preset_qudit("paper-sym", "1/2"), beta)
    a, b = spec.a, math.sin(0.5 * beta)
    vs = np.concatenate(([0.0], a * np.sin(0.5 * math.pi - np.array([8.0, 4.0, 2.0, 1.0, 0.5]) * 1e-4)))
    got = continuous_density(spec, vs)
    rel = [abs(float(Decimal(g) / _konno_decimal(v, a, b)) - 1.0) for v, g in zip(vs, got)]
    assert max(rel) <= 2e-15, rel


@pytest.mark.parametrize("dim", (2, 3, 12, 13, 50, 130))
def test_bin_masses_sum_to_the_gauss_rule_mass(dim):
    # every beta from the ballistic edge to the point-mass edge, both
    # regimes of the antiderivative's tail, coarse and fine bins over the
    # whole support
    betas = (1e-6, 1e-3, 0.01, 0.1, math.pi / 2, 22 * math.pi / 25, math.pi - 1e-6)
    for qudit in (_dense(dim, dim), preset_qudit("paper-sym", HalfInt(dim - 1))):
        for beta in betas:
            spec = LimitSpec(qudit, beta, 0.4)
            mass = limit_moment(spec, 0)
            reach = 1.01 * spec.tj * spec.a
            for bins in (10, 160):
                got = limit_bin_masses(spec, np.linspace(-reach, reach, bins + 1))
                assert got.min() >= 0.0, (beta, bins)
                assert abs(math.fsum(got) - mass) < 1e-13, (beta, bins, math.fsum(got) - mass)


def test_bin_masses_of_one_ulp_are_not_negative():
    # a bin one ulp wide holds ~1e-17 of mass, below the rounding of the
    # antiderivative at its edges: the difference is clamped at 0
    spec = LimitSpec(_dense(13, 1313), 0.1, 0.4)
    base = np.linspace(-13.0, 13.0, 400)
    edges = np.sort(np.concatenate((base, np.nextafter(base, np.inf))))
    got = limit_bin_masses(spec, edges)
    assert got.min() >= 0.0
    assert abs(math.fsum(got) - limit_moment(spec, 0)) < 1e-13


def _dense(dim, seed):
    rng = np.random.default_rng(seed)
    return Qudit(HalfInt(dim - 1), rng.normal(size=dim) + 1j * rng.normal(size=dim))


@pytest.mark.parametrize("dim", (2, 13, 50, 130))
def test_moments_reach_the_ballistic_law(dim):
    # at beta = 0 component m moves ballistically at -2m: the law is
    # sum_m |q_m|^2 delta(v + 2m), with the m = 0 mass at the origin
    qudit = _dense(dim, 3000 + dim)
    prob = np.abs(qudit.amplitudes) ** 2
    vel = -np.arange(dim - 1, -dim, -2.0)
    for beta, tol in ((0.0, 1e-13), (1e-9, 1e-8)):
        spec = LimitSpec(qudit, beta, 0.4)
        for r in (0, 1, 2, 4):
            want = float(np.sum(prob * vel**r))
            got = limit_moment(spec, r)
            assert abs(got - want) <= tol * max(1.0, abs(want)), (beta, r, got, want)
        if spec.has_point_mass:
            assert delta_mass(spec) == pytest.approx(prob[dim // 2], abs=tol)


_ALL_BETAS = (1e-9, 1e-6, 1e-3, 0.05, math.pi / 2, 3.0, math.pi - 1e-6)


@pytest.mark.parametrize(
    "dim, betas, orders",
    [
        (3, _ALL_BETAS, (0, 1, 2, 4)),
        (13, _ALL_BETAS, (0, 1, 2, 4)),
        (50, _ALL_BETAS, (0, 1, 2, 4)),
        # about 0.1 s per moment here, so the two ends of the range only
        (130, (1e-9, math.pi - 1e-6), (0, 1, 4)),
    ],
)
def test_moment_rule_needs_no_more_nodes(monkeypatch, dim, betas, orders):
    # the rule is exact at n nodes, so eleven more change nothing but rounding
    rule = density._konno_rule
    qudit = _dense(dim, 4000 + dim)
    for beta in betas:
        spec = LimitSpec(qudit, beta, 0.4)
        for r in orders:
            got = limit_moment(spec, r)
            with monkeypatch.context() as mp:
                mp.setattr(density, "_konno_rule", lambda beta, n: rule(beta, n + 11))
                more = limit_moment(spec, r)
            assert abs(got - more) <= 1e-13 * max(1.0, abs(more)), (beta, r, got, more)


def _per_channel_moment(spec, r):
    """(r-th moment, sum of its terms' magnitudes) with one call per
    channel on the same Konno nodes: the reference for ``_law_moments``'
    one pass over every channel.  At r = 0 an odd size adds channel 0 at
    half weight, the point mass.  The weights come from the per-point
    evaluator, the small-d fold, so the J_y eigenbasis of ``_scalar_grid``
    is checked against the other route."""
    t, w = density._konno_rule(spec.beta, (spec.tj + r) // 2 + 1)
    x = spec.a * t
    own = np.zeros(x.size, dtype=int)
    tms = spec.channels + (0,) * (spec.has_point_mass and r == 0)
    sums, scale = [], 0.0
    for tm in tms:
        weight = density._point_weights(spec, (tm,), x, own) / (1 + (tm == 0))
        sums.append(float((w * x**r) @ weight).as_integer_ratio())
        scale += tm**r * float((w * np.abs(x) ** r) @ weight)
    return math.fsum(tm**r * num / den for tm, (num, den) in zip(tms, sums)), scale


@pytest.mark.parametrize("kind", ("dense", "asym", "paper-sym"))
@pytest.mark.parametrize("dim", (2, 3, 13, 50, 130))
def test_one_pass_moments_match_the_per_channel_loop(dim, kind):
    if kind == "paper-sym":
        qudit = preset_qudit("paper-sym", HalfInt(dim - 1))
    else:
        qudit = _dense(dim, 6000 + dim)
        if kind == "asym":
            amps = qudit.amplitudes.copy()
            amps[dim // 4 + 2 :] = 0.0
            amps[0] *= 3.0
            qudit = Qudit(HalfInt(dim - 1), amps)
    for beta in (1e-6, math.pi / 2, math.pi - 1e-6):
        for gamma in (0.0, 0.4):
            spec = LimitSpec(qudit, beta, gamma)
            for r in (0, 1, 2, 4, 8):
                want, scale = _per_channel_moment(spec, r)
                (got,) = density._law_moments(spec, (r,))
                # odd moments of a symmetric law cancel to rounding: the
                # scale is then E|X|^r, the sum of the terms' magnitudes
                assert abs(got - want) <= 1e-14 * scale, (beta, gamma, r, got, want)


@pytest.mark.parametrize("dim", (2, 13, 50))
def test_one_rule_for_many_orders_matches_each_order_alone(dim):
    # the largest order's Gauss rule is exact for every smaller order, so a
    # table's moments meet limit_moment's per-order rules to rounding; one
    # order alone takes limit_moment's own rule, bit for bit
    spec = LimitSpec(_dense(dim, 7000 + dim), 22 * math.pi / 25, 0.4)
    orders = range(1, 13)
    for r, got in zip(orders, density._law_moments(spec, orders)):
        _, scale = _per_channel_moment(spec, r)
        assert abs(got - limit_moment(spec, r)) <= 1e-14 * scale, r
    assert density._law_moments(spec, (12,)) == [limit_moment(spec, 12)]


# ------------------------------------------------------ guards and caches

def test_cached_arrays_are_read_only():
    spec = LimitSpec(preset_qudit("up", "1/2"), math.pi / 2)
    before = limit_moment(spec, 2)
    lam, vec = _jy_eig(5)
    konno_t, konno_w = density._konno_rule(math.pi / 2, 2)
    # the off-support factors at one point, which every channel reads
    off = density._point_factors(5, density.struct.pack("3d", -0.85, 1.0, 0.7))
    assert isinstance(off, density._OffSupport)
    tables = [arr for arr in off if isinstance(arr, np.ndarray)]
    assert len(tables) == 2
    for arr in (lam, vec, konno_t, konno_w, *tables, tables[1].base):
        with pytest.raises(ValueError):
            arr *= 2
    assert limit_moment(spec, 2) == before == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-12)


def _point_cases():
    """(2j, x, beta, gamma) for the point cache: x = +-0.0, beta = +-0.0
    (the same key to ==, other phases at x = 1), a pike point and the
    ulps past it with the discriminant in [-8 eps, 0), and an off-support
    point."""
    beta = 22 * math.pi / 25
    tau = math.tan(0.5 * beta)
    pike = [math.cos(0.5 * beta)]
    for _ in range(3):
        pike.append(float(np.nextafter(pike[-1], 2.0)))
    for x in pike:
        disc = float(density._phase(x, tau)[1])
        assert -8.0 * np.finfo(float).eps <= disc < 0.0, (x, disc)
    for tj in (13, 50):
        for x in (0.0, -0.0):
            for gamma in (0.4, 0.0, -0.0):
                yield tj, x, math.pi / 2, gamma
        for x in pike:
            yield tj, x, beta, 0.7
            yield tj, -x, beta, 0.0
        yield tj, 0.85, math.pi / 2, 0.7  # off the support
    for b in (0.0, -0.0):
        yield 4, 1.0, b, 0.0
        yield 5, -1.0, b, 0.3


def _channel_bits(tj, x, beta, gamma, order):
    out = {}
    for tm in order:
        mat = weight_matrix_direct(tj / 2, tm / 2, x, beta, gamma)
        out[tm] = (mat.entries.tobytes(), mat.cancellation)
    return out


def _cold_and_warm(cases, channels):
    """Each case's channel bits with the point cache emptied before every
    channel, then checked against three warm sweeps over all the cases, the
    second backwards, the last two in a shuffled channel order; returns the
    cold bits."""
    # a list, not a dict: as keys, the cases with -0.0 and 0.0 would be one
    cold = []
    for case in cases:
        cold.append({})
        for tm in channels(case[0]):
            density._point_factors.cache_clear()
            cold[-1].update(_channel_bits(*case, [tm]))
    density._point_factors.cache_clear()
    rng = np.random.default_rng(41)
    for sweep in range(3):
        for k in range(len(cases)) if sweep != 1 else reversed(range(len(cases))):
            tms = channels(cases[k][0])
            order = tms if sweep == 0 else list(rng.permutation(tms))
            assert _channel_bits(*cases[k], order) == cold[k], (sweep, cases[k])
    assert density._point_factors.cache_info().hits > 0
    return cold


def test_point_factors_give_the_same_bits_cold_and_warm():
    cases = list(_point_cases())
    cold = _cold_and_warm(cases, lambda tj: list(range(tj % 2, tj + 1, 2)))
    # -0.0 == 0.0, but the two keep their own entries: at x = 1 and
    # beta = -0.0 the phase is pi
    assert cold[-4] != cold[-2]
    # the cached factors are read-only
    for case in cases:
        tj, x, beta, gamma = case
        factors = density._point_factors(tj, density.struct.pack("3d", x, math.tan(0.5 * beta), gamma))
        assert isinstance(factors, density._OffSupport) == (case[1] == 0.85)
        for arr in factors:
            if isinstance(arr, np.ndarray):
                with pytest.raises(ValueError):
                    arr *= 2


def test_off_support_factors_give_the_same_bits_cold_and_warm():
    # off the support every channel at a point reads one cache entry: the
    # benchmark's points, points just inside |x| = 1 and the ends, at
    # m = j, j - 1 and the smallest channel
    cases = [(tj, s * 0.85, math.pi / 2, 0.7) for tj in (29, 39, 49) for s in (1.0, -1.0)]
    for beta in (math.pi / 10, 22 * math.pi / 25):
        for x in (0.9999995, -0.9999995, 1.0, -1.0):
            cases += [(tj, x, beta, 0.7) for tj in (29, 49)]
    cold = _cold_and_warm(cases, lambda tj: [tj, tj - 2, tj % 2])
    for case, bits in zip(cases, cold):
        tj, x, beta, gamma = case
        factors = density._point_factors(tj, density.struct.pack("3d", x, math.tan(0.5 * beta), gamma))
        assert isinstance(factors, density._OffSupport), case
        for arr in factors:
            if isinstance(arr, np.ndarray):
                with pytest.raises(ValueError):
                    arr *= 2
        assert len(bits) == 3, case


def test_the_point_cache_serves_its_traffic_with_two_entries(monkeypatch):
    # every channel at one on-support point reads one d^j(alpha)
    calls = []
    small_d = density._small_d
    monkeypatch.setattr(density, "_small_d", lambda *args: calls.append(args) or small_d(*args))
    density._point_factors.cache_clear()
    for tm in range(1, 130, 2):
        weight_matrix_direct(HalfInt(129), HalfInt(tm), 0.3, math.pi / 2, 0.4)
    assert len(calls) == 1, len(calls)
    # an entry holds (2j+1)^2 floats: after 16 points at 260 components the
    # cache must hold two of them, not 16
    tj = 259
    entry = (tj + 1) ** 2 * 8
    weight_matrix_direct(HalfInt(tj), HalfInt(tj), 0.0, math.pi / 2)  # fills the per-size caches
    density._point_factors.cache_clear()
    tracemalloc.start()
    try:
        for x in np.linspace(-0.6, 0.6, 16):
            weight_matrix_direct(HalfInt(tj), HalfInt(tj), x, math.pi / 2)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert density._point_factors.cache_info().currsize == 2
    assert 2 * entry <= held < 3 * entry, held


def test_a_cached_gauss_rule_gives_the_same_moments():
    # orders r and r + 1 share a rule whenever 2j + r is even
    spec = LimitSpec(_dense(13, 4013), 22 * math.pi / 25, 0.4)
    density._konno_rule.cache_clear()
    cold = [limit_moment(spec, r) for r in range(7)]
    assert density._konno_rule.cache_info().hits == 3  # r = 1, 3, 5 reuse r - 1's
    warm = [limit_moment(spec, r) for r in range(7)]
    assert density._konno_rule.cache_info().misses == 4
    assert warm == cold


def test_an_oversized_moment_is_refused_before_any_eigh():
    # 4097 components: the J_y generator is over the dense budget, so the
    # 2049-node Gauss rule must not be built first
    spec = LimitSpec(preset_qudit("up", 2048), math.pi / 2)
    density._konno_rule.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="J_y generator"):
            limit_moment(spec, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert density._konno_rule.cache_info().misses == 0


@pytest.mark.parametrize("r, parent_peak", [(0, 1_165_600), (200, 2_185_852)])
def test_one_pass_moments_hold_no_more_memory(r, parent_peak):
    # the bound is the tracemalloc peak of this call with one evaluator call
    # per channel (numpy 2.4); the one pass over every channel must block
    # its work arrays to stay within it
    spec = LimitSpec(_dense(130, 5130), 22 * math.pi / 25, 0.4)
    before = limit_moment(spec, r)  # fills the caches
    tracemalloc.start()
    try:
        assert limit_moment(spec, r) == before
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= parent_peak, peak


def test_runtime_checks_survive_optimized_mode():
    # under python -O an assert would vanish and these would return numbers
    script = textwrap.dedent(
        """
        import numpy as np
        import quditwalk.density as density
        from quditwalk import DomainError, LimitSpec, Qudit, WeightMatrix, preset_qudit, weight_scalar

        skew = WeightMatrix(1, 1, 0.0, 0.5, 0.0, np.array([[-1.0, 1j], [1j, 0.0]]))
        try:
            print("weight_scalar returned", weight_scalar(skew, Qudit("1/2", (1, 1))))
        except DomainError:
            print("weight_scalar raised")
        density._scalar_grid = lambda spec, tms, x: np.full((len(tms), np.size(x)), 4.0)
        try:
            print("delta_mass returned", density.delta_mass(LimitSpec(preset_qudit("up", 1), 1.0)))
        except DomainError:
            print("delta_mass raised")
        """
    )
    src = str(Path(quditwalk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["weight_scalar raised", "delta_mass raised"]


def test_package_has_no_assert_statements():
    # every runtime check must raise; an assert vanishes under python -O
    found = []
    for path in sorted(Path(quditwalk.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
