import ast
import cmath
import math
import os
import subprocess
import sys
import textwrap
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
from quditwalk.density import _gauss_legendre, _wedge_table
from weight_reference import grown_top

BETAS = (math.pi / 10, math.pi / 2, 22 * math.pi / 25)


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
            x, w = density._konno_rule(spec, n)
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
            worst = max(worst, float(gap.max()))
    assert worst < 5e-13, worst


def test_offdiag_poly_parity_is_exact():
    xs = np.linspace(-1.0, 1.0, 16)  # no exact zero: f3(0) rounds to ~1e-16
    assert np.array_equal(offdiag_poly(3, 0.7, -xs), -offdiag_poly(3, 0.7, xs))
    assert np.array_equal(offdiag_poly(4, 0.7, -xs), offdiag_poly(4, 0.7, xs))


def test_offdiag_poly_validates_arguments():
    with pytest.raises(DomainError):
        offdiag_poly(-1, 0.5, 0.0)
    with pytest.raises(DomainError):
        offdiag_poly(2, math.inf, 0.0)
    for bad in (math.inf, math.nan, 1.5):
        with pytest.raises(DomainError):
            offdiag_poly(bad, 0.5, 0.2)


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
    # every entry at both signs of x, on the support and off it; off it the
    # package builds x > 0 from -x, so the literal sum is its independent
    # check.  Entries reach 3e7 at 22pi/25, so past 100 the bound is relative.
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
                            worst = max(worst, gap / max(1.0, 1e-2 * abs(brute)))
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
    # far off the support f_n(x) overflows: an error, not nan entries
    for call in (
        lambda: weight_matrix_top(45, 50.0, 3.1),
        lambda: weight_matrix_direct(60, 1, 4.0, 3.1),
    ):
        with pytest.raises(DomainError, match="overflows"):
            call()


def test_grown_matrix_matches_direct_at_small_sizes():
    worst = 0.0
    for j in (1.0, 1.5, 3.0):
        for beta in (math.pi / 10, math.pi / 2):
            for x in (-0.8, -0.3, 0.1, 0.6, 0.95):
                grown = grown_top(int(2 * j), x, beta, 0.45)
                direct = weight_matrix_direct(j, j, x, beta, 0.45).entries
                worst = max(worst, float(np.abs(grown - direct).max()))
    assert worst < 1e-11, worst


def test_grown_matrix_matches_direct_at_fifty_components():
    worst = 0.0
    for tj in (49, 50):
        for beta in (math.pi / 2, 22 * math.pi / 25):
            for x in (-1.0, -0.9999995, -0.85, -0.3, 0.4, 0.9, 0.9999995, 1.0):
                direct = weight_matrix_direct(tj / 2, tj / 2, x, beta, 0.6)
                grown = grown_top(tj, x, beta, 0.6)
                gap = np.linalg.norm(direct.entries - grown)
                worst = max(worst, float(gap / np.linalg.norm(grown)))
    assert worst < 1e-6, worst


def test_top_matrix_matches_the_grown_oracle():
    # the public top-channel matrix against the half-spin recurrence, off
    # the support and on it, up to 130 components; m = j has one-term wedge
    # polynomials, so nothing cancels anywhere
    worst = 0.0
    for tj, betas in ((1, BETAS), (2, BETAS), (3, BETAS), (29, BETAS), (49, BETAS), (129, (math.pi / 2,))):
        for beta in betas:
            for x in (-1.0, -0.9999995, -0.3, 0.4, 0.85, 0.9999995, 1.0):
                top = weight_matrix_top(tj / 2, x, beta, 0.6)
                grown = grown_top(tj, x, beta, 0.6)
                assert top.cancellation == 1.0, (tj, beta, x)
                gap = np.linalg.norm(top.entries - grown) / np.linalg.norm(grown)
                worst = max(worst, float(gap))
    assert worst < 1e-13, worst


def test_pike_point_takes_the_rank_two_form():
    # x = +-cos(beta/2) can round one ulp past (1+tau^2) x^2 <= 1 (it does
    # at beta = 22pi/25); the wedge polynomials there shed up to 22 digits
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
                            worst = max(worst, gap)
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
        worst = max(worst, float(np.linalg.norm(second - direct) / np.linalg.norm(second)))
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
    # a = 1 has no continuous part to bin, and an even size at a = 0 no law
    for degenerate in (
        LimitSpec(Qudit(1, (1, 0, 0)), 0.0),
        LimitSpec(preset_qudit("paper-sym", "1/2"), math.pi),
    ):
        with pytest.raises(DegenerateSpecError):
            limit_bin_masses(degenerate, edges)


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
                mp.setattr(density, "_konno_rule", lambda spec, n: rule(spec, n + 11))
                more = limit_moment(spec, r)
            assert abs(got - more) <= 1e-13 * max(1.0, abs(more)), (beta, r, got, more)


# ------------------------------------------------------ guards and caches

def test_cached_arrays_are_read_only():
    spec = LimitSpec(preset_qudit("up", "1/2"), math.pi / 2)
    before = limit_moment(spec, 2)
    lam, vec = _jy_eig(5)
    nodes, weights = _gauss_legendre(200)
    tab = _wedge_table(5, 1)
    for arr in (lam, vec, nodes, weights, tab.rows, tab.coef, tab.up):
        with pytest.raises(ValueError):
            arr *= 2
    assert limit_moment(spec, 2) == before == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-12)


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
        density._scalar_grid = lambda spec, tm, x: np.full(np.shape(x), 4.0)
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
