import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditwalk import (
    DomainError,
    EulerAngles,
    HalfInt,
    rotation_matrix,
    small_d,
    small_d_coeff,
)
from quditwalk import coin
from quditwalk.coin import _jy_eig
from small_d_reference import coeff_square, ell_range, jy_generator, small_d_sum, two_path_small_d
from weight_reference import decimal_column

BETAS = (math.pi / 10, math.pi / 2, 22 * math.pi / 25)


def test_coeff_hand_values():
    assert small_d_coeff("1/2", "1/2", "1/2", 0) == 1.0
    assert small_d_coeff("1/2", "1/2", "-1/2", 1) == -1.0
    assert small_d_coeff(1, 0, 0, 1) == -1.0


def test_coeff_rejects_bad_indices():
    with pytest.raises(DomainError):
        small_d_coeff("1/2", "3/2", "1/2", 0)  # |m| > j
    with pytest.raises(DomainError):
        small_d_coeff(1, "1/2", 0, 0)  # m off the spin-1 lattice
    with pytest.raises(DomainError):
        small_d_coeff("1/2", "1/2", "1/2", 1)  # ell past the sum range
    with pytest.raises(DomainError):
        small_d_coeff(1, 0, 0, 0.5)  # ell not an integer
    assert small_d_coeff(1, 0, 0, 1.0) == -1.0


def _coeff_gap(tj, tm, tmp) -> Fraction:
    """The worst |c^2 - q| / q over every ell of one sum, in exact
    arithmetic, for ``small_d_coeff``'s c and the exact square q; each c
    must carry the sign (-1)^ell."""
    worst = Fraction(0)
    for ell in ell_range(tj, tm, tmp):
        c = small_d_coeff(HalfInt(tj), HalfInt(tm), HalfInt(tmp), ell)
        assert (c < 0) == (ell % 2 == 1), (tj, tm, tmp, ell)
        q = coeff_square(tj, tm, tmp, ell)
        worst = max(worst, abs(Fraction(c) ** 2 - q) / q)
    return worst


def test_coeffs_match_the_exact_rationals():
    # each coefficient is one correctly rounded quotient of exact integers,
    # so it stays within an ulp or two of the rational at any size, past
    # the float range of its square too (600 components)
    worst = max(
        _coeff_gap(tj, tm, tmp)
        for tj in range(1, 20)
        for tm in range(-tj, tj + 1, 2)
        for tmp in range(-tj, tj + 1, 2)
    )
    rng = np.random.default_rng(11)
    for dim in (50, 130, 300, 600):
        tj = dim - 1
        for _ in range(12):
            tm, tmp = (int(t) for t in tj - 2 * rng.integers(0, dim, size=2))
            worst = max(worst, _coeff_gap(tj, tm, tmp))
        # the longest sum, with the largest terms
        worst = max(worst, _coeff_gap(tj, tj % 2, tj % 2))
    assert worst <= Fraction(1, 2**51), float(worst)


def test_half_spin_matrix():
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    np.testing.assert_allclose(small_d("1/2", math.pi / 4), [[c, -s], [s, c]], atol=1e-15)


def test_spin_one_center_is_cos():
    for beta in BETAS + (0.8,):
        assert small_d(1, beta)[1, 1] == pytest.approx(math.cos(beta), abs=1e-14)


def test_beta_zero_is_identity():
    for dim in range(2, 131):
        assert small_d(HalfInt(dim - 1), 0.0).tobytes() == np.eye(dim).tobytes(), dim


def test_beta_pi_is_signed_antidiagonal():
    np.testing.assert_allclose(
        small_d(1, math.pi), [[0, 0, 1], [0, -1, 0], [1, 0, 0]], atol=1e-15
    )
    np.testing.assert_allclose(small_d("1/2", math.pi), [[0, -1], [1, 0]], atol=1e-15)


def test_rows_orthonormal_every_dimension():
    worst = 0.0
    for tj in range(1, 50):
        for beta in BETAS:
            d = small_d(HalfInt(tj), beta)
            assert d.dtype.kind == "f"
            worst = max(worst, float(np.abs(d @ d.T - np.eye(tj + 1)).max()))
    assert worst < 1e-12, worst


def test_sum_and_spectral_paths_agree():
    rng = np.random.default_rng(5)
    for tj in (1, 4, 9, 14, 19, 25, 29):
        beta = float(rng.uniform(0.0, math.pi))
        gap = float(np.abs(small_d_sum(tj, beta) - small_d(HalfInt(tj), beta)).max())
        assert gap < 1e-11, (tj, gap)


def test_columns_at_520_components_match_the_decimal_sum():
    # the factorial sum in enough digits, at a point inside the support
    # and at one next to the pike, on the largest, a middle and the
    # smallest channel: d is accurate to its largest entry, 1, and the
    # rounding of alpha moves an entry by up to j ulps
    tj = 519
    for beta, frac, tms in ((math.pi / 2, 0.3, (tj, 319, 1)), (1e-3, 1.0 - 1e-9, (1,))):
        x = frac * math.cos(0.5 * beta)
        d = small_d(HalfInt(tj), math.acos(-x))
        for tm in tms:
            gap = float(np.abs(d[:, (tj - tm) // 2] - decimal_column(tj, tm, x)).max())
            assert gap <= 1e-13, (beta, tm, gap)


@pytest.mark.parametrize("dim", (21, 50, 130, 260))
def test_parity_blocks_match_the_two_path_evaluator(dim):
    # the blocks take the eigenvectors of lam > 0 only, those of -lam as
    # +-D times them: against the full complex spectral product, from beta
    # near 0 to beta = pi
    tj = dim - 1
    for beta in (1e-6, 1e-3, 0.3, math.pi / 2, 2.5, math.pi - 1e-3, math.pi - 1e-6, math.pi):
        d = small_d(HalfInt(tj), beta)
        gap = float(np.abs(d - two_path_small_d(tj, beta)).max())
        orth = float(np.abs(d @ d.T - np.eye(dim)).max())
        assert gap <= 1e-14 and orth <= 1e-14, (beta, gap, orth)


def test_rotation_unitary_at_random_angles():
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(100):
        tj = int(rng.integers(1, 130))
        angles = EulerAngles(*rng.uniform(-math.pi, math.pi, size=3))
        r = rotation_matrix(HalfInt(tj), angles)
        worst = max(worst, float(np.abs(r @ r.conj().T - np.eye(tj + 1)).max()))
    assert worst < 1e-12, worst


def test_rotation_phases_wrap_small_d():
    angles = EulerAngles(0.4, 1.1, -0.7)
    r = rotation_matrix("3/2", angles)
    d = small_d("3/2", 1.1)
    # entry (m, m') carries e^{-i alpha m} e^{-i gamma m'}
    expect = cmath.exp(-1j * (1.5 * 0.4 + 0.5 * -0.7)) * d[0, 1]
    assert r[0, 1] == pytest.approx(expect, abs=1e-15)
    assert rotation_matrix(1, EulerAngles())[1, 1] == 1.0


def test_rejects_nonfinite_angles():
    with pytest.raises(DomainError):
        small_d(1, math.nan)
    with pytest.raises(DomainError):
        rotation_matrix(1, (0.0, math.inf, 0.0))


def test_generator_over_the_dense_budget_is_refused():
    # 4096 components fill the budget exactly; one more is refused unbuilt
    assert 16 * 4096**2 == coin.DENSE_BUDGET_BYTES
    coin._require_dense(4096, 16, "the J_y generator")  # accepted, nothing built
    tracemalloc.start()
    try:
        for call in (
            lambda: _jy_eig(4096),
            lambda: small_d(2048, 0.3),
            lambda: rotation_matrix(2048, (0.1, 0.3, 0.2)),
        ):
            with pytest.raises(DomainError, match="budget"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("dim", (130, 260))
def test_small_d_and_rotation_peak_memory(dim):
    # d goes into the result as it is built, from parity blocks a quarter
    # of its size, so a call's peak stays within 2.5 times the bytes it
    # returns
    tj = dim - 1
    _jy_eig(tj)  # the cached spectrum is not the call's own
    for call in (lambda: small_d(HalfInt(tj), 1.1), lambda: rotation_matrix(HalfInt(tj), (0.4, 1.1, -0.7))):
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * result.nbytes, (result.dtype, peak / result.nbytes)


def test_jy_eigenvectors_are_cached_real():
    # J_y = P S P^dag with P = diag(i^k) and S real: the cache keeps the
    # real orthogonal eigenvectors U of S, and P U diagonalizes J_y
    assert coin._ipow(np.arange(-4, 8)).tolist() == [1, 1j, -1, -1j] * 3
    worst_orth = worst_res = 0.0
    try:
        for dim in range(2, 261):
            lam, vec = _jy_eig(dim - 1)
            assert vec.dtype == np.float64 and vec.shape == (dim, dim)
            assert not (vec.flags.writeable or lam.flags.writeable)
            # the entry holds the matrix and no larger buffer behind it
            assert vec.nbytes == 8 * dim * dim
            assert vec.base is None or vec.base.nbytes == vec.nbytes
            worst_orth = max(worst_orth, float(np.abs(vec.T @ vec - np.eye(dim)).max()))
            v = coin._ipow(np.arange(dim))[:, None] * vec
            jy = jy_generator(dim - 1)
            # J_y v from its two off-diagonals, in O(dim^2)
            jv = np.zeros_like(v)
            jv[:-1] += np.diagonal(jy, 1)[:, None] * v[1:]
            jv[1:] += np.diagonal(jy, -1)[:, None] * v[:-1]
            worst_res = max(worst_res, float(np.abs(jv - v * lam).max()))
    finally:
        # 259 sizes hold about 47 MB: leave the cache as the other tests find it
        _jy_eig.cache_clear()
    assert worst_orth < 1e-13, worst_orth
    assert worst_res < 1e-12, worst_res


def test_per_size_constants_are_cached_read_only():
    for tj in (0, 1, 2, 5, 12, 129):
        signs, m = coin._coin_rows(tj)
        a = np.arange(tj + 1)
        assert signs.ravel().tolist() == [(-1.0) ** (k // 2) for k in a]
        assert m.tolist() == [(tj - 2 * k) / 2 for k in a]
        assert coin._coin_rows(tj)[0] is signs
        for arr in (signs, m):
            with pytest.raises(ValueError):
                arr *= 2


@settings(deadline=None, max_examples=25)
@given(beta=st.floats(-10.0, 10.0))
def test_orthogonal_at_any_angle(beta):
    d = small_d("9/2", beta)
    assert float(np.abs(d @ d.T - np.eye(10)).max()) < 1e-12


@pytest.mark.parametrize("rows", (1, 2, 3, 5, 8, 13, 31, 64, 65, 100, 130))
def test_powers_climb_the_phase_ladder(rows):
    rng = np.random.default_rng(rows)
    theta = rng.uniform(-math.pi, math.pi, size=7)
    phi = rng.uniform(-math.pi, math.pi, size=7)
    z = np.exp(1j * theta)
    k = np.arange(rows)[:, None]
    # row k of the exact ladder, from the same float angles in long double
    ladder = k * theta.astype(np.longdouble)
    eps = np.finfo(float).eps
    for first, start in ((np.exp(1j * phi), phi), (cmath.exp(0.3j), 0.3)):
        z_before, first_before = z.copy(), np.copy(first)
        # one guard row on either side of out, which must stay untouched
        buf = np.full((rows + 2, z.size), complex(np.nan, np.nan))
        out = coin._powers(first, z, buf[1:-1])
        assert np.shares_memory(out, buf) and out.shape == (rows, z.size)
        assert np.isnan(buf[[0, -1]]).all()
        assert np.array_equal(z, z_before) and np.array_equal(first, first_before)
        want = np.exp(1j * (start + ladder))
        assert want.dtype == np.clongdouble
        gap = np.abs(out - want).astype(float)
        assert (gap <= 2.0 * (k + 1) * eps).all(), (gap / ((k + 1) * eps)).max()
