import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditwalk import (
    Distribution,
    DomainError,
    EulerAngles,
    HalfInt,
    Qudit,
    binned_density,
    evolve,
    initial_state,
    position_distribution,
    preset_qudit,
    pseudovelocity_moment,
    step,
)
from quditwalk import walk
from quditwalk.coin import rotation_matrix
from walk_reference import reference_distribution, reference_evolve, reference_step

HADAMARD_LIKE = EulerAngles(0.0, math.pi / 2, 0.0)


# ------------------------------------------------------------------ qudits

def test_qudit_normalizes():
    q = Qudit("1/2", (3.0, 4.0j))
    np.testing.assert_allclose(q.amplitudes, [0.6, 0.8j], atol=1e-15)
    assert q.dim == 2 and q.j == HalfInt(1)
    # the plain sum of squares overflows, underflows or keeps few digits
    # here, and a single subnormal component squares to 0
    for scale in (1e200, 1e-200, 1e-160):
        q = Qudit("1/2", (3.0 * scale, 4.0j * scale))
        np.testing.assert_allclose(q.amplitudes, [0.6, 0.8j], rtol=1e-15)
    assert list(Qudit(1, (0.0, 5e-324j, 0.0)).amplitudes) == [0.0, 1j, 0.0]


def test_qudit_rejects_bad_vectors():
    with pytest.raises(DomainError):
        Qudit("1/2", (1.0, 0.0, 0.0))  # wrong length
    with pytest.raises(DomainError):
        Qudit("1/2", (0.0, 0.0))  # no direction
    with pytest.raises(DomainError):
        Qudit("1/2", (math.nan, 1.0))


def test_qudit_component_lookup():
    q = Qudit(1, (1.0, 2.0, 3.0))
    assert q.component(1) == q.amplitudes[0]
    assert q.component(-1) == q.amplitudes[2]
    with pytest.raises(DomainError):
        q.component("1/2")


def test_presets():
    up = preset_qudit("up", "3/2")
    assert up.amplitudes[0] == 1.0 and np.all(up.amplitudes[1:] == 0.0)
    sym = preset_qudit("paper-sym", "3/2")
    assert sym.component("3/2") == 0.5 + 0.5j
    assert sym.component("-3/2") == 0.5 - 0.5j
    assert np.all(sym.amplitudes[1:-1] == 0.0)
    fig = preset_qudit("fig1b", "11/2")
    assert np.linalg.norm(fig.amplitudes) == pytest.approx(1.0, abs=1e-15)
    assert fig.component("11/2") == 0.25 + 0.25j
    assert fig.component("9/2") == 0.0
    with pytest.raises(DomainError):
        preset_qudit("fig1b", "3/2")  # fixed 12-component vector
    with pytest.raises(DomainError):
        preset_qudit("sideways", 1)


# ------------------------------------------------------------------- steps

def test_initial_state_sits_at_origin():
    field = initial_state(preset_qudit("up", 2))
    assert field.t == 0 and list(field.positions) == [0]
    assert position_distribution(field).p[0] == 1.0


def test_identity_coin_translates_channels():
    # m = 1/2 drifts one site per step, m = -1/2 the other way; the inverse
    # FFT leaves rounding of a few ulps (measured <= 1.8e-15) on every site
    def assert_all_mass_at(dist, x):
        at = dist.x == x
        assert dist.p[at][0] == pytest.approx(1.0, abs=1e-14), x
        assert np.all(dist.p[~at] < 1e-14), x

    up = preset_qudit("up", "1/2")
    assert_all_mass_at(position_distribution(evolve(up, EulerAngles(), 5)), -5)
    rest = Qudit(1, (0, 1, 0))  # m = 0 does not move
    assert_all_mass_at(position_distribution(evolve(rest, EulerAngles(), 7)), 0)
    # 22 components: each one moves 2m sites left per step, undiminished
    for i in range(22):
        amps = np.zeros(22)
        amps[i] = 1.0
        dist = position_distribution(evolve(Qudit("21/2", amps), EulerAngles(), 7))
        assert_all_mass_at(dist, -7 * (21 - 2 * i))


def test_single_balanced_step():
    dist = position_distribution(evolve(preset_qudit("up", "1/2"), HADAMARD_LIKE, 1))
    got = dict(zip(dist.x.tolist(), dist.p.tolist()))
    assert got[-1] == pytest.approx(0.5, abs=1e-15)
    assert got[1] == pytest.approx(0.5, abs=1e-15)


def test_support_and_parity():
    t, tj = 9, 5
    field = evolve(preset_qudit("paper-sym", HalfInt(tj)), HADAMARD_LIKE, t)
    assert field.positions.min() == -tj * t and field.positions.max() == tj * t
    assert np.all((field.positions - tj * t) % 2 == 0)


def test_norm_conserved_long_run():
    field = evolve(preset_qudit("paper-sym", HalfInt(11)), EulerAngles(0, math.pi / 2, math.pi), 200)
    total = position_distribution(field).p.sum()
    assert abs(total - 1.0) < 1e-10 * 201


def test_reflection_symmetric_state_stays_symmetric():
    dist = position_distribution(evolve(preset_qudit("paper-sym", HalfInt(11)), HADAMARD_LIKE, 60))
    assert float(np.abs(dist.p - dist.p[::-1]).max()) < 1e-12


def test_step_validates_coin_shape():
    field = initial_state(preset_qudit("up", 1))
    with pytest.raises(DomainError):
        step(field, rotation_matrix("1/2", HADAMARD_LIKE))


def _dense_qudit(dim: int) -> Qudit:
    rng = np.random.default_rng(dim)
    return Qudit(HalfInt(dim - 1), rng.normal(size=dim) + 1j * rng.normal(size=dim))


# alpha = gamma = 0 gives a real-valued coin; beta = 1e-9 is nearly the identity
SWEEP_ANGLES = (
    EulerAngles(0.0, math.pi / 2, 0.0),
    EulerAngles(0.3, 1e-9, -0.5),
    EulerAngles(1.1, 22 * math.pi / 25, math.pi),
)


# Largest |difference| evolve's momentum-space amplitudes and position masses
# may show against the stepped oracle.  The oracle steps with the exact coin
# rounded once (walk_reference.exact_coin), so the gap is the walk's own:
# at most 3.9e-14 over the sweeps below (64 components, beta = 0, t = 200),
# and on fig1b at t = 1000 with alpha = gamma = 0, beta = pi - 1e-9, 2.9e-15
# in amplitude and 4.9e-15 in mass, where an oracle stepping with
# rotation_matrix's coin (within 1.9e-15 of the exact one) read 1.008e-12.
WALK_TOL = 1e-12


def _assert_matches_reference(field, amps, x, what):
    assert field.amps.shape == amps.shape
    assert np.array_equal(field.positions, x)
    assert np.abs(field.amps - amps).max() <= WALK_TOL, what
    dist = position_distribution(field)
    assert np.array_equal(dist.x, x)
    assert np.abs(dist.p - reference_distribution(amps)).max() <= WALK_TOL, what


# h^t with an entry at or near 0 at every momentum: beta = 0 gives q = 0,
# whose half turn is taken as 1, and beta = pi leaves p at rounding level
DEGENERATE_ANGLES = (
    EulerAngles(0.7, 0.0, -0.4),
    EulerAngles(-0.3, math.pi, 1.2),
)

# |p| about 5e-10 at every momentum: the half turn of a tiny nonzero entry
NEAR_PI_ANGLES = EulerAngles(0.4, math.pi - 1e-9, -1.1)


@pytest.mark.parametrize("dim", [2, 3, 4, 12, 13, 50, 64])
def test_evolve_matches_the_position_major_reference(dim):
    q = _dense_qudit(dim)
    near_pi = (NEAR_PI_ANGLES,) if dim <= 13 else ()
    for angles in SWEEP_ANGLES + DEGENERATE_ANGLES + near_pi:
        for t in (0, 1, 2, 7, 40, 200):
            amps, x = reference_evolve(q, angles, t)
            assert amps.shape == (1 + (dim - 1) * t, dim)
            _assert_matches_reference(evolve(q, angles, t), amps, x, (dim, angles, t))


# a real coin whose |p| is about 5e-10 at every momentum
REAL_NEAR_PI_ANGLES = EulerAngles(0.0, math.pi - 1e-9, 0.0)


@pytest.mark.parametrize("angles", SWEEP_ANGLES + (NEAR_PI_ANGLES, REAL_NEAR_PI_ANGLES))
def test_evolve_matches_the_reference_on_a_long_fig1b_walk(angles):
    q = preset_qudit("fig1b", "11/2")
    amps, x = reference_evolve(q, angles, 1000)
    _assert_matches_reference(evolve(q, angles, 1000), amps, x, angles)


def test_evolve_at_time_zero_returns_the_initial_state():
    q = _dense_qudit(7)
    for angles in SWEEP_ANGLES:
        field = evolve(q, angles, 0)
        assert (field.t, field.lo) == (0, 0)
        assert np.array_equal(field.amps, q.amplitudes[None, :])
        assert not np.shares_memory(field.amps, q.amplitudes)


@pytest.mark.parametrize("dim", [2, 5, 12, 31])
def test_public_step_matches_the_reference_step(dim):
    q = _dense_qudit(dim)
    for angles in SWEEP_ANGLES:
        coin = rotation_matrix(q.j, angles)
        field, amps = initial_state(q), q.amplitudes[None, :].copy()
        for t in range(1, 9):
            field, amps = step(field, coin), reference_step(amps, coin)
            assert (field.t, field.lo) == (t, -q.tj * t)
            assert np.array_equal(field.amps, amps), (dim, angles, t)


@pytest.mark.parametrize("dim", [2, 5, 12, 31])
def test_public_step_repeats_evolve(dim):
    q = _dense_qudit(dim)
    for angles in SWEEP_ANGLES:
        coin = rotation_matrix(q.j, angles)
        field = initial_state(q)
        for t in range(9):
            whole = evolve(q, angles, t)
            assert (field.t, field.lo) == (whole.t, whole.lo)
            assert np.array_equal(field.positions, whole.positions)
            assert np.abs(field.amps - whole.amps).max() <= WALK_TOL, (dim, angles, t)
            field = step(field, coin)


def test_evolve_refuses_a_field_over_the_memory_budget():
    # one complex field of M x 130 amplitudes, M = 2^6 3^4 5^2 = 129600 the
    # smallest 5-smooth length >= 1 + 129 t at t = 1000, plus two 130 x 1024
    # work arrays, two 130 x 130 float matrices (the size of one complex
    # one) and 16 vectors of a 16384-momentum block
    assert walk._field_bytes(129, 1000) == 16 * (130 * (129600 + 2 * 1024 + 130) + 16 * 16384)
    assert walk._field_bytes(129, 1000) <= walk.FIELD_BUDGET_BYTES
    # at t = 7937, M = 2^13 5^3 = 1024000; one step more needs 1036800
    t_max = 7937
    assert walk._field_bytes(129, t_max) == 16 * (130 * (1024000 + 2 * 1024 + 130) + 16 * 16384)
    walk._require_field_budget(129, t_max)  # just under: accepted, nothing run
    q = Qudit(HalfInt(129), np.ones(130))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            evolve(q, HADAMARD_LIKE, t_max + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # refused before any buffer was allocated


@pytest.mark.parametrize("dim, t", ((50, 300), (200, 50)))
def test_evolve_peak_memory_stays_within_its_budget_count(dim, t):
    # tracemalloc sees every numpy array evolve makes; the FFT's own plan
    # and scratch live outside it.  At 200 components the (2j+1)^2 matrices
    # outweigh the chunk-length vectors
    q = _dense_qudit(dim)
    angles = EulerAngles(0.3, math.pi / 2, 0.4)
    evolve(q, angles, t)  # warm the J_y eigenvectors and the FFT plan
    tracemalloc.start()
    try:
        field = evolve(q, angles, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field.amps.nbytes <= peak <= walk._field_bytes(dim - 1, t)


def test_half_turns_follow_np_angle():
    # the principal square root of z/|z|, on np.angle's branch, 1 at z = 0;
    # the negative real axis turns by +-pi/2 with the sign of its zero
    rng = np.random.default_rng(3)
    z = np.concatenate((
        rng.normal(size=200) + 1j * rng.normal(size=200),
        [0.0, -1.0, complex(-1.0, -0.0), complex(-3.0, 1e-300), 1e-10j, -5e-10, 2.0],
    ))
    got = walk._half_turn(z, np.abs(z))
    want = np.where(z == 0.0, 1.0, np.exp(0.5j * np.angle(z)))
    assert np.abs(got - want).max() <= 4e-16
    assert got[201] == 1j and got[202] == -1j


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
def test_twiddle_tables_are_accurate_to_rounding():
    # every e^{i pi r/M}, 0 <= r < 2M, from one product of two short
    # tables, within 2.4e-16 where exp(1j * pi r/M) strays up to 1.3e-15
    pi = np.arccos(np.longdouble(-1.0))
    for modes in (1, 2, 7, 1024, 11250, 15000, 129600):
        r = np.arange(2 * modes)
        low, high = walk._turn_tables(modes)
        assert low.size**2 >= 2 * modes and high.size <= low.size
        exact = np.exp(1j * pi * r.astype(np.longdouble) / modes)
        assert float(np.abs(walk._turn(r, (low, high)) - exact).max()) <= 3e-16, modes


def test_integer_powers_match_pow():
    # square-and-multiply against float pow: the two round differently, by
    # at most about r ulps of the power
    x = np.linspace(-1.5, 1.5, 301)
    for r in (0, 1, 2, 3, 4, 7, 16, 33):
        want = x**r
        got = walk._int_power(x, r)
        assert np.all(np.abs(got - want) <= r * np.finfo(float).eps * np.abs(want)), r
    assert np.array_equal(walk._int_power(x, 2), x * x)


def _su2_power_fresh(p, q, t):
    """h^t's first column with a fresh array for every product."""
    rp, rq = p, q
    t -= 1
    while t:
        if t & 1:
            rp, rq = rp * p - np.conj(rq) * q, rq * p + np.conj(rp) * q
        t >>= 1
        if t:
            p, q = p * p - np.conj(q) * q, q * p + np.conj(p) * q
    return rp, rq


def test_su2_powers_in_reused_buffers_keep_every_bit():
    # the same products in the same order, only written into six vectors
    rng = np.random.default_rng(5)
    k = np.pi * np.arange(1537) / 1537
    beta = rng.uniform(0.0, np.pi)
    p0 = np.cos(0.5 * beta) * np.exp(1j * (k - 0.3))
    q0 = np.sin(0.5 * beta) * np.exp(-1j * (k + 0.2))
    for t in (1, 2, 3, 4, 7, 64, 300, 1000, 1023):
        want = _su2_power_fresh(p0, q0, t)
        p, q = p0.copy(), q0.copy()
        got = walk._su2_power(p, q, t)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], t


def test_evolve_validates_t_and_angles():
    q = preset_qudit("up", "1/2")
    for bad in (-1, 2.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            evolve(q, HADAMARD_LIKE, bad)
    for t in (0, 3):
        with pytest.raises(DomainError):
            evolve(q, EulerAngles(0.0, math.nan, 0.0), t)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 8), st.integers(0, 12))
def test_norm_preserved_for_random_qudits(tj, t):
    rng = np.random.default_rng(13 * tj + t)
    q = Qudit(HalfInt(tj), rng.normal(size=tj + 1) + 1j * rng.normal(size=tj + 1))
    dist = position_distribution(evolve(q, EulerAngles(0.3, 1.2, -0.5), t))
    assert dist.p.sum() == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------- moments

def test_moment_basics():
    dist = position_distribution(evolve(preset_qudit("up", "1/2"), HADAMARD_LIKE, 1))
    assert pseudovelocity_moment(dist, 1, 0) == pytest.approx(1.0, abs=1e-15)
    assert pseudovelocity_moment(dist, 1, 2) == pytest.approx(1.0, abs=1e-15)
    sym = position_distribution(evolve(preset_qudit("paper-sym", "1/2"), HADAMARD_LIKE, 30))
    assert pseudovelocity_moment(sym, 30, 1) == pytest.approx(0.0, abs=1e-14)
    for bad_t in (0, -1, 2.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            pseudovelocity_moment(dist, bad_t, 2)
    for bad_order in (-1, 0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            pseudovelocity_moment(dist, 1, bad_order)


# ----------------------------------------------------------------- binning

def test_binning_conserves_mass_and_centers_zero():
    q = preset_qudit("paper-sym", HalfInt(11))
    dist = position_distribution(evolve(q, EulerAngles(0, math.pi / 2, math.pi), 40))
    b = binned_density(dist, 40, 0.05)
    assert b.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert b.centers[b.centers.size // 2] == 0.0
    assert np.all(np.diff(b.edges) > 0)
    assert b.edges.size == b.centers.size + 1


def test_binning_spreads_sites_over_lattice_cells():
    # a site is a lattice cell two units wide, not a point: mass 1 at x = 0
    # with t = 10 covers v in [-0.1, 0.1), i.e. density 5 across the middle
    # three bins of width 0.05 and 2.5 on the two half-covered ones
    dist = Distribution(np.array([0]), np.array([1.0]))
    b = binned_density(dist, 10, 0.05)
    k0 = int(np.flatnonzero(b.centers == 0.0)[0])
    np.testing.assert_allclose(b.density[k0 - 1 : k0 + 2], [5.0, 5.0, 5.0], atol=1e-12)
    np.testing.assert_allclose(
        [b.density[k0 - 2], b.density[k0 + 2]], [2.5, 2.5], atol=1e-12
    )
    assert b.masses.sum() == pytest.approx(1.0, abs=1e-15)


def _binned_by_add_at(dist, t, w, v_max=None):
    """binned_density's masses by one np.add.at per offset: the reference
    that its single bincount, which adds in the same order, matches bit for
    bit."""
    lo, hi = (dist.x - 1.0) / t, (dist.x + 1.0) / t
    blo = np.floor(lo / w + 0.5).astype(int)
    bhi = np.floor(hi / w + 0.5).astype(int)
    half = int(max(np.max(np.abs(blo)), np.max(np.abs(bhi))))
    if v_max is not None:
        half = max(half, int(np.ceil(v_max / w - 0.5)))
    mass = np.zeros(2 * half + 1)
    for off in range(int(np.max(bhi - blo)) + 1):
        k = blo + off
        sel = k <= bhi
        left = np.maximum(lo[sel], (k[sel] - 0.5) * w)
        right = np.minimum(hi[sel], (k[sel] + 0.5) * w)
        np.add.at(mass, k[sel] + half, dist.p[sel] * (right - left) / (hi - lo)[sel])
    return mass


def test_binning_adds_as_the_add_at_loop_does():
    q = _dense_qudit(12)
    for t in (1, 40, 300):
        dist = position_distribution(evolve(q, EulerAngles(0.3, 1.2, -0.5), t))
        for w in (0.003, 0.01, 0.05, 0.37, 1.0):
            for v_max in (None, 30.0):
                b = binned_density(dist, t, w, v_max=v_max)
                assert np.array_equal(b.density, _binned_by_add_at(dist, t, w, v_max) / w), (t, w)


def test_binning_v_max_pads_the_range():
    dist = Distribution(np.array([0]), np.array([1.0]))
    b = binned_density(dist, 10, 0.05, v_max=1.0)
    assert b.centers[-1] >= 1.0 - 0.025
    assert b.centers[0] == -b.centers[-1]


def test_binning_validates_arguments():
    dist = Distribution(np.array([0]), np.array([1.0]))
    for bad_t in (0, -1, 2.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            binned_density(dist, bad_t, 0.05)
    for bad_width in (0.0, -0.1, math.inf):
        with pytest.raises(DomainError):
            binned_density(dist, 10, bad_width)
    for bad_range in (math.inf, math.nan, -1.0):
        with pytest.raises(DomainError):
            binned_density(dist, 3, 0.5, v_max=bad_range)
