"""The batched rank-two channel weight against a pairwise reference.

The package evaluates phi0^dag M^(j,m)(x) phi0 on the support as
|v1^dag phi0|^2 + |v2^dag phi0|^2 in blocks of points.  The reference here
sums the form pair by pair over the nonzero qudit components (one row of
pairs per step), each entry from the collapsed formula

    M_{m1 m2}(x) = 2 d_{m1 m}(arccos(-x)) d_{m2 m}(arccos(-x))
                   * cos((m2 - m1) phi) e^{-i (m2 - m1) gamma}

with d from ``two_path_small_d`` (the factorial sum up to 20 components, the
plain complex J_y spectral product above), not from the package's own
small-d code.  Swapping it in for both of the package's evaluators (shared
points and one channel per point) lets every public limit-law number be
compared end to end.
"""

import math
from functools import lru_cache, partial

import numpy as np
import pytest

import quditwalk.density as density
from quditwalk import (
    HalfInt,
    LimitSpec,
    Qudit,
    continuous_density,
    delta_mass,
    limit_bin_masses,
    limit_moment,
    preset_qudit,
)
from small_d_reference import two_path_small_d, two_path_small_d_column
from weight_reference import decimal_matrix

BETAS = (0.002, math.pi / 10, math.pi / 2, 3.0)
GAMMAS = (0.0, 0.4, -1.1)


# moments visit the same few nodes in every channel: up to 20 components
# the factorial-sum matrix is shared by them, and above that each column is
# one matrix-vector product (a 520-component matrix would take 2 MB)
@lru_cache(maxsize=256)
def _small_d_at(tj, angle):
    return two_path_small_d(tj, angle)


def _small_d_column(tj, angle, col):
    if tj + 1 <= 20:
        return _small_d_at(tj, angle)[:, col]
    return two_path_small_d_column(tj, angle, col)


def _reference_grid(spec, tm, x):
    q = spec.qudit.amplitudes
    tj = spec.tj
    tau = math.tan(0.5 * spec.beta)
    x = np.asarray(x, dtype=float)
    col = np.array([_small_d_column(tj, math.acos(-xk), (tj - tm) // 2) for xk in x])
    phi = np.arctan2(np.sqrt(np.maximum(1.0 - (1.0 + tau * tau) * x * x, 0.0)), tau * x)
    out = np.zeros(x.shape)
    nz = np.flatnonzero(q)
    for i1 in nz:
        # the entries (i1, i2) for every partner i2 at once, as columns
        order = int(i1) - nz  # (m2 - m1)
        entry = (
            2.0
            * col[:, [i1]]
            * col[:, nz]
            * np.cos(np.multiply.outer(phi, order))
            * np.exp(-1j * order * spec.gamma)
        )
        out += (np.conj(q[i1]) * q[nz] * entry).real.sum(axis=1)
    return out


def _use_reference(monkeypatch):
    # limit_moment(r) and delta_mass revisit the same nodes for every r
    memo = {}

    def grid(spec, tms, x):
        for tm in tms:
            key = (tm, np.asarray(x, dtype=float).tobytes())
            if key not in memo:
                memo[key] = _reference_grid(spec, tm, x)
        return np.array([memo[tm, np.asarray(x, dtype=float).tobytes()] for tm in tms])

    def point_weights(spec, tms, x, chan):
        # each point in its own channel: one reference pass per channel
        out = np.empty(np.size(x))
        for c in np.unique(chan):
            out[chan == c] = grid(spec, (tms[c],), x[chan == c])[0]
        return out

    # both evaluators: shared points (moments, bin masses) and one channel
    # per point (the density)
    monkeypatch.setattr(density, "_scalar_grid", grid)
    monkeypatch.setattr(density, "_point_weights", point_weights)


def _limit_numbers(spec, v):
    return (
        continuous_density(spec, v),
        np.array([limit_moment(spec, r) for r in range(5)]),
        delta_mass(spec),
    )


def _qudit(kind, dim, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if kind == "asym":
        # weight on the top quarter of the components only, unevenly: no
        # reflection symmetry
        amps[dim // 4 + 2 :] = 0.0
        amps[0] *= 3.0
    return Qudit(HalfInt(dim - 1), amps)


def _cases():
    for dim in (2, 3, 13):
        for kind in ("dense", "asym", "up"):
            for beta in BETAS:
                for gamma in GAMMAS:
                    yield kind, dim, beta, gamma
    # 50 components: the dense and the sparser asymmetric qudit at every beta
    for k, beta in enumerate(BETAS):
        yield "dense", 50, beta, GAMMAS[k % 3]
        yield "asym", 50, beta, GAMMAS[(k + 1) % 3]
        yield "up", 50, beta, GAMMAS[(k + 2) % 3]
    for beta in BETAS:
        yield "paper-sym", 130, beta, 0.0


@pytest.mark.parametrize("kind, dim, beta, gamma", list(_cases()))
def test_limit_law_matches_the_pairwise_reference(monkeypatch, kind, dim, beta, gamma):
    if kind in ("paper-sym", "up"):
        qudit = preset_qudit(kind, HalfInt(dim - 1))
    else:
        qudit = _qudit(kind, dim, seed=1000 + dim)
    spec = LimitSpec(qudit, beta, gamma)
    vmax = (dim - 1) * spec.a
    # off the node sets, inside and beyond the widest channel
    v = np.linspace(-1.05 * vmax, 1.05 * vmax, 9 if dim == 130 else 31)
    got = _limit_numbers(spec, v)
    with monkeypatch.context() as mp:
        _use_reference(mp)
        want = _limit_numbers(spec, v)
    for g, w, scale in zip(got, want, _scales(want)):
        gap = np.abs(np.asarray(g) - np.asarray(w)) / scale
        assert float(np.max(gap)) < 1e-12, (gap, g, w)


def test_density_at_520_components_matches_the_pairwise_reference(monkeypatch):
    # the small-d column's running rotation reaches lam = 519/2 here; the
    # reference takes every e^{-i angle lam} from exp
    spec = LimitSpec(preset_qudit("paper-sym", HalfInt(519)), math.pi / 2, 0.0)
    v = np.linspace(-0.95, 0.95, 11) * 519 * spec.a
    got = continuous_density(spec, v)
    with monkeypatch.context() as mp:
        _use_reference(mp)
        want = continuous_density(spec, v)
    # the density stays below 0.05 here, so the scale is its peak, not 1
    gap = np.abs(got - want) / np.abs(want).max()
    assert float(gap.max()) < 1e-12, (gap, got, want)


def _scales(numbers):
    """max(1, |value|) per number; an odd moment's rounding instead follows
    the absolute moment E|X|^r <= sqrt(E X^(r-1) E X^(r+1)), which is what
    remains of a symmetric law's zero odd moments at 130 components."""
    dens, mom, dm = numbers
    absmom = np.abs(mom)
    for r in (1, 3):
        absmom[r] = np.fmax(absmom[r], math.sqrt(mom[r - 1] * mom[r + 1]))
    return np.maximum(1.0, np.abs(dens)), np.maximum(1.0, absmom), max(1.0, abs(dm))


@pytest.mark.parametrize("beta", (1e-4, 1e-3, 0.002))
@pytest.mark.parametrize("kind", ("dense", "asym"))
@pytest.mark.parametrize("dim", (2, 3, 13, 30))
def test_edge_nodes_match_the_decimal_oracle(dim, kind, beta):
    # below beta ~ 0.003 the outermost nodes of a 200-node rule in
    # x = a sin(theta) sit at |x| >= 0.999999, where arccos(-x) nears 0 or
    # pi; there the 60-digit factorial sums of ``decimal_matrix`` are an
    # independent route
    qudit = _qudit(kind, dim, seed=2000 + dim)
    q = qudit.amplitudes
    nodes, _ = np.polynomial.legendre.leggauss(200)
    for gamma in GAMMAS:
        spec = LimitSpec(qudit, beta, gamma)
        s = spec.a * np.sin(0.5 * math.pi * nodes)
        edge = s[np.abs(s) >= 0.999999]
        assert edge.size >= 2
        for tm in spec.channels:
            got = density._scalar_grid(spec, (tm,), edge)[0]
            want = [
                (np.conj(q) @ decimal_matrix(spec.tj, tm, x, beta, gamma) @ q).real
                for x in edge
            ]
            assert float(np.abs(got - want).max()) < 1e-12, (tm, got - want)


def _bin_masses_per_slice(spec, edges, order):
    """limit_bin_masses by an ``order``-node Gauss-Legendre rule on every
    (bin, channel) slice in theta, v = 2m a sin(theta), where Konno's
    factor is b / (pi (cos^2 theta + b^2 sin^2 theta)), b = sin(beta/2).

    W_m at the nodes is ``_fold_interpolant``.
    """
    out = np.zeros(edges.size - 1)
    a, b = spec.a, math.sin(0.5 * spec.beta)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    for tm in spec.channels:
        weight = _fold_interpolant(spec, tm)
        th = np.arcsin(np.clip(edges / (tm * a), -1.0, 1.0))
        k = np.flatnonzero(th[1:] > th[:-1])
        hw = 0.5 * (th[k + 1] - th[k])
        theta = 0.5 * (th[k + 1] + th[k])[:, None] + np.multiply.outer(hw, nodes)
        konno = np.cos(theta) ** 2 + b * b * np.sin(theta) ** 2
        out[k] += b / math.pi * hw * ((weight(np.sin(theta)) / konno) @ weights)
    return _with_point_mass(spec, edges, out)


def _bin_masses_in_psi(spec, edges, order):
    """limit_bin_masses by ``order``-node Gauss-Legendre panels in
    psi = arctan(b tan theta), v = 2m a sin(theta), b = sin(beta/2), where
    Konno's measure is uniform, d psi / pi.

    There sin(theta) = sin(psi) / sqrt(b^2 cos^2 psi + sin^2 psi), so the
    one fast feature of W_m(a sin theta) is at psi = 0, of width about b:
    the panels are cut at 0, at +-b 2^k and at 16 uniform points of
    [-pi/2, pi/2], and at every bin edge.  An edge maps with
    cos(theta) = sqrt((1 - s)(1 + s)), s = sin(theta); cos(arcsin s) would
    lose the digits that small beta needs.  W_m comes from the per-point
    evaluator at every panel node, the small-d fold, so no value comes from
    the eigenbasis and none from an interpolant, whose error is largest
    near s = +-1, where the mass sits at small beta.
    """
    out = np.zeros(edges.size - 1)
    a, b = spec.a, math.sin(0.5 * spec.beta)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    fine = b * 2.0 ** np.arange(math.floor(math.log2(0.5 * math.pi / b)) + 1)
    cuts = np.concatenate((-fine, [0.0], fine, np.linspace(-0.5 * math.pi, 0.5 * math.pi, 16)))
    for tm in spec.channels:
        s = np.clip(edges / (tm * a), -1.0, 1.0)
        psi = np.arctan2(b * s, np.sqrt((1.0 - s) * (1.0 + s)))
        ends = np.unique(np.concatenate((psi, cuts[(cuts > psi[0]) & (cuts < psi[-1])])))
        mid, hw = 0.5 * (ends[1:] + ends[:-1]), 0.5 * (ends[1:] - ends[:-1])
        p = mid[:, None] + np.multiply.outer(hw, nodes)
        sin = np.sin(p) / np.sqrt((b * np.cos(p)) ** 2 + np.sin(p) ** 2)
        x = a * sin.ravel()
        weight = density._point_weights(spec, (tm,), x, np.zeros(x.size, dtype=int)).reshape(sin.shape)
        # each panel lies in one bin: the one whose left edge precedes its middle
        np.add.at(out, np.searchsorted(psi, mid) - 1, hw * (weight @ weights) / math.pi)
    return _with_point_mass(spec, edges, out)


def _fold_interpolant(spec, tm):
    """W_m in x/a as its interpolant of degree 2j through the per-point
    evaluator (the small-d fold, not the J_y eigenbasis that
    ``limit_bin_masses`` takes) at the first-kind Chebyshev points: exact for
    the polynomial W_m, and a few multiply-adds per node instead of an
    evaluator pass."""
    return np.polynomial.Chebyshev.interpolate(
        lambda t: density._point_weights(spec, (tm,), spec.a * t, np.zeros(t.size, dtype=int)), spec.tj
    )


def _with_point_mass(spec, edges, out):
    """``out`` with the point mass, if any, added to the bin holding v = 0."""
    if spec.has_point_mass:
        k0 = int(np.searchsorted(edges, 0.0, side="right")) - 1
        out[k0] += delta_mass(spec)
    return out


# each case's order is one at which the reference has converged; at
# beta <= 0.01 the slices next to the pikes need hundreds of nodes, and the
# bound is the gap between the reference's own n- and 2n-node results
@pytest.mark.parametrize(
    "qudit, beta, gamma, width, order, tol",
    [
        (_qudit("dense", 13, 7), 22 * math.pi / 25, 0.4, 0.2, 24, 1e-14),
        (_qudit("asym", 6, 8), 0.002, -1.1, 0.5, 256, 1e-12),
        (preset_qudit("paper-sym", 6), math.pi / 2, 0.0, 0.05, 24, 1e-14),
        (_qudit("dense", 2, 9), 0.01, 0.4, 0.05, 96, 5e-13),
        (_qudit("dense", 2, 10), 3.1, -1.1, 1.0, 24, 1e-14),
        (_qudit("dense", 50, 11), math.pi / 10, 0.4, 1.0, 48, 1e-14),
        (_qudit("asym", 50, 12), 3.1, 0.0, 0.05, 24, 1e-14),
        (preset_qudit("paper-sym", "49/2"), 0.01, 0.0, 1.0, 96, 2e-13),
        (_qudit("dense", 130, 13), math.pi / 10, -1.1, 1.0, 96, 1e-14),
        (preset_qudit("paper-sym", "129/2"), 3.1, 0.0, 0.05, 24, 1e-14),
    ],
)
def test_bin_masses_match_the_per_slice_loop(monkeypatch, qudit, beta, gamma, width, order, tol):
    spec = LimitSpec(qudit, beta, gamma)
    reach = qudit.tj * spec.a + width
    edges = np.arange(-reach, reach + width, width)
    evaluator = density._scalar_grid
    calls = []

    def recording(spec, tms, x):
        calls.append(tuple(tms))
        return evaluator(spec, tms, x)

    with monkeypatch.context() as mp:
        mp.setattr(density, "_scalar_grid", recording)
        got = limit_bin_masses(spec, edges)
    # one call for every channel, plus delta_mass's pass on channel 0 alone
    assert calls == [spec.channels] + [(0,)] * spec.has_point_mass
    want = _bin_masses_per_slice(spec, edges, order)
    # the reference has converged: twice its order gives the same bins
    assert float(np.abs(_bin_masses_per_slice(spec, edges, 2 * order) - want).max()) < tol
    assert float(np.abs(got - want).max()) < tol


@pytest.mark.parametrize("beta", (1e-6, 1e-4, 1e-3))
@pytest.mark.parametrize("dim", (13, 50))
def test_bin_masses_match_the_psi_panels_at_small_beta(dim, beta):
    # at small beta the per-slice loop needs thousands of nodes next to the
    # pikes; in psi the law is uniform and the panels converge at 24 nodes
    spec = LimitSpec(_qudit("dense", dim, 7), beta, 0.4)
    edges = np.linspace(-1.0, 1.0, 41) * spec.tj * spec.a
    want = _bin_masses_in_psi(spec, edges, 48)
    assert float(np.abs(_bin_masses_in_psi(spec, edges, 24) - want).max()) < 1e-15
    gap = np.abs(limit_bin_masses(spec, edges) - want)
    assert float(gap.max()) < 1e-14, gap


@pytest.mark.parametrize("beta", (1e-6, 1e-4))
def test_the_psi_panels_give_the_spin_half_bins(beta):
    # the spin-1/2 symmetric qudit has channel weight 1, so a bin holds
    # atan2(b s, cos theta)/pi between its edges: the panels' edge map and
    # sum, free of the channel weight
    spec = LimitSpec(preset_qudit("paper-sym", "1/2"), beta)
    s = np.linspace(-1.0, 1.0, 41)
    want = np.diff(np.arctan2(math.sin(0.5 * beta) * s, np.sqrt((1.0 - s) * (1.0 + s)))) / math.pi
    for order in (24, 48):
        got = _bin_masses_in_psi(spec, s * spec.a, order)
        assert float(np.abs(got - want).max()) < 1e-15, (order, got - want)


@pytest.mark.parametrize("channels", ("one", "all"))
def test_the_evaluator_blocks_join_without_seams(channels):
    # the density's evaluator takes _BLOCK points at a time, the J_y
    # eigenbasis half as many: a grid across three seams must read as the same
    # points taken in chunks that each fit in one block
    spec = LimitSpec(_qudit("dense", 13, 14), math.pi / 10, 0.4)
    v = np.linspace(-1.0, 1.0, 3 * density._BLOCK + 7) * spec.tj * spec.a
    if channels == "one":
        # the top channel's call takes nearly every point
        evaluate = partial(continuous_density, spec)
    else:
        evaluate = partial(density._scalar_grid, spec, spec.channels)
        v /= spec.tj
    got = evaluate(v)
    chunks = range(0, v.size, density._BLOCK // 2 - 1)
    want = np.concatenate([evaluate(v[lo : lo + density._BLOCK // 2 - 1]) for lo in chunks], axis=-1)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def _bin_masses_every_pair(spec, edges):
    """limit_bin_masses with every (channel, edge) pair through the series,
    the clipped ones at s = +-1 too, in blocks of ``_BLOCK`` pairs, as the
    loop ran before it took a clipped pair's antiderivative as P_0
    arcsin(+-1)."""
    out = np.zeros(edges.size - 1)
    coef, geo, root, gap = density._bin_series(spec)
    terms = coef.shape[1] - 1
    s = np.clip(edges / (np.array(spec.channels)[:, None] * spec.a), -1.0, 1.0).ravel()
    ch = np.repeat(np.arange(len(spec.channels)), edges.size)
    g = np.empty(s.size)
    for lo in range(0, s.size, density._BLOCK):
        sb, cb = s[lo : lo + density._BLOCK], ch[lo : lo + density._BLOCK]
        cos = np.sqrt((1.0 - sb) * (1.0 + sb))
        zeta = 1j * cos - sb
        table = density._powers(zeta, zeta, np.empty((terms, sb.size), dtype=complex)).imag
        g[lo : lo + density._BLOCK] = coef[cb, 0] * np.arcsin(sb)
        g[lo : lo + density._BLOCK] += np.einsum("pl,lp->p", coef[cb, 1:], table)
        if geo is not None:
            up = np.arctan2(root * cos, gap + root * (1.0 - sb))
            down = np.arctan2(root * cos, gap + root * (1.0 + sb))
            g[lo : lo + density._BLOCK] += geo[cb, 1] * (up + down) / root - geo[cb, 0] * (up - down)
    steps = np.diff(g.reshape(len(spec.channels), edges.size), axis=1)
    out += np.maximum(steps, 0.0).sum(axis=0) / math.pi
    return _with_point_mass(spec, edges, out)


@pytest.mark.parametrize("beta", (1e-6, 0.3, math.pi / 2, math.pi - 1e-6))
@pytest.mark.parametrize("dim", (2, 7, 13, 30, 50))
def test_clipped_pairs_match_the_series_bit_for_bit(dim, beta):
    # an edge past a channel's support reads P_0 arcsin(+-1) without the
    # series; every bin must keep its bits, signed zeros included
    for kind, seed in (("dense", 31), ("asym", 32)):
        spec = LimitSpec(_qudit(kind, dim, seed), beta, 0.4)
        widest = spec.tj * spec.a
        # a grid reaching past the widest support, plus every channel's
        # support edges +-2m a, where s is exactly +-1, and points just
        # inside them, which must still run the series
        pikes = np.array(spec.channels) * spec.a
        pikes = np.concatenate((pikes, np.nextafter(pikes, 0.0), (1.0 - 1e-6) * pikes))
        edges = np.unique(np.concatenate((np.linspace(-1.3, 1.3, 27) * widest, pikes, -pikes, [0.0])))
        got = limit_bin_masses(spec, edges)
        want = _bin_masses_every_pair(spec, edges)
        assert got.tobytes() == want.tobytes(), (kind, got - want)
