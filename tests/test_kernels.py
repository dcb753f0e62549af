import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singscan import (
    PowerSeriesKernel,
    beta_coeff,
    expected_mmd_sq,
    mmd_sq_vs_uniform_disk,
    sample_uniform_ball,
)
from singscan.geometry import CACHE_BYTES
from singscan.kernels import (
    _GRAM_ROWS,
    _closed_form_gram,
    _power_sum_gram,
    _series_coefficients,
    mmd_sq_stack,
    series_terms,
)

GEOM_HALF = PowerSeriesKernel("geometric", 0.5)


def test_beta_trivial_and_derived_values():
    assert beta_coeff(7, 0) == pytest.approx(1.0, abs=1e-12)
    assert beta_coeff(1, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert beta_coeff(2, 1) == pytest.approx(0.25, abs=1e-12)


def test_beta_identities_all_d():
    for d in range(1, 51):
        assert beta_coeff(d, 0) == pytest.approx(1.0, abs=1e-12)
        assert beta_coeff(d, 1) == pytest.approx(1.0 / (d + 2), abs=1e-12)


def test_beta_decreasing_in_k():
    for d in (1, 3, 10):
        values = [beta_coeff(d, k) for k in range(12)]
        assert all(a > b > 0 for a, b in zip(values, values[1:]))


def test_beta_rejects_bad_domain():
    with pytest.raises(ValueError):
        beta_coeff(0, 1)
    with pytest.raises(ValueError):
        beta_coeff(2, -1)


def test_closed_form_geometric():
    assert GEOM_HALF.closed_form(0.0) == pytest.approx(1.0)
    assert GEOM_HALF.closed_form(1.0) == pytest.approx(2.0)
    assert GEOM_HALF.closed_form(-1.0) == pytest.approx(2.0 / 3.0)


def test_closed_form_expdot():
    kern = PowerSeriesKernel("expdot", 1.5)
    assert kern.closed_form(0.4) == pytest.approx(math.exp(0.6))


def test_kernel_validation():
    with pytest.raises(ValueError):
        PowerSeriesKernel("geometric", 1.0)
    with pytest.raises(ValueError):
        PowerSeriesKernel("expdot", -1.0)
    with pytest.raises(ValueError):
        PowerSeriesKernel("mystery", 0.5)


def test_mmd_single_point_at_origin_matches_analytic_series():
    # For d = 1 the coefficients reduce to beta(1, k) = 1/(2k+1), so the
    # single-origin-point value is sum_{k>=1} alpha^(2k) / (2k+1)^2.
    analytic = sum(0.25**k / (2 * k + 1) ** 2 for k in range(1, 64))
    got = mmd_sq_vs_uniform_disk(np.zeros((1, 1)), GEOM_HALF)
    assert got == pytest.approx(analytic, rel=1e-10)


def test_mmd_single_origin_any_d_positive():
    for d in (1, 2, 5):
        val = mmd_sq_vs_uniform_disk(np.zeros((1, d)), GEOM_HALF)
        assert val > 0


def test_constant_kernel_cannot_separate():
    # a_0-only kernel: realized by a vanishing geometric parameter at order 0.
    kern = PowerSeriesKernel("geometric", 1e-15, order=0)
    rng = np.random.default_rng(0)
    pts = sample_uniform_ball(2, 40, rng)
    assert mmd_sq_vs_uniform_disk(pts, kern) == pytest.approx(0.0, abs=1e-12)


def test_mmd_matches_monte_carlo_quadrature():
    # Independent oracle: numerically integrate the MMD definition.
    rng = np.random.default_rng(42)
    kern = GEOM_HALF
    d = 2
    pts = sample_uniform_ball(d, 50, rng)
    closed = mmd_sq_vs_uniform_disk(pts, kern)
    n_draws = 200_000
    x = sample_uniform_ball(d, n_draws, rng)
    y = sample_uniform_ball(d, n_draws, rng)
    bb = kern.closed_form(np.einsum("ij,ij->i", x, y))
    z = sample_uniform_ball(d, n_draws, rng)
    cross = kern.closed_form(z @ pts.T).mean(axis=1)
    gram = kern.closed_form(np.clip(pts @ pts.T, -1, 1)).mean()
    mc = gram + bb.mean() - 2.0 * cross.mean()
    se = math.sqrt(bb.var() / n_draws + 4.0 * cross.var() / n_draws)
    assert abs(closed - mc) < 4.0 * se


def test_mmd_errors():
    with pytest.raises(ValueError, match="empty sample"):
        mmd_sq_vs_uniform_disk(np.empty((0, 2)), GEOM_HALF)
    with pytest.raises(ValueError, match="not rescaled"):
        mmd_sq_vs_uniform_disk(np.array([[1.5, 0.0]]), GEOM_HALF)
    with pytest.raises(ValueError):
        mmd_sq_vs_uniform_disk(np.zeros(3), GEOM_HALF)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 30))
@settings(max_examples=25, deadline=None)
def test_mmd_nonnegative_and_rotation_invariant(seed, d, n):
    rng = np.random.default_rng(seed)
    pts = sample_uniform_ball(d, n, rng)
    val = mmd_sq_vs_uniform_disk(pts, GEOM_HALF)
    assert val >= 0.0
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    rotated = pts @ q.T
    assert mmd_sq_vs_uniform_disk(rotated, GEOM_HALF) == pytest.approx(val, abs=1e-10)


def _series_value(pts, kern):
    return mmd_sq_vs_uniform_disk(pts, kern) - kern.closed_form(
        np.clip(pts @ pts.T, -1, 1)
    ).mean()


@pytest.mark.parametrize("alpha,tol", [(0.9, 0.03), (0.5, 1e-6)])
def test_truncation_rates(alpha, tol):
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        pts = sample_uniform_ball(d, 100, rng)
        k10 = PowerSeriesKernel("geometric", alpha, order=10)
        k64 = PowerSeriesKernel("geometric", alpha, order=64)
        lo = _series_value(pts, k10)
        hi = _series_value(pts, k64)
        assert abs(lo - hi) <= tol * abs(hi)
        # and on a strongly non-null sample the full value obeys the same rate
        blob = 0.05 * pts + 0.6
        blob = blob / max(1.0, np.linalg.norm(blob, axis=1).max())
        v10 = mmd_sq_vs_uniform_disk(blob, k10)
        v64 = mmd_sq_vs_uniform_disk(blob, k64)
        assert abs(v10 - v64) <= tol * abs(v64)


def test_expected_mmd_constant_kernel_is_zero():
    kern = PowerSeriesKernel("geometric", 1e-15, order=0)
    assert expected_mmd_sq(kern, 3, 10) == pytest.approx(0.0, abs=1e-12)


def test_expected_mmd_halves_when_n_doubles():
    v1 = expected_mmd_sq(GEOM_HALF, 2, 100)
    v2 = expected_mmd_sq(GEOM_HALF, 2, 200)
    assert v1 == pytest.approx(2.0 * v2, rel=1e-14)
    assert v1 > 0


def test_expected_mmd_matches_simulation():
    rng = np.random.default_rng(7)
    sims = np.array(
        [
            mmd_sq_vs_uniform_disk(sample_uniform_ball(1, 100, rng), GEOM_HALF)
            for _ in range(2000)
        ]
    )
    se = sims.std(ddof=1) / math.sqrt(len(sims))
    assert abs(sims.mean() - expected_mmd_sq(GEOM_HALF, 1, 100)) < 3.0 * se


def test_disk_radial_moments_match_sampling():
    # E ||X||^(2k) = d / (d + 2k) on the uniform d-disk.
    rng = np.random.default_rng(11)
    d = 2
    pts = sample_uniform_ball(d, 100_000, rng)
    sq = np.einsum("ij,ij->i", pts, pts)
    for k in (1, 2, 3):
        assert np.mean(sq**k) == pytest.approx(d / (d + 2 * k), abs=0.01)


def test_expdot_mmd_matches_monte_carlo_quadrature():
    rng = np.random.default_rng(57)
    kern = PowerSeriesKernel("expdot", 2.0)
    d = 2
    pts = sample_uniform_ball(d, 50, rng)
    closed = mmd_sq_vs_uniform_disk(pts, kern)
    n_draws = 200_000
    x = sample_uniform_ball(d, n_draws, rng)
    y = sample_uniform_ball(d, n_draws, rng)
    bb = kern.closed_form(np.einsum("ij,ij->i", x, y))
    z = sample_uniform_ball(d, n_draws, rng)
    cross = kern.closed_form(z @ pts.T).mean(axis=1)
    gram = kern.closed_form(np.clip(pts @ pts.T, -1, 1)).mean()
    mc = gram + bb.mean() - 2.0 * cross.mean()
    se = math.sqrt(bb.var() / n_draws + 4.0 * cross.var() / n_draws)
    assert abs(closed - mc) < 4.0 * se


def test_large_sample_mmd_near_expected():
    # n = 10^4 exercises the chunked Gram path; a single null draw should sit
    # within a few standard errors of the expected value.
    kern = GEOM_HALF
    rng = np.random.default_rng(31)
    draws = np.array(
        [
            mmd_sq_vs_uniform_disk(sample_uniform_ball(2, 10_000, rng), kern)
            for _ in range(15)
        ]
    )
    expected = expected_mmd_sq(kern, 2, 10_000)
    se = draws.std(ddof=1)
    assert abs(draws[0] - expected) < 5.0 * se
    assert abs(draws.mean() - expected) < 4.0 * se / math.sqrt(len(draws))


def _oracle_mmd_sq(pts, kern):
    """The squared MMD from its definition, one Gram row at a time: the mean
    of kappa(x_i . x_j) over all pairs, minus twice the sample's mean of the
    disk series in ||x_i||^2, plus the series' disk total."""
    n, d = pts.shape
    gram = math.fsum(math.fsum(kern.closed_form(pts @ pts[i])) for i in range(n)) / n**2
    ks = np.arange(kern.order + 1)
    coeffs = kern.coefficients(2 * ks) * beta_coeff(d, ks)
    sq = np.einsum("ij,ij->i", pts, pts)
    sample = math.fsum(sq[:, None] ** ks[None, :] @ coeffs) / n
    disk = math.fsum(coeffs * d / (d + 2.0 * ks))
    return gram + disk - 2.0 * sample


def _off_center_stack(rng, m, n, d):
    # Shrunk and shifted off the origin so the MMD is far from zero and a
    # relative tolerance measures the Gram, not cancellation.
    stack = np.stack([0.6 * sample_uniform_ball(d, n, rng) for _ in range(m)])
    stack[:, :, 0] += 0.3
    return stack


ORACLE_KERNELS = [
    PowerSeriesKernel("expdot", 1.3),
    PowerSeriesKernel("expdot", 2.0),
    PowerSeriesKernel("geometric", 0.3),
    PowerSeriesKernel("geometric", 0.5),
]


@pytest.mark.parametrize("kern", ORACLE_KERNELS, ids=lambda k: f"{k.kind}{k.param}")
@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_mmd_sq_stack_matches_pairwise_oracle(kern, d):
    # 11 samples of 40 points, one of them with a point at norm exactly 1.
    # The scale folded into the Gram operand is exact only for powers of
    # two, hence the tolerance.
    rng = np.random.default_rng(100 * d + int(10 * kern.param))
    stack = _off_center_stack(rng, 11, 40, d)
    boundary = stack.copy()
    boundary[3, 7] = 0.0
    boundary[3, 7, 0] = 1.0
    for sample in (stack, boundary):
        got = mmd_sq_stack(sample, kern)
        want = [_oracle_mmd_sq(pts, kern) for pts in sample]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_a_sample_scores_the_same_in_any_stack():
    # Every eighth sample holds a point at norm exactly 1, so a block of
    # samples mixes boundary points with interior ones.
    kern = PowerSeriesKernel("geometric", 0.3)
    stack = _off_center_stack(np.random.default_rng(11), 400, 40, 3)
    stack[::8, 0] = 0.0
    stack[::8, 0, 1] = 1.0
    alone = np.array([mmd_sq_stack(pts[None], kern)[0] for pts in stack])
    assert np.array_equal(mmd_sq_stack(stack, kern), alone)


POWER_SUM_KERNELS = [PowerSeriesKernel("geometric", 0.7), PowerSeriesKernel("expdot", 2.0)]


@pytest.mark.parametrize("kern", POWER_SUM_KERNELS, ids=lambda k: f"{k.kind}{k.param}")
def test_mmd_sq_stack_power_sums_match_pairwise_oracle(kern, monkeypatch):
    # d = 1 with n = 600 >= 4T takes the power sums (T = 112 and 25); the
    # closed-form Gram, forced by an unreachable ratio, must agree as well.
    n = 600
    assert n >= 4 * series_terms(kern)
    rng = np.random.default_rng(int(10 * kern.param))
    stack = _off_center_stack(rng, 3, n, 1)
    edge = stack.copy()
    edge[1, 5, 0] = 1.0
    edge[2, 9, 0] = -1.0
    cases = (stack, edge)
    wants = [[_oracle_mmd_sq(pts, kern) for pts in sample] for sample in cases]
    for sample, want in zip(cases, wants):
        np.testing.assert_allclose(mmd_sq_stack(sample, kern), want, rtol=1e-12, atol=0)
    monkeypatch.setattr("singscan.kernels._POWER_SUM_RATIO", 10**9)
    for sample, want in zip(cases, wants):
        np.testing.assert_allclose(mmd_sq_stack(sample, kern), want, rtol=1e-12, atol=0)


def test_point_just_outside_the_disk_scores_as_on_its_boundary(monkeypatch):
    # A point within NORM_TOLERANCE outside the disk is moved onto the
    # boundary before either Gram path and the disk series, so both paths
    # give the value of the sample with that point at exactly 1.
    kern = PowerSeriesKernel("expdot", 2.0)
    pts = sample_uniform_ball(1, 600, np.random.default_rng(31))
    outside, boundary = pts.copy(), pts.copy()
    outside[7, 0], boundary[7, 0] = 1.0 + 9e-7, 1.0
    assert len(pts) >= 4 * series_terms(kern)
    power = [mmd_sq_stack(sample[None], kern)[0] for sample in (outside, boundary)]
    monkeypatch.setattr("singscan.kernels._POWER_SUM_RATIO", 10**9)
    closed = [mmd_sq_stack(sample[None], kern)[0] for sample in (outside, boundary)]
    assert power[0] == power[1] and closed[0] == closed[1]
    np.testing.assert_allclose(power[0], closed[0], rtol=1e-12, atol=0)


@pytest.mark.parametrize("kern", POWER_SUM_KERNELS + [PowerSeriesKernel("geometric", 0.3)],
                         ids=lambda k: f"{k.kind}{k.param}")
def test_power_sum_gram_is_exact_to_rounding(kern):
    # Both Gram sums of a 500-point d = 1 sample against the correctly
    # rounded sum of its closed-form entries.
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = sample_uniform_ball(1, 500, rng)
        rng.integers(1, 6, size=500)  # discarded: keeps the samples the bound was set on
        exact = math.fsum(kern.closed_form(np.outer(x[:, 0], x[:, 0])).ravel())
        power = _power_sum_gram(x.T, _series_coefficients(kern))[0]
        gram = _closed_form_gram(x[None], kern)[0]
        assert abs(power - exact) <= 2e-15 * exact
        assert abs(gram - exact) <= 2e-15 * exact


def _tail_bound(kern, terms):
    """sum_{k >= terms} a_k bounded by a geometric series from its first term."""
    a = kern.param
    if kern.kind == "geometric":
        return a**terms / (1.0 - a)
    if a / (terms + 1) >= 1.0:
        return math.inf
    return math.exp(terms * math.log(a) - math.lgamma(terms + 1.0)) / (1.0 - a / (terms + 1))


@pytest.mark.parametrize("kind, param, expected", [
    ("geometric", 0.3, 33),
    ("geometric", 0.5, 57),
    ("geometric", 0.7, 112),
    ("geometric", 0.9, 390),
    ("geometric", 0.999, None),
    ("expdot", 0.5, None),
    ("expdot", 2.0, 25),
    ("expdot", 10.0, None),
])
def test_series_terms_is_the_fewest_within_the_tail_bound(kind, param, expected):
    kern = PowerSeriesKernel(kind, param)
    terms = series_terms(kern)
    target = np.finfo(float).eps / 8.0 * min(kern.closed_form(-1.0), kern.closed_form(1.0))
    assert _tail_bound(kern, terms) <= target < _tail_bound(kern, terms - 1)
    if expected is not None:
        assert terms == expected


@pytest.mark.parametrize("kern", [ORACLE_KERNELS[0], ORACLE_KERNELS[2]], ids=lambda k: k.kind)
def test_mmd_sq_stack_row_blocks_match_oracle(kern):
    # n = 2100: one row block of _GRAM_ROWS rows takes more than half of
    # CACHE_BYTES, so each block holds this one sample, and the last of its
    # 66 row blocks is a partial one.
    rng = np.random.default_rng(5)
    pts = _off_center_stack(rng, 1, 2100, 2)
    assert CACHE_BYTES // (8 * _GRAM_ROWS * 2100) == 1 and 2100 % _GRAM_ROWS != 0
    got = mmd_sq_stack(pts, kern)[0]
    assert got == pytest.approx(_oracle_mmd_sq(pts[0], kern), rel=1e-12, abs=0)


def _mixed_stack(rng, m, n, d):
    """m samples of n points: uniform on the disk, every third one shrunk and
    shifted off the origin, every fourth from the second on holding a point
    at norm exactly 1."""
    stack = np.stack([sample_uniform_ball(d, n, rng) for _ in range(m)])
    stack[::3] *= 0.6
    stack[::3, :, 0] += 0.3
    stack[1::4, 0] = 0.0
    stack[1::4, 0, 0] = 1.0
    return stack


# Around one row block of _GRAM_ROWS = 32 rows, two blocks plus a row, and a
# null-table sample.
GRAM_EDGE_SIZES = [1, 31, 32, 33, 65, 500]
GRAM_EDGE_KERNELS = [PowerSeriesKernel("geometric", 0.5), PowerSeriesKernel("expdot", 2.0)]


@pytest.mark.parametrize("kern", GRAM_EDGE_KERNELS, ids=lambda k: k.kind)
@pytest.mark.parametrize("d", [1, 2, 6])
@pytest.mark.parametrize("n", GRAM_EDGE_SIZES)
def test_closed_form_gram_matches_exact_sum_at_block_edges(n, d, kern):
    # The correctly rounded sum of all n^2 closed-form entries, upper and
    # lower triangle alike.
    stack = _mixed_stack(np.random.default_rng(1000 * d + n), 4, n, d)
    for got, pts in zip(_closed_form_gram(stack, kern), stack):
        exact = math.fsum(kern.closed_form(pts @ pts.T).ravel())
        assert abs(got - exact) <= 2e-15 * exact


@pytest.mark.parametrize("kern", GRAM_EDGE_KERNELS, ids=lambda k: k.kind)
def test_closed_form_gram_of_a_long_sample_matches_exact_sum(kern):
    # n = 4200: a block of 32 rows would exceed CACHE_BYTES, so the rows of a
    # block shrink to 31, and 136 blocks add up.
    n = 4200
    assert CACHE_BYTES // (8 * n) == _GRAM_ROWS - 1
    pts = _mixed_stack(np.random.default_rng(42), 2, n, 2)[1]
    rows = (kern.closed_form(pts[i : i + 100] @ pts.T).ravel() for i in range(0, n, 100))
    exact = math.fsum(itertools.chain.from_iterable(rows))
    got = _closed_form_gram(pts[None], kern)[0]
    assert abs(got - exact) <= 2e-15 * exact


def test_closed_form_gram_adds_its_row_blocks_as_if_rounded_once():
    # 60 null-table samples of 500 points, 16 row blocks each.  Added
    # plainly, the blocks' totals drift from the correctly rounded sum by
    # 0.87 ulp on average and up to 3; compensated, by 0.17 and at most 1.
    kern = PowerSeriesKernel("geometric", 0.5)
    rng = np.random.default_rng(12)
    stack = np.stack([sample_uniform_ball(2, 500, rng) for _ in range(60)])
    exact = np.array([math.fsum(kern.closed_form(pts @ pts.T).ravel()) for pts in stack])
    ulps = np.abs(_closed_form_gram(stack, kern) - exact) / np.spacing(exact)
    assert ulps.max() <= 1.0 and ulps.mean() <= 0.4


@pytest.mark.parametrize("kern", GRAM_EDGE_KERNELS, ids=lambda k: k.kind)
@pytest.mark.parametrize("d", [1, 2, 6])
@pytest.mark.parametrize("n", GRAM_EDGE_SIZES)
def test_closed_form_gram_of_a_mixed_stack_is_each_sample_alone(n, d, kern):
    # 300 samples span several cache blocks of samples for every n above 1.
    stack = _mixed_stack(np.random.default_rng(7 * d + n), 300, n, d)
    alone = np.array([_closed_form_gram(pts[None], kern)[0] for pts in stack])
    assert np.array_equal(_closed_form_gram(stack, kern), alone)
