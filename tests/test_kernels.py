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
from singscan.geometry import BLOCK_BYTES
from singscan.kernels import mmd_sq_stack

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


def _oracle_mmd_sq(pts, kern, weights=None):
    """The squared MMD from its definition, one Gram row at a time: the
    weighted mean of kappa(x_i . x_j) over all pairs (inner products clipped
    to [-1, 1]), minus twice the sample's mean of the disk series in
    ||x_i||^2, plus the series' disk total."""
    n, d = pts.shape
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    w = w / w.sum()
    gram = math.fsum(
        w[i] * math.fsum(w * kern.closed_form(np.clip(pts @ pts[i], -1.0, 1.0)))
        for i in range(n)
    )
    ks = np.arange(kern.order + 1)
    coeffs = kern.coefficients(2 * ks) * beta_coeff(d, ks)
    sq = np.einsum("ij,ij->i", pts, pts)
    sample = math.fsum(w * (sq[:, None] ** ks[None, :] @ coeffs))
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
    # 11 samples of 40 points: two blocks of several samples each.  The scale
    # folded into the Gram operand is exact only for powers of two, hence the
    # tolerance; the clamp path (a point at norm exactly 1) keeps the order
    # clip, then scale.
    rng = np.random.default_rng(100 * d + int(10 * kern.param))
    stack = _off_center_stack(rng, 11, 40, d)
    weights = rng.integers(1, 6, size=40).astype(float)
    clamped = stack.copy()
    clamped[3, 7] = 0.0
    clamped[3, 7, 0] = 1.0
    for sample in (stack, clamped):
        for w in (None, weights):
            got = mmd_sq_stack(sample, kern, w)
            want = [_oracle_mmd_sq(pts, kern, w) for pts in sample]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kern", [ORACLE_KERNELS[0], ORACLE_KERNELS[2]], ids=lambda k: k.kind)
def test_mmd_sq_stack_row_blocks_match_oracle(kern):
    # n = 2100: an 8 n^2-byte Gram exceeds BLOCK_BYTES, so the one sample is
    # summed in row blocks.
    rng = np.random.default_rng(5)
    pts = _off_center_stack(rng, 1, 2100, 2)
    assert 8 * 2100**2 > BLOCK_BYTES
    weights = rng.integers(1, 4, size=2100).astype(float)
    for w in (None, weights):
        got = mmd_sq_stack(pts, kern, w)[0]
        assert got == pytest.approx(_oracle_mmd_sq(pts[0], kern, w), rel=1e-12, abs=0)
