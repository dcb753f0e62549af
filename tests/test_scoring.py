import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from singscan import (
    dispersion,
    filter_labels,
    kde_density,
    knee_detect,
    knn_neighbor_sets,
    log_inv_p,
    purity,
    roc_auc,
    separation,
)
from singscan.scoring import DAMP_GLOBAL, DAMP_LOCAL


def test_log_inv_p_values():
    out = log_inv_p([1.0, math.exp(-1.0), 1e-300, np.nan])
    assert out[0] == pytest.approx(0.0)
    assert out[1] == pytest.approx(1.0)
    assert out[2] == pytest.approx(300 * math.log(10), rel=1e-3)
    assert np.isnan(out[3])


def test_log_inv_p_rejects_out_of_range():
    with pytest.raises(ValueError):
        log_inv_p([0.0])
    with pytest.raises(ValueError):
        log_inv_p([1.2])


def test_kde_normal_sample():
    rng = np.random.default_rng(0)
    grid, dens = kde_density(rng.standard_normal(10_000))
    at0 = dens[np.argmin(np.abs(grid))]
    assert at0 == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=0.15)
    assert np.all(dens >= 0.0)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=0.01)


def test_kde_symmetric_data_gives_symmetric_density():
    rng = np.random.default_rng(1)
    half = rng.standard_normal(4000)
    values = np.concatenate([half, -half])  # exactly symmetric about 0
    grid, dens = kde_density(values)
    assert dens == pytest.approx(dens[::-1], abs=1e-10)


def test_kde_degenerate_inputs():
    with pytest.raises(ValueError, match="degenerate"):
        kde_density(np.ones(50))
    with pytest.raises(ValueError):
        kde_density([1.0])


def _kde_input(kind):
    rng = np.random.default_rng(11)
    if kind == "normal":
        return rng.standard_normal(5000)
    if kind == "quantized":
        # A null table of 1000 sims gives p-values k / 1001; below the lowest
        # level the tail fit gives distinct values.
        levels = rng.integers(1, 1002, 2800) / 1001.0
        tail = np.exp(-np.log(1001.0) - rng.exponential(2.0, 200))
        return log_inv_p(np.concatenate([levels, tail, [np.nan] * 5]))
    # kind == "inherited": a quarter of the points scored, and each of the
    # rest copying the score of one of them
    scored = rng.standard_normal(750)
    return np.concatenate([scored, scored[rng.integers(0, 750, 2250)]])


@pytest.mark.parametrize("kind", ["normal", "quantized", "inherited"])
def test_kde_matches_per_value_oracle(kde_oracle, kind):
    values = _kde_input(kind)
    grid, dens = kde_density(values)
    grid_o, dens_o = kde_oracle(values)
    assert np.array_equal(grid, grid_o)
    assert np.max(np.abs(dens - dens_o)) <= 1e-13 * dens_o.max()


def test_kde_holds_a_few_blocks():
    # 22,500 distinct scores, as on the detect benchmark.
    values = np.random.default_rng(4).standard_normal(22_500)
    tracemalloc.start()
    try:
        kde_density(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_kde_is_bit_identical_under_permutation():
    # Small integers, n = 4096: the bandwidth's std, which sums in input
    # order, is exact here, so any difference would come from the KDE's sum.
    rng = np.random.default_rng(3)
    values = rng.integers(0, 40, 4096).astype(float)
    grid, dens = kde_density(values)
    for _ in range(5):
        grid_p, dens_p = kde_density(rng.permutation(values))
        assert np.array_equal(grid_p, grid)
        assert np.array_equal(dens_p, dens)


def test_knee_straight_line_has_none():
    xs = np.linspace(0, 1, 50)
    assert knee_detect(xs, 1.0 - xs) is None


def test_knee_of_saturating_curve():
    xs = np.linspace(0, 1, 400)
    ys = 1.0 - np.exp(-5.0 * xs)
    # Mirrored into a convex decreasing curve: the same difference curve.
    knee = knee_detect(xs, -ys)
    # independent brute-force oracle over the normalized difference curve
    xn = (xs - xs[0]) / (xs[-1] - xs[0])
    yn = (ys - ys.min()) / (ys.max() - ys.min())
    oracle = xs[np.argmax(yn - xn)]
    assert knee == pytest.approx(oracle, abs=1e-12)
    assert abs(knee - 0.32) < 0.05


def test_knee_convex_decreasing_orientation():
    xs = np.linspace(0, 1, 400)
    ys = np.exp(-5.0 * xs)
    knee = knee_detect(xs, ys)
    assert knee is not None
    assert abs(knee - 0.32) < 0.05


def test_knee_input_validation():
    with pytest.raises(ValueError):
        knee_detect([0, 1, 2], [0, 1, 2])


def test_filter_uniform_p_values_label_few():
    # Monte-Carlo: with uniform p-values (the manifold case) the knee cut
    # labels a small tail; on average no more than 10%.
    fracs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        fracs.append(filter_labels(rng.random(2000)).mean())
    assert np.mean(fracs) <= 0.10
    assert max(fracs) <= 0.20


def test_filter_mixture_catches_the_atom():
    rng = np.random.default_rng(0)
    p = rng.random(1000)
    p[:100] = 1e-12
    labels = filter_labels(p)
    assert labels[:100].sum() == 100
    assert labels[100:].sum() <= 10


def test_filter_constant_p_values_all_zero():
    assert filter_labels(np.full(50, 0.25)).sum() == 0


def test_filter_missing_are_labeled_zero():
    rng = np.random.default_rng(1)
    p = rng.random(500)
    p[::7] = np.nan
    labels = filter_labels(p)
    assert labels[::7].sum() == 0


def test_filter_needs_ten_scored():
    with pytest.raises(ValueError):
        filter_labels(np.array([0.5] * 9))


def test_knn_neighbor_sets_keep_both_copies_of_a_duplicate():
    # Zero-padded to 25 dimensions the cloud takes the brute-force path.
    for pad in (0, 23):
        base = np.random.default_rng(7).random((200, 2))
        base = np.hstack([base, np.zeros((200, pad))])
        pts = np.vstack([base, base])
        nbrs = knn_neighbor_sets(pts, 5)
        assert nbrs.shape == (400, 5)
        assert np.array_equal(nbrs[:, 0], np.arange(400))
        twin = (np.arange(400) + 200) % 400
        assert (nbrs == twin[:, None]).any(axis=1).all()
        assert all(len(set(row)) == 5 for row in nbrs)
        # More copies than k: the point itself still heads its set.
        triple = knn_neighbor_sets(np.zeros((3, 2 + pad)), 2)
        assert np.array_equal(triple[:, 0], np.arange(3))
        assert all(len(set(row)) == 2 for row in triple)
        assert knn_neighbor_sets(base, 1).shape == (200, 1)


def test_purity_examples():
    labels = np.array([1, 1, 0, 0, 0])
    nbrs = np.array([[0, 1, 2, 3]] * 5)
    nbrs[:, 0] = np.arange(5)
    got = purity(labels, np.array([[0, 1, 2, 3], [1, 0, 2, 3], [2, 0, 1, 3], [3, 0, 1, 2], [4, 0, 1, 2]]))
    assert got[0] == pytest.approx(0.5)
    assert purity(np.ones(4, int), np.tile(np.arange(4), (4, 1))) == pytest.approx(np.ones(4))
    assert purity(np.zeros(4, int), np.tile(np.arange(4), (4, 1))) == pytest.approx(np.zeros(4))


def test_roc_auc_examples():
    assert roc_auc([1, 2, 3, 4], [0, 0, 1, 1]) == 1.0
    assert roc_auc([1.0, 1.0, 1.0, 1.0], [0, 1, 0, 1]) == 0.5
    rng = np.random.default_rng(2)
    scores = rng.standard_normal(10_000)
    labels = rng.integers(0, 2, 10_000)
    assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.02)
    with pytest.raises(ValueError, match="AUC undefined"):
        roc_auc([1.0, 2.0], [1, 1])


def test_roc_auc_equals_the_rankdata_formula_on_ties():
    rng = np.random.default_rng(3)
    for n, levels in ((2, 1), (60, 3), (5000, 7), (20000, 400)):
        scores = rng.integers(0, levels, n) / 7.0
        labels = np.arange(n) % 2
        rng.shuffle(labels)
        n1, n0 = int(labels.sum()), int(n - labels.sum())
        ranks = rankdata(scores)
        want = float((ranks[labels == 1].sum() - n1 * (n1 + 1) / 2.0) / (n0 * n1))
        assert roc_auc(scores, labels) == want
    assert math.isnan(roc_auc([0.1, np.nan, 0.3], [0, 1, 1]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_roc_auc_invariant_under_increasing_transform(seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(40)
    labels = np.concatenate([np.ones(20, int), np.zeros(20, int)])
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(scores), labels) == pytest.approx(base)
    assert roc_auc(3.0 * scores + 7.0, labels) == pytest.approx(base)


def test_separation_hand_enumerated_line():
    pts = np.array([[0.0], [1.0], [2.0], [-1.0], [-2.0]])
    labels = np.array([1, 1, 1, 0, 0])
    nbrs = np.tile(np.arange(5), (5, 1))
    nbrs[:, 0] = np.arange(5)
    s = separation(pts, labels, nbrs)
    # first label-1 point sits at 0: direction +1, t = (0, 1, 2, -1, -2),
    # every (one, zero) pair is correctly ordered
    assert s[0] == pytest.approx(1.0)


def test_separation_degenerate_cases():
    pts = np.array([[0.0], [1.0], [2.0]])
    # the only label-1 neighbor of point 0 is itself: direction is zero
    labels = np.array([1, 0, 0])
    nbrs = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])
    assert separation(pts, labels, nbrs)[0] == pytest.approx(0.5)
    # single-class neighborhood
    labels_all = np.array([1, 1, 1])
    assert separation(pts, labels_all, nbrs) == pytest.approx(np.full(3, 0.5))


def test_separation_random_labels_near_half():
    # The direction vector is built from the label-1 displacements themselves,
    # so random labels sit slightly above 1/2, approaching it as the
    # neighborhood grows.
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((400, 2))
    labels = rng.integers(0, 2, 400)
    small = separation(pts, labels, knn_neighbor_sets(pts, 20)).mean()
    large = separation(pts, labels, knn_neighbor_sets(pts, 150)).mean()
    assert 0.5 <= small < 0.62
    assert 0.5 <= large < small


def test_dispersion_all_zero_labels():
    pts = np.random.default_rng(4).standard_normal((30, 2))
    nbrs = knn_neighbor_sets(pts, 10)
    assert dispersion(pts, np.zeros(30, int), nbrs, alpha_reg=7.5) == 0.0


def test_dispersion_all_one_labels_equals_alpha_reg():
    pts = np.random.default_rng(5).standard_normal((30, 2))
    nbrs = knn_neighbor_sets(pts, 10)
    labels = np.ones(30, int)
    # purity 1 everywhere and separation 1/2 make q = 1/4, damped to zero
    p = purity(labels, nbrs)
    assert p == pytest.approx(np.ones(30))
    q = 1.0 - 0.5 * (separation(pts, labels, nbrs) + p)
    assert q.max() <= 0.25 + 1e-12
    assert dispersion(pts, labels, nbrs, alpha_reg=7.5) == pytest.approx(7.5)


def test_dispersion_report_internal_consistency():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((200, 2))
    labels = (pts[:, 0] > 0.8).astype(int)
    nbrs = knn_neighbor_sets(pts, 20)
    ones = np.flatnonzero(labels == 1)
    q = 1.0 - 0.5 * (separation(pts, labels, nbrs) + purity(labels, nbrs)[ones])
    recomputed = 50.0 * DAMP_GLOBAL(ones.size / 200) + float(DAMP_LOCAL(q).sum())
    # The same arithmetic in the same order, so equal to the last bit.
    assert dispersion(pts, labels, nbrs, alpha_reg=50.0) == recomputed


def test_clean_band_beats_random_labeling():
    # A spatially clean thin band should disperse less than the same number
    # of ones scattered at random.
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, size=(500, 2))
        band = ((pts[:, 0] > 0.45) & (pts[:, 0] < 0.55)).astype(int)
        if band.sum() == 0:
            band[0] = 1
        scattered = np.zeros(500, int)
        scattered[rng.choice(500, band.sum(), replace=False)] = 1
        nbrs = knn_neighbor_sets(pts, 20)
        d_band = dispersion(pts, band, nbrs, alpha_reg=125.0)
        d_rand = dispersion(pts, scattered, nbrs, alpha_reg=125.0)
        if d_band < d_rand:
            wins += 1
    assert wins == 20


def test_damping_function_properties():
    f = DAMP_LOCAL
    grid = np.linspace(0.0, 1.0, 200)
    vals = f(grid)
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all(vals <= grid + 1e-12)
    assert f(1.0) == pytest.approx(1.0)
    assert f(0.49) == 0.0
    g = DAMP_GLOBAL
    assert np.all(g(grid) <= grid + 1e-12)


def test_filter_permutation_invariant():
    rng = np.random.default_rng(7)
    p = rng.random(300)
    labels = filter_labels(p)
    perm = rng.permutation(300)
    assert np.array_equal(filter_labels(p[perm]), labels[perm])


def _separation_oracle(points, labels, neighbor_sets):
    """The per-point loop with scipy's ranks that ``separation`` batches."""
    pts = np.asarray(points, dtype=float)
    y = np.asarray(labels)
    nbrs = np.asarray(neighbor_sets)
    out = []
    for i in np.flatnonzero(y == 1):
        nb = nbrs[i]
        ny = y[nb]
        diffs = pts[nb] - pts[i]
        direction = diffs[ny == 1].sum(axis=0)
        norm = np.linalg.norm(direction)
        if norm == 0.0 or ny.min() == ny.max():
            out.append(0.5)
        else:
            out.append(roc_auc(diffs @ (direction / norm), ny))
    return np.array(out)


@pytest.mark.parametrize("dim", [1, 2, 3, 30])
@pytest.mark.parametrize("cloud_kind", ["gaussian", "grid_ties", "duplicates"])
def test_separation_equals_per_point_oracle(dim, cloud_kind):
    rng = np.random.default_rng(dim)
    pts = rng.standard_normal((300, dim))
    if cloud_kind == "grid_ties":
        pts = np.round(2.0 * pts) / 2.0
    elif cloud_kind == "duplicates":
        pts[150:] = pts[:150]
    for k in (5, 20, 60):
        nbrs = knn_neighbor_sets(pts, k)
        for share in (0.05, 0.3, 0.9):
            labels = (rng.random(300) < share).astype(int)
            assert np.array_equal(
                separation(pts, labels, nbrs), _separation_oracle(pts, labels, nbrs)
            )


def test_separation_equals_oracle_on_degenerate_neighborhoods():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    nbrs = np.array([[0, 1, 2, 3], [1, 0, 2, 4], [2, 0, 1, 3], [3, 0, 1, 2], [4, 1, 2, 0]])
    # Point 0's label-1 displacements cancel (zero direction), point 4 has a
    # label-1 duplicate only, and 1 and 2 see all-one-class neighborhoods or not.
    for labels in ([1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 0, 0, 0, 1], [0, 1, 1, 1, 0]):
        labels = np.array(labels)
        assert np.array_equal(
            separation(pts, labels, nbrs), _separation_oracle(pts, labels, nbrs)
        )
    assert separation(pts, np.array([1, 1, 1, 0, 0]), nbrs)[0] == 0.5
