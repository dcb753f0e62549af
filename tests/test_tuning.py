import math

import numpy as np
import pytest

from singscan import (
    NeighborIndex,
    SearchGrid,
    default_grid,
    generate,
    grid_search,
    ground_truth_labels,
    local_scale,
    roc_auc,
    sample_uniform_ball,
    ShapeSpec,
)
from singscan.tuning import _expand_radii, _lb_from_distances


def _levina_bickel(index, i, k):
    return _lb_from_distances(index.knn_members(i, k)[1])


def test_levina_bickel_on_segment():
    rng = np.random.default_rng(0)
    cloud = rng.uniform(-1, 1, size=(10_000, 1))
    probes = rng.choice(10_000, 50, replace=False)
    index = NeighborIndex(cloud)
    dims = [_levina_bickel(index, int(i), 20) for i in probes]
    assert np.mean(dims) == pytest.approx(1.0, abs=0.2)


def test_levina_bickel_on_disk():
    rng = np.random.default_rng(1)
    cloud = sample_uniform_ball(2, 10_000, rng)
    probes = rng.choice(10_000, 50, replace=False)
    index = NeighborIndex(cloud)
    dims = [_levina_bickel(index, int(i), 20) for i in probes]
    assert np.mean(dims) == pytest.approx(2.0, abs=0.3)


def test_levina_bickel_grid_line_deterministic():
    cloud = np.arange(40, dtype=float)[:, None]
    a = _levina_bickel(NeighborIndex(cloud), 20, 8)
    b = _levina_bickel(NeighborIndex(cloud), 20, 8)
    assert a == b
    assert 0.0 < a < 10.0


def test_levina_bickel_skips_duplicate_distances():
    cloud = np.array([[0.0], [0.0], [0.0], [1.0], [2.0], [4.0]])
    val = _levina_bickel(NeighborIndex(cloud), 0, 5)
    assert np.isfinite(val) and val > 0
    with pytest.raises(ValueError):
        _levina_bickel(NeighborIndex(np.zeros((6, 1))), 0, 5)


def test_local_scale_brackets_usable_radii():
    rng = np.random.default_rng(2)
    cloud = sample_uniform_ball(2, 3000, rng)
    r_tilde, (lo, hi) = local_scale(cloud, rng=np.random.default_rng(7))
    assert lo == pytest.approx(1.5 * r_tilde)
    assert hi == pytest.approx(5.0 * r_tilde)
    index = NeighborIndex(cloud)
    counts = [len(index.radius_members(int(i), lo)) for i in range(0, 3000, 100)]
    assert np.mean(counts) >= 30


def test_local_scale_deterministic_and_scale_equivariant():
    rng = np.random.default_rng(3)
    cloud = sample_uniform_ball(2, 1500, rng)
    r1, _ = local_scale(cloud, rng=np.random.default_rng(11))
    r2, _ = local_scale(cloud, rng=np.random.default_rng(11))
    assert r1 == r2
    r10, _ = local_scale(10.0 * cloud, rng=np.random.default_rng(11))
    assert r10 == pytest.approx(10.0 * r1, rel=0.01)


def test_local_scale_needs_enough_points():
    with pytest.raises(ValueError):
        local_scale(np.zeros((20, 2)), rng=np.random.default_rng(0))


def test_expand_radii_advances_volume_linearly():
    radii = [1.0, 1.2, 1.4]
    new = _expand_radii(radii, (0.5, 10.0), 2.0)
    assert len(new) == 3
    assert min(new) > 1.4
    vols = np.array([1.0, 1.2, 1.4]) ** 2
    new_vols = np.array(new) ** 2
    width = vols[-1] - vols[0]
    assert new_vols[-1] == pytest.approx(vols[-1] + width)
    # hard bound caps the advance
    capped = _expand_radii(radii, (0.5, 1.5), 2.0)
    assert max(capped) <= 1.5 + 1e-12
    assert _expand_radii(radii, (0.5, 1.4), 2.0) == []


def test_default_grid_volume_geometric():
    grid = default_grid((0.1, 0.4), dim=2.0)
    assert len(grid.radii) == 4
    vols = np.array(grid.radii) ** 2
    ratios = vols[1:] / vols[:-1]
    assert ratios == pytest.approx(np.full(3, ratios[0]))
    assert grid.radii[0] == 0.1 and grid.radii[-1] == 0.4
    # (lo^d)^(1/d) rounds below lo for some (lo, d); the ends stay exact
    rng = np.random.default_rng(0)
    for lo, dim in zip(rng.uniform(1e-3, 1.0, 200), rng.uniform(1.0, 3.0, 200)):
        grid = default_grid((lo, 3.3 * lo), dim)
        assert grid.radii[0] == lo and grid.radii[-1] == 3.3 * lo


def test_grid_validation():
    with pytest.raises(ValueError):
        SearchGrid(radii=())
    with pytest.raises(ValueError):
        SearchGrid(radii=(0.5,), bounds=(0.0, 0.4))
    with pytest.raises(ValueError):
        SearchGrid(radii=(0.2, float("nan"), 0.3), bounds=(0.0, 0.4))
    # The axes are sets, stored ascending.
    grid = SearchGrid(radii=(0.3, 0.2, 0.3), etas=(0.9, 0.7, 0.9), alphas=(0.5, 0.3, 0.5, 0.3))
    assert (grid.radii, grid.etas, grid.alphas) == ((0.2, 0.3), (0.7, 0.9), (0.3, 0.5))


def test_grid_search_single_configuration(null_cache):
    lab = generate(ShapeSpec("two_circles", 600, noise_amplitude=0.0, seed=0))
    grid = SearchGrid(radii=(0.25,), etas=(0.8,), alphas=(0.5,), bounds=(0.25, 0.25))
    out = grid_search(lab.cloud, grid, null_cache, seed=0)
    assert len(out.report) == 1
    assert out.best_row.r == 0.25
    assert out.best_row.eta == 0.8
    assert out.best_row.alpha == 0.5


def test_grid_search_report_covers_grid_and_best_is_minimal(null_cache):
    lab = generate(ShapeSpec("two_circles", 800, noise_amplitude=0.0, seed=1))
    grid = SearchGrid(
        radii=(0.2, 0.3), etas=(0.7, 0.8), alphas=(0.5,), bounds=(0.1, 0.3)
    )
    out = grid_search(lab.cloud, grid, null_cache, seed=0)
    assert len(out.report) == 4
    finite = [row for row in out.report if row.error is None]
    assert out.best_row.dispersion == min(row.dispersion for row in finite)


def test_grid_search_all_degenerate_raises(null_cache):
    rng = np.random.default_rng(4)
    cloud = rng.uniform(0, 1, size=(60, 2))
    # radius far below the minimal spacing: every neighborhood is too small
    grid = SearchGrid(radii=(1e-7,), etas=(0.8,), alphas=(0.5,), bounds=(0.0, 1e-6))
    with pytest.raises(RuntimeError, match="degenerate"):
        grid_search(cloud, grid, null_cache, seed=0, volume_dim=2.0)


def test_grid_search_two_circles_end_to_end(null_cache):
    lab = generate(ShapeSpec("two_circles", 3000, noise_amplitude=0.01, seed=5))
    r_tilde, r_range = local_scale(lab.cloud, rng=np.random.default_rng(5))
    grid = default_grid(r_range, dim=1.0)
    out = grid_search(lab.cloud, grid, null_cache, seed=0, subsample_fraction=0.25)
    best = out.best_row
    best_r = best.r
    assert best_r <= max(grid.radii)
    from singscan import (
        Hyperparams, PowerSeriesKernel, Radius, filter_labels, log_inv_p, score_columns,
    )

    params = Hyperparams(Radius(best_r), best.eta, PowerSeriesKernel(param=best.alpha))
    p = score_columns(lab.cloud, params, null_cache).p_value
    truth = ground_truth_labels(lab, best_r / 2.0)
    assert truth.sum() > 0 and truth.sum() < len(truth)
    # classification scores are log(1/p); the winning configuration must
    # separate the r/2 band well
    assert roc_auc(log_inv_p(p)[np.isfinite(p)], truth[np.isfinite(p)]) >= 0.85
    # and the binary filter output concentrates near the crossings
    labels = filter_labels(p)
    near = lab.dist_to_singular[labels == 1] <= 2.0 * best_r
    assert near.mean() >= 0.8


def test_grid_search_reports_a_failing_configuration_as_its_own_row(null_cache):
    class FailingNulls:
        """The session cache, except that one kernel has no null table."""

        def get(self, d, kernel):
            if kernel.param == 0.5:
                raise RuntimeError("no table for alpha 0.5")
            return null_cache.get(d, kernel)

    lab = generate(ShapeSpec("two_circles", 600, noise_amplitude=0.0, seed=0))
    grid = SearchGrid(radii=(0.25,), etas=(0.8,), alphas=(0.3, 0.5, 0.7), bounds=(0.25, 0.25))
    out = grid_search(lab.cloud, grid, FailingNulls(), seed=0)
    assert [(row.alpha, row.error) for row in out.report] == [
        (0.3, None),
        (0.5, "no table for alpha 0.5"),
        (0.7, None),
    ]
    assert out.best_row.alpha != 0.5
    from singscan import filter_labels

    assert np.array_equal(out.labels, filter_labels(out.scores.p_value))


def test_grid_search_failed_geometry_fails_every_configuration(null_cache):
    # Each point sits on 19 exact copies of itself: every neighborhood of a
    # small radius rescales to zeros, and its PCA has no variance.
    rng = np.random.default_rng(8)
    cloud = np.repeat(rng.uniform(0, 1, size=(30, 2)), 20, axis=0)
    grid = SearchGrid(radii=(1e-3,), etas=(0.7, 0.9), alphas=(0.3, 0.5), bounds=(1e-3, 1e-3))
    with pytest.raises(RuntimeError, match="all configurations degenerate") as info:
        grid_search(cloud, grid, null_cache, seed=0, volume_dim=2.0)
    assert str(info.value).count("need at least 10 scored points") == 4


# The report of the grid below: (r, eta, alpha, dispersion, n_singular).  The
# winner r = 0.21 sits on the upper boundary twice, so the radius axis grows
# from 2 to 4 and then to 8 radii.  At r = 0.03 too few points are scored.
EXPANDED_REPORT = [
    (0.03, 0.8, 0.5, math.inf, 0),
    (0.03, 0.8, 0.7, math.inf, 0),
    (0.03, 0.9, 0.5, math.inf, 0),
    (0.03, 0.9, 0.7, math.inf, 0),
    (0.12, 0.8, 0.5, 1.4422699114555968, 51),
    (0.12, 0.8, 0.7, 1.0565673003594485, 46),
    (0.12, 0.9, 0.5, 0.9570089716760386, 44),
    (0.12, 0.9, 0.7, 0.7858686706435423, 40),
    (0.16499999999999998, 0.8, 0.5, 1.5744835712501835, 57),
    (0.16499999999999998, 0.8, 0.7, 1.391723819972404, 53),
    (0.16499999999999998, 0.9, 0.5, 1.573436007772545, 57),
    (0.16499999999999998, 0.9, 0.7, 1.3548370315486344, 55),
    (0.21, 0.8, 0.5, 0.5388347731229345, 32),
    (0.21, 0.8, 0.7, 0.5706724418480837, 33),
    (0.21, 0.9, 0.5, 0.6384047266615007, 36),
    (0.21, 0.9, 0.7, 0.6379934541861093, 36),
    (0.255, 0.8, 0.5, 1.5128995752407022, 59),
    (0.255, 0.8, 0.7, 1.423820156233038, 57),
    (0.255, 0.9, 0.5, 1.8119360494142336, 65),
    (0.255, 0.9, 0.7, 1.8119360494142336, 65),
    (0.3, 0.8, 0.5, 1.8915719385774117, 67),
    (0.3, 0.8, 0.7, 1.999262992629314, 69),
    (0.3, 0.9, 0.5, 2.132037002464141, 71),
    (0.3, 0.9, 0.7, 2.075888400115743, 70),
    (0.345, 0.8, 0.5, 4.430287288698611, 103),
    (0.345, 0.8, 0.7, 4.693757080718145, 106),
    (0.345, 0.9, 0.5, 4.610154286856572, 105),
    (0.345, 0.9, 0.7, 4.660099136272686, 105),
    (0.39, 0.8, 0.5, 5.32578217676998, 113),
    (0.39, 0.8, 0.7, 6.101844960811922, 121),
    (0.39, 0.9, 0.5, 5.320529051769981, 113),
    (0.39, 0.9, 0.7, 5.320529051769981, 113),
]


def test_grid_search_expands_radii_past_the_grid(null_cache):
    lab = generate(ShapeSpec("two_circles", 600, noise_amplitude=0.0, seed=0))
    grid = SearchGrid(radii=(0.03, 0.12), etas=(0.9, 0.8, 0.9), alphas=(0.7, 0.5),
                      bounds=(0.03, 0.6))
    out = grid_search(lab.cloud, grid, null_cache, volume_dim=1.0, seed=0)
    keys = [(row.r, row.eta, row.alpha) for row in out.report]
    assert len({row.r for row in out.report}) == 8 > len(grid.radii)
    assert keys == sorted(set(keys))
    assert keys == [row[:3] for row in EXPANDED_REPORT]
    assert [row.n_singular for row in out.report] == [row[4] for row in EXPANDED_REPORT]
    np.testing.assert_allclose(
        [row.dispersion for row in out.report], [row[3] for row in EXPANDED_REPORT],
        rtol=1e-12, atol=0,
    )
    assert [row.warn_degenerate for row in out.report] == [row[4] == 0 for row in EXPANDED_REPORT]
    assert (out.best_row.r, out.best_row.eta, out.best_row.alpha) == (0.21, 0.8, 0.5)


def test_grid_search_with_count_weighted_kde_equals_per_value_kde(null_cache, kde_oracle,
                                                                  monkeypatch):
    # The cloud and grid of the CLI test of auto's winning scores.
    lab = generate(ShapeSpec("two_circles", 1000, noise_amplitude=0.01, seed=5))
    grid = SearchGrid(radii=(0.15, 0.3), etas=(0.8, 0.9), alphas=(0.5, 0.7), bounds=(0.15, 0.3))

    def search():
        return grid_search(lab.cloud, grid, null_cache, seed=0, subsample_fraction=0.25)

    weighted = search()
    monkeypatch.setattr("singscan.scoring.kde_density", kde_oracle)
    per_value = search()
    assert weighted.report == per_value.report
    assert np.array_equal(weighted.labels, per_value.labels)
    assert 0 < weighted.labels.sum() < 1000
