import dataclasses
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps
from scipy.spatial import cKDTree

from singscan import (
    Hyperparams,
    Knn,
    NeighborIndex,
    PowerSeriesKernel,
    Radius,
    filter_labels,
    sample_uniform_ball,
    score_columns,
    score_configurations,
    singularity_scores,
    synth,
    uniformity,
    uniformity_test,
)

KERN = PowerSeriesKernel("geometric", 0.5)


def _disk_cloud(n, seed, query_at_origin=True):
    rng = np.random.default_rng(seed)
    disk = sample_uniform_ball(2, n, rng)
    cloud = np.column_stack([disk, np.zeros(n)])
    if query_at_origin:
        cloud = np.vstack([np.zeros(3), cloud])
    return cloud


def _crossing_cloud(n_per_segment, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, n_per_segment)
    b = rng.uniform(-1, 1, n_per_segment)
    seg1 = np.column_stack([a, np.zeros_like(a)])
    seg2 = np.column_stack([np.zeros_like(b), b])
    return np.vstack([np.zeros(2), seg1, seg2])


def test_smooth_point_rarely_rejected(null_cache):
    params = Hyperparams(Radius(0.3), 0.8, KERN)
    hits = 0
    for seed in range(50):
        res = uniformity_test(_disk_cloud(2000, seed), 0, params, null_cache)
        assert res.d_hat == 2
        if res.p_value > 0.01:
            hits += 1
    assert hits >= 45


def test_crossing_point_strongly_rejected(null_cache):
    params = Hyperparams(Radius(0.2), 0.8, KERN)
    hits = 0
    for seed in range(50):
        res = uniformity_test(_crossing_cloud(1500, seed), 0, params, null_cache)
        assert res.d_hat == 2
        if res.p_value < 0.001:
            hits += 1
    assert hits >= 45


def test_tiny_neighborhood_reports_missing(null_cache):
    cloud = np.vstack([np.zeros(2), sample_uniform_ball(2, 5, np.random.default_rng(0))])
    res = uniformity_test(cloud, 0, Hyperparams(Radius(2.0), 0.8, KERN), null_cache)
    assert res.k_obs == 5
    assert res.d_hat is None and res.mmd is None and res.p_value is None


def test_knn_neighborhood_mode(null_cache):
    cloud = _disk_cloud(400, 0)
    res = uniformity_test(cloud, 0, Hyperparams(Knn(40), 0.8, KERN), null_cache)
    assert res.k_obs == 40
    assert res.p_value is not None


def test_batch_full_fraction_alignment(null_cache):
    cloud = _disk_cloud(499, 1, query_at_origin=True)
    params = Hyperparams(Radius(0.4), 0.8, KERN)
    results = singularity_scores(cloud, params, null_cache)
    assert len(results) == 500
    assert [r.index for r in results] == list(range(500))


def test_batch_subsample_extrapolates(null_cache):
    cloud = _disk_cloud(500, 2, query_at_origin=False)
    params = Hyperparams(Radius(0.4), 0.8, KERN)
    full = singularity_scores(cloud, params, null_cache, subsample_fraction=0.1, seed=3)
    assert len(full) == 500
    assert all(r.p_value is not None or r.k_obs < 10 for r in full)
    # scored points carry their own result
    direct = {
        i: uniformity_test(cloud, i, params, null_cache)
        for i in range(0, 500, 50)
    }
    scored_own = [
        r for r in full if dataclasses.replace(direct.get(r.index, r), index=r.index) == r
    ]
    assert len(scored_own) >= 1
    # every result's payload equals the payload of some scored point
    payloads = {
        (r.k_obs, r.d_hat, r.mmd, r.p_value)
        for r in full
    }
    assert len(payloads) <= 51  # 50 scored + possibly one shared missing payload


def test_batch_deterministic(null_cache):
    cloud = _disk_cloud(300, 4, query_at_origin=False)
    params = Hyperparams(Radius(0.5), 0.8, KERN)
    a = singularity_scores(cloud, params, null_cache, subsample_fraction=0.5, seed=9)
    b = singularity_scores(cloud, params, null_cache, subsample_fraction=0.5, seed=9)
    assert a == b


def test_rigid_motion_invariance(null_cache):
    rng = np.random.default_rng(12)
    cloud = _disk_cloud(800, 5, query_at_origin=False)
    params = Hyperparams(Radius(0.35), 0.8, KERN)
    base = singularity_scores(cloud, params, null_cache)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = cloud @ q.T + np.array([3.0, -1.0, 0.5])
    after = singularity_scores(moved, params, null_cache)
    for r0, r1 in zip(base, after):
        assert r0.k_obs == r1.k_obs
        assert r0.d_hat == r1.d_hat
        if r0.mmd is not None:
            assert abs(r0.mmd - r1.mmd) < 1e-6
            assert abs(r0.p_value - r1.p_value) < 1e-6


def test_zero_padding_invariance(null_cache):
    cloud = _disk_cloud(600, 6, query_at_origin=False)
    padded = np.hstack([cloud, np.zeros((600, 4))])
    params = Hyperparams(Radius(0.35), 0.8, KERN)
    base = singularity_scores(cloud, params, null_cache)
    after = singularity_scores(padded, params, null_cache)
    for r0, r1 in zip(base, after):
        assert r0.k_obs == r1.k_obs and r0.d_hat == r1.d_hat
        if r0.mmd is not None:
            assert abs(r0.mmd - r1.mmd) < 1e-9


def test_flat_sample_p_values_nearly_uniform(null_cache):
    # Uniform square, scored only at interior points whose full ball fits
    # inside: these neighborhoods are exactly uniform disks.
    rng = np.random.default_rng(13)
    n = 2000
    side = 1.0
    cloud = rng.uniform(0.0, side, size=(n, 2))
    r = np.sqrt(100 / (n / side**2) / np.pi)  # aim for k about 100
    params = Hyperparams(Radius(r), 0.8, KERN)
    interior = np.flatnonzero(
        (cloud.min(axis=1) > r) & (cloud.max(axis=1) < side - r)
    )
    ps = []
    for i in interior:
        res = uniformity_test(cloud, int(i), params, null_cache)
        if res.p_value is not None:
            ps.append(res.p_value)
    assert len(ps) > 500
    assert sps.kstest(np.array(ps), "uniform").statistic <= 0.15


def test_bad_fraction_rejected(null_cache):
    with pytest.raises(ValueError):
        singularity_scores(np.zeros((10, 2)), Hyperparams(Radius(1.0)), null_cache, 0.0)


def test_knn_pipeline_in_high_ambient_dimension(null_cache):
    # image-style usage: k-nearest neighborhoods in a 100-dim ambient space
    rng = np.random.default_rng(21)
    flat = sample_uniform_ball(3, 400, rng)
    basis, _ = np.linalg.qr(rng.standard_normal((100, 3)))
    cloud = flat @ basis.T
    params = Hyperparams(Knn(60), 0.9, KERN)
    res = [uniformity_test(cloud, i, params, null_cache) for i in range(0, 400, 40)]
    assert all(r.d_hat == 3 for r in res)
    assert all(r.k_obs == 60 for r in res)
    assert np.median([r.p_value for r in res]) > 0.01


def _oracle_columns(cloud, params, nulls, points):
    """k_obs, d_hat, mmd, p of the per-point test at ``points``, NaN where missing."""
    index = NeighborIndex(np.asarray(cloud, dtype=float))
    rows = [uniformity_test(cloud, int(i), params, nulls, index=index) for i in points]
    nan = lambda v: np.nan if v is None else v  # noqa: E731
    return (
        np.array([r.k_obs for r in rows]),
        np.array([nan(r.d_hat) for r in rows], dtype=float),
        np.array([nan(r.mmd) for r in rows], dtype=float),
        np.array([nan(r.p_value) for r in rows], dtype=float),
    )


def _assert_matches_oracle(cols, oracle):
    k, d, mmd, p = oracle
    assert np.array_equal(cols.k_obs, k)
    assert np.array_equal(cols.d_hat, d, equal_nan=True)
    np.testing.assert_allclose(cols.mmd, mmd, rtol=1e-12, atol=0)
    np.testing.assert_allclose(cols.p_value, p, rtol=1e-12, atol=0)
    assert np.array_equal(filter_labels(cols.p_value), filter_labels(p))


def test_batched_radius_matches_per_point_oracle(null_cache):
    # A disk, a segment and a ball in R^3, plus sparse outliers whose
    # neighborhoods are too small to test.
    rng = np.random.default_rng(41)
    disk = np.column_stack([sample_uniform_ball(2, 1200, rng), np.zeros(1200)])
    segment = np.column_stack([np.zeros((300, 2)), rng.uniform(-1, 1, 300)])
    ball = sample_uniform_ball(3, 600, rng) * 0.5 + np.array([2.5, 0.0, 0.0])
    outliers = rng.uniform(-4, 4, size=(40, 3)) + np.array([0.0, 0.0, 6.0])
    cloud = np.vstack([disk, segment, ball, outliers])
    params = Hyperparams(Radius(0.2), 0.8, PowerSeriesKernel("expdot", 2.0))
    cols = score_columns(cloud, params, null_cache)
    oracle = _oracle_columns(cloud, params, null_cache, range(len(cloud)))
    assert set(np.unique(oracle[1][np.isfinite(oracle[1])])) == {1.0, 2.0, 3.0}
    assert np.sum(oracle[0] < 10) > 0
    _assert_matches_oracle(cols, oracle)
    rows = singularity_scores(cloud, params, null_cache)
    nan = lambda v: np.nan if v is None else v  # noqa: E731
    assert [r.index for r in rows] == list(range(len(cloud)))
    assert np.array_equal([nan(r.p_value) for r in rows], cols.p_value, equal_nan=True)


def test_batched_radius_on_uneven_density_matches_per_point_oracle(null_cache, monkeypatch):
    # A dense blob on a sparse background, both in a plane of R^3, with a
    # small block budget: ball counts run from a few to hundreds, the
    # size-ordered chunks are many, and neighborhoods of one size fall in
    # several chunks and stacks.
    monkeypatch.setattr("singscan.geometry.BLOCK_BYTES", 2**16)
    monkeypatch.setattr("singscan.uniformity.BLOCK_BYTES", 2**16)
    rng = np.random.default_rng(48)
    background = rng.uniform(-2, 2, size=(1000, 2))
    blob = 0.2 * rng.standard_normal((600, 2))
    cloud = np.column_stack([np.vstack([background, blob]), 0.01 * rng.standard_normal(1600)])
    params = Hyperparams(Radius(0.2), 0.8, KERN)
    r = params.neighborhood.r
    index = NeighborIndex(cloud)
    sizes = [set(index.radius_chunk_members(chunk, r)[0].tolist())
             for chunk in index.radius_chunks(np.arange(len(cloud)), r)]
    assert any(a & b for a, b in zip(sizes, sizes[1:]))
    cols = score_columns(cloud, params, null_cache)
    oracle = _oracle_columns(cloud, params, null_cache, range(len(cloud)))
    assert np.sum(oracle[0] < 10) > 0 and oracle[0].max() > 200
    _assert_matches_oracle(cols, oracle)


def test_batched_knn_high_dimension_matches_per_point_oracle(null_cache):
    # The image shape, 60 x 100 neighborhoods: k < D takes the Gram branch of
    # local_pca_stack.
    rng = np.random.default_rng(42)
    basis, _ = np.linalg.qr(rng.standard_normal((100, 3)))
    cloud = sample_uniform_ball(3, 400, rng) @ basis.T
    cloud += 0.01 * rng.standard_normal(cloud.shape)
    params = Hyperparams(Knn(60), 0.9, KERN)
    cols = score_columns(cloud, params, null_cache)
    _assert_matches_oracle(cols, _oracle_columns(cloud, params, null_cache, range(len(cloud))))


@pytest.mark.parametrize(
    "k, dim",
    # k < D: the Gram branch of local_pca_stack, with brute-force and KD-tree
    # neighbors; k >= D >= 20: its SVD branch with brute-force neighbors.
    [(20, 60), (12, 15), (40, 30)],
    ids=["gram_d60", "gram_d15", "svd_d30"],
)
def test_batched_knn_pca_branches_match_per_point_oracle(k, dim, null_cache):
    rng = np.random.default_rng(47)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, 3)))
    cloud = sample_uniform_ball(3, 300, rng) @ basis.T
    cloud += 0.02 * rng.standard_normal(cloud.shape)
    params = Hyperparams(Knn(k), 0.9, PowerSeriesKernel("expdot", 2.0))
    cols = score_columns(cloud, params, null_cache)
    oracle = _oracle_columns(cloud, params, null_cache, range(len(cloud)))
    assert len(np.unique(oracle[1])) > 1
    _assert_matches_oracle(cols, oracle)


def test_batched_subsample_matches_per_point_oracle(null_cache):
    cloud = _disk_cloud(800, 43, query_at_origin=False)
    params = Hyperparams(Radius(0.3), 0.8, KERN)
    cols = score_columns(cloud, params, null_cache, subsample_fraction=0.25, seed=3)
    n = len(cloud)
    queries = np.sort(
        np.random.default_rng(3).choice(n, size=math.ceil(0.25 * n), replace=False)
    )
    _, nearest = cKDTree(cloud[queries]).query(cloud)
    oracle = _oracle_columns(cloud, params, null_cache, queries)
    _assert_matches_oracle(cols, tuple(col[nearest] for col in oracle))


@pytest.mark.parametrize(
    "case",
    ["radius_d3", "knn_d30", "radius_subsample"],
)
def test_configurations_match_one_at_a_time(case, null_cache):
    rng = np.random.default_rng(44)
    subsample = 1.0
    if case == "knn_d30":
        # k = 40 >= D = 30 >= 20: brute-force neighbors and the SVD branch
        # of local_pca_stack.
        basis, _ = np.linalg.qr(rng.standard_normal((30, 3)))
        cloud = sample_uniform_ball(3, 300, rng) @ basis.T
        cloud += 0.01 * rng.standard_normal(cloud.shape)
        hood = Knn(40)
    else:
        cloud = _disk_cloud(600, 45, query_at_origin=False)
        cloud[:, 2] = 0.05 * rng.standard_normal(len(cloud))
        hood = Radius(0.3)
        if case == "radius_subsample":
            subsample = 0.25
    etas = (0.7, 0.8, 0.95)
    kernels = (PowerSeriesKernel("geometric", 0.3), PowerSeriesKernel("expdot", 2.0))
    scores = score_configurations(cloud, hood, etas, kernels, null_cache, subsample, seed=3)
    seen_dims = set()
    for (e, eta), (j, kern) in itertools.product(enumerate(etas), enumerate(kernels)):
        cols = scores(e, j)
        one = score_columns(cloud, Hyperparams(hood, eta, kern), null_cache, subsample, seed=3)
        assert np.array_equal(cols.k_obs, one.k_obs)
        assert np.array_equal(cols.d_hat, one.d_hat, equal_nan=True)
        np.testing.assert_allclose(cols.mmd, one.mmd, rtol=1e-12, atol=0)
        np.testing.assert_allclose(cols.p_value, one.p_value, rtol=1e-12, atol=0)
        seen_dims.add(tuple(np.unique(cols.d_hat[np.isfinite(cols.d_hat)])))
    # The etas give different d_hat, so the shared MMD covers several dimensions.
    assert len(seen_dims) > 1


def test_configurations_fail_per_kernel(null_cache, monkeypatch):
    import singscan.uniformity as uniformity

    real = uniformity.mmd_sq_stack

    def failing(stack, kernel):
        if kernel.param == 0.7:
            raise RuntimeError("kernel 0.7 fails")
        return real(stack, kernel)

    monkeypatch.setattr(uniformity, "mmd_sq_stack", failing)
    cloud = _disk_cloud(300, 46)
    kernels = (PowerSeriesKernel(param=0.5), PowerSeriesKernel(param=0.7))
    scores = score_configurations(cloud, Radius(0.4), (0.8, 0.9), kernels, null_cache)
    for e in range(2):
        with pytest.raises(RuntimeError, match="kernel 0.7 fails"):
            scores(e, 1)
        assert np.isfinite(scores(e, 0).p_value).any()


def test_configurations_neighborhood_failure_raises_from_the_call(null_cache):
    cloud = _disk_cloud(30, 46)
    with pytest.raises(ValueError, match="k must satisfy"):
        score_configurations(cloud, Knn(len(cloud)), (0.8,), (KERN,), null_cache)


@pytest.mark.parametrize("hood", [Radius(0.15), Knn(10)], ids=["radius", "knn"])
def test_coincident_cluster_is_untestable(hood, null_cache):
    # Twelve copies of one point, far from the rest: each copy's neighborhood
    # is its 11 twins (radius rule), or its k-th neighbor distance is 0 (k-NN
    # rule), so it rescales to zeros and has no spectrum to test.
    rng = np.random.default_rng(0)
    cloud = np.vstack([rng.uniform(0, 1, size=(500, 2)), np.tile([5.0, 5.0], (12, 1))])
    params = Hyperparams(hood, 0.8, KERN)
    cols = score_columns(cloud, params, null_cache)
    _assert_matches_oracle(cols, _oracle_columns(cloud, params, null_cache, range(len(cloud))))
    assert np.array_equal(cols.k_obs[500:], np.full(12, 11 if isinstance(hood, Radius) else 10))
    assert np.isnan(cols.d_hat[500:]).all() and np.isnan(cols.p_value[500:]).all()
    assert np.isfinite(cols.p_value[:500]).sum() > 400
    rows = singularity_scores(cloud, params, null_cache)
    assert all(r.d_hat is None and r.p_value is None for r in rows[500:])


def _many_chunk_case(case):
    """A cloud and a rule that fit one chunk at the default budget and split
    into many at a budget of 1 MB: radius balls of about 60 on the KD path,
    or k-NN by brute-force distance rows (D = 25)."""
    rng = np.random.default_rng(49)
    if case == "radius_kd":
        cloud = _disk_cloud(1500, 49, query_at_origin=False)
        cloud[:, 2] = 0.05 * rng.standard_normal(len(cloud))
        return cloud, Radius(0.2)
    basis, _ = np.linalg.qr(rng.standard_normal((25, 3)))
    cloud = sample_uniform_ball(3, 600, rng) @ basis.T
    cloud += 0.01 * rng.standard_normal(cloud.shape)
    return cloud, Knn(30)


def _chunks(cloud, hood):
    """Each chunk of the plan, with its (member counts, members, radii)."""
    plan, gather = uniformity._neighborhood_plan(NeighborIndex(cloud), np.arange(len(cloud)), hood)
    return [(chunk, *gather(chunk)) for chunk in plan]


def _assert_same_columns(a, b):
    for name in ("k_obs", "d_hat", "mmd", "p_value"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


@pytest.mark.parametrize("case", ["radius_kd", "knn_brute"])
def test_pipelined_chunks_match_one_chunk(case, null_cache, monkeypatch):
    # Each chunk is scored on the worker thread while the next is gathered;
    # the columns must not depend on how many chunks there were.
    cloud, hood = _many_chunk_case(case)
    etas = (0.7, 0.9)
    kernels = (PowerSeriesKernel("geometric", 0.3), PowerSeriesKernel("expdot", 2.0))
    assert len(_chunks(cloud, hood)) == 1
    whole = score_configurations(cloud, hood, etas, kernels, null_cache)
    monkeypatch.setattr("singscan.geometry.BLOCK_BYTES", 2**20)
    assert len(_chunks(cloud, hood)) >= 5
    chunked = score_configurations(cloud, hood, etas, kernels, null_cache)
    points = np.arange(0, len(cloud), 25)
    for (e, eta), (j, kern) in itertools.product(enumerate(etas), enumerate(kernels)):
        cols = chunked(e, j)
        _assert_same_columns(cols, whole(e, j))
        at_points = uniformity.Scores(*(col[points] for col in dataclasses.astuple(cols)))
        oracle = _oracle_columns(cloud, Hyperparams(hood, eta, kern), null_cache, points)
        _assert_matches_oracle(at_points, oracle)


def test_kernel_failing_in_a_later_chunk_fails_alone(null_cache, monkeypatch):
    cloud, hood = _many_chunk_case("radius_kd")
    kernels = (PowerSeriesKernel("geometric", 0.3), PowerSeriesKernel("expdot", 2.0))
    whole = score_configurations(cloud, hood, (0.8,), kernels, null_cache)(0, 0)
    monkeypatch.setattr("singscan.geometry.BLOCK_BYTES", 2**20)
    # KD-tree chunks come in ascending ball size, so balls this large first
    # arrive several chunks in, after the kernel has scored the earlier ones.
    big = int(np.quantile(whole.k_obs, 0.9))
    chunks = _chunks(cloud, hood)
    first = next(i for i, (_, counts, _, _) in enumerate(chunks) if counts.max() >= big)
    assert 2 <= first < len(chunks)
    real = uniformity.mmd_sq_stack

    def failing(stack, kernel):
        if kernel.kind == "expdot" and stack.shape[1] >= big:
            raise RuntimeError("expdot fails on large balls")
        return real(stack, kernel)

    monkeypatch.setattr(uniformity, "mmd_sq_stack", failing)
    scores = score_configurations(cloud, hood, (0.8,), kernels, null_cache)
    with pytest.raises(RuntimeError, match="expdot fails on large balls"):
        scores(0, 1)
    _assert_same_columns(scores(0, 0), whole)


@pytest.mark.parametrize("case", ["radius_kd", "knn_brute"])
def test_one_chunk_call_starts_no_thread(case, null_cache, monkeypatch):
    # A one-chunk call is scored on the calling thread; the same queries,
    # planned as two chunks, go through the pipeline and give equal columns.
    cloud, hood = _many_chunk_case(case)
    etas = (0.7, 0.9)
    kernels = (PowerSeriesKernel("geometric", 0.3), PowerSeriesKernel("expdot", 2.0))
    assert len(_chunks(cloud, hood)) == 1
    # SciPy's two-thread KD-tree count starts threads of its own; the
    # scoring worker is an executor's.
    started = []
    real_start = threading.Thread.start

    def recorded_start(self):
        if self.name.startswith("ThreadPoolExecutor"):
            started.append(self)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    inline = score_configurations(cloud, hood, etas, kernels, null_cache)
    assert not started
    real_plan = uniformity._neighborhood_plan

    def split_in_two(*args):
        (chunk,), gather = real_plan(*args)
        return [chunk[: len(chunk) // 2], chunk[len(chunk) // 2 :]], gather

    monkeypatch.setattr(uniformity, "_neighborhood_plan", split_in_two)
    pipelined = score_configurations(cloud, hood, etas, kernels, null_cache)
    assert len(started) == 1
    for e, j in itertools.product(range(len(etas)), range(len(kernels))):
        _assert_same_columns(inline(e, j), pipelined(e, j))


def test_no_thread_outlives_a_scoring_call(null_cache, monkeypatch):
    cloud, hood = _many_chunk_case("radius_kd")
    params = Hyperparams(hood, 0.8, KERN)
    monkeypatch.setattr("singscan.geometry.BLOCK_BYTES", 2**20)
    before = threading.active_count()
    assert np.isfinite(score_columns(cloud, params, null_cache).p_value).any()
    assert threading.active_count() == before

    class Injected(Exception):
        pass

    real = uniformity._neighborhood_plan

    def third_chunk_fails(*args):
        # Two chunks have been handed to the worker by then.
        plan, gather = real(*args)
        gathered = []

        def failing(chunk):
            gathered.append(chunk)
            if len(gathered) == 3:
                raise Injected
            return gather(chunk)

        return plan, failing

    monkeypatch.setattr(uniformity, "_neighborhood_plan", third_chunk_fails)
    with pytest.raises(Injected):
        score_columns(cloud, params, null_cache)
    assert threading.active_count() == before


def test_pipelined_peak_memory_within_the_serial_peak(monkeypatch):
    # The chunk being scored and the chunk being gathered share one budget.
    monkeypatch.setattr("singscan.geometry.BLOCK_BYTES", 2 * 2**20)
    monkeypatch.setattr("singscan.uniformity.BLOCK_BYTES", 2 * 2**20)
    spec = synth.ShapeSpec("two_disks", 22500, dim=1, noise_amplitude=0.0, seed=5)
    cloud = synth.generate(spec).cloud
    queries = np.arange(len(cloud))
    kernels = (PowerSeriesKernel("expdot", 2.0),)
    tracemalloc.start()
    try:
        uniformity._mmd_columns(cloud, queries, Radius(0.1), (0.95,), kernels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The same call, when every chunk was scored on the calling thread at the
    # whole budget, peaked at 5,805,206 to 5,806,930 B over three runs
    # (Python 3.11.7, NumPy 2.4.6, SciPy 1.17.1); the pipeline read 4.8-5.1 MB.
    assert peak <= 5_805_206
