import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from singscan import (
    NeighborIndex,
    estimate_dim,
    local_pca,
    neighbors_knn,
    neighbors_radius,
    project,
    sample_uniform_ball,
)
from singscan.geometry import local_pca_stack


def test_radius_collinear_example():
    cloud = np.array([[0.0], [1.0], [3.0]])
    hood = neighbors_radius(cloud, 0, 2.0)
    assert list(hood.member_indices) == [1]
    assert hood.rescaled == pytest.approx(np.array([[0.5]]))
    assert hood.scale == 2.0


def test_radius_empty_when_too_small():
    cloud = np.array([[0.0], [1.0], [3.0]])
    hood = neighbors_radius(cloud, 1, 0.5)
    assert len(hood.member_indices) == 0


def test_radius_is_strict_and_excludes_center():
    cloud = np.array([[0.0], [1.0], [2.0]])
    hood = neighbors_radius(cloud, 0, 1.0)  # point at distance exactly 1 excluded
    assert len(hood.member_indices) == 0
    hood = neighbors_radius(cloud, 0, 1.0 + 1e-9)
    assert list(hood.member_indices) == [1]


def test_knn_includes_everything_at_k_max():
    rng = np.random.default_rng(0)
    cloud = rng.standard_normal((12, 3))
    hood = neighbors_knn(cloud, 4, 11)
    assert sorted(hood.member_indices) == [i for i in range(12) if i != 4]
    norms = np.linalg.norm(hood.rescaled, axis=1)
    assert norms.max() == pytest.approx(1.0)


def test_knn_duplicates_at_center():
    cloud = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    hood = neighbors_knn(cloud, 0, 3)
    assert sorted(hood.member_indices) == [1, 2, 3]
    assert hood.scale == pytest.approx(1.0)
    assert np.linalg.norm(hood.rescaled[:2], axis=1) == pytest.approx([0.0, 0.0])


def test_knn_tie_break_prefers_lower_index():
    cloud = np.array([[0.0], [1.0], [-1.0], [1.0]])
    hood = neighbors_knn(cloud, 0, 2)
    # distances: 1 (idx 1), 1 (idx 2), 1 (idx 3); lower indices win
    assert sorted(hood.member_indices) == [1, 2]


def test_knn_rejects_k_too_large():
    cloud = np.zeros((4, 2))
    with pytest.raises(ValueError):
        neighbors_knn(cloud, 0, 4)


def test_brute_and_tree_backends_agree():
    # Zero-padding to >= 20 ambient dims flips the index to brute force but
    # must not change any neighborhood.
    rng = np.random.default_rng(3)
    cloud = rng.standard_normal((80, 2))
    padded = np.hstack([cloud, np.zeros((80, 23))])
    idx_tree = NeighborIndex(cloud)
    idx_brute = NeighborIndex(padded)
    assert idx_brute._brute and not idx_tree._brute
    for i in (0, 17, 79):
        a = idx_tree.radius_members(i, 0.8)
        b = idx_brute.radius_members(i, 0.8)
        assert np.array_equal(a, b)
        ka, da = idx_tree.knn_members(i, 10)
        kb, db = idx_brute.knn_members(i, 10)
        assert np.array_equal(ka, kb)
        assert da == pytest.approx(db)


def _radius_parts(index, queries, r):
    """(chunk, member counts, members) of each chunk that ``radius_chunks``
    plans."""
    return [(c, *index.radius_chunk_members(c, r)) for c in index.radius_chunks(queries, r)]


def _knn_parts(index, queries, k):
    """(chunk, members, distances) of each chunk that ``knn_chunks`` plans."""
    return [(c, *index.knn_chunk_members(c, k)) for c in index.knn_chunks(queries, k)]


def _grid_cloud(side):
    return np.array([[a, b] for a in range(side) for b in range(side)], dtype=float)


# (cloud, radii, k values).  Integer coordinates make every distance exact on
# both backends, so ties and zero distances are exact too.
_ORACLE_CASES = {
    "random": (np.random.default_rng(4).standard_normal((150, 3)), (0.3, 0.8), (1, 7, 149)),
    "integer_grid": (_grid_cloud(9), (1.0, 1.5, 2.0), (4, 6, 12)),
    "duplicates": (np.vstack([_grid_cloud(5)] * 3), (0.5, 1.5), (2, 3, 5)),
    # More copies than k + 2: rows take two or more rounds.
    "many_copies": (np.vstack([_grid_cloud(4)] * 12), (0.5, 1.5), (3, 14, 40)),
}


@pytest.mark.parametrize("brute", [False, True], ids=["kdtree", "brute"])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_batch_queries_match_numpy_oracle(case, brute, monkeypatch):
    # A small block budget cuts the queries into many chunks.
    monkeypatch.setattr("singscan.geometry.BLOCK_BYTES", 4096)
    cloud, radii, ks = _ORACLE_CASES[case]
    n = len(cloud)
    coords = np.hstack([cloud, np.zeros((n, 23))]) if brute else cloud
    index = NeighborIndex(coords)
    assert index._brute == brute
    dist = np.linalg.norm(cloud[:, None] - cloud[None], axis=2)
    np.fill_diagonal(dist, np.inf)
    queries = np.random.default_rng(5).permutation(n)
    for r in radii:
        parts = _radius_parts(index, queries, r)
        order = np.concatenate([c for c, _, _ in parts])
        assert np.array_equal(np.sort(order), np.arange(n))
        if brute:
            assert np.array_equal(order, queries)
        else:
            # Ascending ball count (the tree counts the query itself and
            # the boundary), ties in query order.
            balls = (dist[queries] <= r).sum(axis=1) + 1
            assert np.array_equal(order, queries[np.argsort(balls, kind="stable")])
        got = np.split(
            np.concatenate([m for _, _, m in parts]),
            np.cumsum(np.concatenate([k for _, k, _ in parts]))[:-1],
        )
        for q, members in zip(order, got):
            assert np.array_equal(members, np.flatnonzero(dist[q] < r))
    for k in ks:
        parts = _knn_parts(index, queries, k)
        assert np.array_equal(np.concatenate([c for c, _, _ in parts]), queries)
        members = np.vstack([m for _, m, _ in parts])
        dists = np.vstack([d for _, _, d in parts])
        for q, got_m, got_d in zip(queries, members, dists):
            order = np.lexsort((np.arange(n), dist[q]))[:k]
            assert np.array_equal(got_m, order)
            assert got_d == pytest.approx(dist[q, order], rel=1e-12, abs=1e-12)


# Each point has two copies, so at k = 3 and 7 the k + 2 points a query first
# takes all lie within its cut and every row asks again.
_SINGLE_QUERY_CLOUDS = {
    "kdtree": np.random.default_rng(11).standard_normal((200, 3)),
    "brute": np.random.default_rng(12).standard_normal((150, 24)),
    "tripled": np.vstack([np.random.default_rng(13).standard_normal((60, 2))] * 3),
}


@pytest.mark.parametrize("case", sorted(_SINGLE_QUERY_CLOUDS))
def test_single_queries_equal_their_planned_chunks(case, monkeypatch):
    # A small block budget cuts the planned queries into many chunks.
    monkeypatch.setattr("singscan.geometry.BLOCK_BYTES", 4096)
    cloud = _SINGLE_QUERY_CLOUDS[case]
    n = len(cloud)
    index = NeighborIndex(cloud)
    assert index._brute == (case == "brute")
    r = float(np.quantile(np.linalg.norm(cloud[:, None] - cloud[None], axis=2), 0.1))
    balls = {}
    for chunk, counts, members in _radius_parts(index, np.arange(n), r):
        balls.update(zip(chunk.tolist(), np.split(members, np.cumsum(counts)[:-1])))
    assert sum(map(len, balls.values())) > n
    for i in range(n):
        assert np.array_equal(index.radius_members(i, r), balls[i])
    for k in (3, 7):
        rows = {}
        for chunk, members, dists in _knn_parts(index, np.arange(n), k):
            rows.update(zip(chunk.tolist(), zip(members, dists)))
        for i in range(n):
            got_m, got_d = index.knn_members(i, k)
            assert np.array_equal(got_m, rows[i][0]) and np.array_equal(got_d, rows[i][1])
    for k in (0, n):
        with pytest.raises(ValueError, match="1 <= k <= n - 1"):
            index.knn_chunk_members(np.arange(3), k)


@pytest.mark.parametrize("case", ["kdtree", "brute"])
def test_single_queries_read_negative_indices_from_the_end(case):
    cloud = _SINGLE_QUERY_CLOUDS[case]
    n = len(cloud)
    index = NeighborIndex(cloud)
    r = float(np.quantile(np.linalg.norm(cloud[:, None] - cloud[None], axis=2), 0.1))
    for i in (0, 1, n - 1):
        ball = index.radius_members(i - n, r)
        assert ball.size and i not in ball
        assert np.array_equal(ball, index.radius_members(i, r))
        members, dists = index.knn_members(i - n, 3)
        assert i not in members
        assert np.array_equal(members, index.knn_members(i, 3)[0])
        assert np.array_equal(dists, index.knn_members(i, 3)[1])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            index.radius_members(i, r)
        with pytest.raises(IndexError):
            index.knn_members(i, 3)


def test_local_pca_moment_examples():
    pca = local_pca(np.array([[1.0, 0.0], [-1.0, 0.0]]), 0.9)
    assert pca.eigenvalues == pytest.approx([1.0, 0.0])
    assert np.abs(pca.basis[:, 0]) == pytest.approx([1.0, 0.0])
    # A zero second moment has no dimension to estimate.
    with pytest.raises(ValueError, match="degenerate"):
        local_pca(np.zeros((5, 3)), 0.9)


def test_local_pca_of_uniform_disk_eigenvalues():
    rng = np.random.default_rng(8)
    d, big_d = 2, 5
    pts = np.hstack([sample_uniform_ball(d, 100_000, rng), np.zeros((100_000, big_d - d))])
    ev = local_pca(pts, 0.9).eigenvalues
    assert ev[:d] == pytest.approx(np.full(d, 1.0 / (d + 2)), abs=0.01)
    assert ev[d:] == pytest.approx(np.zeros(big_d - d), abs=0.01)


def test_estimate_dim_examples():
    assert estimate_dim([1.0, 0.0, 0.0], 0.5) == 1
    assert estimate_dim([0.5, 0.3, 0.2], 0.8) == 2
    assert estimate_dim([0.5, 0.3, 0.2], 0.81) == 3
    with pytest.raises(ValueError, match="degenerate"):
        estimate_dim([0.0, 0.0], 0.8)


@given(
    st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6),
    st.floats(0.05, 0.95),
    st.floats(0.001, 0.04),
)
@settings(max_examples=50, deadline=None)
def test_estimate_dim_monotone_in_eta(raw, eta, bump):
    ev = sorted(raw, reverse=True)
    assert estimate_dim(ev, eta) <= estimate_dim(ev, min(eta + bump, 0.99))


def test_local_pca_matches_moment_eigenvalues():
    rng = np.random.default_rng(5)
    pts = sample_uniform_ball(3, 200, rng)
    pca = local_pca(pts, 0.9)
    direct = np.sort(np.linalg.eigvalsh(pts.T @ pts / len(pts)))[::-1]
    assert pca.eigenvalues == pytest.approx(direct, abs=1e-10)
    gram = pca.basis.T @ pca.basis
    assert gram == pytest.approx(np.eye(gram.shape[0]), abs=1e-8)


def test_projection_distance_preserving_when_full_rank():
    rng = np.random.default_rng(6)
    pts = sample_uniform_ball(3, 40, rng)
    hood_like = neighbors_knn(np.vstack([np.zeros(3), pts * 10]), 0, 40)
    pca = local_pca(hood_like.rescaled, 0.999999)
    proj = project(hood_like, pca)
    assert pca.d_hat == 3
    orig = np.linalg.norm(hood_like.rescaled[:, None] - hood_like.rescaled[None], axis=2)
    new = np.linalg.norm(proj[:, None] - proj[None], axis=2)
    assert new == pytest.approx(orig, abs=1e-8)


def test_projection_of_planar_data_preserves_distances():
    rng = np.random.default_rng(7)
    flat = sample_uniform_ball(2, 60, rng)
    pts = np.hstack([flat, np.zeros((60, 2))])
    cloud = np.vstack([np.zeros(4), pts])
    hood = neighbors_knn(cloud, 0, 60)
    pca = local_pca(hood.rescaled, 0.9)
    assert pca.d_hat == 2
    proj = project(hood, pca)
    orig = np.linalg.norm(hood.rescaled[:, None] - hood.rescaled[None], axis=2)
    new = np.linalg.norm(proj[:, None] - proj[None], axis=2)
    assert new == pytest.approx(orig, abs=1e-8)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_projection_is_a_contraction(seed):
    rng = np.random.default_rng(seed)
    pts = sample_uniform_ball(4, 30, rng)
    pca = local_pca(pts, 0.7)
    proj = pts @ pca.basis[:, : pca.d_hat]
    assert np.all(
        np.linalg.norm(proj, axis=1) <= np.linalg.norm(pts, axis=1) + 1e-12
    )


def _noisy_flat_stack(rng, m, k, dim):
    """m neighborhoods of k points near a random 3-plane of R^dim, rescaled
    into the unit ball, with some spread in d_hat across neighborhoods."""
    stack = np.empty((m, k, dim))
    for j in range(m):
        basis, _ = np.linalg.qr(rng.standard_normal((dim, 3)))
        pts = sample_uniform_ball(3, k, rng) * [1.0, 0.6, 0.2 + 0.1 * j] @ basis.T
        pts += 0.03 * rng.standard_normal(pts.shape)
        stack[j] = pts / np.linalg.norm(pts, axis=1).max()
    return stack


@pytest.mark.parametrize(
    "k, dim", [(20, 60), (60, 100), (40, 30), (30, 3)], ids=["gram", "gram_image", "svd", "svd_low"]
)
def test_local_pca_stack_matches_local_pca(k, dim):
    rng = np.random.default_rng(11)
    etas = (0.5, 0.8, 0.95, 0.99)
    stack = _noisy_flat_stack(rng, 6, k, dim)
    d_hat, projected = local_pca_stack(stack, etas)
    assert projected.shape == (6, k, d_hat.max())
    for j, pts in enumerate(stack):
        for e, eta in enumerate(etas):
            pca = local_pca(pts, eta)
            assert d_hat[e, j] == pca.d_hat
            axes = pca.basis[:, : pca.d_hat]
            coords = projected[j, :, : pca.d_hat]
            # Equal to X V_d up to column signs, which leave P P^T unchanged.
            np.testing.assert_allclose(
                coords @ coords.T, pts @ axes @ axes.T @ pts.T, rtol=0, atol=1e-12
            )
    assert len(np.unique(d_hat)) > 1


@pytest.mark.parametrize("k, dim", [(20, 60), (40, 30)], ids=["gram", "svd"])
def test_local_pca_stack_rejects_a_zero_neighborhood(k, dim):
    stack = _noisy_flat_stack(np.random.default_rng(12), 3, k, dim)
    stack[1] = 0.0
    with pytest.raises(ValueError, match="degenerate neighborhood"):
        local_pca(stack[1], 0.8)
    with pytest.raises(ValueError, match="degenerate neighborhood"):
        local_pca_stack(stack, (0.8,))


@pytest.mark.parametrize("k, dim", [(40, 3), (20, 60)], ids=["svd", "gram"])
def test_local_pca_stack_does_not_depend_on_the_stack(k, dim):
    # Stacks of three neighborhoods with d_hat 1, 2 and 3 at eta 0.95: each
    # neighborhood's d_hat and coordinates are the same bits as when it is
    # decomposed alone.
    rng = np.random.default_rng(13)
    for _ in range(100):
        basis, _ = np.linalg.qr(rng.standard_normal((dim, 3)))
        stack = np.stack([
            sample_uniform_ball(3, k, rng) * spread @ basis.T
            for spread in ([1.0, 0.02, 0.02], [1.0, 1.0, 0.02], [1.0, 1.0, 1.0])
        ])
        d_hat, projected = local_pca_stack(stack, (0.95,))
        assert d_hat[0].tolist() == [1, 2, 3]
        for j, pts in enumerate(stack):
            alone_d, alone = local_pca_stack(pts[None], (0.95,))
            assert alone_d[0, 0] == d_hat[0, j]
            d = alone_d[0, 0]
            assert np.array_equal(projected[j, :, :d], alone[0, :, :d])


def test_flat_sample_dimension_recovery():
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        for eta in (0.7, 0.8, 0.99):
            flat = sample_uniform_ball(d, 2000, rng)
            pts = np.hstack([flat, np.zeros((2000, 5 - d))])
            assert local_pca(pts, eta).d_hat == d


def test_neighbor_queries_permutation_equivariant():
    rng = np.random.default_rng(10)
    cloud = rng.standard_normal((30, 2))
    perm = rng.permutation(30)
    shuffled = cloud[perm]
    where = np.argsort(perm)  # original index -> new position
    hood = neighbors_radius(cloud, 3, 0.9)
    hood_s = neighbors_radius(shuffled, int(where[3]), 0.9)
    assert sorted(where[hood.member_indices]) == sorted(hood_s.member_indices)


def _all_queries(index, queries, r, k):
    radius = [[a.tolist() for a in part] for part in _radius_parts(index, queries, r)]
    knn = [[a.tolist() for a in part] for part in _knn_parts(index, queries, k)]
    flat_radius = [sum((part[i] for part in radius), []) for i in range(3)]
    flat_knn = [sum((part[i] for part in knn), []) for i in range(3)]
    return flat_radius, flat_knn


def test_brute_queries_do_not_depend_on_chunking(monkeypatch):
    # From 20 ambient dimensions up the distance rows come from BLAS, whose
    # rounding depends on how many rows one call gets; members and distances
    # must not.
    rng = np.random.default_rng(6)
    cloud = rng.standard_normal((400, 30))
    cloud[200:260] = cloud[:60]  # exact ties
    index = NeighborIndex(cloud)
    assert index._brute
    queries = np.arange(0, 400, 3)
    r = float(np.median(np.linalg.norm(cloud[:50] - cloud[50:100], axis=1)))
    default = _all_queries(index, queries, r, 15)
    monkeypatch.setattr("singscan.geometry.BLOCK_BYTES", 4096)
    assert _all_queries(index, queries, r, 15) == default
    radius, knn = default
    starts = np.cumsum(radius[1]) - radius[1]
    for pos, q in enumerate(queries[:20]):
        members = index.radius_members(int(q), r)
        assert members.tolist() == radius[2][starts[pos] : starts[pos] + radius[1][pos]]
        got_m, got_d = index.knn_members(int(q), 15)
        assert got_m.tolist() == knn[1][pos] and got_d.tolist() == knn[2][pos]


def test_brute_queries_decide_near_ties_by_difference_norms():
    # Points within 1e-15 relative of the radius, far from the origin: the
    # BLAS distance rows cannot tell these apart, the difference norms can.
    rng = np.random.default_rng(9)
    dirs = rng.standard_normal((300, 30))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    center = 100.0 * rng.standard_normal(30)
    r = 0.37
    cloud = np.vstack([center, center + dirs * r * (1 + rng.uniform(-1e-15, 1e-15, (300, 1)))])
    index = NeighborIndex(cloud)
    assert index._brute
    dist = np.linalg.norm(cloud - cloud[0], axis=1)
    assert np.array_equal(index.radius_members(0, r), np.flatnonzero(dist[1:] < r) + 1)
    members, dists = index.knn_members(0, 150)
    order = np.lexsort((np.arange(1, 301), dist[1:]))[:150] + 1
    assert np.array_equal(members, order) and np.array_equal(dists, dist[order])


@pytest.mark.parametrize("dim", [8, 12, 19])
def test_tree_radius_queries_decide_near_ties_by_difference_norms(dim):
    # From 8 dimensions up the tree sums a distance in another order than the
    # difference norm and can land an ulp or two above it: a radius just past
    # the norm must still hold that member.
    cloud = np.random.default_rng(1).standard_normal((400, dim))
    index = NeighborIndex(cloud)
    assert not index._brute
    pairs = cKDTree(cloud[:1]).sparse_distance_matrix(index._tree, np.inf, output_type="ndarray")
    dist = np.linalg.norm(cloud - cloud[0], axis=1)
    above = pairs["j"][pairs["v"] > dist[pairs["j"]]]
    assert above.size
    for j in above:
        r = np.nextafter(dist[j], np.inf)
        assert np.array_equal(index.radius_members(0, r), np.flatnonzero(dist[1:] < r) + 1)


def test_local_scale_dim_does_not_depend_on_chunking(monkeypatch):
    from singscan.tuning import _local_scale_with_dim

    cloud = np.random.default_rng(0).standard_normal((400, 30))
    batched = _local_scale_with_dim(cloud)
    # A 4 KB block holds one distance row, so every probe is its own query.
    monkeypatch.setattr("singscan.geometry.BLOCK_BYTES", 4096)
    assert _local_scale_with_dim(cloud) == batched


def test_knn_tie_rounds_stay_within_the_chunk_budget(monkeypatch):
    # The copies' rows ask again with want doubled up to the 1,000 copies;
    # each round must still go in parts of about BLOCK_BYTES.
    monkeypatch.setattr("singscan.geometry.BLOCK_BYTES", 2**20)
    rng = np.random.default_rng(0)
    cloud = np.vstack([np.zeros((1000, 3)), rng.standard_normal((1000, 3))])
    index = NeighborIndex(cloud)
    tracemalloc.start()
    try:
        parts = _knn_parts(index, np.arange(2000), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    dist = np.linalg.norm(cloud[:, None] - cloud[None], axis=2)
    np.fill_diagonal(dist, np.inf)
    order = np.lexsort((np.broadcast_to(np.arange(2000), dist.shape), dist), axis=1)[:, :5]
    assert np.array_equal(np.vstack([m for _, m, _ in parts]), order)
    assert np.array_equal(np.vstack([d for _, _, d in parts]), np.take_along_axis(dist, order, 1))
