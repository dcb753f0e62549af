import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singscan import (
    NeighborIndex,
    estimate_dim,
    local_pca,
    neighbors_knn,
    neighbors_radius,
    project,
    sample_uniform_ball,
    second_moment,
)


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


def _grid_cloud(side):
    return np.array([[a, b] for a in range(side) for b in range(side)], dtype=float)


# (cloud, radii, k values).  Integer coordinates make every distance exact on
# both backends, so ties and zero distances are exact too.
_ORACLE_CASES = {
    "random": (np.random.default_rng(4).standard_normal((150, 3)), (0.3, 0.8), (1, 7, 149)),
    "integer_grid": (_grid_cloud(9), (1.0, 1.5, 2.0), (4, 6, 12)),
    "duplicates": (np.vstack([_grid_cloud(5)] * 3), (0.5, 1.5), (2, 3, 5)),
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
        parts = list(index.radius_members_batch(queries, r))
        assert np.array_equal(np.concatenate([c for c, _, _ in parts]), queries)
        got = np.split(
            np.concatenate([m for _, _, m in parts]),
            np.cumsum(np.concatenate([k for _, k, _ in parts]))[:-1],
        )
        for q, members in zip(queries, got):
            assert np.array_equal(members, np.flatnonzero(dist[q] < r))
    for k in ks:
        parts = list(index.knn_members_batch(queries, k))
        assert np.array_equal(np.concatenate([c for c, _, _ in parts]), queries)
        members = np.vstack([m for _, m, _ in parts])
        dists = np.vstack([d for _, _, d in parts])
        for q, got_m, got_d in zip(queries, members, dists):
            order = np.lexsort((np.arange(n), dist[q]))[:k]
            assert np.array_equal(got_m, order)
            assert got_d == pytest.approx(dist[q, order], rel=1e-12, abs=1e-12)


def test_second_moment_examples():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert second_moment(pts) == pytest.approx(np.diag([1.0, 0.0]))
    assert second_moment(np.zeros((5, 3))) == pytest.approx(np.zeros((3, 3)))


def test_second_moment_of_uniform_disk_eigenvalues():
    rng = np.random.default_rng(8)
    d, big_d = 2, 5
    pts = np.hstack([sample_uniform_ball(d, 100_000, rng), np.zeros((100_000, big_d - d))])
    ev = np.sort(np.linalg.eigvalsh(second_moment(pts)))[::-1]
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


def test_local_pca_matches_second_moment_eigenvalues():
    rng = np.random.default_rng(5)
    pts = sample_uniform_ball(3, 200, rng)
    pca = local_pca(pts, 0.9)
    direct = np.sort(np.linalg.eigvalsh(second_moment(pts)))[::-1]
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
