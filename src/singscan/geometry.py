"""Neighborhood isolation, rescaling, and local PCA for point clouds.

A point cloud is a plain (n, D) float array.  Neighborhoods are rescaled by
the isolation radius so they live inside the unit ball, and the local PCA is
taken about the query point (uncentered second moment), which is the
convention under which a uniform d-disk has top eigenvalues 1/(d+2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# Below this many members the uniformity test is skipped and the point is
# reported with missing score fields.
MIN_NEIGHBORHOOD = 10

# Past this ambient dimension a KD-tree degenerates to a scan anyway, so
# chunked brute-force distances (BLAS matmul) win.
_BRUTE_DIM = 20

# Working-memory cap of one batched block: a chunk of distance rows, a stack
# of neighborhoods, a block of Gram matrices.
BLOCK_BYTES = 32 * 2**20
# Bytes one neighbor costs while a chunk of ball queries is gathered (Python
# list entry, flat index, query index, difference vector and distance).
_BYTES_PER_MEMBER = 128


def as_point_cloud(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("point cloud must be a nonempty (n, D) array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point cloud entries must be finite")
    return arr


@dataclass(frozen=True)
class Neighborhood:
    """Members of a ball around one point, rescaled by the isolation radius."""

    center_index: int
    member_indices: np.ndarray
    rescaled: np.ndarray
    scale: float


@dataclass(frozen=True)
class PcaResult:
    """Descending eigenvalues of the local second moment, orthonormal basis,
    and the dimension explaining at least eta of the total variance."""

    eigenvalues: np.ndarray
    basis: np.ndarray
    d_hat: int


class NeighborIndex:
    """Shared read-only neighbor-query structure for one cloud.

    Uses a KD-tree in low ambient dimension and chunked brute-force distance
    rows in high dimension.  All queries are exact; k-nearest ties are broken
    by lower point index.
    """

    def __init__(self, coords: np.ndarray):
        self.coords = coords
        self.n, self.dim = coords.shape
        self._brute = self.dim >= _BRUTE_DIM
        self._tree = None if self._brute else cKDTree(coords)
        self._sq_norms = np.einsum("ij,ij->i", coords, coords) if self._brute else None

    def _dist_rows(self, rows: np.ndarray) -> np.ndarray:
        """Distances from each point of ``rows`` to every point, (len(rows), n)."""
        block = self.coords[rows] @ self.coords.T
        block *= -2.0
        block += self._sq_norms
        block += self._sq_norms[rows, None]
        np.maximum(block, 0.0, out=block)
        return np.sqrt(block, out=block)

    def radius_members(self, i: int, r: float) -> np.ndarray:
        """Indices j != i with ||x_j - x_i|| < r (strict), ascending."""
        ((_, _, members),) = self.radius_members_batch([i], r)
        return members

    def knn_members(self, i: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors of point i: (indices, distances), sorted by
        (distance, index) so equal distances resolve to the lower index."""
        ((_, members, dists),) = self.knn_members_batch([i], k)
        return members[0], dists[0]

    def _chunks(self, queries: np.ndarray, members):
        """Consecutive slices of ``queries`` whose neighbor gathering stays
        within about BLOCK_BYTES.  Brute force holds a distance row per query
        twice (distances and the partitioned copy that finds the k-th
        nearest); a KD-tree chunk holds ``members`` (per query, or one count
        for all) gathered neighbors per query."""
        if self._brute:
            cost = np.full(len(queries), 16 * self.n)
        else:
            cost = _BYTES_PER_MEMBER * (np.broadcast_to(members, len(queries)) + 1)
        ends = np.cumsum(cost)
        start = 0
        while start < len(queries):
            limit = ends[start] - cost[start] + BLOCK_BYTES
            stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
            yield queries[start:stop]
            start = stop

    def _tree_candidates(self, chunk: np.ndarray, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ball-query candidates of a chunk, flattened: (query position,
        candidate index, distance), in query order then ascending index,
        the centers themselves removed."""
        lists = self._tree.query_ball_point(self.coords[chunk], r, return_sorted=True)
        lengths = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
        cand = np.fromiter(
            itertools.chain.from_iterable(lists), dtype=np.intp, count=int(lengths.sum())
        )
        owner = np.repeat(np.arange(len(chunk)), lengths)
        dist = np.linalg.norm(self.coords[cand] - self.coords[chunk[owner]], axis=1)
        keep = cand != chunk[owner]
        return owner[keep], cand[keep], dist[keep]

    def _brute_knn_candidates(self, chunk: np.ndarray, k: int):
        """(query position, candidate index, distance) of every point no
        farther than the k-th nearest neighbor of each query of a chunk."""
        rows = self._dist_rows(chunk)
        rows[np.arange(len(chunk)), chunk] = np.inf
        cut = np.partition(rows, k - 1, axis=1)[:, k - 1]
        owner, cand = np.nonzero(rows <= cut[:, None])
        return owner, cand, rows[owner, cand]

    def radius_members_batch(self, queries, r: float):
        """Members j != q with ||x_j - x_q|| < r (strict) of every query point
        q, in chunks: yields (chunk of queries, member counts, members
        flattened in query order, each query's ascending)."""
        queries = np.asarray(queries, dtype=np.intp)
        counted = None
        if not self._brute:
            # Counted first, so that no chunk gathers more than its budget.
            counted = self._tree.query_ball_point(self.coords[queries], r, return_length=True)
        for chunk in self._chunks(queries, counted):
            if self._brute:
                inside = self._dist_rows(chunk) < r
                inside[np.arange(len(chunk)), chunk] = False
                owner, members = np.nonzero(inside)
            else:
                owner, members, dist = self._tree_candidates(chunk, r)
                inside = dist < r
                owner, members = owner[inside], members[inside]
            yield chunk, np.bincount(owner, minlength=len(chunk)), members

    def knn_members_batch(self, queries, k: int):
        """k nearest neighbors of every query point, in chunks: yields (chunk
        of queries, (c, k) members, (c, k) distances), each row sorted by
        (distance, index) so equal distances resolve to the lower index."""
        if not 1 <= k <= self.n - 1:
            raise ValueError("k must satisfy 1 <= k <= n - 1")
        queries = np.asarray(queries, dtype=np.intp)
        for chunk in self._chunks(queries, k + 1):
            if self._brute:
                owner, cand, dist = self._brute_knn_candidates(chunk, k)
            else:
                kth, _ = self._tree.query(self.coords[chunk], k=k + 1)
                owner, cand, dist = self._tree_candidates(chunk, kth.max(axis=1) * (1 + 1e-12))
            order = np.lexsort((cand, dist, owner))
            owner, cand, dist = owner[order], cand[order], dist[order]
            # Candidates are sorted by query, then (distance, index); keep each
            # query's first k.
            starts = np.searchsorted(owner, np.arange(len(chunk)))
            first = (starts[:, None] + np.arange(k)).ravel()
            yield chunk, cand[first].reshape(-1, k), dist[first].reshape(-1, k)


def neighbors_radius(
    cloud, i: int, r: float, index: NeighborIndex | None = None
) -> Neighborhood:
    """Open-ball neighborhood of point i with the center excluded, rescaled by r."""
    if r <= 0:
        raise ValueError("radius must be positive")
    coords = index.coords if index is not None else as_point_cloud(cloud)
    if index is None:
        index = NeighborIndex(coords)
    members = index.radius_members(i, r)
    rescaled = (coords[members] - coords[i]) / r
    return Neighborhood(i, members, rescaled, float(r))


def neighbors_knn(
    cloud, i: int, k: int, index: NeighborIndex | None = None
) -> Neighborhood:
    """k-nearest neighborhood of point i, rescaled by the k-th neighbor distance."""
    coords = index.coords if index is not None else as_point_cloud(cloud)
    if index is None:
        index = NeighborIndex(coords)
    members, dists = index.knn_members(i, k)
    scale = float(dists[-1])
    diffs = coords[members] - coords[i]
    rescaled = diffs / scale if scale > 0 else np.zeros_like(diffs)
    return Neighborhood(i, members, rescaled, scale)


def second_moment(points) -> np.ndarray:
    """Uncentered second moment (1/k) * sum_j x_j x_j^T."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a nonempty (k, D) array")
    return pts.T @ pts / pts.shape[0]


def estimate_dim(eigenvalues, eta: float):
    """Smallest number of leading components explaining at least eta of the
    total variance; an (m, r) array of spectra gives an (m,) array."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    ev = np.asarray(eigenvalues, dtype=float)
    total = ev.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("degenerate neighborhood: all eigenvalues zero")
    ratios = np.cumsum(ev, axis=-1) / total
    d_hat = np.argmax(ratios >= eta - 1e-12, axis=-1) + 1
    return int(d_hat) if d_hat.ndim == 0 else d_hat


def local_pca(points, eta: float) -> PcaResult:
    """Eigendecomposition of the uncentered second moment via SVD of the
    rescaled points (O(k^2 D) instead of O(k D^2) when D dominates)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a nonempty (k, D) array")
    _, s, vt = np.linalg.svd(pts, full_matrices=False)
    eigenvalues = s**2 / pts.shape[0]
    return PcaResult(eigenvalues, vt.T, estimate_dim(eigenvalues, eta))


def local_pca_stack(stack: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """``local_pca`` of each (k, D) neighborhood of an (m, k, D) stack:
    d_hat per neighborhood, and the leading max(d_hat) principal axes of each
    as the rows of an (m, max(d_hat), D) array."""
    m, k, dim = stack.shape
    if dim < _BRUTE_DIM:
        _, s, vt = np.linalg.svd(stack, full_matrices=False)
        d_hat = estimate_dim(s**2 / k, eta)
        return d_hat, vt[:, : d_hat.max()]
    # One at a time: with OpenBLAS on 2 CPUs, a stacked SVD of 60 x 100
    # neighborhoods measured 3.0 ms each against 1.35 ms in a loop.  Only the
    # leading axes are kept, so memory stays that of the stack.
    d_hat = np.empty(m, dtype=int)
    leading = []
    for j, pts in enumerate(stack):
        _, s, vt = np.linalg.svd(pts, full_matrices=False)
        d_hat[j] = estimate_dim(s**2 / k, eta)
        leading.append(vt[: d_hat[j]].copy())
    axes = np.zeros((m, d_hat.max(), dim))
    for j, rows in enumerate(leading):
        axes[j, : len(rows)] = rows
    return d_hat, axes


def project(neighborhood: Neighborhood, pca: PcaResult) -> np.ndarray:
    """Coordinates of the rescaled members in the top-d_hat principal basis."""
    return neighborhood.rescaled @ pca.basis[:, : pca.d_hat]
