"""Neighborhood isolation, rescaling, and local PCA for point clouds.

A point cloud is a plain (n, D) float array.  Neighborhoods are rescaled by
the isolation radius so they live inside the unit ball, and the local PCA is
taken about the query point (uncentered second moment), which is the
convention under which a uniform d-disk has top eigenvalues 1/(d+2).
"""

from __future__ import annotations

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
# Size of a block of small matrices worked on at once, so that it stays in
# cache: small Gram matrices of the MMD and of the local PCA, power sums.
CACHE_BYTES = 2**20
# Bytes one neighbor costs while a chunk of KD-tree queries is gathered.
# Over a chunk of 2,500 radius queries of about 117 neighbors, the tree's
# pair records take 43 B per neighbor in RSS (24 B each, plus the growth of
# their vector), which tracemalloc does not see; tracemalloc puts the sort
# key, masks and indices alive beside them at 24 B more.  k-NN queries hold
# less: 8-byte arrays of indices, tree and pair distances and sort order.
# These bytes count against half of BLOCK_BYTES, since the scoring pipeline
# holds two chunks at once (``NeighborIndex._chunks``).
_BYTES_PER_MEMBER = 80


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
class Radius:
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class Knn:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


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
    rows in high dimension.  All queries are exact under one distance, the
    norm of the difference (``_pair_dist``), with k-nearest ties broken by
    lower point index; a backend's own distances only choose candidates.
    """

    def __init__(self, coords: np.ndarray):
        self.coords = coords
        self.n, self.dim = coords.shape
        self._brute = self.dim >= _BRUTE_DIM
        self._tree = None if self._brute else cKDTree(coords)
        self._sq_norms = np.einsum("ij,ij->i", coords, coords) if self._brute else None
        self._tol = 4 * (self.dim + 8) * np.finfo(float).eps

    def _sq_dist_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Squared distances by BLAS from each point of ``rows`` to every
        point, (len(rows), n), and a bound on their rounding error per row.

        The rounding of |x|^2 + |y|^2 - 2<x, y> depends on how many rows a
        BLAS call gets, so these decide nothing that their bound leaves open,
        and distances returned come from ``_pair_dist``.  The bound is
        (dim + 8) * eps relative to |x|^2 + |y|^2, and then four times that.
        """
        block = self.coords[rows] @ self.coords.T
        block *= -2.0
        block += self._sq_norms
        block += self._sq_norms[rows, None]
        slack = self._tol * (self._sq_norms[rows] + self._sq_norms.max())
        return block, slack

    def _pair_dist(self, centers: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """||x_cand - x_center|| of each (center, candidate) pair, as the norm
        of the difference: a pair's distance does not depend on the others.
        Pairs go in blocks of BLOCK_BYTES / 64, small beside a chunk's
        distance rows, which are alive meanwhile."""
        out = np.empty(len(cand))
        step = max(1, BLOCK_BYTES // (64 * self.dim))
        for a in range(0, len(cand), step):
            diff = self.coords[cand[a : a + step]]
            diff -= self.coords[centers[a : a + step]]
            out[a : a + step] = np.linalg.norm(diff, axis=1)
        return out

    def radius_members(self, i: int, r: float) -> np.ndarray:
        """Indices j != i with ||x_j - x_i|| < r (strict), ascending.  A
        negative i counts from the end, as in a sequence."""
        return self.gather(np.array([range(self.n)[i]], dtype=np.intp), Radius(r))[1]

    def knn_members(self, i: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors of point i: (indices, distances), sorted by
        (distance, index) so equal distances resolve to the lower index.  A
        negative i counts from the end, as in a sequence."""
        (members,), (dists,) = self.knn([range(self.n)[i]], k)
        return members, dists

    def _chunks(self, queries: np.ndarray, members):
        """Consecutive slices of ``queries`` whose neighbor gathering stays
        within about BLOCK_BYTES / 2.  Brute force holds a distance row per
        query twice (distances and the partition that finds the nearest); a
        KD-tree chunk holds ``members`` (per query, or one count for all)
        gathered neighbors per query at _BYTES_PER_MEMBER each.  Half the
        budget, because the scoring pipeline (``uniformity._mmd_columns``)
        gathers one chunk while the one before it is still being scored, and
        the two share one BLOCK_BYTES."""
        if self._brute:
            cost = np.full(len(queries), 16 * self.n)
        else:
            cost = _BYTES_PER_MEMBER * (np.broadcast_to(members, len(queries)) + 1)
        ends = np.cumsum(cost)
        start = 0
        while start < len(queries):
            limit = ends[start] - cost[start] + BLOCK_BYTES // 2
            stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
            yield queries[start:stop]
            start = stop

    def _tree_ball(self, chunk: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Members of the ball of radius r around each query of a chunk,
        flattened: (query position, member index), in query order then
        ascending index.  The KD-tree pairs the chunk with the cloud as one
        array, out to r widened by the rounding of its distances, which sum
        in another order than ``_pair_dist`` and differ from it by a few ulp
        from 8 dimensions up; a tree distance farther from r than that
        decides alone, and the others are decided by ``_pair_dist``."""
        pairs = cKDTree(self.coords[chunk]).sparse_distance_matrix(
            self._tree, r * (1 + self._tol), output_type="ndarray"
        )
        owner, cand = pairs["i"], pairs["j"]
        inside = cand != chunk[owner]
        near = np.flatnonzero(pairs["v"] >= r * (1 - self._tol))
        inside[near] &= self._pair_dist(chunk[owner[near]], cand[near]) < r
        key = owner[inside] * self.n
        key += cand[inside]
        del pairs, owner, cand, inside
        key.sort()
        return np.divmod(key, self.n)

    def _brute_inside(self, chunk: np.ndarray, r: float) -> np.ndarray:
        """(c, n) mask of the points j != q with ||x_j - x_q|| < r for each
        query q of a chunk.  A BLAS distance farther from r than its rounding
        bound decides alone; the others are decided by ``_pair_dist``."""
        sq, slack = self._sq_dist_rows(chunk)
        sq[np.arange(len(chunk)), chunk] = np.inf
        band = self._tol * r * r + slack[:, None]
        inside = sq < r * r - band
        owner, cand = np.nonzero(~inside & (sq <= r * r + band))
        near = self._pair_dist(chunk[owner], cand) < r
        inside[owner[near], cand[near]] = True
        return inside

    def chunks(self, queries, hood: Radius | Knn) -> list[np.ndarray]:
        """Chunks of ``queries`` for ``gather``, planned before any
        neighborhood is gathered: every query once, in query order, except
        radius balls on the KD-tree, which come in ascending order of ball
        count (the members plus the query itself, as the tree counts them),
        with ties in query order, so that neighborhoods of one size arrive
        together."""
        queries = np.asarray(queries, dtype=np.intp)
        members = None
        if isinstance(hood, Knn):
            members = min(hood.k + 2, self.n)
        elif not self._brute:
            # Counted first, so that no chunk gathers more than its budget;
            # on two threads, since the scoring pipeline's worker is idle.
            counted = self._tree.query_ball_point(
                self.coords[queries], hood.r, return_length=True, workers=2
            )
            order = np.argsort(counted, kind="stable")
            queries, members = queries[order], counted[order]
        return list(self._chunks(queries, members))

    def gather(self, chunk: np.ndarray, hood: Radius | Knn) -> tuple[np.ndarray, ...]:
        """Member counts of one chunk's queries, their members flattened in
        chunk order, and the radius each neighborhood is rescaled by: r and
        the members j != q with ||x_j - x_q|| < r (strict), each query's
        ascending, or the k-th neighbor distance and the k nearest of ``knn``."""
        if isinstance(hood, Knn):
            members, dists = self.knn(chunk, hood.k)
            return np.full(len(chunk), hood.k), members.ravel(), dists[:, -1]
        if self._brute:
            owner, members = np.nonzero(self._brute_inside(chunk, hood.r))
        else:
            owner, members = self._tree_ball(chunk, hood.r)
        counts = np.bincount(owner, minlength=len(chunk))
        return counts, members, np.full(len(chunk), float(hood.r))

    def _nearest(self, centers: np.ndarray, want: int, k: int):
        """(c, want) indices and distances of the ``want`` nearest points of
        each center by the backend's distance, the farthest last, and a cut
        past which no point is among its k nearest by ``_pair_dist``: the
        tree's (k+1)-th distance (the center counts) widened by 1e-12, or,
        on squared BLAS distances, the k-th plus twice the rounding bound
        (the k-th true distance is within one bound, each of the k nearest
        within another)."""
        if not self._brute:
            dist, idx = self._tree.query(self.coords[centers], k=want)
            return idx, dist, dist[:, k] * (1 + 1e-12)
        sq, slack = self._sq_dist_rows(centers)
        sq[np.arange(len(centers)), centers] = np.inf
        idx = np.argpartition(sq, want - 1, axis=1)[:, :want]
        dist = np.take_along_axis(sq, idx, axis=1)
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
        return idx, dist, (kth + 2 * slack) * (1 + 2 * self._tol)

    def knn(self, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(m, k) members and (m, k) distances of the queries, in query
        order, each row sorted by (distance, index) so equal distances
        resolve to the lower index.

        A query takes k + 2 points from ``_nearest``; if the farthest lies
        past the cut, all within the cut were taken, else it asks again for
        twice as many.  Those within are ranked by (``_pair_dist``, index).
        Each round's rows go in parts within the chunk budget at its
        ``want``; a row does not depend on the parts, since ``_pair_dist``
        decides it."""
        if not 1 <= k <= self.n - 1:
            raise ValueError("k must satisfy 1 <= k <= n - 1")
        queries = np.asarray(queries, dtype=np.intp)
        members = np.empty((len(queries), k), dtype=np.intp)
        dists = np.empty((len(queries), k))
        rows, want = np.arange(len(queries)), min(k + 2, self.n)
        while rows.size:
            again = []
            for part in self._chunks(rows, want):
                idx, near, cut = self._nearest(queries[part], want, k)
                done = (near[:, -1] > cut) | (want == self.n)
                at, idx, near, cut = part[done], idx[done], near[done], cut[done]
                centers = np.broadcast_to(queries[at, None], idx.shape)
                inside = (near <= cut[:, None]) & (idx != centers)
                dist = np.full(idx.shape, np.inf)
                dist[inside] = self._pair_dist(centers[inside], idx[inside])
                first = np.lexsort((idx, dist), axis=1)[:, :k]
                members[at] = np.take_along_axis(idx, first, axis=1)
                dists[at] = np.take_along_axis(dist, first, axis=1)
                again.append(part[~done])
            rows, want = np.concatenate(again), min(2 * want, self.n)
        return members, dists


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


def local_pca_stack(stack: np.ndarray, etas) -> tuple[np.ndarray, np.ndarray]:
    """``local_pca`` of each (k, D) neighborhood of an (m, k, D) stack under
    each threshold of ``etas``, and the projection of each neighborhood on
    its leading principal axes: d_hat as an (len(etas), m) array, and the
    coordinates as an (m, k, max(d_hat)) array whose first d columns are the
    projection on the top d axes for every d up to the neighborhood's
    largest d_hat (d_hat grows with eta).

    The coordinates are U S, the left singular vectors of each rescaled
    (k, D) matrix X times its singular values: X V = U S up to the sign of
    each column, which no dot-product kernel sees.  With k >= D they come
    from the SVD of X; with k < D from ``eigh`` of the smaller k x k Gram
    X X^T, whose eigenvalues are the squared singular values.  Both shapes
    go in blocks of about CACHE_BYTES (1 MB) of the matrices decomposed,
    each keeping only the leading columns its etas need, so no (m, k, k)
    array is held for the whole stack.
    """
    m, k, dim = stack.shape
    d_hat = np.empty((len(etas), m), dtype=np.intp)
    leading = []
    per_block = max(1, CACHE_BYTES // (8 * k * min(k, dim)))
    for a in range(0, m, per_block):
        part = stack[a : a + per_block]
        if k >= dim:
            u, s, _ = np.linalg.svd(part, full_matrices=False)
            w = s * s
        else:
            w, u = np.linalg.eigh(part @ part.transpose(0, 2, 1))
            w, u = np.maximum(w[:, ::-1], 0.0), u[:, :, ::-1]
            s = np.sqrt(w)
        d_hat[:, a : a + per_block] = [estimate_dim(w / k, eta) for eta in etas]
        lead = d_hat[:, a : a + per_block].max()
        # U diag(s) as a matmul: each entry is one product plus exact zeros,
        # so it equals U * s; the elementwise product loops over the few
        # leading columns and took three times as long on (117, 3) stacks.
        leading.append((a, u[:, :, :lead] @ (s[:, :lead, None] * np.eye(lead))))
    projected = np.zeros((m, k, d_hat.max()))
    for a, coords in leading:
        projected[a : a + len(coords), :, : coords.shape[2]] = coords
    return d_hat, projected


def project(neighborhood: Neighborhood, pca: PcaResult) -> np.ndarray:
    """Coordinates of the rescaled members in the top-d_hat principal basis."""
    return neighborhood.rescaled @ pca.basis[:, : pca.d_hat]
