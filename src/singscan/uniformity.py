"""The uniformity test: isolate, rescale, project, score, p-value.

A point is scored by comparing its rescaled, PCA-projected neighborhood
against the uniform distribution on the unit disk of the estimated dimension.
Neighborhoods with fewer than MIN_NEIGHBORHOOD members, or whose members
all sit on their center, are reported with missing score fields instead of
being tested.  ``score_configurations`` scores all points at once in
batches, under several etas and kernels that share one neighborhood rule;
``score_columns`` is its one-configuration case;
``uniformity_test`` scores one point and is the reference the batched path
is tested against.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    BLOCK_BYTES,
    MIN_NEIGHBORHOOD,
    NeighborIndex,
    as_point_cloud,
    local_pca,
    local_pca_stack,
    neighbors_knn,
    neighbors_radius,
    project,
)
from .kernels import PowerSeriesKernel, mmd_sq_stack, mmd_sq_vs_uniform_disk
from .nulls import NullCache, p_value


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
class Hyperparams:
    """Neighborhood rule, PCA threshold, and MMD kernel for one detection run."""

    neighborhood: Radius | Knn
    eta: float = 0.8
    kernel: PowerSeriesKernel = PowerSeriesKernel()

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must be in (0, 1)")


@dataclass(frozen=True)
class UniformityResult:
    """Per-point outcome; score fields are None exactly when the neighborhood
    was untestable: too small (k_obs < MIN_NEIGHBORHOOD), or every member on
    the center, which leaves no spread for the PCA."""

    index: int
    k_obs: int
    d_hat: int | None = None
    mmd: float | None = None
    p_value: float | None = None


def uniformity_test(
    cloud,
    i: int,
    params: Hyperparams,
    nulls: NullCache,
    index: NeighborIndex | None = None,
) -> UniformityResult:
    """Score one point of the cloud against the local-uniformity null."""
    coords = index.coords if index is not None else as_point_cloud(cloud)
    if index is None:
        index = NeighborIndex(coords)
    if isinstance(params.neighborhood, Radius):
        hood = neighbors_radius(coords, i, params.neighborhood.r, index=index)
    else:
        hood = neighbors_knn(coords, i, params.neighborhood.k, index=index)
    k_obs = len(hood.member_indices)
    if k_obs < MIN_NEIGHBORHOOD or not hood.rescaled.any():
        return UniformityResult(i, k_obs)
    pca = local_pca(hood.rescaled, params.eta)
    projected = project(hood, pca)
    mmd = mmd_sq_vs_uniform_disk(projected, params.kernel)
    table = nulls.get(pca.d_hat, params.kernel)
    return UniformityResult(i, k_obs, pca.d_hat, mmd, p_value(table, k_obs, mmd))


@dataclass(frozen=True, eq=False)
class Scores:
    """Per-point outcome of a detection run as columns over the points: the
    neighborhood size ``k_obs`` and, NaN where the neighborhood was
    untestable, the estimated dimension ``d_hat``, ``mmd`` and ``p_value``."""

    k_obs: np.ndarray
    d_hat: np.ndarray
    mmd: np.ndarray
    p_value: np.ndarray


def _query_points(n: int, subsample_fraction: float, seed: int) -> np.ndarray:
    if not 0.0 < subsample_fraction <= 1.0:
        raise ValueError("subsample_fraction must be in (0, 1]")
    if subsample_fraction >= 1.0:
        return np.arange(n)
    m = min(n, max(1, math.ceil(subsample_fraction * n)))
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=m, replace=False))


def _neighborhood_plan(index: NeighborIndex, queries: np.ndarray, hood: Radius | Knn):
    """The chunks of queries that the neighborhoods are gathered in, planned
    before any is gathered, and the function that gathers one chunk's
    (member counts, flattened members, rescaling radii)."""
    if isinstance(hood, Radius):
        def gather(chunk):
            counts, members = index.radius_chunk_members(chunk, hood.r)
            return counts, members, np.full(len(chunk), float(hood.r))

        return index.radius_chunks(queries, hood.r), gather

    def gather(chunk):
        members, dists = index.knn_chunk_members(chunk, hood.k)
        return np.full(len(chunk), hood.k), members.ravel(), dists[:, -1]

    return index.knn_chunks(queries, hood.k), gather


def _mmd_columns(coords: np.ndarray, queries: np.ndarray, neighborhood: Radius | Knn, etas, kernels):
    """k_obs of each query, its d_hat under each eta, (len(etas), m), its
    squared MMD under each (kernel, eta), (len(kernels), len(etas), m), NaN
    where the neighborhood was untestable, and the exception of each kernel
    (by position) whose MMD failed.

    Neighborhoods are gathered in chunks, which come in ascending order of
    size from the KD-tree radius query and in query order otherwise, and
    grouped by size into stacks of at most about BLOCK_BYTES; each result
    is written at its query's position.  ``local_pca_stack`` gives each
    neighborhood of a stack its d_hat under every eta and its coordinates
    on the leading principal axes, and the MMD of a neighborhood at
    dimension d is taken on its first d coordinates.  Neither depends on
    the other neighborhoods of the stack, so neither does the order.

    A call of several chunks is a two-stage pipeline: this thread gathers
    and decomposes a chunk while one worker thread computes the MMDs of the
    chunk before it.  The tree queries and LAPACK release the GIL, and the
    worker makes no LAPACK call.  The chunks are scored in order, one at a
    time, so every output and every failure is the same as on one thread.
    The two live chunks share one BLOCK_BYTES budget
    (``NeighborIndex._chunks``).  A call of one chunk, known from the plan
    before any neighborhood is gathered, has nothing to overlap and is
    scored on this thread, with no worker.
    """
    dim = coords.shape[1]
    m = len(queries)
    k_obs = np.zeros(m, dtype=np.intp)
    d_hat = np.full((len(etas), m), np.nan)
    mmd = np.full((len(kernels), len(etas), m), np.nan)
    failed: dict[int, Exception] = {}

    def score(stacks):
        # The second stage: every MMD of one chunk's decomposed stacks.
        for where, dims, projected in stacks:
            for d in np.unique(dims):
                rows = np.flatnonzero((dims == d).any(axis=0))
                for j, kernel in enumerate(kernels):
                    if j in failed:
                        continue
                    try:
                        values = mmd_sq_stack(projected[rows, :, :d], kernel)
                    except (ValueError, RuntimeError) as exc:
                        failed[j] = exc
                        continue
                    for e in range(len(etas)):
                        hit = dims[e, rows] == d
                        mmd[j, e, where[rows[hit]]] = values[hit]

    def decompose(chunk):
        # The first stage: gather a chunk, stack it by size, decompose.
        counts, members, scales = gather(chunk)
        # Queries are ascending, so this is each chunk query's position.
        at = np.searchsorted(queries, chunk)
        k_obs[at] = counts
        starts = np.cumsum(counts) - counts
        stacks = []
        for k in np.unique(counts[counts >= MIN_NEIGHBORHOOD]):
            group = np.flatnonzero(counts == k)
            per_stack = max(1, BLOCK_BYTES // (8 * k * dim))
            for a in range(0, len(group), per_stack):
                sel = group[a : a + per_stack]
                stack = coords[members[starts[sel, None] + np.arange(k)]]
                stack -= coords[chunk[sel], None]
                # A neighborhood whose members all sit on the center (a
                # ball of copies, or a zero k-th neighbor distance)
                # rescales to zeros, which have no spectrum to test: it
                # stays NaN.
                stack /= np.where(scales[sel] > 0, scales[sel], np.inf)[:, None, None]
                spread = stack.any(axis=(1, 2))
                if not spread.all():
                    sel, stack = sel[spread], stack[spread]
                    if not sel.size:
                        continue
                dims, projected = local_pca_stack(stack, etas)
                d_hat[:, at[sel]] = dims
                stacks.append((at[sel], dims, projected))
        return stacks

    plan, gather = _neighborhood_plan(NeighborIndex(coords), queries, neighborhood)
    if len(plan) == 1:
        score(decompose(plan[0]))
        return k_obs, d_hat, mmd, failed
    scoring = None
    with ThreadPoolExecutor(max_workers=1) as worker:
        for chunk in plan:
            stacks = decompose(chunk)
            # The chunk before is scored, its failures recorded, before this
            # one is handed over: at most one chunk is in flight.
            if scoring is not None:
                scoring.result()
            scoring = worker.submit(score, stacks)
        if scoring is not None:
            scoring.result()
    return k_obs, d_hat, mmd, failed


def score_configurations(
    cloud,
    neighborhood: Radius | Knn,
    etas,
    kernels,
    nulls: NullCache,
    subsample_fraction: float = 1.0,
    seed: int = 0,
) -> Callable[[int, int], Scores]:
    """Score every point under each (eta, kernel) of one neighborhood rule.

    Neighborhoods and singular values do not depend on eta or the kernel, and
    a point with the same d_hat under two etas has the same projection, so
    the neighborhoods are gathered and decomposed once and the squared MMD
    is computed once per (kernel, point, d_hat).

    Returns the lookup ``scores(e, j)``, the ``Scores`` of (etas[e],
    kernels[j]).  A failure of the neighborhoods or the PCA raises from this
    call, a kernel's failed MMD from ``scores`` of its configurations.
    """
    coords = as_point_cloud(cloud)
    n = coords.shape[0]
    queries = _query_points(n, subsample_fraction, seed)
    # A function of its own, so that its working arrays are freed on return.
    k_obs, d_hat, mmd, failed = _mmd_columns(coords, queries, neighborhood, etas, kernels)

    m = len(queries)
    tested = np.flatnonzero(np.isfinite(d_hat[0]))
    # Every unscored point takes the values of its nearest scored point.
    nearest = np.arange(m)
    if m < n:
        _, nearest = cKDTree(coords[queries]).query(coords)
        nearest[queries] = np.arange(m)

    def scores(e: int, j: int) -> Scores:
        if j in failed:
            raise failed[j]
        p = np.full(m, np.nan)
        for d in np.unique(d_hat[e, tested]).astype(int):
            sel = tested[d_hat[e, tested] == d]
            p[sel] = p_value(nulls.get(int(d), kernels[j]), k_obs[sel], mmd[j, e, sel])
        return Scores(*(col[nearest] for col in (k_obs, d_hat[e], mmd[j, e], p)))

    return scores


def score_columns(
    cloud,
    params: Hyperparams,
    nulls: NullCache,
    subsample_fraction: float = 1.0,
    seed: int = 0,
) -> Scores:
    """Score every point, batched: the columns of ``singularity_scores``,
    and the one-configuration case of ``score_configurations``."""
    return score_configurations(
        cloud, params.neighborhood, (params.eta,), (params.kernel,), nulls,
        subsample_fraction, seed,
    )(0, 0)


def singularity_scores(
    cloud,
    params: Hyperparams,
    nulls: NullCache,
    subsample_fraction: float = 1.0,
    seed: int = 0,
) -> list[UniformityResult]:
    """Score every point; with subsample_fraction < 1 only a seeded subsample
    of query points is scored and each remaining point inherits the result of
    its nearest scored point.  The rows of ``score_columns``."""
    cols = score_columns(cloud, params, nulls, subsample_fraction, seed)
    results = []
    for i, (k, d, mmd, p) in enumerate(
        zip(cols.k_obs.tolist(), cols.d_hat.tolist(), cols.mmd.tolist(), cols.p_value.tolist())
    ):
        if math.isnan(d):
            results.append(UniformityResult(i, k))
        else:
            results.append(UniformityResult(i, k, int(d), mmd, p))
    return results
