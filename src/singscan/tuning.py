"""Automatic hyperparameter selection by dispersion-score minimization.

The radius range is found by growing neighborhoods around probe points until
the Levina-Bickel intrinsic-dimension estimate stabilizes (knee of the
reversed dimension-vs-scale curve), then a grid over (radius, eta, alpha) is
searched for the smallest dispersion, expanding the radius axis linearly in
the estimated local volume whenever the winner sits on the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import NeighborIndex, as_point_cloud
from .kernels import PowerSeriesKernel
from .nulls import NullCache
from .scoring import (
    CONVEX_DEC,
    DISPERSION_NEIGHBORS,
    dispersion,
    filter_labels,
    knee_detect,
    knn_neighbor_sets,
)
from .uniformity import Hyperparams, Radius, Scores, score_columns

DEFAULT_ETAS = (0.7, 0.8, 0.9)
DEFAULT_ALPHAS = (0.3, 0.5, 0.7)
DEFAULT_N_RADII = 4
LOCAL_SCALE_PROBES = 50
_LADDER_BASE = 10
_LADDER_MAX = 1000


@dataclass(frozen=True)
class SearchGrid:
    """Axes of the hyperparameter search plus hard outer radius bounds."""

    radii: tuple[float, ...]
    etas: tuple[float, ...] = DEFAULT_ETAS
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    bounds: tuple[float, float] = (0.0, math.inf)

    def __post_init__(self):
        if not self.radii or not self.etas or not self.alphas:
            raise ValueError("grid axes must be nonempty")
        if min(self.radii) <= 0:
            raise ValueError("radii must be positive")
        lo, hi = self.bounds
        if not (lo <= min(self.radii) and max(self.radii) <= hi):
            raise ValueError("radii must lie within bounds")


@dataclass
class GridRow:
    """One evaluated configuration of the search."""

    r: float
    eta: float
    alpha: float
    dispersion: float
    n_singular: int
    warn_degenerate: bool
    error: str | None = None


@dataclass
class GridSearchResult:
    """The dispersion minimizer, its row and scores, and every row."""

    best: Hyperparams
    best_row: GridRow
    scores: Scores
    report: list[GridRow] = field(default_factory=list)


def levina_bickel_dim(cloud, i: int, k: int, index: NeighborIndex | None = None) -> float:
    """Maximum-likelihood intrinsic dimension at point i from the ratios of
    its k nearest-neighbor distances (unbiased k-2 normalization).

    Zero distances from duplicate points are skipped; if every distance is
    zero the estimate is undefined.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    coords = index.coords if index is not None else as_point_cloud(cloud)
    if index is None:
        index = NeighborIndex(coords)
    _, dists = index.knn_members(i, k)
    return _lb_from_distances(dists)


def _lb_from_distances(dists: np.ndarray) -> float:
    t_k = dists[-1]
    inner = dists[:-1]
    valid = inner > 0.0
    if t_k <= 0.0 or not np.any(valid):
        raise ValueError("degenerate distances: all neighbors coincide")
    log_sum = float(np.log(t_k / inner[valid]).sum())
    if log_sum <= 0.0:
        raise ValueError("degenerate distances: no scale variation")
    return max(int(valid.sum()) - 1, 1) / log_sum


def _scale_ladder(n: int) -> list[int]:
    top = min(n - 1, _LADDER_MAX)
    ladder, k = [], _LADDER_BASE
    while k <= top:
        ladder.append(k)
        k *= 2
    return ladder or [top]


def local_scale(
    cloud, rng: np.random.Generator | None = None
) -> tuple[float, tuple[float, float]]:
    """Detect the local scale r_tilde and the radius search range
    [1.5 * r_tilde, 5 * r_tilde].

    Averaged Levina-Bickel dimension curves over a geometric ladder of
    neighborhood sizes are reversed (largest first) and the knee marks where
    the dimension estimate stabilizes; without a knee the ladder midpoint is
    used.
    """
    r_tilde, _ = _local_scale_with_dim(cloud, rng)
    return r_tilde, (1.5 * r_tilde, 5.0 * r_tilde)


def _local_scale_with_dim(
    cloud, rng: np.random.Generator | None = None
) -> tuple[float, float]:
    coords = as_point_cloud(cloud)
    n = coords.shape[0]
    if n < 50:
        raise ValueError("need at least 50 points for local scale detection")
    rng = rng if rng is not None else np.random.default_rng(0)
    probes = np.sort(rng.choice(n, size=min(LOCAL_SCALE_PROBES, n), replace=False))
    ladder = _scale_ladder(n)
    index = NeighborIndex(coords)

    dists = np.vstack([d for _, _, d in index.knn_members_batch(probes, ladder[-1])])
    curves = np.array([[_lb_from_distances(row[:k]) for k in ladder] for row in dists])
    kth_dist = dists[:, np.array(ladder) - 1]
    avg = curves.mean(axis=0)

    # Noise inflates the estimates at the smallest scales; the running minimum
    # over enlarging neighborhoods tracks the stabilized level, and its knee
    # marks where the estimate settles.  The search window [1.5, 5] * r_tilde
    # then explores upward from that scale.  Near-flat curves carry no scale
    # information and fall back to the ladder midpoint.
    floor_curve = np.minimum.accumulate(avg)
    knee_col = None
    if len(ladder) >= 5 and float(floor_curve.max() - floor_curve.min()) >= 0.05:
        pos = knee_detect(
            np.arange(len(ladder), dtype=float), floor_curve, shape=CONVEX_DEC
        )
        if pos is not None:
            knee_col = int(pos)
    if knee_col is None:
        knee_col = len(ladder) // 2
    r_tilde = float(kth_dist[:, knee_col].mean())
    return r_tilde, float(avg[knee_col])


def default_grid(r_range: tuple[float, float], dim: float) -> SearchGrid:
    """DEFAULT_N_RADII radii spaced geometrically in the volume coordinate
    r^dim over the range."""
    lo, hi = r_range
    d = max(float(dim), 1.0)
    volumes = np.geomspace(lo**d, hi**d, DEFAULT_N_RADII)
    radii = [float(v ** (1.0 / d)) for v in volumes]
    # (lo^d)^(1/d) can round below lo, which the bounds would then reject.
    radii[0], radii[-1] = float(lo), float(hi)
    return SearchGrid(radii=tuple(radii), bounds=(lo, 4.0 * hi))


def _expand_radii(radii_sorted: list[float], bounds: tuple[float, float], dim: float) -> list[float]:
    """New radii past the current maximum, advancing the local volume r^dim by
    one window length per step."""
    d = max(float(dim), 1.0)
    v = np.asarray(radii_sorted, dtype=float) ** d
    v_lo, v_hi = v[0], v[-1]
    width = v_hi - v_lo
    if width <= 0:
        width = v_hi
    cap = min(bounds[1] ** d, v_hi + width)
    if cap <= v_hi * (1 + 1e-12):
        return []
    new_volumes = np.linspace(v_hi, cap, len(radii_sorted) + 1)[1:]
    return [float(nv ** (1.0 / d)) for nv in new_volumes]


def grid_search(
    cloud,
    grid: SearchGrid,
    nulls: NullCache,
    volume_dim: float | None = None,
    subsample_fraction: float = 1.0,
    seed: int = 0,
) -> GridSearchResult:
    """Evaluate every (r, eta, alpha) configuration and return the dispersion
    minimizer, expanding the radius axis while the winner sits on its upper
    boundary and the hard bounds allow.

    Ties break toward smaller r, then eta, then alpha.  A winning labeling
    with no singular points is legal but flagged ``warn_degenerate``.  The
    dispersion uses DISPERSION_NEIGHBORS neighbor sets and regularization
    n / 4.  Only the running best configuration's scores are kept.
    """
    coords = as_point_cloud(cloud)
    n = coords.shape[0]
    if volume_dim is None:
        _, volume_dim = _local_scale_with_dim(coords, rng=np.random.default_rng(seed))
    neighbor_sets = knn_neighbor_sets(coords, min(DISPERSION_NEIGHBORS, n))

    def rank(row: GridRow):
        return (row.dispersion, row.r, row.eta, row.alpha)

    rows: dict[tuple[float, float, float], GridRow] = {}
    best: GridRow | None = None
    best_scores: Scores | None = None

    def evaluate(r: float, eta: float, alpha: float) -> None:
        nonlocal best, best_scores
        key = (r, eta, alpha)
        if key in rows:
            return
        params = Hyperparams(Radius(r), eta, PowerSeriesKernel(param=alpha))
        try:
            scores = score_columns(
                coords, params, nulls, subsample_fraction=subsample_fraction, seed=seed
            )
            labels = filter_labels(scores.p_value)
            rep = dispersion(coords, labels, neighbor_sets, n / 4.0)
            n_sing = int(labels.sum())
            row = GridRow(r, eta, alpha, rep.dispersion, n_sing, n_sing == 0)
        except (ValueError, RuntimeError) as exc:
            row = GridRow(r, eta, alpha, math.inf, 0, True, error=str(exc))
        rows[key] = row
        if row.error is None and (best is None or rank(row) < rank(best)):
            best, best_scores = row, scores

    radii = sorted(grid.radii)
    while True:
        for r in radii:
            for eta in grid.etas:
                for alpha in grid.alphas:
                    evaluate(r, eta, alpha)
        if best is None:
            failures = "; ".join(
                f"(r={row.r:g}, eta={row.eta:g}, alpha={row.alpha:g}): {row.error}"
                for row in rows.values()
            )
            raise RuntimeError(f"all configurations degenerate: {failures}")
        if best.r < max(radii) or max(radii) >= grid.bounds[1]:
            break
        extra = _expand_radii(radii, grid.bounds, volume_dim)
        if not extra:
            break
        radii = sorted(set(radii) | set(extra))

    params = Hyperparams(Radius(best.r), best.eta, PowerSeriesKernel(param=best.alpha))
    report = sorted(rows.values(), key=lambda row: (row.r, row.eta, row.alpha))
    return GridSearchResult(params, best, best_scores, report)
