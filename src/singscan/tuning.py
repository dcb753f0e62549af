"""Automatic hyperparameter selection by dispersion-score minimization.

The radius range is found by growing neighborhoods around probe points until
the Levina-Bickel intrinsic-dimension estimate stabilizes (knee of the
reversed dimension-vs-scale curve), then a grid over (radius, eta, alpha) is
searched for the smallest dispersion, expanding the radius axis linearly in
the estimated local volume whenever the winner sits on the boundary.  The
neighborhoods, their PCA and the MMD of each (kernel, point, d_hat) are
computed once per radius and shared by all of its (eta, alpha)
configurations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import NeighborIndex, Radius, as_point_cloud
from .kernels import PowerSeriesKernel
from .nulls import NullCache
from .scoring import (
    DISPERSION_NEIGHBORS,
    dispersion,
    filter_labels,
    knee_detect,
    knn_neighbor_sets,
)
from .uniformity import Scores, score_configurations

DEFAULT_ETAS = (0.7, 0.8, 0.9)
DEFAULT_ALPHAS = (0.3, 0.5, 0.7)
DEFAULT_N_RADII = 4
LOCAL_SCALE_PROBES = 50
MIN_LOCAL_SCALE_POINTS = 50
_LADDER_BASE = 10
_LADDER_MAX = 1000


@dataclass(frozen=True)
class SearchGrid:
    """Axes of the hyperparameter search plus hard outer radius bounds.

    The axes are sets: each is stored ascending and without repeats, so the
    grid holds each configuration once, in (r, eta, alpha) order."""

    radii: tuple[float, ...]
    etas: tuple[float, ...] = DEFAULT_ETAS
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    bounds: tuple[float, float] = (0.0, math.inf)

    def __post_init__(self):
        for axis in ("radii", "etas", "alphas"):
            object.__setattr__(self, axis, tuple(sorted(set(getattr(self, axis)))))
        if not self.radii or not self.etas or not self.alphas:
            raise ValueError("grid axes must be nonempty")
        if not all(r > 0 for r in self.radii):
            raise ValueError("radii must be positive")
        # Every (eta, alpha) must make valid Hyperparams with a geometric kernel.
        if not all(0.0 < v < 1.0 for v in (*self.etas, *self.alphas)):
            raise ValueError("etas and alphas must lie in (0, 1)")
        lo, hi = self.bounds
        if not all(lo <= r <= hi for r in self.radii):
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
    """The dispersion minimizer's row, scores and labels, and every row."""

    best_row: GridRow
    scores: Scores
    labels: np.ndarray
    report: list[GridRow] = field(default_factory=list)


def _lb_from_distances(dists: np.ndarray) -> float:
    """Levina-Bickel maximum-likelihood intrinsic dimension at a point from
    its k ascending nearest-neighbor distances (unbiased k-2 normalization).

    Zero distances from duplicate points are skipped; if every distance is
    zero the estimate is undefined.
    """
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
    r_tilde, r_range, _ = _local_scale_with_dim(cloud, rng)
    return r_tilde, r_range


def _local_scale_with_dim(
    cloud, rng: np.random.Generator | None = None
) -> tuple[float, tuple[float, float], float]:
    """``local_scale`` and the averaged dimension estimate at its knee."""
    coords = as_point_cloud(cloud)
    n = coords.shape[0]
    if n < MIN_LOCAL_SCALE_POINTS:
        raise ValueError(f"need at least {MIN_LOCAL_SCALE_POINTS} points for a local scale")
    rng = rng if rng is not None else np.random.default_rng(0)
    probes = np.sort(rng.choice(n, size=min(LOCAL_SCALE_PROBES, n), replace=False))
    ladder = _scale_ladder(n)
    dists = NeighborIndex(coords).knn(probes, ladder[-1])[1]
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
        pos = knee_detect(np.arange(len(ladder), dtype=float), floor_curve)
        if pos is not None:
            knee_col = int(pos)
    if knee_col is None:
        knee_col = len(ladder) // 2
    r_tilde = float(kth_dist[:, knee_col].mean())
    return r_tilde, (1.5 * r_tilde, 5.0 * r_tilde), float(avg[knee_col])


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

    Configurations are visited, and reported, in ascending (r, eta, alpha)
    order: expanded radii lie past the grid's.  Ties go to the first
    visited.  A winning labeling with no singular points is legal but
    flagged ``warn_degenerate``.  The
    dispersion uses DISPERSION_NEIGHBORS neighbor sets and regularization
    n / 4.  The configurations of one radius are scored together by
    ``score_configurations``, which gathers the neighborhoods and takes
    their PCA once for all of them.  Only the running best configuration's
    scores and labels are kept.
    """
    coords = as_point_cloud(cloud)
    n = coords.shape[0]
    kernels = tuple(PowerSeriesKernel(param=alpha) for alpha in grid.alphas)
    if volume_dim is None:
        _, _, volume_dim = _local_scale_with_dim(coords, rng=np.random.default_rng(seed))
    neighbor_sets = knn_neighbor_sets(coords, min(DISPERSION_NEIGHBORS, n))
    configs = list(itertools.product(enumerate(grid.etas), enumerate(grid.alphas)))

    rows: list[GridRow] = []
    best = None  # (row, scores, labels) of the least dispersion so far
    radii, new = [], list(grid.radii)
    while new:
        for r in new:
            try:
                scores_of = score_configurations(
                    coords, Radius(r), grid.etas, kernels, nulls,
                    subsample_fraction=subsample_fraction, seed=seed,
                )
                failure = None
            except (ValueError, RuntimeError) as exc:
                # The neighborhoods or the PCA of this radius failed, which
                # fails every configuration of it alike.
                failure = exc
            for (e, eta), (j, alpha) in configs:
                try:
                    if failure is not None:
                        raise failure
                    scores = scores_of(e, j)
                    labels = filter_labels(scores.p_value)
                    score = dispersion(coords, labels, neighbor_sets, n / 4.0)
                except (ValueError, RuntimeError) as exc:
                    rows.append(GridRow(r, eta, alpha, math.inf, 0, True, error=str(exc)))
                    continue
                n_sing = int(labels.sum())
                rows.append(GridRow(r, eta, alpha, score, n_sing, n_sing == 0))
                if best is None or score < best[0].dispersion:
                    best = rows[-1], scores, labels
        radii += new
        if best is None:
            failures = "; ".join(
                f"(r={row.r:g}, eta={row.eta:g}, alpha={row.alpha:g}): {row.error}"
                for row in rows
            )
            raise RuntimeError(f"all configurations degenerate: {failures}")
        if best[0].r < radii[-1] or radii[-1] >= grid.bounds[1]:
            break
        new = _expand_radii(radii, grid.bounds, volume_dim)

    return GridSearchResult(*best, rows)

