"""Filtering p-values into binary labels and judging labelings by dispersion.

Filtering: take log(1/p), estimate its density with a Gaussian KDE, and cut at
the knee of the decreasing flank past the density mode; everything beyond the
knee is labeled singular.  The dispersion score then judges a labeling by how
pure and how cleanly separated the singular points are inside their local
neighborhoods; lower is better and hyperparameters are ranked by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import rankdata

CONCAVE_INC = "concave_inc"
CONVEX_DEC = "convex_dec"

KDE_GRID_SIZE = 512
KNEE_SENSITIVITY = 1.0
DISPERSION_NEIGHBORS = 20

_KDE_CHUNK = 4096


@dataclass(frozen=True)
class DampingFunction:
    """Clamped power ramp F(t) = (max(0, (t - a) / (1 - a)))^b on [0, 1].

    Nondecreasing with F(1) = 1 and F(t) <= t for b >= 1, so it suppresses
    small contributions without ever amplifying one.
    """

    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.a < 1.0:
            raise ValueError("a must be in [0, 1)")
        if self.b < 1.0:
            raise ValueError("b must be >= 1")

    def __call__(self, t):
        base = np.maximum(0.0, (np.asarray(t, dtype=float) - self.a) / (1.0 - self.a))
        out = base**self.b
        return float(out) if np.ndim(t) == 0 else out


DAMP_GLOBAL = DampingFunction(0.0, 2.0)
DAMP_LOCAL = DampingFunction(0.5, 5.0)


@dataclass
class DispersionReport:
    """Labeling quality: global purity, per-singular-point scores, and the
    damped aggregate (lower is better)."""

    labels: np.ndarray
    global_purity: float
    singular_indices: np.ndarray
    purity_scores: np.ndarray
    separation_scores: np.ndarray
    q_scores: np.ndarray
    dispersion: float


def log_inv_p(p_values) -> np.ndarray:
    """log(1 / p) elementwise; NaN (missing) entries pass through."""
    p = np.asarray(p_values, dtype=float)
    out = np.full(p.shape, np.nan)
    ok = np.isfinite(p)
    if np.any(p[ok] <= 0.0) or np.any(p[ok] > 1.0):
        raise ValueError("p-values must lie in (0, 1]")
    out[ok] = -np.log(p[ok])
    return out


def kde_density(values) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian KDE with Silverman bandwidth 1.06 * std * n^(-1/5), evaluated
    on a uniform grid of KDE_GRID_SIZE points spanning [min, max] padded by
    one bandwidth."""
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if v.size < 2:
        raise ValueError("need at least two finite values")
    sd = float(v.std(ddof=1))
    if sd == 0.0:
        raise ValueError("degenerate values: zero variance")
    bw = 1.06 * sd * v.size ** (-0.2)
    grid = np.linspace(v.min() - bw, v.max() + bw, KDE_GRID_SIZE)
    density = np.zeros(KDE_GRID_SIZE)
    for start in range(0, v.size, _KDE_CHUNK):
        z = (grid[:, None] - v[None, start : start + _KDE_CHUNK]) / bw
        density += np.exp(-0.5 * z * z).sum(axis=1)
    density /= v.size * bw * np.sqrt(2.0 * np.pi)
    return grid, density


def knee_detect(xs, ys, sensitivity: float = KNEE_SENSITIVITY, shape: str = CONCAVE_INC):
    """Kneedle-style knee of a curve: normalize both axes to [0, 1], form the
    difference against the diagonal (orientation per ``shape``), and return
    the x of the maximal difference if it clears the sensitivity-scaled
    threshold; None otherwise."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 5:
        raise ValueError("need at least five (x, y) points")
    x_span = x[-1] - x[0]
    y_span = y.max() - y.min()
    if x_span <= 0 or y_span <= 0:
        return None
    xn = (x - x[0]) / x_span
    yn = (y - y.min()) / y_span
    if shape == CONCAVE_INC:
        diff = yn - xn
    elif shape == CONVEX_DEC:
        diff = (1.0 - xn) - yn
    else:
        raise ValueError(f"unknown knee shape {shape!r}")
    j = int(np.argmax(diff))
    threshold = sensitivity * float(np.mean(np.diff(xn)))
    if diff[j] > threshold:
        return float(x[j])
    return None


def filter_labels(p_values) -> np.ndarray:
    """Binary labels from p-values: 1 exactly for points whose log(1/p) lies
    beyond the knee of the score-density's decreasing flank.

    Missing (NaN) p-values are excluded from the density and labeled 0.  If
    the scores are all equal or no knee is found, everything is labeled 0.
    """
    p = np.asarray(p_values, dtype=float)
    scores = log_inv_p(p)
    scored = np.isfinite(scores)
    if scored.sum() < 10:
        raise ValueError("need at least 10 scored points to filter")
    labels = np.zeros(p.shape[0], dtype=int)
    v = scores[scored]
    if v.max() == v.min():
        return labels
    grid, density = kde_density(v)
    mode = int(np.argmax(density))
    if grid.size - mode < 5:
        return labels
    knee = knee_detect(grid[mode:], density[mode:], shape=CONVEX_DEC)
    if knee is None:
        return labels
    labels[scored] = scores[scored] > knee
    return labels


def knn_neighbor_sets(points, k: int = DISPERSION_NEIGHBORS) -> np.ndarray:
    """(n, k) array of k-nearest-neighbor indices, self included in column 0."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    k = min(k, n)
    if k < 1:
        raise ValueError("k must be >= 1")
    _, idx = cKDTree(pts).query(pts, k=k)
    idx = np.atleast_2d(idx)
    if idx.shape[0] != n:
        idx = idx.T
    idx[:, 0] = np.arange(n)
    return idx


def purity(labels, neighbor_sets) -> np.ndarray:
    """Fraction of each point's neighbor set carrying label 1."""
    y = np.asarray(labels)
    nbrs = np.asarray(neighbor_sets)
    has_self = (nbrs == np.arange(len(y))[:, None]).any(axis=1)
    if not has_self.all():
        raise ValueError("each neighbor set must contain its own point")
    return y[nbrs].mean(axis=1)


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score_1 > score_0) + 0.5 * P(tie) over class pairs."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    n1 = int(np.sum(y == 1))
    n0 = int(np.sum(y == 0))
    if n1 == 0 or n0 == 0:
        raise ValueError("AUC undefined: both classes must be present")
    ranks = rankdata(s)
    return float((ranks[y == 1].sum() - n1 * (n1 + 1) / 2.0) / (n0 * n1))


def separation(points, labels, neighbor_sets) -> np.ndarray:
    """Separation score for each label-1 point: the AUC of the projections of
    neighbor displacements onto the summed displacement toward other label-1
    neighbors.  Degenerate cases (zero direction, single-class neighborhood)
    score 0.5."""
    pts = np.asarray(points, dtype=float)
    y = np.asarray(labels)
    nbrs = np.asarray(neighbor_sets)
    ones = np.flatnonzero(y == 1)
    out = np.empty(ones.size)
    for pos, i in enumerate(ones):
        nb = nbrs[i]
        ny = y[nb]
        diffs = pts[nb] - pts[i]
        direction = diffs[ny == 1].sum(axis=0)
        norm = np.linalg.norm(direction)
        if norm == 0.0 or ny.min() == ny.max():
            out[pos] = 0.5
            continue
        t = diffs @ (direction / norm)
        out[pos] = roc_auc(t, ny)
    return out


def dispersion(points, labels, neighbor_sets, alpha_reg: float) -> DispersionReport:
    """Damped aggregate of global purity and per-singular-point quality.

    dispersion = alpha_reg * D1(P) + sum over label-1 points of D2(q_i) with
    D1 = DAMP_GLOBAL, D2 = DAMP_LOCAL and q_i = 1 - (s_i + p_i) / 2; an empty
    singular set scores exactly 0.
    """
    y = np.asarray(labels)
    n = y.shape[0]
    ones = np.flatnonzero(y == 1)
    global_purity = ones.size / n
    if ones.size == 0:
        empty = np.empty(0)
        return DispersionReport(
            y, global_purity, ones, empty, empty, empty,
            alpha_reg * DAMP_GLOBAL(global_purity),
        )
    p_all = purity(y, neighbor_sets)
    p_ones = p_all[ones]
    s_ones = separation(points, y, neighbor_sets)
    q = 1.0 - 0.5 * (s_ones + p_ones)
    total = alpha_reg * DAMP_GLOBAL(global_purity) + float(DAMP_LOCAL(q).sum())
    return DispersionReport(y, global_purity, ones, p_ones, s_ones, q, total)
