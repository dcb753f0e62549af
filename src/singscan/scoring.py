"""Filtering p-values into binary labels and judging labelings by dispersion.

Filtering: take log(1/p), estimate its density with a Gaussian KDE, and cut at
the knee of the decreasing flank past the density mode; everything beyond the
knee is labeled singular.  The KDE sums one Gaussian per distinct value,
weighted by how often that value occurs: p-values repeat (table levels, and
points that inherit a subsample's scores), so there are far fewer distinct
values than points.  The dispersion score then judges a labeling by how
pure and how cleanly separated the singular points are inside their local
neighborhoods; lower is better and hyperparameters are ranked by it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import BLOCK_BYTES, CACHE_BYTES, NeighborIndex, as_point_cloud

KDE_GRID_SIZE = 512
KNEE_SENSITIVITY = 1.0
DISPERSION_NEIGHBORS = 20


def _ramp(t, a: float, b: float):
    """Clamped power ramp F(t) = (max(0, (t - a) / (1 - a)))^b on [0, 1].

    Nondecreasing with F(1) = 1 and F(t) <= t for b >= 1, so it suppresses
    small contributions without ever amplifying one.
    """
    out = np.maximum(0.0, (np.asarray(t, dtype=float) - a) / (1.0 - a)) ** b
    return float(out) if np.ndim(t) == 0 else out


DAMP_GLOBAL = functools.partial(_ramp, a=0.0, b=2.0)
DAMP_LOCAL = functools.partial(_ramp, a=0.5, b=5.0)


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
    one bandwidth.

    The bandwidth and grid come from all n finite values; the sum runs over
    the distinct values, each Gaussian weighted by its count, in blocks of
    about CACHE_BYTES.
    """
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if v.size < 2:
        raise ValueError("need at least two finite values")
    sd = float(v.std(ddof=1))
    if sd == 0.0:
        raise ValueError("degenerate values: zero variance")
    bw = 1.06 * sd * v.size ** (-0.2)
    grid = np.linspace(v.min() - bw, v.max() + bw, KDE_GRID_SIZE)
    points, counts = np.unique(v, return_counts=True)
    counts = counts.astype(float)
    density = np.zeros(KDE_GRID_SIZE)
    per_block = max(1, CACHE_BYTES // (8 * KDE_GRID_SIZE))
    # A row per value, so that every block is a prefix of one buffer.
    buffer = np.empty((min(per_block, points.size), KDE_GRID_SIZE))
    for start in range(0, points.size, per_block):
        chunk = points[start : start + per_block]
        block = np.subtract(chunk[:, None], grid, out=buffer[: chunk.size])
        block /= bw
        block *= block
        block *= -0.5
        np.exp(block, out=block)
        density += counts[start : start + per_block] @ block
    density /= v.size * bw * np.sqrt(2.0 * np.pi)
    return grid, density


def knee_detect(xs, ys):
    """Kneedle-style knee of a convex decreasing curve: normalize both axes
    to [0, 1], form the difference (1 - x) - y against the falling diagonal,
    and return the x of the maximal difference if it clears
    KNEE_SENSITIVITY times the mean x step; None otherwise."""
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
    diff = (1.0 - xn) - yn
    j = int(np.argmax(diff))
    if diff[j] > KNEE_SENSITIVITY * float(np.mean(np.diff(xn))):
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
    knee = knee_detect(grid[mode:], density[mode:])
    if knee is None:
        return labels
    labels[scored] = scores[scored] > knee
    return labels


def knn_neighbor_sets(points, k: int = DISPERSION_NEIGHBORS) -> np.ndarray:
    """(n, k) array of k-nearest-neighbor indices: each point itself in
    column 0, then its k - 1 nearest others from ``NeighborIndex``."""
    pts = as_point_cloud(points)
    n = pts.shape[0]
    k = min(k, n)
    if k < 1:
        raise ValueError("k must be >= 1")
    idx = np.empty((n, k), dtype=np.intp)
    idx[:, 0] = np.arange(n)
    if k > 1:
        index = NeighborIndex(pts)
        for chunk in index.knn_chunks(np.arange(n), k - 1):
            idx[chunk, 1:] = index.knn_chunk_members(chunk, k - 1)[0]
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
    """Mann-Whitney AUC: P(score_1 > score_0) + 0.5 * P(tie) over class pairs;
    NaN if a score is NaN.

    A run of tied scores at sorted positions [a, b) shares the average rank
    (a + 1 + b) / 2, a whole or half number, so the rank sum is exact."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    n1 = int(np.sum(y == 1))
    n0 = int(np.sum(y == 0))
    if n1 == 0 or n0 == 0:
        raise ValueError("AUC undefined: both classes must be present")
    if np.isnan(s).any():
        return math.nan
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return float((ranks[y == 1].sum() - n1 * (n1 + 1) / 2.0) / (n0 * n1))


def separation(points, labels, neighbor_sets) -> np.ndarray:
    """Separation score for each label-1 point: the AUC of the projections of
    neighbor displacements onto the summed displacement toward other label-1
    neighbors.  Degenerate cases (zero direction, single-class neighborhood)
    score 0.5.

    All label-1 points at once, in blocks of about BLOCK_BYTES: one batched
    matmul projects every neighborhood, and the average rank of each
    projection within its neighborhood, #less + (#equal + 1) / 2, comes from
    a (points, k, k) comparison; the AUC is then ``roc_auc``'s Mann-Whitney
    rank sum.
    """
    pts = np.asarray(points, dtype=float)
    y = np.asarray(labels)
    nbrs = np.asarray(neighbor_sets)
    ones = np.flatnonzero(y == 1)
    out = np.full(ones.size, 0.5)
    k = nbrs.shape[1]
    per_block = max(1, BLOCK_BYTES // (k * (2 * k + 16 * pts.shape[1])))
    for a in range(0, ones.size, per_block):
        centers = ones[a : a + per_block]
        nb = nbrs[centers]
        pos = y[nb] == 1
        diffs = pts[nb] - pts[centers, None]
        # Zeros in place of the label-0 rows leave the sum of the label-1 rows
        # exact, and vecdot is the dot product np.linalg.norm takes of one row.
        direction = (diffs * pos[..., None]).sum(axis=1)
        norm = np.sqrt(np.vecdot(direction, direction))
        n1 = pos.sum(axis=1)
        ok = (norm != 0.0) & (n1 < k)
        if not ok.any():
            continue
        pos, n1 = pos[ok], n1[ok]
        t = (diffs[ok] @ (direction[ok] / norm[ok, None])[..., None])[..., 0]
        less = (t[:, None, :] < t[:, :, None]).sum(axis=2)
        equal = (t[:, None, :] == t[:, :, None]).sum(axis=2)
        rank_sum = np.where(pos, less + (equal + 1) / 2.0, 0.0).sum(axis=1)
        out[a + np.flatnonzero(ok)] = (rank_sum - n1 * (n1 + 1) / 2.0) / ((k - n1) * n1)
    return out


def dispersion(points, labels, neighbor_sets, alpha_reg: float) -> float:
    """Damped aggregate of global purity and per-singular-point quality
    (lower is better).

    dispersion = alpha_reg * D1(P) + sum over label-1 points of D2(q_i) with
    D1 = DAMP_GLOBAL, D2 = DAMP_LOCAL, P the share of label-1 points and
    q_i = 1 - (s_i + p_i) / 2 from ``separation`` and ``purity``; an empty
    singular set scores exactly 0.
    """
    y = np.asarray(labels)
    ones = np.flatnonzero(y == 1)
    damped_global = alpha_reg * DAMP_GLOBAL(ones.size / y.shape[0])
    if ones.size == 0:
        return damped_global
    q = 1.0 - 0.5 * (separation(points, y, neighbor_sets) + purity(y, neighbor_sets)[ones])
    return damped_global + float(DAMP_LOCAL(q).sum())
