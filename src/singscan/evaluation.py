"""ROC/AUC evaluation of singularity scores against synthetic ground truth.

The quantitative protocol: for each intrinsic dimension d, sample the family
with the dimension-compensated radius r_d = r0^(1/d) and sample size
N0 * growth^d, score every point at fixed eta, label ground truth at r_d / 2,
and report the AUC of log(1/p) against those labels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .kernels import PowerSeriesKernel
from .nulls import NullCache
from .scoring import log_inv_p
from .synth import (
    SOLID_BALL,
    TWO_DISKS,
    TWO_SPHERES,
    ShapeSpec,
    generate,
    ground_truth_labels,
    scaled_experiment_params,
)
from .uniformity import Hyperparams, Radius, score_columns

# Family -> base radius r0; all families share N0 = 15000 and growth 1.5.
FAMILY_R0 = {SOLID_BALL: 0.02, TWO_DISKS: 0.1, TWO_SPHERES: 0.03}
FAMILY_N0 = 15000
FAMILY_GROWTH = 1.5
SUITE_ETA = 0.95

# Desk-scale neighborhoods are small (k ~ 20-35 at scale 0.2), so the suite
# defaults to the kernel with the best worst-cell detection accuracy across
# the three families; exp(2 <x, y>) measured strongest.
SUITE_KERNEL = PowerSeriesKernel("expdot", 2.0)


@dataclass
class RocCurve:
    """Threshold sweep of (fpr, tpr) from (0, 0) to (1, 1) with its AUC."""

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float
    n_excluded: int = 0


@dataclass
class SuiteRow:
    family: str
    d: int
    n: int
    r: float
    auc: float
    seconds: float


def roc_curve(scores, labels) -> RocCurve:
    """Standard ROC sweep with tie grouping; NaN scores are excluded and
    counted.  The trapezoid AUC of the curve equals the Mann-Whitney AUC."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    keep = np.isfinite(s)
    n_excluded = int((~keep).sum())
    s, y = s[keep], y[keep]
    n1 = int(np.sum(y == 1))
    n0 = int(np.sum(y == 0))
    if n1 == 0 or n0 == 0:
        raise ValueError("ROC undefined: both classes must be present")

    order = np.argsort(-s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    # Group tied scores so the curve moves diagonally through ties.
    boundary = np.flatnonzero(np.diff(s_sorted) != 0)
    last = np.append(boundary, len(s_sorted) - 1)
    tp = np.cumsum(y_sorted == 1)[last]
    fp = np.cumsum(y_sorted == 0)[last]
    tpr = np.concatenate(([0.0], tp / n1))
    fpr = np.concatenate(([0.0], fp / n0))
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocCurve(fpr, tpr, auc, n_excluded)


def run_synthetic_suite(
    family: str,
    d_list,
    scale: float = 0.2,
    seed: int = 0,
    nulls: NullCache | None = None,
) -> list[SuiteRow]:
    """Detection accuracy per dimension for one synthetic family, scored
    under SUITE_KERNEL at eta = SUITE_ETA.

    ``scale`` multiplies the sample sizes so the protocol stays desk-sized;
    the radii are untouched, so neighborhood sizes shrink in proportion.  For
    two_disks an interior neighborhood holds ~22 (d=1) to ~34 (d=2) points at
    scale 0.2 against ~110-170 at 1.0, and that sample size is what limits
    detection accuracy there.  Clouds are generated noiseless, matching the
    quantitative protocol.
    """
    if family not in FAMILY_R0:
        raise ValueError(f"unknown family {family!r}")
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    if nulls is None:
        nulls = NullCache(seed=seed)
    rows = []
    for d in d_list:
        r_d, n_full = scaled_experiment_params(d, FAMILY_R0[family], FAMILY_N0, FAMILY_GROWTH)
        n = max(1, int(round(n_full * scale)))
        labeled = generate(ShapeSpec(family, n, dim=d, noise_amplitude=0.0, seed=seed))
        params = Hyperparams(Radius(r_d), SUITE_ETA, SUITE_KERNEL)
        start = time.perf_counter()
        p = score_columns(labeled.cloud, params, nulls).p_value
        seconds = time.perf_counter() - start
        scores = log_inv_p(p)
        labels = ground_truth_labels(labeled, r_d / 2.0)
        rows.append(SuiteRow(family, d, n, r_d, roc_curve(scores, labels).auc, seconds))
    return rows
