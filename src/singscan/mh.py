"""Global manifold-hypothesis tests on the vector of singularity p-values.

If the underlying space is a manifold the per-point p-values should be close
to uniform on (0, 1]; singularities concentrate them near 0.  Three statistics
quantify this: SUPC (small-p-value concentration), UPUP (the uniformity test
itself applied to the p-values mapped onto the 1-disk), and the one-sample
Kolmogorov-Smirnov statistic against the uniform distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import PowerSeriesKernel, mmd_sq_vs_uniform_disk
from .nulls import NullCache, p_value

SUPC_THRESHOLDS = (0.005, 0.01, 0.02, 0.05)
UPUP_MIN_VALUES = 50
_KS_SERIES_TERMS = 100


@dataclass(frozen=True)
class MhReport:
    """Summary of the three manifold-hypothesis statistics over the non-missing
    p-values; the UPUP fields are None when fewer than 50 values are usable."""

    supc: float
    ks_stat: float
    ks_p: float
    n_used: int
    upup_stat: float | None = None
    upup_p: float | None = None


def supc(p_values, thresholds=SUPC_THRESHOLDS) -> float:
    """max over thresholds q of #{p_i <= q} / (n * q)."""
    p = np.asarray(p_values, dtype=float)
    if p.size == 0:
        raise ValueError("need at least one p-value")
    qs = np.asarray(thresholds, dtype=float)
    if qs.size == 0 or np.any(qs <= 0) or np.any(qs >= 1):
        raise ValueError("thresholds must lie in (0, 1)")
    counts = (p[:, None] <= qs[None, :]).sum(axis=0)
    return float(np.max(counts / (p.size * qs)))


def upup(p_values, kernel: PowerSeriesKernel, nulls: NullCache) -> tuple[float, float]:
    """Uniformity test of the p-values themselves: map (0, 1] onto the unit
    1-disk by t -> 2t - 1 and score against the d = 1 null."""
    p = np.asarray(p_values, dtype=float)
    if p.size < UPUP_MIN_VALUES:
        raise ValueError(f"need at least {UPUP_MIN_VALUES} p-values")
    # Many p-values repeat (a null table has finitely many levels), so the
    # Gram runs over the distinct values, each weighted by its count.
    values, counts = np.unique(2.0 * p - 1.0, return_counts=True)
    mmd = mmd_sq_vs_uniform_disk(values.reshape(-1, 1), kernel, counts)
    table = nulls.get(1, kernel)
    return p.size * mmd, p_value(table, p.size, mmd)


def _kolmogorov_sf(t: float) -> float:
    """Asymptotic Kolmogorov survival function 2 * sum (-1)^(j-1) exp(-2 j^2 t^2)."""
    if t <= 1e-8:
        return 1.0
    j = np.arange(1, _KS_SERIES_TERMS + 1)
    total = 2.0 * float(np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * j * j * t * t)))
    return min(1.0, max(total, 1e-300))


def ks_uniform(p_values) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic against uniform on [0, 1] and
    its asymptotic p-value."""
    u = np.sort(np.asarray(p_values, dtype=float))
    n = u.size
    if n == 0:
        raise ValueError("need at least one p-value")
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - u))
    d_minus = float(np.max(u - (grid - 1.0 / n)))
    d_n = max(d_plus, d_minus)
    return d_n, _kolmogorov_sf(np.sqrt(n) * d_n)


def mh_report(
    p_values,
    kernel: PowerSeriesKernel | None = None,
    nulls: NullCache | None = None,
) -> MhReport:
    """Run all three tests, SUPC at SUPC_THRESHOLDS, on the non-missing
    entries of ``p_values``."""
    p = np.asarray(p_values, dtype=float)
    p = p[np.isfinite(p)]
    if p.size == 0:
        raise ValueError("no usable p-values")
    supc_val = supc(p)
    ks_stat, ks_p = ks_uniform(p)
    upup_stat = upup_p = None
    if p.size >= UPUP_MIN_VALUES and kernel is not None and nulls is not None:
        upup_stat, upup_p = upup(p, kernel, nulls)
    return MhReport(supc_val, ks_stat, ks_p, int(p.size), upup_stat, upup_p)
