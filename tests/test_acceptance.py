"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from singscan import (
    Hyperparams,
    PowerSeriesKernel,
    Radius,
    ShapeSpec,
    beta_coeff,
    dispersion,
    expected_mmd_sq,
    filter_labels,
    generate,
    knn_neighbor_sets,
    ks_uniform,
    local_pca,
    mmd_sq_vs_uniform_disk,
    p_value,
    roc_auc,
    roc_curve,
    run_synthetic_suite,
    sample_uniform_ball,
    score_columns,
    singularity_scores,
    supc,
)
from singscan.nulls import DEFAULT_N_REF


def _report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_closed_form_mmd_vs_quadrature():
    rng = np.random.default_rng(20240601)
    n_draws = 1_000_000
    chunk = 20_000
    alphas = (0.3, 0.5, 0.7)
    worst = 0.0
    for d in (1, 2, 3):
        x = sample_uniform_ball(d, n_draws, rng)
        y = sample_uniform_ball(d, n_draws, rng)
        ip_uu = np.einsum("ij,ij->i", x, y)
        z = sample_uniform_ball(d, n_draws, rng)
        for s in range(5):
            pts = sample_uniform_ball(d, 50, rng)
            cross = {a: np.empty(n_draws) for a in alphas}
            for start in range(0, n_draws, chunk):
                ips = z[start : start + chunk] @ pts.T
                for a in alphas:
                    cross[a][start : start + chunk] = (1.0 / (1.0 - a * ips)).mean(axis=1)
            for a in alphas:
                kern = PowerSeriesKernel("geometric", a)
                closed = mmd_sq_vs_uniform_disk(pts, kern)
                bb = 1.0 / (1.0 - a * ip_uu)
                gram = kern.closed_form(np.clip(pts @ pts.T, -1, 1)).mean()
                mc = gram + bb.mean() - 2.0 * cross[a].mean()
                se = math.sqrt(bb.var() / n_draws + 4.0 * cross[a].var() / n_draws)
                worst = max(worst, abs(closed - mc) / se)
    _report(1, worst <= 3.0, f"closed form vs 1e6-draw quadrature, worst {worst:.2f} SE (<= 3)")


def test_criterion_02_beta_identities():
    worst = 0.0
    for d in range(1, 51):
        worst = max(worst, abs(beta_coeff(d, 0) - 1.0))
        worst = max(worst, abs(beta_coeff(d, 1) - 1.0 / (d + 2)))
    _report(2, worst <= 1e-12, f"beta(d,0)=1 and beta(d,1)=1/(d+2), worst drift {worst:.2e}")


def _beta_series_value(pts, kern):
    gram = kern.closed_form(np.clip(pts @ pts.T, -1, 1)).mean()
    return mmd_sq_vs_uniform_disk(pts, kern) - gram


def test_criterion_03_truncation_rates():
    rng = np.random.default_rng(7)
    ok = True
    detail = []
    for alpha, tol in ((0.9, 0.03), (0.5, 1e-6)):
        worst = 0.0
        for d in (1, 2, 3):
            pts = sample_uniform_ball(d, 100, rng)
            k10 = PowerSeriesKernel("geometric", alpha, order=10)
            k64 = PowerSeriesKernel("geometric", alpha, order=64)
            series = abs(_beta_series_value(pts, k10) - _beta_series_value(pts, k64))
            worst = max(worst, series / abs(_beta_series_value(pts, k64)))
            blob = 0.05 * pts + 0.6
            blob /= max(1.0, np.linalg.norm(blob, axis=1).max())
            v10, v64 = (mmd_sq_vs_uniform_disk(blob, k) for k in (k10, k64))
            worst = max(worst, abs(v10 - v64) / abs(v64))
        ok = ok and worst <= tol
        detail.append(f"alpha={alpha}: rel err {worst:.2e} (<= {tol:g})")
    _report(3, ok, "K=10 vs K=64 series truncation; " + "; ".join(detail))


def test_criterion_04_expected_value_law():
    kern = PowerSeriesKernel("geometric", 0.5)
    rng = np.random.default_rng(11)
    sims = np.array(
        [
            mmd_sq_vs_uniform_disk(sample_uniform_ball(2, 100, rng), kern)
            for _ in range(10_000)
        ]
    )
    se = sims.std(ddof=1) / math.sqrt(len(sims))
    gap = abs(sims.mean() - expected_mmd_sq(kern, 2, 100)) / se
    halving = abs(expected_mmd_sq(kern, 2, 100) - 2.0 * expected_mmd_sq(kern, 2, 200))
    ok = gap <= 3.0 and halving <= 1e-15
    _report(4, ok, f"sample mean within {gap:.2f} SE (<= 3); doubling-n halving drift {halving:.1e}")


def test_criterion_05_null_calibration(null_cache):
    kern = PowerSeriesKernel("geometric", 0.5)
    table = null_cache.get(2, kern)
    rng = np.random.default_rng(13)
    ps = np.array(
        [
            p_value(
                table,
                DEFAULT_N_REF,
                mmd_sq_vs_uniform_disk(sample_uniform_ball(2, DEFAULT_N_REF, rng), kern),
            )
            for _ in range(1000)
        ]
    )
    ks_p = sps.kstest(ps, "uniform").pvalue
    _report(5, ks_p >= 0.01, f"1000 fresh null draws vs own table: KS p={ks_p:.3f} (>= 0.01)")


def test_criterion_06_synthetic_detection_accuracy(null_cache):
    # (family, d, scale, threshold).  The radii are fixed, so ``scale`` sets the
    # neighborhood size.  two_disks runs at the protocol's own sample size
    # (scale 1.0, ~110-170 neighbors): at scale 0.2 it has ~22-34 neighbors and
    # its median AUC stays at 0.83-0.84 for every kernel, against 0.95 and 0.93
    # at 1.0.  The other cells meet their bars at 0.2 and stay desk-sized.
    cells = [
        ("two_spheres", 1, 0.2, 0.85),
        ("two_spheres", 2, 0.2, 0.85),
        ("two_disks", 1, 1.0, 0.85),
        ("two_disks", 2, 1.0, 0.85),
        ("solid_ball", 1, 0.2, 0.95),
    ]
    start = time.perf_counter()
    failures = []
    details = []
    for family, d, scale, threshold in cells:
        rows = [
            run_synthetic_suite(family, [d], scale=scale, seed=seed, nulls=null_cache)[0]
            for seed in range(5)
        ]
        med = float(np.median([row.auc for row in rows]))
        details.append(
            f"{family} d={d} scale={scale} n={rows[0].n}: median AUC {med:.3f} (>= {threshold})"
        )
        if med < threshold:
            failures.append(details[-1])
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600
    _report(6, ok, f"suite in {elapsed:.0f}s (< 600); " + "; ".join(details))


def test_criterion_07_manifold_hypothesis_separation(null_cache):
    kern = PowerSeriesKernel("expdot", 2.0)
    params = Hyperparams(Radius(0.35), 0.8, kern)
    start = time.perf_counter()
    wins = 0
    for seed in range(10):
        scores = {}
        for shape in ("sphere", "two_spheres"):
            lab = generate(ShapeSpec(shape, 2000, dim=2, noise_amplitude=0.0, seed=seed))
            p = score_columns(lab.cloud, params, null_cache).p_value
            scores[shape] = supc(p[np.isfinite(p)])
        if scores["two_spheres"] > scores["sphere"]:
            wins += 1
    elapsed = time.perf_counter() - start
    ok = wins >= 9 and elapsed < 300
    _report(7, ok, f"SUPC(two-spheres) > SUPC(sphere) in {wins}/10 paired seeds ({elapsed:.0f}s)")


def test_criterion_08_dimension_estimation_sanity():
    rng = np.random.default_rng(17)
    correct = 0
    trials = 0
    for trial in range(20):
        for d in (1, 2, 3):
            flat = sample_uniform_ball(d, 2000, rng)
            pts = np.hstack([flat, np.zeros((2000, 5 - d))])
            trials += 1
            if local_pca(pts, 0.8).d_hat == d:
                correct += 1
    _report(8, correct == trials, f"flat-sample d_hat exact in {correct}/{trials} trials")


def test_criterion_09_complexity_trend(null_cache):
    rng = np.random.default_rng(19)
    base = sample_uniform_ball(2, 2000, rng)
    r = 0.25  # about 100 neighbors per point on the 2-disk
    kern = PowerSeriesKernel("geometric", 0.5)
    params = Hyperparams(Radius(r), 0.8, kern)

    clouds = {dim: np.hstack([base, np.zeros((2000, dim - 2))]) for dim in (50, 200)}
    for cloud in clouds.values():
        singularity_scores(cloud, params, null_cache)  # warm tables and caches
    # Alternating rounds, min of 3 each: a burst of load on a shared machine
    # then slows a round of both dimensions, not every round of one.
    best = dict.fromkeys(clouds, math.inf)
    for _ in range(3):
        for dim, cloud in clouds.items():
            t0 = time.perf_counter()
            singularity_scores(cloud, params, null_cache)
            best[dim] = min(best[dim], time.perf_counter() - t0)
    ratio = best[200] / best[50]
    _report(9, 2.0 <= ratio <= 6.0, f"4x ambient dim -> wall-time ratio {ratio:.2f} (in [2, 6])")


def test_criterion_10_property_bundle(null_cache):
    checks = []
    kern = PowerSeriesKernel("geometric", 0.5)
    rng = np.random.default_rng(23)

    # rigid-motion invariance of scores
    disk = sample_uniform_ball(2, 600, rng)
    cloud = np.column_stack([disk, np.zeros(600)])
    params = Hyperparams(Radius(0.35), 0.8, kern)
    before = singularity_scores(cloud, params, null_cache)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    after = singularity_scores(cloud @ q.T + 1.25, params, null_cache)
    drift = max(
        abs(a.mmd - b.mmd)
        for a, b in zip(before, after)
        if a.mmd is not None and b.mmd is not None
    )
    checks.append(("rigid-motion drift <= 1e-6", drift <= 1e-6))

    # projection contraction
    pts = sample_uniform_ball(4, 200, rng)
    pca = local_pca(pts, 0.75)
    proj = pts @ pca.basis[:, : pca.d_hat]
    checks.append(
        (
            "projection contracts norms",
            bool(np.all(np.linalg.norm(proj, axis=1) <= np.linalg.norm(pts, axis=1) + 1e-12)),
        )
    )

    # AUC dual-formula identity on tie-heavy data
    scores = rng.integers(0, 5, 400).astype(float)
    labels = rng.integers(0, 2, 400)
    checks.append(
        (
            "trapezoid AUC == Mann-Whitney AUC",
            abs(roc_curve(scores, labels).auc - roc_auc(scores, labels)) <= 1e-9,
        )
    )

    # KS grid identity
    n = 250
    grid = (np.arange(1, n + 1) - 0.5) / n
    checks.append(("KS grid D_n = 1/(2n)", abs(ks_uniform(grid)[0] - 1 / (2 * n)) <= 1e-12))

    # filter/dispersion trivial cases
    pts2 = rng.uniform(0, 1, size=(60, 2))
    nbrs = knn_neighbor_sets(pts2, 10)
    d_zero = dispersion(pts2, np.zeros(60, int), nbrs, alpha_reg=15.0).dispersion
    d_one = dispersion(pts2, np.ones(60, int), nbrs, alpha_reg=15.0).dispersion
    checks.append(("all-zero labels give zero dispersion", d_zero == 0.0))
    checks.append(("all-one labels give alpha_reg", abs(d_one - 15.0) <= 1e-12))

    # determinism of every seeded path
    lab = generate(ShapeSpec("two_circles", 400, seed=31))
    lab2 = generate(ShapeSpec("two_circles", 400, seed=31))
    det_synth = np.array_equal(lab.cloud, lab2.cloud)
    s1 = singularity_scores(lab.cloud, params, null_cache, subsample_fraction=0.5, seed=3)
    s2 = singularity_scores(lab.cloud, params, null_cache, subsample_fraction=0.5, seed=3)
    f1 = filter_labels(np.clip(rng.random(100), 1e-9, 1.0))
    checks.append(("seeded paths deterministic", det_synth and s1 == s2 and f1 is not None))

    failed = [name for name, ok in checks if not ok]
    _report(10, not failed, "; ".join(f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in checks))
