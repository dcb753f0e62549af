import math

import numpy as np
import pytest

from singscan import (
    PowerSeriesKernel,
    ks_uniform,
    mh_report,
    mmd_sq_vs_uniform_disk,
    supc,
    upup,
)

KERN = PowerSeriesKernel("geometric", 0.5)


def test_supc_trivial_cases():
    assert supc(np.ones(100)) == 0.0
    # Every value is below 0.005, the smallest threshold: 100 / (100 * 0.005).
    assert supc(np.full(100, 0.001)) == pytest.approx(200.0)


def test_supc_uniform_grid_near_one():
    n = 10_000
    grid = (np.arange(1, n + 1) - 0.5) / n
    assert supc(grid) == pytest.approx(1.0, abs=0.15)


def test_supc_monotone_and_permutation_invariant():
    rng = np.random.default_rng(0)
    p = rng.random(200)
    base = supc(p)
    assert supc(rng.permutation(p)) == base
    smaller = p.copy()
    smaller[p.argmax()] = 1e-6
    assert supc(smaller) >= base


def test_supc_validation():
    with pytest.raises(ValueError):
        supc([])


def test_upup_calibrated_on_uniform_values(null_cache):
    rng = np.random.default_rng(1)
    ps = []
    for _ in range(100):
        values = rng.random(1000)
        _, p = upup(values, KERN, null_cache)
        ps.append(p)
    assert np.mean(ps) == pytest.approx(0.5, abs=0.1)


def test_upup_detects_a_spike(null_cache):
    rng = np.random.default_rng(2)
    hits = 0
    for _ in range(40):
        values = rng.random(1000)
        values[:300] = 1e-6
        _, p = upup(values, KERN, null_cache)
        if p < 0.01:
            hits += 1
    assert hits >= 38


def test_upup_point_mass_statistic_closed_form(null_cache):
    # All values 1/2 map to the origin of the 1-disk; the statistic reduces
    # to n times the single-atom MMD, sum_k alpha^(2k) / (2k+1)^2.
    n = 200
    stat, _ = upup(np.full(n, 0.5), KERN, null_cache)
    atom = sum(0.25**k / (2 * k + 1) ** 2 for k in range(1, 64))
    assert stat == pytest.approx(n * atom, rel=1e-9)


def test_upup_needs_fifty_values(null_cache):
    with pytest.raises(ValueError):
        upup(np.full(49, 0.5), KERN, null_cache)


def test_ks_grid_identity():
    for n in (10, 100, 1000):
        grid = (np.arange(1, n + 1) - 0.5) / n
        d_n, _ = ks_uniform(grid)
        assert d_n == pytest.approx(1.0 / (2 * n), abs=1e-12)


def test_ks_point_mass_at_zero():
    d_n, p = ks_uniform(np.zeros(50))
    assert d_n == pytest.approx(1.0)
    assert p < 1e-10


def test_ks_midpoint_grid_is_certainly_uniform():
    # sqrt(n) D_n = 1 / (2 sqrt(n)) is at most 0.16, where the Kolmogorov
    # survival function is 1.0 in double precision.
    for n in (10, 100, 1000):
        grid = (np.arange(1, n + 1) - 0.5) / n
        assert ks_uniform(grid)[1] == 1.0


def test_ks_calibrated_on_uniform_draws():
    rng = np.random.default_rng(3)
    ps = np.array([ks_uniform(rng.random(500))[1] for _ in range(200)])
    assert ps.mean() == pytest.approx(0.5, abs=0.12)
    assert (ps < 0.05).mean() <= 0.12


def test_mh_report_gates_upup(null_cache):
    rng = np.random.default_rng(4)
    small = mh_report(rng.random(30), KERN, null_cache)
    assert small.upup_stat is None and small.upup_p is None
    assert small.n_used == 30
    assert small.supc >= 0.0 and 0.0 < small.ks_p <= 1.0

    values = rng.random(200)
    values[::5] = np.nan
    full = mh_report(values, KERN, null_cache)
    assert full.n_used == 160
    assert full.upup_stat is not None
    assert 0.0 < full.upup_p <= 1.0


def test_upup_statistic_is_n_times_the_mmd_of_the_mapped_values(null_cache):
    # p-values on a null table's levels repeat; a tail of tiny ones is distinct.
    rng = np.random.default_rng(6)
    p = np.concatenate([rng.integers(1, 1002, 4000) / 1001, 1e-6 * rng.random(1000)])
    stat, _ = upup(p, KERN, null_cache)
    assert stat == p.size * mmd_sq_vs_uniform_disk((2.0 * p - 1.0).reshape(-1, 1), KERN)
