import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import singscan
from singscan import (
    NullCache,
    PowerSeriesKernel,
    build_null,
    expected_mmd_sq,
    mmd_sq_vs_uniform_disk,
    p_value,
    sample_uniform_ball,
)
from singscan.nulls import _read_table

KERN = PowerSeriesKernel("geometric", 0.5)


def test_sampler_d1_is_uniform_on_segment():
    rng = np.random.default_rng(0)
    pts = sample_uniform_ball(1, 100_000, rng)
    stat = sps.kstest(pts[:, 0], sps.uniform(loc=-1, scale=2).cdf).statistic
    assert stat <= 0.01


def test_sampler_symmetry_and_radial_moment():
    rng = np.random.default_rng(1)
    pts3 = sample_uniform_ball(3, 100_000, rng)
    assert np.all(np.abs(pts3.mean(axis=0)) < 0.01)
    pts2 = sample_uniform_ball(2, 100_000, rng)
    assert np.mean(np.sum(pts2**2, axis=1)) == pytest.approx(0.5, abs=0.005)
    assert np.linalg.norm(pts3, axis=1).max() <= 1.0


def test_build_null_deterministic_and_nonnegative(null_cache):
    a = build_null(2, KERN, 100, 200, np.random.default_rng(5))
    b = build_null(2, KERN, 100, 200, np.random.default_rng(5))
    assert np.array_equal(a.stats, b.stats)
    assert np.all(a.stats >= 0.0)
    assert np.all(np.diff(a.stats) >= 0.0)


def test_null_mean_matches_expected_value(null_cache):
    table = null_cache.get(2, KERN)
    sims = table.stats / table.n_ref
    se = sims.std(ddof=1) / math.sqrt(len(sims))
    assert abs(sims.mean() - expected_mmd_sq(KERN, 2, table.n_ref)) < 3.0 * se


def test_p_value_branches(null_cache):
    table = null_cache.get(2, KERN)
    assert p_value(table, 1, 0.0) == pytest.approx(1.0)
    med = float(np.median(table.stats))
    assert p_value(table, 1, med) == pytest.approx(0.5, abs=1.5 / table.n_sims)
    # continuity at the tail anchor
    eps = 1e-9
    below = p_value(table, 1, table.tail_anchor - eps)
    above = p_value(table, 1, table.tail_anchor + eps)
    assert below == pytest.approx(table.tail_mass, abs=2.0 / table.n_sims)
    assert above == pytest.approx(table.tail_mass, rel=1e-6)
    # deep tail floors instead of hitting zero
    assert p_value(table, 10**6, 1.0) == 1e-300


def test_p_value_nonincreasing(null_cache):
    table = null_cache.get(2, KERN)
    ss = np.linspace(0.0, 3.0 * table.tail_anchor, 400)
    ps = [p_value(table, 1, s) for s in ss]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_fresh_draws_calibrate_uniform(null_cache):
    table = null_cache.get(2, KERN)
    rng = np.random.default_rng(99)
    ps = np.array(
        [
            p_value(
                table,
                table.n_ref,
                mmd_sq_vs_uniform_disk(sample_uniform_ball(2, table.n_ref, rng), KERN),
            )
            for _ in range(300)
        ]
    )
    assert sps.kstest(ps, "uniform").statistic <= 0.08


def test_scaling_consistency_across_n_ref():
    # Distributions of n * MMD^2 at n = 250 and n = 1000 nearly agree,
    # which is what justifies scoring any neighborhood size against one table.
    small = build_null(2, KERN, 250, 1000, np.random.default_rng(21))
    large = build_null(2, KERN, 1000, 1000, np.random.default_rng(22))
    ks = sps.ks_2samp(small.stats, large.stats).statistic
    assert ks <= 0.1


def test_degenerate_null_rejected():
    with pytest.raises(ValueError, match="n_ref"):
        build_null(1, KERN, 10, 200, np.random.default_rng(0))
    with pytest.raises(ValueError, match="n_sims"):
        build_null(1, KERN, 100, 50, np.random.default_rng(0))


def test_cache_cold_then_warm(tmp_path):
    cache = NullCache(tmp_path, seed=0, n_ref=60, n_sims=200)
    t1 = cache.get(2, KERN)
    assert t1.d == 2 and t1.n_sims == 200
    assert list(tmp_path.glob("null_*.bin")) == [tmp_path / "null_d2_geometric0.5_60_200.bin"]
    fresh = NullCache(tmp_path, seed=0, n_ref=60, n_sims=200)
    t2 = fresh.get(2, KERN)
    assert np.array_equal(t1.stats, t2.stats)
    assert t2.tail_rate == pytest.approx(t1.tail_rate)


def test_cache_key_separation(tmp_path):
    cache = NullCache(tmp_path, seed=0, n_ref=60, n_sims=200)
    cache.get(2, KERN)
    cache.get(3, KERN)
    names = sorted(f.name for f in tmp_path.glob("null_*.bin"))
    assert len(names) == 2
    assert any("_d2_" in n for n in names) and any("_d3_" in n for n in names)


def test_cache_recovers_from_truncation(tmp_path):
    cache = NullCache(tmp_path, seed=0, n_ref=60, n_sims=200)
    t1 = cache.get(2, KERN)
    path = next(tmp_path.glob("null_*.bin"))
    path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
    fresh = NullCache(tmp_path, seed=0, n_ref=60, n_sims=200)
    with pytest.warns(UserWarning, match="rebuilding"):
        t2 = fresh.get(2, KERN)
    assert np.array_equal(t1.stats, t2.stats)


def test_cache_rebuilds_on_seed_mismatch(tmp_path):
    NullCache(tmp_path, seed=0, n_ref=60, n_sims=200).get(2, KERN)
    other = NullCache(tmp_path, seed=1, n_ref=60, n_sims=200)
    with pytest.warns(UserWarning, match="rebuilding"):
        t_other = other.get(2, KERN)
    assert t_other.seed == 1
    direct = build_null(
        2,
        KERN,
        60,
        200,
        np.random.default_rng(
            np.random.SeedSequence(other._derived_seed_entropy(2, KERN))
        ),
        seed=1,
    )
    assert np.array_equal(t_other.stats, direct.stats)


def test_in_memory_cache_without_directory():
    cache = NullCache(None, seed=0, n_ref=60, n_sims=200)
    t1 = cache.get(2, KERN)
    t2 = cache.get(2, KERN)
    assert t1 is t2
    disk_twin = NullCache(None, seed=0, n_ref=60, n_sims=200).get(2, KERN)
    assert np.array_equal(t1.stats, disk_twin.stats)


def test_kernel_fingerprint_rounds_to_micro():
    a = PowerSeriesKernel("geometric", 0.5)
    b = PowerSeriesKernel("geometric", 0.5 + 4e-8)
    assert a.fingerprint() == b.fingerprint()
    cache = NullCache(None, seed=0, n_ref=60, n_sims=200)
    assert cache.get(1, a) is cache.get(1, b)


def test_cache_safe_under_concurrent_access(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    cache = NullCache(tmp_path, seed=0, n_ref=60, n_sims=200)
    with ThreadPoolExecutor(max_workers=4) as pool:
        tables = list(pool.map(lambda _: cache.get(2, KERN), range(8)))
    assert all(t is tables[0] for t in tables)
    assert len(list(tmp_path.glob("null_*.bin"))) == 1


_WRITER = textwrap.dedent("""
    import sys
    from pathlib import Path

    import numpy as np

    from singscan.io import atomic_write_text
    from singscan.nulls import NullTable, _write_table

    root = Path(sys.argv[1])
    table = NullTable(2, "geometric", 0.5, 100, 200, 0, np.linspace(0.0, 1.0, 200), 1.0, 0.9)
    for _ in range(300):
        _write_table(root / "null.bin", table)
        atomic_write_text(root / "out.csv", "0.5,0.25\\n" * 1000)
""")


def test_concurrent_writers_share_a_table_and_an_output(tmp_path):
    # More writer processes than cores rewrite one null table and one output
    # file at once: every write succeeds and each file stays whole.
    env = dict(os.environ)
    src = str(Path(singscan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(tmp_path)], env=env,
                         stderr=subprocess.PIPE)
        for _ in range(4)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
    table = _read_table(tmp_path / "null.bin")
    assert np.array_equal(table.stats, np.linspace(0.0, 1.0, 200))
    assert (tmp_path / "out.csv").read_text() == "0.5,0.25\n" * 1000
    assert not list(tmp_path.glob("*.tmp"))
