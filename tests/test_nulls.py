import math
import os
import subprocess
import sys
import textwrap
import threading
import warnings
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
from singscan.kernels import series_terms
from singscan import nulls
from singscan.nulls import TAIL_MASS, _ball_samples, _read_table, _seed_entropy

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


def _per_sample_stats(d, kernel, n_ref, n_sims, rng):
    """The null statistics one sample at a time, from the same spawned
    children as ``build_null``, sorted."""
    return np.sort([
        n_ref * mmd_sq_vs_uniform_disk(sample_uniform_ball(d, n_ref, child), kernel)
        for child in rng.spawn(n_sims)
    ])


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_build_equals_per_sample_loop(d):
    kern = PowerSeriesKernel("expdot", 2.0)
    table = build_null(d, kern, 500, 200, np.random.default_rng(40 + d))
    oracle = _per_sample_stats(d, kern, 500, 200, np.random.default_rng(40 + d))
    assert np.array_equal(table.stats, oracle)


@pytest.mark.parametrize("parts", ["one", "several"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_threaded_build_equals_per_sample_loop(d, parts, monkeypatch):
    # An odd n_sims splits into halves of 100 and 101 samples; at d = 1,
    # expdot(2) takes the power sums.  "several": parts of 30 samples.
    if parts == "several":
        monkeypatch.setattr("singscan.nulls.BLOCK_BYTES", 2 * 8 * 500 * (d + 1) * 30)
    kern = PowerSeriesKernel("expdot", 2.0)
    table = build_null(d, kern, 500, 201, np.random.default_rng(50 + d))
    oracle = _per_sample_stats(d, kern, 500, 201, np.random.default_rng(50 + d))
    assert np.array_equal(table.stats, oracle)


def _ball_reference(d, n, rng):
    """``sample_uniform_ball`` written out one sample at a time."""
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    radii = rng.random(n) ** (1.0 / d)
    return g * (radii / norms)[:, None]


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_stacked_draw_equals_sampler_child_by_child(d):
    stack = _ball_samples(d, 77, np.random.default_rng(d).spawn(9))
    assert stack.shape == (9, 77, d)
    for sample, child, twin in zip(
        stack, np.random.default_rng(d).spawn(9), np.random.default_rng(d).spawn(9)
    ):
        assert np.array_equal(sample, sample_uniform_ball(d, 77, child))
        assert np.array_equal(sample, _ball_reference(d, 77, twin))


def test_build_leaves_no_thread_behind(tmp_path, monkeypatch):
    before = threading.active_count()
    build_null(2, KERN, 60, 200, np.random.default_rng(0))
    assert threading.active_count() == before
    # The worker's half fails: the error reaches the caller of the cache,
    # the worker is gone and no table file is written.
    caller = threading.current_thread()
    scored = nulls.mmd_sq_stack

    def fails_on_worker(stack, kernel):
        if threading.current_thread() is not caller:
            raise RuntimeError("worker half failed")
        return scored(stack, kernel)

    monkeypatch.setattr("singscan.nulls.mmd_sq_stack", fails_on_worker)
    with pytest.raises(RuntimeError, match="worker half failed"):
        NullCache(tmp_path, seed=0, n_ref=60, n_sims=200).get(2, KERN)
    assert threading.active_count() == before
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("param", [0.5, 0.9])
def test_d1_table_does_not_depend_on_chunking(param, monkeypatch):
    # n_ref = 500 takes the power sums for geometric(0.5) (T = 57) and the
    # closed-form Gram for geometric(0.9) (T = 390).
    kern = PowerSeriesKernel("geometric", param)
    assert (500 >= 4 * series_terms(kern)) == (param == 0.5)
    whole = build_null(1, kern, 500, 200, np.random.default_rng(8))
    monkeypatch.setattr("singscan.nulls.BLOCK_BYTES", 3 * 8 * 500)
    chunked = build_null(1, kern, 500, 200, np.random.default_rng(8))
    assert np.array_equal(whole.stats, chunked.stats)
    # Against the closed-form Gram of every sample: equal to rounding.
    monkeypatch.setattr("singscan.kernels._POWER_SUM_RATIO", 10**9)
    oracle = _per_sample_stats(1, kern, 500, 200, np.random.default_rng(8))
    np.testing.assert_allclose(whole.stats, oracle, rtol=0, atol=2e-12)


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
    assert below == pytest.approx(TAIL_MASS, abs=2.0 / table.n_sims)
    assert above == pytest.approx(TAIL_MASS, rel=1e-6)
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
    assert list(tmp_path.glob("null_*.bin")) == [tmp_path / "null_d2_geometric0.5_o32_60_200_s0.bin"]
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
    t0 = NullCache(tmp_path, seed=0, n_ref=60, n_sims=200).get(2, KERN)
    # A seed-0 table under the seed-1 name: the header's seed disagrees.
    seed0 = tmp_path / "null_d2_geometric0.5_o32_60_200_s0.bin"
    seed0.rename(tmp_path / "null_d2_geometric0.5_o32_60_200_s1.bin")
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
            np.random.SeedSequence(_seed_entropy((2, *KERN.fingerprint(), 60, 200, 1)))
        ),
        seed=1,
    )
    assert np.array_equal(t_other.stats, direct.stats)
    # An order-4 table under the order-32 name: the header's order disagrees.
    NullCache(tmp_path, seed=0, n_ref=60, n_sims=200).get(2, PowerSeriesKernel("geometric", 0.5, 4))
    (tmp_path / "null_d2_geometric0.5_o4_60_200_s0.bin").rename(seed0)
    with pytest.warns(UserWarning, match="rebuilding"):
        t32 = NullCache(tmp_path, seed=0, n_ref=60, n_sims=200).get(2, KERN)
    assert t32.order == 32 and np.array_equal(t32.stats, t0.stats)


def test_caches_of_two_seeds_share_a_directory(tmp_path):
    t0 = NullCache(tmp_path, seed=0, n_ref=60, n_sims=200).get(2, KERN)
    t3 = NullCache(tmp_path, seed=3, n_ref=60, n_sims=200).get(2, KERN)
    assert sorted(f.name for f in tmp_path.glob("null_*.bin")) == [
        "null_d2_geometric0.5_o32_60_200_s0.bin",
        "null_d2_geometric0.5_o32_60_200_s3.bin",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again0 = NullCache(tmp_path, seed=0, n_ref=60, n_sims=200).get(2, KERN)
        again3 = NullCache(tmp_path, seed=3, n_ref=60, n_sims=200).get(2, KERN)
    assert again0.seed == 0 and np.array_equal(again0.stats, t0.stats)
    assert again3.seed == 3 and np.array_equal(again3.stats, t3.stats)


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


def test_parameters_apart_by_a_millionth_get_two_files(tmp_path):
    # Written to 6 significant digits, both names used to read "expdot2", so
    # each cache rebuilt the other's table.
    kernels = [PowerSeriesKernel("expdot", 2.000001), PowerSeriesKernel("expdot", 2.000002)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            for kern in kernels:
                NullCache(tmp_path, seed=0, n_ref=60, n_sims=200).get(1, kern)
    assert sorted(f.name for f in tmp_path.glob("null_*.bin")) == [
        "null_d1_expdot2.000001_o32_60_200_s0.bin",
        "null_d1_expdot2.000002_o32_60_200_s0.bin",
    ]


def test_kernels_of_two_orders_get_two_tables(tmp_path):
    short, long = PowerSeriesKernel("geometric", 0.9, 4), PowerSeriesKernel("geometric", 0.9, 64)
    memory = NullCache(None, seed=0, n_ref=60, n_sims=200)
    assert not np.array_equal(memory.get(2, short).stats, memory.get(2, long).stats)
    for kern in (short, long):
        table = NullCache(tmp_path, seed=0, n_ref=60, n_sims=200).get(2, kern)
        assert table.order == kern.order
        assert np.array_equal(table.stats, memory.get(2, kern).stats)
    assert sorted(f.name for f in tmp_path.glob("null_*.bin")) == [
        "null_d2_geometric0.9_o4_60_200_s0.bin",
        "null_d2_geometric0.9_o64_60_200_s0.bin",
    ]


def test_cache_safe_under_concurrent_access(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    cache = NullCache(tmp_path, seed=0, n_ref=60, n_sims=200)
    with ThreadPoolExecutor(max_workers=4) as pool:
        tables = list(pool.map(lambda _: cache.get(2, KERN), range(8)))
    assert all(t is tables[0] for t in tables)
    assert len(list(tmp_path.glob("null_*.bin"))) == 1


_IDENTITY = (2, "geometric", 0.5, 32, 100, 200, 0)
_WRITER = f"IDENTITY = {_IDENTITY!r}\n" + textwrap.dedent("""
    import sys
    from pathlib import Path

    import numpy as np

    from singscan.io import atomic_write_text
    from singscan.nulls import _write_table

    root = Path(sys.argv[1])
    for _ in range(300):
        _write_table(root / "null.bin", IDENTITY, np.linspace(0.0, 1.0, 200))
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
    table = _read_table(tmp_path / "null.bin", _IDENTITY)
    assert np.array_equal(table.stats, np.linspace(0.0, 1.0, 200))
    assert (tmp_path / "out.csv").read_text() == "0.5,0.25\n" * 1000
    assert not list(tmp_path.glob("*.tmp"))
