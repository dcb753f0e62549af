import hashlib
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
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
from singscan.kernels import _disk_series, mmd_sq_stack
from singscan.nulls import (
    DEFAULT_N_REF,
    TAIL_MASS,
    _read_table,
    null_spectrum,
)

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
    a = build_null(2, KERN, 200, seed=5)
    b = build_null(2, KERN, 200, seed=5)
    assert np.array_equal(a.stats, b.stats)
    assert np.all(a.stats >= 0.0)
    assert np.all(np.diff(a.stats) >= 0.0)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("d", [1, 3])
def test_build_null_is_the_cached_table(d, seed):
    # The table's identity seeds its draws, so a direct build and the cache
    # of that seed hold the same table.
    direct = build_null(d, KERN, 500, seed)
    cached = NullCache(None, seed=seed, n_sims=500).get(d, KERN)
    assert direct.seed == cached.seed == seed
    assert direct.stats.tobytes() == cached.stats.tobytes()
    assert not np.array_equal(direct.stats, build_null(d, KERN, 500, seed + 1).stats)


def _ball_reference(d, n, rng):
    """``sample_uniform_ball`` written out: the (n, d) normals, then the n
    uniforms, from one stream."""
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    radii = rng.random(n) ** (1.0 / d)
    return g * (radii / norms)[:, None]


# sha256 of sample_uniform_ball(d, 1000, default_rng(7)) as drawn when null
# tables were still simulated from it; at d = 1 and 2 the radius U^(1/d) is
# exact, so the bytes do not depend on the platform's pow.
_BALL_DIGESTS = {
    1: "994adc2b83f2da4c4edcfe92e643f0b253c57651626cc12a3385cae9aeab6bd0",
    2: "fad30e46871aa836b763d57affde5342bbe44e6d2dedbd5ba05c87324b628486",
}


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_stacked_draw_equals_sampler_child_by_child(d):
    # synth draws its clouds through the sampler, so its stream must not move:
    # a stack of one sample per spawned child equals the written-out draw.
    stack = np.stack([sample_uniform_ball(d, 77, child)
                      for child in np.random.default_rng(d).spawn(9)])
    assert stack.shape == (9, 77, d)
    for sample, twin in zip(stack, np.random.default_rng(d).spawn(9)):
        assert np.array_equal(sample, _ball_reference(d, 77, twin))


@pytest.mark.parametrize("d", sorted(_BALL_DIGESTS))
def test_sampler_draws_as_before(d):
    drawn = sample_uniform_ball(d, 1000, np.random.default_rng(7))
    assert hashlib.sha256(drawn.tobytes()).hexdigest() == _BALL_DIGESTS[d]


def test_build_leaves_no_thread_behind(monkeypatch):
    def no_thread(self):
        raise AssertionError("a null build started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    before = threading.active_count()
    build_null(2, KERN, 200)
    NullCache(None, seed=0, n_sims=1000).get(3, KERN)
    assert threading.active_count() == before


_SPECTRUM_KERNELS = [
    PowerSeriesKernel("expdot", 2.0),
    PowerSeriesKernel("geometric", 0.3),
    PowerSeriesKernel("geometric", 0.5),
    PowerSeriesKernel("geometric", 0.7),
]


@pytest.mark.parametrize("kern", _SPECTRUM_KERNELS, ids=lambda k: f"{k.kind}{k.param}")
@pytest.mark.parametrize("d", [1, 2, 3, 6, 12, 25, 50, 100])
def test_spectrum_sums_to_the_expected_statistic(kern, d):
    # sum N lambda = E[n MMD^2] = n * expected_mmd_sq, the same for every n.
    values, counts = null_spectrum(kern, d)
    assert np.all(values >= 0.0) and np.all(counts >= 1.0)
    total = float(np.sum(counts * values))
    assert total == pytest.approx(expected_mmd_sq(kern, d, 1), rel=1e-12 if d <= 12 else 1e-9)
    assert total == pytest.approx(500 * expected_mmd_sq(kern, d, 500), rel=1e-9)


@pytest.mark.parametrize("kern", [KERN, PowerSeriesKernel("expdot", 2.0)],
                         ids=lambda k: f"{k.kind}{k.param}")
@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_spectrum_second_moment_matches_monte_carlo(kern, d):
    # sum N lambda^2 is E[kc(X, Y)^2] for the centred kernel
    # kc(x, y) = k(x, y) - m(x) - m(y) + M over independent uniform X, Y,
    # with m(x) = sum_j c_j |x|^(2j) and M = E m(X) from the disk series.
    coeffs, disk_total = _disk_series(kern, d)
    rng = np.random.default_rng(60 + d)
    x, y = (sample_uniform_ball(d, 400_000, rng) for _ in range(2))

    def mean_embedding(pts):
        return np.polynomial.polynomial.polyval(np.einsum("ij,ij->i", pts, pts), coeffs)

    centred = (kern.closed_form(np.einsum("ij,ij->i", x, y))
               - mean_embedding(x) - mean_embedding(y) + disk_total)
    sq = centred**2
    se = sq.std(ddof=1) / math.sqrt(sq.size)
    values, counts = null_spectrum(kern, d)
    assert abs(sq.mean() - float(np.sum(counts * values**2))) <= 4.0 * se


@pytest.mark.parametrize("kern,d", [(KERN, 2), (PowerSeriesKernel("expdot", 2.0), 3)],
                         ids=["geometric0.5-d2", "expdot2.0-d3"])
@pytest.mark.parametrize("k", [117, 500])
def test_fresh_draws_hold_the_level_of_a_default_table(null_cache, kern, d, k):
    # 3,000 fresh k-point null samples: their p-values are uniform.
    table = null_cache.get(d, kern)
    rng = np.random.default_rng([71, d, k])
    ps = np.concatenate([
        p_value(table, k, mmd_sq_stack(sample_uniform_ball(d, 500 * k, rng).reshape(500, k, d),
                                       kern))
        for _ in range(6)
    ])
    assert sps.kstest(ps, "uniform").pvalue >= 0.01


_BUILD_IN_CHILD = textwrap.dedent("""
    import hashlib
    import sys

    from singscan import NullCache, PowerSeriesKernel

    table = NullCache(None, seed=4, n_sims=5000).get(3, PowerSeriesKernel("expdot", 2.0))
    print(hashlib.sha256(table.stats.tobytes()).hexdigest())
""")


def test_table_is_bit_identical_across_processes_and_the_file_cache(tmp_path):
    env = dict(os.environ)
    src = str(Path(singscan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", _BUILD_IN_CHILD], env=env,
                           capture_output=True, text=True, timeout=300, check=True)
    kern = PowerSeriesKernel("expdot", 2.0)
    here = NullCache(tmp_path, seed=4, n_sims=5000).get(3, kern)
    assert hashlib.sha256(here.stats.tobytes()).hexdigest() == child.stdout.strip()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        read = NullCache(tmp_path, seed=4, n_sims=5000).get(3, kern)
    assert read is not here and np.array_equal(read.stats, here.stats)


def test_table_sizes_build_fast():
    # A default 100,000-draw table costs well under a second, and a
    # 1,000-draw one milliseconds (measured at about 0.06 s and 5 ms).
    best = {}
    for n_sims in (1000, 100_000):
        for _ in range(3):
            start = time.perf_counter()
            NullCache(None, seed=0, n_sims=n_sims).get(2, KERN)
            best[n_sims] = min(best.get(n_sims, math.inf), time.perf_counter() - start)
    assert best[1000] < 0.1 and best[100_000] < 1.0


def test_null_mean_matches_expected_value(null_cache):
    table = null_cache.get(2, KERN)
    se = table.stats.std(ddof=1) / math.sqrt(table.n_sims)
    assert abs(table.stats.mean() - DEFAULT_N_REF * expected_mmd_sq(KERN, 2, DEFAULT_N_REF)) < 3.0 * se


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
                DEFAULT_N_REF,
                mmd_sq_vs_uniform_disk(sample_uniform_ball(2, DEFAULT_N_REF, rng), KERN),
            )
            for _ in range(300)
        ]
    )
    assert sps.kstest(ps, "uniform").statistic <= 0.08


def test_scaling_consistency_across_n_ref():
    # Distributions of n * MMD^2 at n = 250 and n = 1000 nearly agree,
    # which is what justifies scoring any neighborhood size against one table.
    def draws(n, seed):
        rng = np.random.default_rng(seed)
        return np.concatenate([
            n * mmd_sq_stack(sample_uniform_ball(2, 100 * n, rng).reshape(100, n, 2), KERN)
            for _ in range(10)
        ])

    ks = sps.ks_2samp(draws(250, 21), draws(1000, 22)).statistic
    assert ks <= 0.1


def test_n_ref_is_accepted_and_has_no_effect(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = [NullCache(tmp_path, seed=0, n_ref=n_ref, n_sims=200).get(2, KERN)
                  for n_ref in (60, 500, 60)]
    assert all(np.array_equal(t.stats, tables[0].stats) for t in tables)
    assert [f.name for f in tmp_path.iterdir()] == ["null_d2_geometric0.5_o32_200_s0.bin"]


def test_degenerate_null_rejected():
    with pytest.raises(ValueError, match="n_sims"):
        build_null(1, KERN, 50)


def test_cache_cold_then_warm(tmp_path):
    cache = NullCache(tmp_path, seed=0, n_sims=200)
    t1 = cache.get(2, KERN)
    assert t1.d == 2 and t1.n_sims == 200
    assert list(tmp_path.glob("null_*.bin")) == [tmp_path / "null_d2_geometric0.5_o32_200_s0.bin"]
    fresh = NullCache(tmp_path, seed=0, n_sims=200)
    t2 = fresh.get(2, KERN)
    assert np.array_equal(t1.stats, t2.stats)
    assert t2.tail_rate == pytest.approx(t1.tail_rate)


def test_cache_key_separation(tmp_path):
    cache = NullCache(tmp_path, seed=0, n_sims=200)
    cache.get(2, KERN)
    cache.get(3, KERN)
    names = sorted(f.name for f in tmp_path.glob("null_*.bin"))
    assert len(names) == 2
    assert any("_d2_" in n for n in names) and any("_d3_" in n for n in names)


def test_cache_recovers_from_truncation(tmp_path):
    cache = NullCache(tmp_path, seed=0, n_sims=200)
    t1 = cache.get(2, KERN)
    path = next(tmp_path.glob("null_*.bin"))
    path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
    fresh = NullCache(tmp_path, seed=0, n_sims=200)
    with pytest.warns(UserWarning, match="rebuilding"):
        t2 = fresh.get(2, KERN)
    assert np.array_equal(t1.stats, t2.stats)


def test_cache_rebuilds_on_seed_mismatch(tmp_path):
    t0 = NullCache(tmp_path, seed=0, n_sims=200).get(2, KERN)
    # A seed-0 table under the seed-1 name: the header's seed disagrees.
    seed0 = tmp_path / "null_d2_geometric0.5_o32_200_s0.bin"
    seed0.rename(tmp_path / "null_d2_geometric0.5_o32_200_s1.bin")
    other = NullCache(tmp_path, seed=1, n_sims=200)
    with pytest.warns(UserWarning, match="rebuilding"):
        t_other = other.get(2, KERN)
    assert t_other.seed == 1
    direct = build_null(2, KERN, 200, seed=1)
    assert np.array_equal(t_other.stats, direct.stats)
    # An order-4 table under the order-32 name: the header's order disagrees.
    NullCache(tmp_path, seed=0, n_sims=200).get(2, PowerSeriesKernel("geometric", 0.5, 4))
    (tmp_path / "null_d2_geometric0.5_o4_200_s0.bin").rename(seed0)
    with pytest.warns(UserWarning, match="rebuilding"):
        t32 = NullCache(tmp_path, seed=0, n_sims=200).get(2, KERN)
    assert t32.order == 32 and np.array_equal(t32.stats, t0.stats)


def test_caches_of_two_seeds_share_a_directory(tmp_path):
    t0 = NullCache(tmp_path, seed=0, n_sims=200).get(2, KERN)
    t3 = NullCache(tmp_path, seed=3, n_sims=200).get(2, KERN)
    assert sorted(f.name for f in tmp_path.glob("null_*.bin")) == [
        "null_d2_geometric0.5_o32_200_s0.bin",
        "null_d2_geometric0.5_o32_200_s3.bin",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again0 = NullCache(tmp_path, seed=0, n_sims=200).get(2, KERN)
        again3 = NullCache(tmp_path, seed=3, n_sims=200).get(2, KERN)
    assert again0.seed == 0 and np.array_equal(again0.stats, t0.stats)
    assert again3.seed == 3 and np.array_equal(again3.stats, t3.stats)


def test_in_memory_cache_without_directory():
    cache = NullCache(None, seed=0, n_sims=200)
    t1 = cache.get(2, KERN)
    t2 = cache.get(2, KERN)
    assert t1 is t2
    disk_twin = NullCache(None, seed=0, n_sims=200).get(2, KERN)
    assert np.array_equal(t1.stats, disk_twin.stats)


def test_kernel_fingerprint_rounds_to_micro():
    a = PowerSeriesKernel("geometric", 0.5)
    b = PowerSeriesKernel("geometric", 0.5 + 4e-8)
    assert a.fingerprint() == b.fingerprint()
    cache = NullCache(None, seed=0, n_sims=200)
    assert cache.get(1, a) is cache.get(1, b)


def test_parameters_apart_by_a_millionth_get_two_files(tmp_path):
    # Written to 6 significant digits, both names used to read "expdot2", so
    # each cache rebuilt the other's table.
    kernels = [PowerSeriesKernel("expdot", 2.000001), PowerSeriesKernel("expdot", 2.000002)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            for kern in kernels:
                NullCache(tmp_path, seed=0, n_sims=200).get(1, kern)
    assert sorted(f.name for f in tmp_path.glob("null_*.bin")) == [
        "null_d1_expdot2.000001_o32_200_s0.bin",
        "null_d1_expdot2.000002_o32_200_s0.bin",
    ]


def test_kernels_of_two_orders_get_two_tables(tmp_path):
    short, long = PowerSeriesKernel("geometric", 0.9, 4), PowerSeriesKernel("geometric", 0.9, 64)
    memory = NullCache(None, seed=0, n_sims=200)
    assert not np.array_equal(memory.get(2, short).stats, memory.get(2, long).stats)
    for kern in (short, long):
        table = NullCache(tmp_path, seed=0, n_sims=200).get(2, kern)
        assert table.order == kern.order
        assert np.array_equal(table.stats, memory.get(2, kern).stats)
    assert sorted(f.name for f in tmp_path.glob("null_*.bin")) == [
        "null_d2_geometric0.9_o4_200_s0.bin",
        "null_d2_geometric0.9_o64_200_s0.bin",
    ]


def test_cache_safe_under_concurrent_access(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    cache = NullCache(tmp_path, seed=0, n_sims=200)
    with ThreadPoolExecutor(max_workers=4) as pool:
        tables = list(pool.map(lambda _: cache.get(2, KERN), range(8)))
    assert all(t is tables[0] for t in tables)
    assert len(list(tmp_path.glob("null_*.bin"))) == 1


_IDENTITY = (2, "geometric", 0.5, 32, 200, 0)
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
