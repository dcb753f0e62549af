#!/usr/bin/env python3
"""Manifold-vs-stratified benchmark for the global hypothesis tests.

Generates paired families of synthetic clouds (manifolds vs stratified
spaces), runs the per-point pipeline on each cloud, computes SUPC / UPUP / KS
over the resulting p-values, and reports how well each statistic separates
the two families (AUC of the statistic against the family flag).

Example:
    python scripts/run_mh_benchmark.py --sizes 1000 2000 --instances 3
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from singscan import (  # noqa: E402
    Hyperparams,
    NullCache,
    PowerSeriesKernel,
    Radius,
    local_scale,
    mh_benchmark,
    mh_report,
    roc_auc,
    score_columns,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", nargs="+", type=int, default=[1000, 2000])
    parser.add_argument("--instances", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eta", type=float, default=0.8)
    parser.add_argument("--null-dir", default="null_cache")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    nulls = NullCache(args.null_dir, seed=0)
    kernel = PowerSeriesKernel("expdot", 2.0)
    lines = ["n,statistic,auc"]
    for n in args.sizes:
        rows = mh_benchmark(n, seed=args.seed, instances_per_shape=args.instances)
        stats = {"supc": [], "upup": [], "ks": []}
        flags = []
        t0 = time.perf_counter()
        for labeled, is_manifold in rows:
            _, (lo, _) = local_scale(labeled.cloud, rng=np.random.default_rng(args.seed))
            params = Hyperparams(Radius(lo), args.eta, kernel)
            p = score_columns(labeled.cloud, params, nulls).p_value
            rep = mh_report(p, kernel, nulls)
            stats["supc"].append(rep.supc)
            stats["upup"].append(-(rep.upup_p or 1.0))
            stats["ks"].append(rep.ks_stat)
            flags.append(0 if is_manifold else 1)
        for name, values in stats.items():
            auc = roc_auc(np.asarray(values), np.asarray(flags))
            lines.append(f"{n},{name},{auc:.3f}")
            print(f"n={n} {name}: separation AUC {auc:.3f}", file=sys.stderr)
        print(f"n={n}: {time.perf_counter() - t0:.0f}s", file=sys.stderr)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
