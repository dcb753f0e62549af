#!/usr/bin/env python3
"""Time the detect chain on growing two_disks clouds, one size per process.

Scores criterion 6's `two_disks` d = 1 cell (eta 0.95, expdot(2)) with
`score_columns` → `filter_labels` → `mh_report` at each size n. The radius
shrinks as r = 0.1·sqrt(22500 / n), which holds the neighborhoods at about
117 points, so the time per point stays flat if the chain is linear in n.
Prints one JSON line per size: seconds, microseconds per point, peak RSS of
that size's process, and the AUC of log(1/p) against the points within r/2
of the crossing. Null tables are built before the clock starts.

Example:
    python scripts/scaling_curve.py --sizes 22500 90000 360000 --null-dir nulls
"""

import argparse
import json
import resource
import subprocess
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
    filter_labels,
    mh_report,
    roc_auc,
    score_columns,
    synth,
)


def one_size(n: int, seed: int, null_dir: str) -> dict:
    labeled = synth.generate(synth.ShapeSpec("two_disks", n, dim=1, noise_amplitude=0.0, seed=seed))
    r = 0.1 * (22500 / n) ** 0.5
    kernel = PowerSeriesKernel("expdot", 2.0)
    nulls = NullCache(null_dir, seed=0)
    for d in (1, 2, 3):
        nulls.get(d, kernel)
    start = time.perf_counter()
    cols = score_columns(labeled.cloud, Hyperparams(Radius(r), 0.95, kernel), nulls)
    filter_labels(cols.p_value)
    mh_report(cols.p_value, kernel, nulls)
    seconds = time.perf_counter() - start
    auc = roc_auc(-np.log(cols.p_value), labeled.dist_to_singular <= r / 2)
    return {
        "n": n, "r": r, "seconds": round(seconds, 3), "us_per_point": round(1e6 * seconds / n, 1),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "mean_k": round(float(np.mean(cols.k_obs)), 1), "auc": round(float(auc), 4),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[22500, 90000, 360000])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--null-dir", default="null_cache")
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one is not None:
        print(json.dumps(one_size(args.one, args.seed, args.null_dir)))
        return 0
    for n in args.sizes:
        # A process per size, so that each peak RSS is its own.
        subprocess.run([sys.executable, __file__, "--one", str(n), "--seed", str(args.seed),
                        "--null-dir", args.null_dir], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
