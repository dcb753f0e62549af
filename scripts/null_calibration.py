#!/usr/bin/env python3
"""Check that the null tables hold their level against fresh null draws.

For every table the benchmark workloads read (the `WORKLOAD_TABLES` of
`null_build_times.py`) and each neighborhood size k, draws `--draws`
seeded uniform d-disk samples of k points, scores each as k * MMD^2 and
turns it into a p-value against the default-size table (`NullCache(seed=0)`,
built in memory). Under the null those p-values are uniform. One JSON line
per (table, k) gives the KS p-value of that uniformity and the rate of
p < 0.01. Draws are seeded by (`--seed`, d, k), so runs repeat exactly.

Example:
    python scripts/null_calibration.py --draws 20000 --ks 117 500
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy import stats

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from null_build_times import WORKLOAD_TABLES  # noqa: E402
from singscan import NullCache, p_value, sample_uniform_ball  # noqa: E402
from singscan.kernels import mmd_sq_stack  # noqa: E402

# Points drawn and scored at once: about 16 MB of coordinates.
BATCH_POINTS = 2**21 // 8


def fresh_p_values(table, kernel, d: int, k: int, draws: int, seed: int) -> np.ndarray:
    """p-values of ``draws`` fresh k-point null samples against ``table``."""
    rng = np.random.default_rng([seed, d, k])
    per_batch = max(1, BATCH_POINTS // (k * d))
    out = []
    for start in range(0, draws, per_batch):
        m = min(per_batch, draws - start)
        stack = sample_uniform_ball(d, m * k, rng).reshape(m, k, d)
        out.append(p_value(table, k, mmd_sq_stack(stack, kernel)))
    return np.concatenate(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=2000, help="fresh samples per (table, k)")
    parser.add_argument("--ks", type=int, nargs="+", default=[117, 500],
                        help="neighborhood sizes (default 117 500)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.draws < 1 or min(args.ks) < 1:
        parser.error("--draws and every k must be >= 1")
    for kernel, dims in WORKLOAD_TABLES:
        for d in dims:
            table = NullCache(seed=0).get(d, kernel)
            for k in args.ks:
                start = time.perf_counter()
                p = fresh_p_values(table, kernel, d, k, args.draws, args.seed)
                print(json.dumps({
                    "d": d, "kind": kernel.kind, "param": kernel.param, "k": k,
                    "draws": args.draws, "n_sims": table.n_sims,
                    "ks_p": float(stats.kstest(p, "uniform").pvalue),
                    "p_below_0.01": float(np.mean(p < 0.01)),
                    "seconds": round(time.perf_counter() - start, 3),
                }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
