#!/usr/bin/env python3
"""Time cold null-table builds for every table the benchmark workloads read.

Each (d, kernel) table is built in memory by a fresh `NullCache(seed=0)`,
as a cache miss builds it: the same derived seed, so the same table the CLI
and the library use at the default n_ref = 500 and n_sims = 1000. Each table
is built `--repeats` times in one process, and one JSON line per table gives
the fastest build and every build's seconds. Nothing is read from or written
to disk. Set OPENBLAS_NUM_THREADS as the run to compare with does
(perfbench uses min(2, nproc)).

Example:
    OPENBLAS_NUM_THREADS=2 python scripts/null_build_times.py --repeats 3
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from singscan import NullCache, PowerSeriesKernel  # noqa: E402

# What each workload reads: detect_two_disks d_hat <= 3 in R^3 under
# expdot(2); auto_two_circles d_hat <= 2 under each grid alpha;
# image_anomalies d_hat 3 for the family and 4 to 6 for the planted images
# under geometric(0.5). Every workload's UPUP reads d = 1.
WORKLOAD_TABLES = (
    (PowerSeriesKernel("expdot", 2.0), (1, 2, 3)),
    (PowerSeriesKernel("geometric", 0.3), (1, 2)),
    (PowerSeriesKernel("geometric", 0.5), (1, 2, 3, 4, 5, 6)),
    (PowerSeriesKernel("geometric", 0.7), (1, 2)),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="builds per table (default 3)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    for kernel, dims in WORKLOAD_TABLES:
        for d in dims:
            runs = []
            for _ in range(args.repeats):
                nulls = NullCache(seed=0)
                start = time.perf_counter()
                table = nulls.get(d, kernel)
                runs.append(round(time.perf_counter() - start, 4))
            print(json.dumps({
                "d": d, "kind": kernel.kind, "param": kernel.param,
                "n_ref": table.n_ref, "n_sims": table.n_sims,
                "seconds": min(runs), "runs": runs,
            }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
