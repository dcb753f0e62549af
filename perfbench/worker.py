"""One set-up or one round of a workload, in a process of its own.

    python perfbench/worker.py setup|round --workload NAME --size full|tiny
        --work DIR --seed N --trace 0|1 --result FILE

``setup`` empties DIR, writes the seeded inputs and builds the workload's
null tables into DIR/nulls.  ``round`` runs the workload's operations on
DIR, then checks their outputs.  Either writes one JSON object to FILE.
Started by ``run.py``, which sets the BLAS thread count before NumPy loads.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import NULL_SEED, WORKLOADS  # noqa: E402


def setup(workload, work: Path, seed: int, tracer: Tracer | None) -> dict:
    from singscan import NullCache, PowerSeriesKernel

    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    workload.make_inputs(work, seed)
    nulls = NullCache(work / "nulls", seed=NULL_SEED, n_ref=workload.n_ref,
                      n_sims=workload.n_sims)
    for d, kernel in workload.tables():
        nulls.get(d, PowerSeriesKernel(kernel.kind, kernel.param))
    setup_s = time.perf_counter() - start
    (work / "seed.txt").write_text(str(seed))
    return {"setup_s": setup_s}


def run_round(workload, work: Path, tracer: Tracer | None) -> dict:
    """Time each operation; an operation that raises or exits non-zero fails,
    and so does every later one, which needs its output."""
    tables_before = set((work / "nulls").iterdir())
    if tracer is not None:
        tracer.install()
    raw, wall, failed, notes = {}, 0.0, 0, []
    for name, op in workload.operations(work):
        if failed:
            failed += 1
            continue
        start = time.perf_counter()
        try:
            result = op()
        except Exception:  # noqa: BLE001 - an operation's failure is a result
            result, notes = None, notes + [f"{name} raised:\n{traceback.format_exc()}"]
        wall += time.perf_counter() - start
        if result is None or (isinstance(result, int) and result != 0):
            failed += 1
            notes.append(f"{name} failed (returned {result!r})")
        else:
            raw[name] = result
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
    built = set((work / "nulls").iterdir()) - tables_before
    if built:
        notes.append("round built null tables set-up did not: "
                     + ", ".join(sorted(p.name for p in built)))

    try:
        problems, auc = workload.check(work, workload.collect(work, raw))
    except Exception:  # noqa: BLE001 - a check that cannot run is a failed check
        problems, auc = {"check": [traceback.format_exc()]}, 0.0
    bad_ops = [op for op in raw if problems.get(op) or problems.get("check")]
    notes += [f"{op}: {msg}" for op, msgs in problems.items() for msg in msgs]
    return {
        "wall_s": wall,
        "attempted": len(workload.ops),
        "failed": failed + len(bad_ops),
        "correct": not any(problems.values()),
        "peak_rss_mb": peak_rss_mb,
        "auc": auc,
        "notes": notes,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "round"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.size)
    tracer = Tracer() if args.trace else None
    if args.mode == "setup":
        result = setup(workload, args.work, args.seed, tracer)
    else:
        result = run_round(workload, args.work, tracer)
    if tracer is not None:
        result["layers"] = tracer.metrics()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
