"""Benchmark of singscan: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; singscan is imported from its ``src/``.
With ``--trace 0`` the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics instead.  See README.md.

The set-up and each round run in fresh worker processes (``worker.py``), so
a round's peak resident memory is its own.  One set-up per run, into an
empty directory: a second would cost 7-13 s per run, which 70 runs cannot
afford.  Rounds then repeat on that directory, null tables warm, until
``--seconds`` have passed (always at least one); the run reports the median.
The traced run traces the set-up, then runs one untraced and one traced
round, whatever ``--seconds`` says; the difference of their times is the
tracing overhead.  Scratch files
live in ``.perfbench_work/`` and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("detect_two_disks", "auto_two_circles", "image_anomalies")
# Threads any BLAS or OpenMP runtime may start, at most nproc.  Two keeps
# runs comparable between 2-CPU machines and larger ones.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
TIME_LIMIT_S = 170  # the whole run, so that it ends within 180 s


def worker(mode: str, args, work: Path, trace: int, deadline: float) -> dict:
    result = work.parent / f"{work.name}-{mode}-{trace}.json"
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # With a random hash salt per process, image_anomalies' peak memory
    # jumps between about 173 and 185 MB from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--size", args.size, "--work", str(work), "--seed", str(args.seed),
           "--trace", str(trace), "--result", str(result)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError(f"no time left for a {mode}")
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    out = json.loads(result.read_text())
    result.unlink()
    return out


def measure(args, scratch: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    work = scratch / "work"
    setup = worker("setup", args, work, args.trace, deadline)
    rounds = []
    start = time.monotonic()
    while not rounds or (time.monotonic() - start < args.seconds and not args.trace):
        rounds.append(worker("round", args, work, 0, deadline))
    traced = [worker("round", args, work, 1, deadline)] if args.trace else []

    for r in rounds + traced:
        for note in r["notes"]:
            print(note, file=sys.stderr)
    print("rounds' wall_s:", *(f"{r['wall_s']:.3f}" for r in rounds), file=sys.stderr)
    summary = {
        "correct": all(r["correct"] for r in rounds + traced),
        "attempted": sum(r["attempted"] for r in rounds + traced),
        "failed": sum(r["failed"] for r in rounds + traced),
    }
    wall_s = statistics.median(r["wall_s"] for r in rounds)
    if args.trace:
        layers = traced[0]["layers"]
        for key in ("nulls.build_s", "nulls.tables_built", "synth.generate_s", "synth.self_s"):
            layers[key] = setup["layers"][key]
        layers["trace.wall_s"] = traced[0]["wall_s"]
        layers["trace.overhead_s"] = traced[0]["wall_s"] - wall_s
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
            "auc": {"value": statistics.median(r["auc"] for r in rounds), "unit": "1"},
        }
    return {**summary, "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "geometry.mean_k":
        return "points"
    if name == "tuning.neighborhood_reuse":
        return "1"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs and null tables, for the self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "singscan" / "__init__.py").is_file():
        print(f"error: no singscan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        result = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
