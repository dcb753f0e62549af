"""Self-test of the benchmark, at tiny size (about two minutes on 2 CPUs).

    python3 perfbench/selftest.py

1. Runs ``run.py --size tiny`` on every workload, untraced and traced, and
   checks that each prints ``correct``, ``attempted``, ``failed`` and exactly
   the metric names and units of BENCHMARK.json.
2. Runs each workload's operations once in this process, checks that their
   outputs pass, then corrupts one thing at a time (shuffled p-values, one
   wrong k_obs, ...) and checks that the check of that operation fails.

Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from workloads import WORKLOADS, sample_points  # noqa: E402

SEED = 3


def _shuffle_p(out):
    rng = np.random.default_rng(0)
    out["scores"]["p"] = rng.permutation(out["scores"]["p"])


def _one_k_obs(out):
    out["scores"]["k_obs"][len(out["scores"]["k_obs"]) // 2] += 1


def _sampled(field, delta):
    def mutate(out):
        i = sample_points(out["scores"], SEED)[0]
        out["scores"][field][i] += delta

    return mutate


def _label_lowest(out):
    s = out["scores"]
    s["label"][int(np.nanargmax(s["p"]))] = 1


def _set(key, field, value):
    def mutate(out):
        out[key][field] = value

    return mutate


def _scale(key, field, factor):
    def mutate(out):
        out[key][field] *= factor

    return mutate


def _all_d_hat(value):
    def mutate(out):
        out["scores"]["d_hat"][:] = value

    return mutate


def _report_nan(out):
    out["report"][0]["dispersion"] = float("nan")


def _dct_column(out):
    out["dct"][:, 7] += 1e-6


def _permute_rows(out):
    """Give each point another point's whole score row: every per-point
    property still holds, only the ranking against the truth is lost."""
    rng = np.random.default_rng(0)
    order = rng.permutation(len(out["scores"]["p"]))
    for key in ("k_obs", "d_hat", "mmd", "p", "label"):
        out["scores"][key] = out["scores"][key][order]


# workload -> [(what is corrupted, operation, words its failed check must
# contain, mutation)]
CORRUPTIONS = {
    "detect_two_disks": [
        ("shuffled p-values", "singularity_scores", "rises with", _shuffle_p),
        ("one wrong k_obs", "singularity_scores", "k_obs wrong", _one_k_obs),
        ("one wrong d_hat", "singularity_scores", ": d_hat", _sampled("d_hat", 1)),
        ("one MMD^2 off by 1e-9", "singularity_scores", "MMD^2", _sampled("mmd", 1e-9)),
        ("score rows permuted", "singularity_scores", "AUC", _permute_rows),
        ("least singular point labelled", "filter_labels", "scores no higher", _label_lowest),
        ("SUPC off by 1e-6", "mh_report", "SUPC", _scale("mh", "supc", 1 + 1e-6)),
        ("KS statistic off by 1e-6", "mh_report", "KS statistic",
         _scale("mh", "ks_stat", 1 + 1e-6)),
        ("n_used off by one", "mh_report", "n_used", _set("mh", "n_used", -1)),
        ("KS p-value of a manifold", "mh_report", "KS p", _set("mh", "ks_p", 0.5)),
    ],
    "auto_two_circles": [
        ("shuffled p-values", "auto", "rises with", _shuffle_p),
        ("score rows permuted", "auto", "AUC", _permute_rows),
        ("least singular point labelled", "auto", "scores no higher", _label_lowest),
        ("a report row without dispersion", "auto", "dispersion", _report_nan),
        ("every d_hat 2", "auto", "modal d_hat", _all_d_hat(2.0)),
    ],
    "image_anomalies": [
        ("one DCT coefficient per row off by 1e-6", "ingest-dct", "DCT", _dct_column),
        ("shuffled p-values", "detect", "rises with", _shuffle_p),
        ("score rows permuted", "detect", "AUC", _permute_rows),
        ("one wrong k_obs", "detect", "k_obs", _one_k_obs),
        ("every d_hat 7", "detect", "modal d_hat", _all_d_hat(7.0)),
        ("least singular point labelled", "detect", "scores no higher", _label_lowest),
        ("n_used off by one", "mh-test", "n_used", _set("mh", "n_used", -1)),
        ("UPUP p-value not finite", "mh-test", "not finite", _set("mh", "upup_p", float("nan"))),
    ],
}


def check_printed_metrics(spec: dict) -> list[str]:
    errors = []
    for name in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = f"{name} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{tag}: correct={result['correct']} failed={result['failed']}"
                              f" attempted={result['attempted']}\n{proc.stderr}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{tag}: metrics differ from BENCHMARK.json: "
                              f"missing {sorted(set(want) - set(got))}, "
                              f"extra {sorted(set(got) - set(want))}, units "
                              f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            print(f"ok  {tag}: {len(got)} metrics", flush=True)
    return errors


def check_corruptions(scratch: Path) -> list[str]:
    errors = []
    for name, cases in CORRUPTIONS.items():
        workload = WORKLOADS[name]("tiny")
        work = scratch / name
        worker.setup(workload, work, SEED, None)
        raw = {op: fn() for op, fn in workload.operations(work)}
        out = workload.collect(work, raw)
        problems, _ = workload.check(work, out)
        if any(problems.values()):
            errors.append(f"{name}: clean outputs fail their checks: {problems}")
            continue
        for what, op, words, mutate in cases:
            bad = copy.deepcopy(out)
            mutate(bad)
            caught = [msg for msg in workload.check(work, bad)[0].get(op, []) if words in msg]
            print(f"{'ok ' if caught else 'BAD'} {name}: {what} -> "
                  f"{caught[0] if caught else 'not caught'}", flush=True)
            if not caught:
                errors.append(f"{name}: {what} not caught by the {op} check")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_printed_metrics(spec)
    scratch = ROOT / ".perfbench_work" / "selftest"
    try:
        errors += check_corruptions(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    for error in errors:
        print("FAIL", error)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
