"""Command-line interface: detect / auto / mh-test / synth / roc / ingest-dct.

Every command is deterministic given --seed.  Exit codes: 0 success,
1 internal failure, 2 user-input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evaluation import roc_curve
from .io import (
    InputError,
    atomic_write_text,
    dct_reduce,
    read_label_column,
    read_point_cloud_csv,
    read_scores_csv,
    write_grid_report,
    write_point_cloud_csv,
    write_scores_csv,
)
from .kernels import PowerSeriesKernel
from .mh import mh_report
from .nulls import DEFAULT_N_REF, DEFAULT_N_SIMS, MIN_N_REF, MIN_N_SIMS, NullCache
from .scoring import filter_labels
from .synth import ShapeSpec, generate
from .tuning import (
    MIN_LOCAL_SCALE_POINTS, SearchGrid, _local_scale_with_dim, default_grid, grid_search,
)
from .uniformity import Hyperparams, Knn, Radius, score_columns


@dataclass
class RunConfig:
    input: str | None = None
    output: str | None = None
    radius: float | None = None
    knn: int | None = None
    eta: float = 0.8
    alpha: float = 0.5
    seed: int = 0
    null_dir: str | None = None
    null_sims: int = DEFAULT_N_SIMS
    null_nref: int = DEFAULT_N_REF
    subsample: float = 1.0
    grid: dict | str | None = None


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise InputError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{p}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise InputError(f"{p}: config must be a JSON object")
    return data


def _check_file_value(field: dataclasses.Field, value) -> None:
    """A config-file value must have its RunConfig field's type; a JSON
    integer passes as a float, and neither true nor false as a number."""
    hint = typing.get_type_hints(RunConfig)[field.name]
    allowed = typing.get_args(hint) or (hint,)
    if float in allowed:
        allowed += (int,)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise InputError(f"config file: {field.name} must be {field.type}, got {value!r}")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """File values fill in wherever the corresponding flag was not given."""
    file_values = _load_config_file(getattr(args, "config", None))
    cfg = RunConfig()
    for field in dataclasses.fields(RunConfig):
        flag = getattr(args, field.name, None)
        if flag is not None:
            setattr(cfg, field.name, flag)
        elif field.name in file_values:
            _check_file_value(field, file_values[field.name])
            setattr(cfg, field.name, file_values[field.name])
    if cfg.seed < 0:
        raise InputError("--seed must be >= 0")
    if not 0.0 < cfg.subsample <= 1.0:
        raise InputError("--subsample must be in (0, 1]")
    if cfg.null_sims < MIN_N_SIMS:
        raise InputError(f"--null-sims must be >= {MIN_N_SIMS}")
    if cfg.null_nref < MIN_N_REF:
        raise InputError(f"--null-nref must be >= {MIN_N_REF}")
    return cfg


def _null_cache(cfg: RunConfig) -> NullCache:
    return NullCache(cfg.null_dir, seed=cfg.seed, n_ref=cfg.null_nref, n_sims=cfg.null_sims)


def _kernel(cfg: RunConfig) -> PowerSeriesKernel:
    try:
        return PowerSeriesKernel(param=cfg.alpha)
    except ValueError as exc:
        raise InputError(f"--alpha: {exc}")


def _hyperparams(cfg: RunConfig, n: int) -> Hyperparams:
    """The run's hyperparameters for a cloud of n points."""
    if (cfg.radius is None) == (cfg.knn is None):
        raise InputError("specify exactly one of --radius or --knn")
    if cfg.knn is not None and not 1 <= cfg.knn < n:
        raise InputError(f"--knn must be in [1, {n - 1}] for {n} points")
    try:
        hood = Radius(cfg.radius) if cfg.radius is not None else Knn(cfg.knn)
        return Hyperparams(hood, cfg.eta, _kernel(cfg))
    except ValueError as exc:
        raise InputError(f"invalid hyperparameters: {exc}")


def _labels_for(p: np.ndarray) -> np.ndarray:
    if np.isfinite(p).sum() < 10:
        print("warning: fewer than 10 scored points, all labels set to 0", file=sys.stderr)
        return np.zeros(len(p), dtype=int)
    return filter_labels(p)


def cmd_detect(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    if cfg.input is None or cfg.output is None:
        raise InputError("detect needs --input and --output")
    cloud = read_point_cloud_csv(cfg.input)
    scores = score_columns(
        cloud, _hyperparams(cfg, len(cloud)), _null_cache(cfg),
        subsample_fraction=cfg.subsample, seed=cfg.seed,
    )
    write_scores_csv(cfg.output, scores, _labels_for(scores.p_value))
    return 0


def _parse_grid(raw, r_range, volume_dim: float) -> SearchGrid:
    base = default_grid(r_range, volume_dim)
    if raw is None:
        return base
    if isinstance(raw, str):
        # JSON text starts with "{" and is never looked up as a file name,
        # which it can outgrow; anything else names a file.
        try:
            raw = json.loads(raw if raw.lstrip().startswith("{") else Path(raw).read_text())
        except (OSError, ValueError) as exc:
            raise InputError(f"--grid is neither JSON text nor a readable JSON file: {exc}")
    if not isinstance(raw, dict):
        raise InputError("--grid must be a JSON object")
    try:
        grid = SearchGrid(
            radii=tuple(raw.get("radii", base.radii)),
            etas=tuple(raw.get("etas", base.etas)),
            alphas=tuple(raw.get("alphas", base.alphas)),
            bounds=tuple(raw.get("bounds", base.bounds)),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid --grid: {exc}")
    return grid


def cmd_auto(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    if cfg.input is None or cfg.output is None:
        raise InputError("auto needs --input and --output")
    cloud = read_point_cloud_csv(cfg.input)
    if len(cloud) < MIN_LOCAL_SCALE_POINTS:
        raise InputError(f"auto needs at least {MIN_LOCAL_SCALE_POINTS} points, got {len(cloud)}")
    nulls = _null_cache(cfg)
    rng = np.random.default_rng(cfg.seed)
    _, r_range, volume_dim = _local_scale_with_dim(cloud, rng=rng)
    grid = _parse_grid(cfg.grid, r_range, volume_dim)
    search = grid_search(
        cloud, grid, nulls, volume_dim=volume_dim,
        subsample_fraction=cfg.subsample, seed=cfg.seed,
    )
    write_scores_csv(cfg.output, search.scores, search.labels)
    write_grid_report(Path(cfg.output).with_suffix(".report.csv"), search.report)
    return 0


def cmd_mh_test(args: argparse.Namespace) -> int:
    if args.scores is not None:
        # These flags only set up the scoring that --scores replaces; their
        # config-file values stay ignored, as a shared config may carry them.
        unread = [f"--{name}" for name in ("input", "radius", "knn", "eta", "subsample")
                  if getattr(args, name) is not None]
        if unread:
            raise InputError(f"mh-test --scores does not read {', '.join(unread)}")
    cfg = _merge_config(args)
    nulls = _null_cache(cfg)
    if args.scores is not None:
        p = read_scores_csv(args.scores)["p_value"]
    else:
        if cfg.input is None:
            raise InputError("mh-test needs --scores or --input")
        cloud = read_point_cloud_csv(cfg.input)
        p = score_columns(
            cloud, _hyperparams(cfg, len(cloud)), nulls,
            subsample_fraction=cfg.subsample, seed=cfg.seed,
        ).p_value
    report = mh_report(p, _kernel(cfg), nulls)
    payload = {
        "supc": report.supc,
        "ks_stat": report.ks_stat,
        "ks_p": report.ks_p,
        "n_used": report.n_used,
    }
    if report.upup_stat is not None:
        payload["upup_stat"] = report.upup_stat
        payload["upup_p"] = report.upup_p
    text = json.dumps(payload, indent=2) + "\n"
    if cfg.output is not None:
        atomic_write_text(cfg.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.output is None:
        raise InputError("synth needs --output")
    if args.seed < 0:
        raise InputError("--seed must be >= 0")
    try:
        spec = ShapeSpec(
            shape=args.shape, n=args.n, dim=args.dim,
            noise_amplitude=args.noise, seed=args.seed,
        )
    except ValueError as exc:
        raise InputError(f"invalid synth parameters: {exc}") from exc
    labeled = generate(spec)
    write_point_cloud_csv(args.output, labeled.cloud)
    out = Path(args.output)
    dist_path = out.with_name(out.stem + ".dist.csv")
    lines = ["dist_to_singular"] + [format(v, ".17g") for v in labeled.dist_to_singular]
    atomic_write_text(dist_path, "\n".join(lines) + "\n")
    return 0


def _read_score_column(path: str) -> np.ndarray:
    """Either a detect output (log_inv_p column) or a single numeric column."""
    try:
        return read_scores_csv(path)["log_inv_p"]
    except InputError:
        data = read_point_cloud_csv(path)
        if data.shape[1] != 1:
            raise InputError(f"{path}: expected a scores CSV or a single column")
        return data[:, 0]


def cmd_roc(args: argparse.Namespace) -> int:
    scores = _read_score_column(args.scores)
    labels = read_label_column(args.labels)
    if len(labels) != len(scores):
        raise InputError(
            f"scores ({len(scores)}) and labels ({len(labels)}) disagree in length"
        )
    try:
        curve = roc_curve(scores, labels)
    except ValueError as exc:  # one class only
        raise InputError(str(exc)) from exc
    payload = {"auc": curve.auc, "n": int(len(labels)), "n_excluded": curve.n_excluded}
    text = json.dumps(payload, indent=2) + "\n"
    if args.output is not None:
        atomic_write_text(args.output, text)
    else:
        sys.stdout.write(text)
    if args.curve_out is not None:
        lines = ["fpr,tpr"] + [
            f"{f:.17g},{t:.17g}" for f, t in zip(curve.fpr, curve.tpr)
        ]
        atomic_write_text(args.curve_out, "\n".join(lines) + "\n")
    return 0


def cmd_ingest_dct(args: argparse.Namespace) -> int:
    rows = read_point_cloud_csv(args.input)
    reduced = dct_reduce(rows, args.keep)
    write_point_cloud_csv(args.output, reduced)
    return 0


def _add_common(sub: argparse.ArgumentParser, with_hyper: bool = True) -> None:
    """Flags shared by detect, auto and mh-test; ``with_hyper`` adds the fixed
    hyperparameters, which auto tunes instead of reading."""
    sub.add_argument("--input", help="input point-cloud CSV")
    sub.add_argument("--output", help="output file")
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--null-dir", dest="null_dir", default=None)
    sub.add_argument("--null-sims", dest="null_sims", type=int, default=None,
                     help="draws per null table (default 100000)")
    sub.add_argument("--null-nref", dest="null_nref", type=int, default=None,
                     help="accepted and checked (>= 50) but has no effect: tables are "
                          "the large-n limit")
    sub.add_argument("--subsample", type=float, default=None,
                     help="fraction of points to score; the rest inherit nearest scores")
    if with_hyper:
        sub.add_argument("--radius", type=float, default=None)
        sub.add_argument("--knn", type=int, default=None)
        sub.add_argument("--eta", type=float, default=None)
        sub.add_argument("--alpha", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="singscan",
                                     description="point-cloud singularity detection")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("detect", help="score every point with fixed hyperparameters")
    _add_common(p)
    p.set_defaults(func=cmd_detect)

    p = subs.add_parser("auto", help="tune hyperparameters, then detect")
    _add_common(p, with_hyper=False)
    p.add_argument("--grid", default=None,
                   help='JSON grid {"radii": [...], "etas": [...], "alphas": [...], '
                        '"bounds": [lo, hi]}, or the path of a file holding one')
    p.set_defaults(func=cmd_auto)

    p = subs.add_parser("mh-test", help="manifold-hypothesis tests on p-values")
    _add_common(p)
    p.add_argument("--scores", default=None, help="detect output CSV to reuse")
    p.set_defaults(func=cmd_mh_test)

    p = subs.add_parser("synth", help="generate a synthetic labeled cloud")
    p.add_argument("--shape", required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("roc", help="ROC/AUC of scores against binary labels")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--curve-out", dest="curve_out", default=None)
    p.set_defaults(func=cmd_roc)

    p = subs.add_parser("ingest-dct", help="reduce flattened square images by 2-D DCT")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--keep", type=int, default=10)
    p.set_defaults(func=cmd_ingest_dct)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
