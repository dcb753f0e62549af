"""The benchmark's workloads: seeded inputs, the null tables set-up builds,
the user-facing operations, and the checks of their outputs.

A workload's life in one directory ``work``:

* ``make_inputs(work, seed)`` writes the inputs and ``tables()`` lists the
  null tables to build; together they are the set-up;
* ``operations(work)`` lists the timed operations, in order; each returns
  its raw output, and raises or returns a non-zero exit code on failure;
* ``collect(work, raw)`` turns the raw outputs into plain arrays;
* ``check(work, outputs)`` returns the failed checks of each operation and
  the AUC the benchmark reports.

The checks use ``reference.py`` and properties the method must have; none
compares against stored output of the program.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

# Null-table size (n_ref, n_sims): singscan's defaults, or small ones for
# the self-test.
TABLE_SIZE = {"full": (500, 1000), "tiny": (100, 200)}

CHECK_POINTS = 48  # points whose neighborhood, d_hat and MMD are recomputed
NULL_SEED = 0  # the program's own seed; the workload seed only shapes inputs


@dataclass(frozen=True)
class Kernel:
    kind: str
    param: float

    def reference(self):
        return ref.expdot(self.param) if self.kind == "expdot" else ref.geometric(self.param)


def _scores_from_results(results) -> dict[str, np.ndarray]:
    def column(field):
        return np.array([np.nan if getattr(r, field) is None else getattr(r, field)
                         for r in results], dtype=float)

    return {"k_obs": column("k_obs"), "d_hat": column("d_hat"),
            "mmd": column("mmd"), "p": column("p_value")}


def _read_scores_csv(path: Path) -> dict[str, np.ndarray]:
    """The CLI's per-point output, parsed without singscan."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {name: np.array([float(r[j]) if r[j] else np.nan for r in body])
            for j, name in enumerate(header)}
    return {"index": cols["index"], "k_obs": cols["k_obs"], "d_hat": cols["est_dim"],
            "mmd": cols["mmd"], "p": cols["p_value"], "label": cols["label"]}


def _nan_equal(a, b) -> bool:
    return bool(np.array_equal(np.asarray(a, float), np.asarray(b, float), equal_nan=True))


def _check_p_values(out: dict, problems: list[str]) -> None:
    """p in (0, 1], present exactly where the neighborhood was tested, and
    non-increasing in k_obs * MMD^2 among points sharing d_hat (one table)."""
    p, k, d = out["p"], out["k_obs"], out["d_hat"]
    tested = k >= 10
    if not np.array_equal(np.isfinite(p), tested):
        problems.append("p-values missing on tested points or present on untested ones")
    if np.any((p[tested] <= 0) | (p[tested] > 1)):
        problems.append("p-value outside (0, 1]")
    stat = k * out["mmd"]
    for dim in np.unique(d[tested]):
        sel = np.flatnonzero(tested & (d == dim))
        order = np.argsort(stat[sel], kind="stable")
        if np.any(np.diff(p[sel][order]) > 0):
            problems.append(f"d_hat={dim:g}: p-value rises with k_obs * MMD^2")


def _check_labels(out: dict, problems: list[str]) -> None:
    """The knee filter labels exactly the scores above a cut."""
    label, p = out["label"], out["p"]
    if not np.all(np.isin(label, (0, 1))):
        problems.append("labels not binary")
        return
    score = -np.log(p)
    marked = label == 1
    if marked.any() and (~marked).any():
        if np.nanmin(score[marked]) <= np.nanmax(score[~marked & np.isfinite(score)]):
            problems.append("a labelled point scores no higher than an unlabelled one")


def _check_mh(mh: dict, p: np.ndarray, problems: list[str]) -> None:
    """Finite fields, n_used, SUPC recomputed, and the KS statistic recomputed."""
    p = p[np.isfinite(p)]
    keys = ("supc", "ks_stat", "ks_p", "upup_stat", "upup_p")
    if any(mh.get(k) is None or not math.isfinite(mh[k]) for k in keys):
        problems.append("a manifold-hypothesis field is missing or not finite")
        return
    if mh["n_used"] != p.size:
        problems.append(f"n_used {mh['n_used']} != {p.size} p-values")
    if not math.isclose(mh["supc"], ref.supc(p), rel_tol=1e-12):
        problems.append(f"SUPC {mh['supc']} != {ref.supc(p)}")
    u = np.sort(p)
    grid = np.arange(1, u.size + 1) / u.size
    ks = max(float(np.max(grid - u)), float(np.max(u - grid + 1.0 / u.size)))
    if not math.isclose(mh["ks_stat"], ks, rel_tol=1e-12):
        problems.append(f"KS statistic {mh['ks_stat']} != {ks}")
    if not (0 < mh["ks_p"] <= 1 and 0 < mh["upup_p"] <= 1):
        problems.append("an MH p-value outside (0, 1]")


def sample_points(out: dict, seed: int) -> np.ndarray:
    """The tested points whose d_hat and MMD^2 the check recomputes."""
    tested = np.flatnonzero(out["k_obs"] >= 10)
    rng = np.random.default_rng([seed, 1])
    return rng.choice(tested, size=min(CHECK_POINTS, tested.size), replace=False)


def _check_neighborhoods(coords, out, radius, eta, kernel: Kernel, seed, problems):
    """k_obs of every point by an independent count; for a seeded sample of
    points, d_hat by eigh and the eta rule and MMD^2 by quadrature."""
    wrong = np.flatnonzero(ref.radius_counts(coords, radius) != out["k_obs"])
    if wrong.size:
        problems.append(f"k_obs wrong at {wrong.size} points, first {wrong[0]}")
    checked = 0
    for i in sample_points(out, seed):
        members = ref.radius_members(coords, i, radius)
        rescaled = (coords[members] - coords[i]) / radius
        d, basis, clear = ref.pca_dim(rescaled, eta)
        if not clear:
            continue
        checked += 1
        if d != out["d_hat"][i]:
            problems.append(f"point {i}: d_hat {out['d_hat'][i]:g} != {d}")
            continue
        mmd = ref.mmd_sq_vs_disk(rescaled @ basis, kernel.reference())
        if abs(mmd - out["mmd"][i]) > ref.MMD_TOLERANCE:
            problems.append(f"point {i}: MMD^2 {float(out['mmd'][i])!r} != {mmd!r}")
    if checked < CHECK_POINTS // 2:
        problems.append(f"only {checked} sampled points had a clear d_hat")


class DetectTwoDisks:
    """Library calls on criterion 6's two_disks d=1 cell at protocol size."""

    name = "detect_two_disks"
    ops = ("singularity_scores", "filter_labels", "mh_report")
    kernel = Kernel("expdot", 2.0)
    eta = 0.95
    auc_bar = 0.85  # criterion 6's bar

    def __init__(self, size: str = "full"):
        self.n, self.radius = {"full": (22500, 0.1), "tiny": (3000, 0.25)}[size]
        self.n_ref, self.n_sims = TABLE_SIZE[size]

    def make_inputs(self, work: Path, seed: int) -> None:
        from singscan import synth

        labeled = synth.generate(synth.ShapeSpec("two_disks", self.n, dim=1,
                                                 noise_amplitude=0.0, seed=seed))
        np.save(work / "cloud.npy", labeled.cloud)
        np.save(work / "dist.npy", labeled.dist_to_singular)

    def tables(self) -> list[tuple[int, Kernel]]:
        # d_hat <= 3 in R^3, and UPUP reads d = 1.
        return [(d, self.kernel) for d in (1, 2, 3)]

    def _cache(self, work: Path):
        from singscan import NullCache

        return NullCache(work / "nulls", seed=NULL_SEED, n_ref=self.n_ref, n_sims=self.n_sims)

    def operations(self, work: Path):
        import singscan
        from singscan import mh, scoring, uniformity

        cloud = np.load(work / "cloud.npy")
        kernel = singscan.PowerSeriesKernel(self.kernel.kind, self.kernel.param)
        params = singscan.Hyperparams(singscan.Radius(self.radius), self.eta, kernel)
        nulls = self._cache(work)
        state = {}

        def scores():
            state["results"] = uniformity.singularity_scores(cloud, params, nulls)
            state["p"] = np.array([np.nan if r.p_value is None else r.p_value
                                   for r in state["results"]])
            return state["results"]

        return [
            ("singularity_scores", scores),
            ("filter_labels", lambda: scoring.filter_labels(state["p"])),
            ("mh_report", lambda: mh.mh_report(state["p"], kernel, nulls)),
        ]

    def collect(self, work: Path, raw: dict) -> dict:
        out = {}
        if "singularity_scores" in raw:
            out["scores"] = _scores_from_results(raw["singularity_scores"])
        if "filter_labels" in raw:
            out["scores"]["label"] = np.asarray(raw["filter_labels"], dtype=float)
        if "mh_report" in raw:
            report = raw["mh_report"]
            out["mh"] = {k: getattr(report, k) for k in
                         ("supc", "ks_stat", "ks_p", "n_used", "upup_stat", "upup_p")}
        return out

    def check(self, work: Path, out: dict) -> tuple[dict[str, list[str]], float]:
        coords = np.load(work / "cloud.npy")
        seed = int((work / "seed.txt").read_text())
        problems = {op: [] for op in self.ops}
        auc = 0.0
        band = ref.two_disks_distance(coords) <= self.radius / 2.0
        if not np.array_equal(band, np.load(work / "dist.npy") <= self.radius / 2.0):
            problems["singularity_scores"].append("generator's distances disagree with geometry")
        if "scores" in out:
            s, bad = out["scores"], problems["singularity_scores"]
            if len(s["p"]) != len(coords):
                bad.append(f"{len(s['p'])} results for {len(coords)} points")
                return problems, auc
            _check_p_values(s, bad)
            _check_neighborhoods(coords, s, self.radius, self.eta, self.kernel, seed, bad)
            if np.all(np.isfinite(s["p"])):
                auc = ref.auc(-np.log(s["p"]), band)
                if auc < self.auc_bar:
                    bad.append(f"AUC {auc:.4f} < {self.auc_bar}")
            if "label" in s:
                _check_labels(s, problems["filter_labels"])
        if "mh" in out:
            bad = problems["mh_report"]
            _check_mh(out["mh"], out["scores"]["p"], bad)
            if not out["mh"]["supc"] > 1:
                bad.append(f"SUPC {out['mh']['supc']} <= 1 on crossing disks")
            if not out["mh"]["ks_p"] < 0.01:
                bad.append(f"KS p {out['mh']['ks_p']} >= 0.01 on crossing disks")
        return problems, auc


class AutoTwoCircles:
    """CLI ``auto`` on the demo cloud of two crossing circles."""

    name = "auto_two_circles"
    ops = ("auto",)
    alphas = (0.3, 0.5, 0.7)  # the CLI's default grid
    band = 0.1  # ground truth: within this distance of a crossing
    auc_bar = 0.85
    near = 0.3  # "near a crossing", as the demo script reports it

    def __init__(self, size: str = "full"):
        # Tiny keeps the cloud and shrinks only the tables: on 1500 points of
        # this shape ``auto`` took 46 s and labelled the wrong points.
        self.n, self.subsample = 3000, 0.25
        self.n_ref, self.n_sims = TABLE_SIZE[size]

    def make_inputs(self, work: Path, seed: int) -> None:
        """The demo cloud (``scripts/demo_auto_detect.py``'s default, sample
        seed 5) under one of the square's 8 symmetries, chosen by ``seed``:
        axes swapped or not, each negated or not.  These leave every distance
        bit for bit as it was, so each seed runs the same work.  A fresh
        sample per seed would not: ``auto``'s local-scale step picks radii a
        factor 2 or 4 apart on different samples of this shape, and its run
        time with them.  Nor would a general rotation: on some, ``auto``
        exits 1 (see CHANGES.md)."""
        from singscan import synth

        labeled = synth.generate(synth.ShapeSpec("two_circles", self.n,
                                                 noise_amplitude=0.01, seed=5))
        motion = np.eye(2)[::-1] if seed & 1 else np.eye(2)
        motion = motion * np.where([seed & 2, seed & 4], -1.0, 1.0)[:, None]
        np.savetxt(work / "cloud.csv", labeled.cloud @ motion.T, delimiter=",", fmt="%.17g")
        np.save(work / "crossings.npy", ref.TWO_CIRCLES_CROSSINGS @ motion.T)

    def tables(self) -> list[tuple[int, Kernel]]:
        # d_hat <= 2 in R^2, one table per grid alpha.
        return [(d, Kernel("geometric", a)) for a in self.alphas for d in (1, 2)]

    def operations(self, work: Path):
        from singscan import cli

        argv = ["auto", "--input", str(work / "cloud.csv"), "--output", str(work / "scores.csv"),
                "--subsample", str(self.subsample), "--null-dir", str(work / "nulls"),
                "--null-nref", str(self.n_ref), "--null-sims", str(self.n_sims)]
        return [("auto", lambda: cli.main(argv))]

    def collect(self, work: Path, raw: dict) -> dict:
        if "auto" not in raw:
            return {}
        with open(work / "scores.report.csv", newline="") as fh:
            report = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        return {"scores": _read_scores_csv(work / "scores.csv"), "report": report}

    def check(self, work: Path, out: dict) -> tuple[dict[str, list[str]], float]:
        coords = np.loadtxt(work / "cloud.csv", delimiter=",")
        problems = {"auto": []}
        auc = 0.0
        if "scores" not in out:
            return problems, auc
        s, bad = out["scores"], problems["auto"]
        if not _nan_equal(s["index"], np.arange(len(coords))):
            bad.append(f"score rows are not the {len(coords)} points in order")
            return problems, auc
        report = out["report"]
        if not report or not all(math.isfinite(row["dispersion"]) for row in report):
            bad.append("a grid report row has no finite dispersion")
        else:
            best = min(report, key=lambda row: (row["dispersion"], row["r"], row["eta"], row["alpha"]))
            if np.nansum(s["label"]) != best["n_singular"]:
                bad.append("labels differ from the winning configuration's n_singular")
        _check_p_values(s, bad)
        _check_labels(s, bad)
        dims, counts = np.unique(s["d_hat"][np.isfinite(s["d_hat"])], return_counts=True)
        if dims.size == 0 or dims[np.argmax(counts)] != 1:
            bad.append("modal d_hat of a union of circles is not 1")
        dist = ref.distance_to_points(coords, np.load(work / "crossings.npy"))
        if np.all(np.isfinite(s["p"])):
            auc = ref.auc(-np.log(s["p"]), dist <= self.band)
            if auc < self.auc_bar:
                bad.append(f"AUC {auc:.4f} < {self.auc_bar}")
        marked = s["label"] == 1
        if not marked.any() or np.mean(dist[marked] <= self.near) <= 0.5:
            bad.append(f"most labelled points are not within {self.near} of a crossing")
        return problems, auc


class ImageAnomalies:
    """CLI ingest-dct, detect and mh-test on 16x16 Gaussian-blob images."""

    name = "image_anomalies"
    ops = ("ingest-dct", "detect", "mh-test")
    side, keep, knn, eta = 16, 10, 60, 0.95
    alpha = 0.5  # the CLI's default kernel, geometric(0.5)
    auc_bar = 0.9

    def __init__(self, size: str = "full"):
        self.n_family, self.n_anomalies = {"full": (6000, 60), "tiny": (600, 8)}[size]
        self.n_ref, self.n_sims = TABLE_SIZE[size]

    def make_inputs(self, work: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        yy, xx = np.mgrid[0:self.side, 0:self.side]

        def blob(cx, cy, s):
            return np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * s * s)).ravel()

        # One blob with random centre and width: a three-parameter family.
        family = [blob(rng.uniform(5, 11), rng.uniform(5, 11), rng.uniform(2.0, 3.5))
                  for _ in range(self.n_family)]
        # Two narrow blobs in opposite corners: off the family.
        planted = [blob(rng.uniform(4, 6), rng.uniform(4, 6), 1.5)
                   + blob(rng.uniform(10, 12), rng.uniform(10, 12), 1.5)
                   for _ in range(self.n_anomalies)]
        order = rng.permutation(self.n_family + self.n_anomalies)
        images = np.vstack(family + planted)[order]
        np.savetxt(work / "images.csv", images, delimiter=",", fmt="%.17g")
        np.save(work / "images.npy", images)  # the same values, quicker to reload for checks
        np.save(work / "planted.npy", order >= self.n_family)

    def tables(self) -> list[tuple[int, Kernel]]:
        # The family reads d_hat = 3 and the planted images 5 or 6 on every
        # seed tried; mh-test reads d = 1.
        return [(d, Kernel("geometric", self.alpha)) for d in (1, 3, 5, 6)]

    def operations(self, work: Path):
        from singscan import cli

        nulls = ["--null-dir", str(work / "nulls"),
                 "--null-nref", str(self.n_ref), "--null-sims", str(self.n_sims)]
        argvs = [
            ("ingest-dct", ["ingest-dct", "--input", str(work / "images.csv"),
                            "--output", str(work / "dct.csv"), "--keep", str(self.keep)]),
            ("detect", ["detect", "--input", str(work / "dct.csv"),
                        "--output", str(work / "scores.csv"), "--knn", str(self.knn),
                        "--eta", str(self.eta), *nulls]),
            ("mh-test", ["mh-test", "--scores", str(work / "scores.csv"),
                         "--output", str(work / "mh.json"), *nulls]),
        ]
        return [(name, lambda argv=argv: cli.main(argv)) for name, argv in argvs]

    def collect(self, work: Path, raw: dict) -> dict:
        out = {}
        if "ingest-dct" in raw:
            out["dct"] = np.loadtxt(work / "dct.csv", delimiter=",", ndmin=2)
        if "detect" in raw:
            out["scores"] = _read_scores_csv(work / "scores.csv")
        if "mh-test" in raw:
            out["mh"] = json.loads((work / "mh.json").read_text())
        return out

    def check(self, work: Path, out: dict) -> tuple[dict[str, list[str]], float]:
        planted = np.load(work / "planted.npy")
        problems = {op: [] for op in self.ops}
        auc = 0.0
        if "dct" in out:
            self._check_dct(work, np.load(work / "images.npy"), out["dct"], problems["ingest-dct"])
        if "scores" in out:
            s, bad = out["scores"], problems["detect"]
            if not _nan_equal(s["index"], np.arange(planted.size)):
                bad.append(f"score rows are not the {planted.size} images in order")
                return problems, auc
            if not np.all(s["k_obs"] == self.knn):
                bad.append(f"k_obs is not {self.knn} everywhere")
            _check_p_values(s, bad)
            _check_labels(s, bad)
            dims, counts = np.unique(s["d_hat"][~planted], return_counts=True)
            if not 2 <= dims[np.argmax(counts)] <= 4:
                bad.append(f"modal d_hat {dims[np.argmax(counts)]:g} of a 3-parameter family")
            if np.all(np.isfinite(s["p"])):
                auc = ref.auc(-np.log(s["p"]), planted)
                if auc < self.auc_bar:
                    bad.append(f"AUC {auc:.4f} < {self.auc_bar}")
        if "mh" in out and "scores" in out:
            _check_mh(out["mh"], out["scores"]["p"], problems["mh-test"])
        return problems, auc

    def _check_dct(self, work, images, dct, problems) -> None:
        """The kept block of sampled rows against C X C^T with an explicit
        orthonormal DCT-II matrix C."""
        if dct.shape != (len(images), self.keep * self.keep):
            problems.append(f"DCT output shape {dct.shape}")
            return
        c = ref.dct_matrix(self.side)
        seed = int((work / "seed.txt").read_text())
        rows = np.random.default_rng([seed, 2]).choice(len(images), size=CHECK_POINTS)
        for i in rows:
            block = (c @ images[i].reshape(self.side, self.side) @ c.T)[: self.keep, : self.keep]
            if not np.allclose(block.ravel(), dct[i], rtol=1e-12, atol=1e-12):
                problems.append(f"row {i}: DCT block differs from C X C^T")
                return


WORKLOADS = {w.name: w for w in (DetectTwoDisks, AutoTwoCircles, ImageAnomalies)}
