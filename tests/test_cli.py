import json
import math
import subprocess
import sys

import numpy as np
import pytest

from singscan.cli import main
from singscan.io import InputError, dct_reduce, dct_restore, read_point_cloud_csv
from singscan.synth import ShapeSpec, generate


def _write_cloud(path, coords):
    path.write_text("\n".join(",".join(f"{v:.12g}" for v in row) for row in coords) + "\n")


@pytest.fixture(scope="module")
def disk_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("clouds")
    lab = generate(ShapeSpec("solid_ball", 400, dim=2, noise_amplitude=0.0, seed=0))
    path = root / "disk.csv"
    _write_cloud(path, lab.cloud)
    return path


def _detect_args(inp, out, nulls, extra=()):
    return [
        "detect",
        "--input", str(inp),
        "--output", str(out),
        "--radius", "0.4",
        "--eta", "0.8",
        "--alpha", "0.5",
        "--seed", "0",
        "--null-dir", str(nulls),
    ] + list(extra)


def test_detect_row_count_and_rerun_identical(tmp_path, disk_csv):
    out = tmp_path / "scores.csv"
    nulls = tmp_path / "nulls"
    assert main(_detect_args(disk_csv, out, nulls)) == 0
    body1 = out.read_bytes()
    lines = body1.decode().strip().split("\n")
    assert lines[0] == "index,est_dim,k_obs,mmd,p_value,log_inv_p,label"
    assert len(lines) == 401
    assert main(_detect_args(disk_csv, out, nulls)) == 0
    assert out.read_bytes() == body1


def test_detect_malformed_row_named(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,0.0\n1.0,oops\n2.0,2.0\n")
    code = main(["detect", "--input", str(bad), "--output", str(tmp_path / "o.csv"),
                 "--radius", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert ":2:" in err


def test_detect_header_autodetected(tmp_path):
    csv = tmp_path / "headered.csv"
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(60, 2))
    csv.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in pts) + "\n")
    cloud = read_point_cloud_csv(csv)
    assert cloud.shape == (60, 2)


def test_detect_requires_one_neighborhood_flag(tmp_path, disk_csv, capsys):
    code = main(["detect", "--input", str(disk_csv), "--output", str(tmp_path / "o.csv")])
    assert code == 2
    code = main(["detect", "--input", str(disk_csv), "--output", str(tmp_path / "o.csv"),
                 "--radius", "0.2", "--knn", "30"])
    assert code == 2


def test_detect_labels_concentrate_near_crossings(tmp_path, null_cache):
    lab = generate(ShapeSpec("two_circles", 3000, noise_amplitude=0.01, seed=1))
    inp = tmp_path / "cross.csv"
    _write_cloud(inp, lab.cloud)
    out = tmp_path / "cross_scores.csv"
    r = 0.2
    code = main([
        "detect", "--input", str(inp), "--output", str(out),
        "--radius", str(r), "--eta", "0.8", "--alpha", "0.5",
        "--seed", "0", "--null-dir", str(null_cache.directory),
    ])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    labels = np.array([int(row.split(",")[-1]) for row in rows])
    assert labels.sum() > 0
    near = lab.dist_to_singular[labels == 1] <= 2 * r
    assert near.mean() >= 0.8


def test_auto_single_config_matches_detect(tmp_path, disk_csv, null_cache):
    grid = json.dumps({"radii": [0.4], "etas": [0.8], "alphas": [0.5], "bounds": [0.4, 0.4]})
    auto_out = tmp_path / "auto.csv"
    code = main([
        "auto", "--input", str(disk_csv), "--output", str(auto_out),
        "--grid", grid, "--seed", "0", "--null-dir", str(null_cache.directory),
    ])
    assert code == 0
    detect_out = tmp_path / "direct.csv"
    assert main(_detect_args(disk_csv, detect_out, null_cache.directory)) == 0
    assert auto_out.read_text() == detect_out.read_text()
    report = (tmp_path / "auto.report.csv").read_text().strip().split("\n")
    assert report[0] == "r,eta,alpha,dispersion,n_singular,warn_degenerate"
    assert len(report) == 2


def test_mh_test_from_scores(tmp_path, disk_csv, null_cache):
    scores = tmp_path / "scores.csv"
    assert main(_detect_args(disk_csv, scores, null_cache.directory)) == 0
    out = tmp_path / "mh.json"
    code = main([
        "mh-test", "--scores", str(scores), "--output", str(out),
        "--null-dir", str(null_cache.directory), "--seed", "0",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"supc", "ks_stat", "ks_p", "n_used", "upup_stat", "upup_p"}
    assert payload["n_used"] > 50


def test_mh_test_small_sample_drops_upup(tmp_path):
    scores = tmp_path / "small_scores.csv"
    header = "index,est_dim,k_obs,mmd,p_value,log_inv_p,label"
    rows = [f"{i},1,20,0.001,{0.1 + 0.02*i:.3f},{-math.log(0.1 + 0.02*i):.5f},0" for i in range(30)]
    scores.write_text(header + "\n" + "\n".join(rows) + "\n")
    out = tmp_path / "mh_small.json"
    assert main(["mh-test", "--scores", str(scores), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"supc", "ks_stat", "ks_p", "n_used"}
    assert payload["n_used"] == 30


def test_synth_writes_cloud_and_distance_sidecar(tmp_path):
    out = tmp_path / "two.csv"
    code = main(["synth", "--shape", "two_spheres", "--dim", "1", "--n", "1000",
                 "--noise", "0.0", "--seed", "0", "--output", str(out)])
    assert code == 0
    cloud = read_point_cloud_csv(out)
    assert cloud.shape == (1000, 2)
    dist_lines = (tmp_path / "two.dist.csv").read_text().strip().split("\n")
    assert dist_lines[0] == "dist_to_singular"
    assert len(dist_lines) == 1001


def test_roc_command_perfect_scores(tmp_path):
    scores = tmp_path / "s.csv"
    labels = tmp_path / "y.csv"
    scores.write_text("0.1\n0.2\n0.9\n0.8\n")
    labels.write_text("0\n0\n1\n1\n")
    out = tmp_path / "roc.json"
    curve = tmp_path / "curve.csv"
    code = main(["roc", "--scores", str(scores), "--labels", str(labels),
                 "--output", str(out), "--curve-out", str(curve)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["auc"] == pytest.approx(1.0)
    assert curve.read_text().splitlines()[0] == "fpr,tpr"


def test_roc_command_missing_label_is_named(tmp_path, capsys):
    scores = tmp_path / "s.csv"
    labels = tmp_path / "y.csv"
    scores.write_text("0.1\n0.2\n0.9\n")
    labels.write_text("0\n\n1\n")
    code = main(["roc", "--scores", str(scores), "--labels", str(labels)])
    assert code == 2
    assert ":2:" in capsys.readouterr().err


def test_ingest_dct_constant_image(tmp_path):
    side = 8
    img = np.full((1, side * side), 3.0)
    reduced = dct_reduce(img, keep=1)
    assert reduced.shape == (1, 1)
    assert reduced[0, 0] == pytest.approx(3.0 * side)


def test_ingest_dct_full_keep_invertible():
    rng = np.random.default_rng(0)
    side = 6
    imgs = rng.uniform(0, 1, size=(5, side * side))
    coeffs = dct_reduce(imgs, keep=side)
    back = dct_restore(coeffs, side)
    assert back == pytest.approx(imgs, abs=1e-9)


def test_ingest_dct_cli_and_dimensions(tmp_path):
    rng = np.random.default_rng(1)
    imgs = rng.uniform(0, 1, size=(7, 81))
    inp = tmp_path / "imgs.csv"
    _write_cloud(inp, imgs)
    out = tmp_path / "reduced.csv"
    assert main(["ingest-dct", "--input", str(inp), "--output", str(out), "--keep", "4"]) == 0
    assert read_point_cloud_csv(out).shape == (7, 16)


def test_ingest_dct_rejects_non_square(tmp_path):
    with pytest.raises(InputError):
        dct_reduce(np.zeros((2, 10)), keep=2)


def test_config_file_fills_missing_flags(tmp_path, disk_csv, null_cache):
    # "threads" names no RunConfig field (the flag is gone); the merge reads
    # only those fields, so a config file that still carries it loads.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "radius": 0.4, "eta": 0.8, "alpha": 0.5, "seed": 0, "threads": 4,
        "null_dir": str(null_cache.directory),
    }))
    out_cfg = tmp_path / "from_config.csv"
    code = main(["detect", "--input", str(disk_csv), "--output", str(out_cfg),
                 "--config", str(cfg)])
    assert code == 0
    out_flags = tmp_path / "from_flags.csv"
    assert main(_detect_args(disk_csv, out_flags, null_cache.directory)) == 0
    assert out_cfg.read_text() == out_flags.read_text()


def test_threads_flag_is_usage_error(tmp_path, disk_csv, capsys):
    with pytest.raises(SystemExit) as info:
        main(_detect_args(disk_csv, tmp_path / "o.csv", tmp_path / "nulls", ["--threads", "2"]))
    assert info.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_missing_input_file_is_exit_2(tmp_path, capsys):
    code = main(["detect", "--input", str(tmp_path / "nope.csv"),
                 "--output", str(tmp_path / "o.csv"), "--radius", "0.5"])
    assert code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "singscan.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "detect" in proc.stdout


def test_auto_all_degenerate_grid_is_internal_failure(tmp_path, disk_csv, null_cache, capsys):
    # a radius below the minimal spacing starves every configuration
    grid = json.dumps({"radii": [1e-6], "etas": [0.8], "alphas": [0.5], "bounds": [1e-6, 1e-6]})
    code = main([
        "auto", "--input", str(disk_csv), "--output", str(tmp_path / "o.csv"),
        "--grid", grid, "--seed", "0", "--null-dir", str(null_cache.directory),
    ])
    assert code == 1
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("detect", ["--radius", "-1"]),
    ("detect", ["--radius", "0.4", "--eta", "1.5"]),
    ("detect", ["--radius", "0.4", "--alpha", "1.5"]),
    ("detect", ["--knn", "400"]),
    ("detect", ["--knn", "0"]),
    ("detect", ["--radius", "0.4", "--subsample", "0"]),
    ("detect", ["--radius", "0.4", "--subsample", "1.5"]),
    ("detect", ["--radius", "0.4", "--null-sims", "199"]),
    ("detect", ["--radius", "0.4", "--null-nref", "49"]),
    ("auto", ["--grid", '{"radii": [100.0]}']),
    ("auto", ["--grid", '{"etas": []}']),
    ("auto", ["--grid", '{"etas": [1.5]}']),
    ("auto", ["--grid", '{"alphas": [0.0]}']),
])
def test_out_of_range_flag_is_exit_2(tmp_path, disk_csv, capsys, command, extra):
    # disk_csv has 400 points.
    code = main([command, "--input", str(disk_csv), "--output", str(tmp_path / "o.csv"),
                 "--seed", "0", "--null-dir", str(tmp_path / "nulls"), *extra])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "nulls").exists()


def test_auto_writes_the_winning_configuration_scores(tmp_path, null_cache):
    lab = generate(ShapeSpec("two_circles", 1000, noise_amplitude=0.01, seed=5))
    cloud = tmp_path / "cloud.csv"
    _write_cloud(cloud, lab.cloud)
    common = ["--input", str(cloud), "--subsample", "0.25", "--seed", "0",
              "--null-dir", str(null_cache.directory)]
    grid = json.dumps({"radii": [0.15, 0.3], "etas": [0.8, 0.9], "alphas": [0.5, 0.7],
                       "bounds": [0.15, 0.3]})
    auto_out = tmp_path / "auto.csv"
    assert main(["auto", "--output", str(auto_out), "--grid", grid, *common]) == 0
    with open(tmp_path / "auto.report.csv") as fh:
        rows = [line.split(",") for line in fh.read().split()[1:]]
    best = min(rows, key=lambda row: (float(row[3]), float(row[0]), float(row[1]), float(row[2])))
    detect_out = tmp_path / "detect.csv"
    assert main(["detect", "--output", str(detect_out), "--radius", best[0],
                 "--eta", best[1], "--alpha", best[2], *common]) == 0
    assert auto_out.read_bytes() == detect_out.read_bytes()


def test_auto_on_rotated_translated_demo_cloud(tmp_path, null_cache):
    # On this rigid motion of the demo cloud the lowest grid radius used to
    # round one ulp below the search range, and auto exited 1.
    lab = generate(ShapeSpec("two_circles", 1000, noise_amplitude=0.01, seed=5))
    rng = np.random.default_rng(1)
    theta = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    cloud = tmp_path / "moved.csv"
    np.savetxt(cloud, lab.cloud @ rot.T + rng.uniform(-5, 5, 2), delimiter=",", fmt="%.17g")
    out = tmp_path / "scores.csv"
    code = main([
        "auto", "--input", str(cloud), "--output", str(out), "--subsample", "0.25",
        "--seed", "0", "--null-dir", str(null_cache.directory),
    ])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 1001
