import subprocess
import sys
from pathlib import Path

import numpy as np

from singscan import Scores
from singscan.io import write_scores_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_scores.py"


def _write(path, mmd, labels):
    n = len(mmd)
    k_obs = np.array([5] + [12] * (n - 1))
    d_hat = np.where(k_obs >= 10, 2.0, np.nan)
    p = np.where(k_obs >= 10, np.linspace(0.1, 0.9, n), np.nan)
    write_scores_csv(path, Scores(k_obs, d_hat, np.where(k_obs >= 10, mmd, np.nan), p), labels)
    return path


def _compare(a, b):
    run = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                         capture_output=True, text=True, timeout=60)
    return run.returncode, run.stdout


def test_float_differences_are_reported_without_failing(tmp_path):
    mmd = np.linspace(0.01, 0.05, 6)
    a = _write(tmp_path / "a.csv", mmd, [0, 0, 1, 0, 0, 0])
    b = _write(tmp_path / "b.csv", mmd + 1e-15, [0, 0, 1, 0, 0, 0])
    code, out = _compare(a, b)
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.splitlines())
    assert lines["mmd"].startswith("DIFFERENT")
    assert lines["est_dim"].startswith("equal") and lines["label"].startswith("equal")
    assert _compare(a, a)[0] == 0


def test_label_difference_or_missing_file_fails(tmp_path):
    mmd = np.linspace(0.01, 0.05, 6)
    a = _write(tmp_path / "a.csv", mmd, [0, 0, 1, 0, 0, 0])
    b = _write(tmp_path / "b.csv", mmd, [0, 0, 0, 0, 0, 1])
    code, out = _compare(a, b)
    assert code == 1
    assert "label" in out and "DIFFERENT" in out
    assert _compare(a, tmp_path / "missing.csv")[0] == 2


def _write_report(scores_path, dispersion, n_singular):
    lines = ["r,eta,alpha,dispersion,n_singular,warn_degenerate"]
    lines += [f"0.1,0.8,{alpha!r},{d!r},{s},0"
              for alpha, d, s in zip((0.3, 0.5), dispersion, n_singular)]
    scores_path.with_suffix(".report.csv").write_text("\n".join(lines) + "\n")


def test_grid_reports_beside_both_files_are_compared(tmp_path):
    mmd = np.linspace(0.01, 0.05, 6)
    a = _write(tmp_path / "a.csv", mmd, [0, 0, 1, 0, 0, 0])
    b = _write(tmp_path / "b.csv", mmd, [0, 0, 1, 0, 0, 0])
    _write_report(a, (0.25, 0.5), (1, 2))
    assert "grid report" not in _compare(a, b)[1]

    _write_report(b, (0.25 + 1e-15, 0.5), (1, 2))
    code, out = _compare(a, b)
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.splitlines())
    assert lines["dispersion"].startswith("DIFFERENT")
    assert lines["n_singular"].startswith("equal")

    _write_report(b, (0.25, 0.5), (1, 3))
    code, out = _compare(a, b)
    assert code == 1
    assert out.split("grid report:")[1].count("DIFFERENT") == 1

    b.with_suffix(".report.csv").write_text("r,eta\n0.1,0.8\n")
    assert _compare(a, b)[0] == 2
