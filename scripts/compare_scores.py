#!/usr/bin/env python3
"""Compare two `singscan detect` / `auto` scores files column by column.

For each column prints whether the two files hold NaN-equal values and the
largest absolute difference where both are finite.  When both files have an
`auto` grid report beside them (`<stem>.report.csv`), its columns are
compared the same way.  Exits 1 when the files differ in `index`, `k_obs`,
`est_dim` or `label`, the reports in `r`, `eta`, `alpha`, `n_singular` or
`warn_degenerate` (or either in length), 2 when a file cannot be read, and
0 otherwise: the float columns `mmd`, `p_value`, `log_inv_p` and the
report's `dispersion` may differ by rounding without failing.

Example:
    python scripts/compare_scores.py before/scores.csv after/scores.csv
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from singscan.io import (  # noqa: E402
    GRID_REPORT_HEADER,
    SCORES_HEADER,
    InputError,
    read_scores_csv,
)

EXACT_COLUMNS = ("index", "k_obs", "est_dim", "label")
EXACT_REPORT_COLUMNS = ("r", "eta", "alpha", "n_singular", "warn_degenerate")


def read_report(path: Path) -> dict[str, np.ndarray]:
    """Columns of an `auto` grid report as float arrays."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {name: np.array([float(row[name]) for row in rows]) for name in GRID_REPORT_HEADER}
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: not a grid report ({exc})") from exc


def compare(a: dict, b: dict, header, exact) -> bool:
    """Print one line per column; True when an exact column differs."""
    rows_a, rows_b = len(a[header[0]]), len(b[header[0]])
    if rows_a != rows_b:
        print(f"row counts differ: {rows_a} vs {rows_b}")
        return True
    failed = False
    for name in header:
        x, y = a[name], b[name]
        equal = np.array_equal(x, y, equal_nan=True)
        both = np.isfinite(x) & np.isfinite(y)
        gap = float(np.abs(x[both] - y[both]).max()) if both.any() else 0.0
        nan_note = "" if np.array_equal(np.isnan(x), np.isnan(y)) else "  NaN cells differ"
        print(f"{name:>15}  {'equal' if equal else 'DIFFERENT':9}  max|diff| {gap:.3g}{nan_note}")
        failed |= name in exact and not equal
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first scores CSV")
    parser.add_argument("b", help="second scores CSV")
    args = parser.parse_args()
    reports = [Path(p).with_suffix(".report.csv") for p in (args.a, args.b)]
    try:
        a, b = read_scores_csv(args.a), read_scores_csv(args.b)
        if all(p.exists() for p in reports):
            report_a, report_b = map(read_report, reports)
        else:
            report_a = report_b = None
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = compare(a, b, SCORES_HEADER, EXACT_COLUMNS)
    if report_a is not None:
        print("grid report:")
        failed |= compare(report_a, report_b, GRID_REPORT_HEADER, EXACT_REPORT_COLUMNS)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
