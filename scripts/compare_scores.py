#!/usr/bin/env python3
"""Compare two `singscan detect` / `auto` scores files column by column.

For each column prints whether the two files hold NaN-equal values and the
largest absolute difference where both are finite.  Exits 1 when the files
differ in `index`, `k_obs`, `est_dim` or `label` (or in length), 2 when a file
cannot be read, and 0 otherwise: the float columns `mmd`, `p_value` and
`log_inv_p` may differ by rounding without failing.

Example:
    python scripts/compare_scores.py before/scores.csv after/scores.csv
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from singscan.io import SCORES_HEADER, InputError, read_scores_csv  # noqa: E402

EXACT_COLUMNS = ("index", "k_obs", "est_dim", "label")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first scores CSV")
    parser.add_argument("b", help="second scores CSV")
    args = parser.parse_args()
    try:
        a, b = read_scores_csv(args.a), read_scores_csv(args.b)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows_a, rows_b = len(a["index"]), len(b["index"])
    if rows_a != rows_b:
        print(f"row counts differ: {rows_a} vs {rows_b}")
        return 1
    failed = False
    for name in SCORES_HEADER:
        x, y = a[name], b[name]
        equal = np.array_equal(x, y, equal_nan=True)
        both = np.isfinite(x) & np.isfinite(y)
        gap = float(np.abs(x[both] - y[both]).max()) if both.any() else 0.0
        nan_note = "" if np.array_equal(np.isnan(x), np.isnan(y)) else "  NaN cells differ"
        print(f"{name:>10}  {'equal' if equal else 'DIFFERENT':9}  max|diff| {gap:.3g}{nan_note}")
        failed |= name in EXACT_COLUMNS and not equal
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
