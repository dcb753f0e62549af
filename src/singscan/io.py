"""CSV ingestion/emission and the DCT image-reduction utility."""

from __future__ import annotations

import csv
import math
import os
import secrets
import warnings
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

import numpy as np
from scipy.fft import dctn

from .geometry import CACHE_BYTES
from .scoring import log_inv_p

SCORES_HEADER = ["index", "est_dim", "k_obs", "mmd", "p_value", "log_inv_p", "label"]
GRID_REPORT_HEADER = ["r", "eta", "alpha", "dispersion", "n_singular", "warn_degenerate"]
# Characters a ``%.17g`` value takes at most with its separator, such as
# "-2.2250738585072014e-308,"; they size the pieces of text written at once.
_VALUE_CHARS = 25


class InputError(Exception):
    """User-supplied input could not be used (maps to exit code 2)."""


def _try_parse_row(cells: list[str]) -> list[float] | None:
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def _scan_point_rows(path: Path) -> np.ndarray:
    """Parse the point-cloud CSV one csv record at a time, naming the line of
    the first malformed row."""
    rows: list[list[float]] = []
    width = None
    with open(path, newline="") as fh:
        for lineno, cells in enumerate(csv.reader(fh), start=1):
            if not cells or all(not c.strip() for c in cells):
                continue
            parsed = _try_parse_row(cells)
            if parsed is None:
                if lineno == 1:
                    continue  # header row
                raise InputError(f"{path}:{lineno}: row is not numeric")
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise InputError(
                    f"{path}:{lineno}: expected {width} columns, got {len(parsed)}"
                )
            if not all(math.isfinite(v) for v in parsed):
                raise InputError(f"{path}:{lineno}: non-finite value")
            rows.append(parsed)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def read_point_cloud_csv(path: str | Path) -> np.ndarray:
    """Headerless CSV of one point per row; a leading row with non-numeric
    cells is treated as a header.  Malformed rows are reported by line number.

    Well-formed files are parsed in C by ``np.loadtxt``.  When that parse
    fails or yields a non-finite value, the record-by-record scan runs
    instead: it names the offending line, and it also reads what only it
    accepts (blank or comma-only rows, quoted cells)."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    with open(path, newline="") as fh:
        first = next(csv.reader(fh), [])
    header = any(c.strip() for c in first) and _try_parse_row(first) is None
    try:
        with warnings.catch_warnings():
            # A file without data rows warns here; the scan reports it.
            warnings.simplefilter("ignore", UserWarning)
            coords = np.loadtxt(
                path, delimiter=",", comments=None, ndmin=2, skiprows=int(header)
            )
    except ValueError:
        return _scan_point_rows(path)
    if coords.size == 0 or not np.all(np.isfinite(coords)):
        return _scan_point_rows(path)
    return coords


def atomic_write_bytes(path: str | Path, pieces: Iterable[bytes]) -> None:
    """Replace ``path`` with the concatenated ``pieces`` in one step: write
    them in turn to a temporary file of a name unique to this write in the
    same directory, then rename it over ``path``.  Concurrent writers of one
    path never share a temporary file, so each rename installs one writer's
    complete data; a piece that fails to come leaves ``path`` as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, [text.encode()])


def _line_pieces(
    header: list[str] | None, n_lines: int, line_chars: int, lines: Callable[[int, int], str]
) -> Iterator[bytes]:
    """Encoded text of a CSV file in pieces of about CACHE_BYTES: the header
    line, if any, then ``lines(a, b)``, the text of lines a to b - 1 each
    ended by a newline, over consecutive ranges of as many lines of at most
    ``line_chars`` characters as fill CACHE_BYTES."""
    if header is not None:
        yield (",".join(header) + "\n").encode()
    step = max(1, CACHE_BYTES // line_chars)
    for a in range(0, n_lines, step):
        yield lines(a, min(a + step, n_lines)).encode()


def write_point_cloud_csv(path: str | Path, coords: np.ndarray) -> None:
    """One point per row, each value as ``%.17g`` (round-trips exactly)."""
    rows = np.atleast_2d(coords)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    atomic_write_bytes(path, _line_pieces(
        None, len(rows), _VALUE_CHARS * rows.shape[1],
        lambda a, b: (line * (b - a)) % tuple(rows[a:b].ravel().tolist()),
    ))


def write_scores_csv(path: str | Path, scores, labels) -> None:
    """Per-point detect output of a ``Scores``: index, est_dim, k_obs, mmd,
    p_value, log_inv_p, label.  log_inv_p is ``scoring.log_inv_p``, the score
    the knee filter reads.  Missing score fields are left empty."""
    columns = (
        scores.k_obs, scores.d_hat, scores.mmd, scores.p_value,
        log_inv_p(scores.p_value), np.asarray(labels),
    )

    def lines(a: int, b: int) -> str:
        rows = zip(*(column[a:b].tolist() for column in columns))
        return "".join(
            f"{i},,{k},,,,{label}\n" if math.isnan(p)
            else f"{i},{int(d)},{k},{mmd:.17g},{p:.17g},{score:.17g},{label}\n"
            for i, (k, d, mmd, p, score, label) in enumerate(rows, start=a)
        )

    atomic_write_bytes(path, _line_pieces(
        SCORES_HEADER, min(map(len, columns)), 4 * _VALUE_CHARS, lines
    ))


def write_grid_report(path: str | Path, rows) -> None:
    """``auto``'s grid report, a line per ``GridRow`` in the order given;
    floats as ``repr``, which round-trips, and warn_degenerate as 0 or 1."""
    rows = list(rows)

    def lines(a: int, b: int) -> str:
        return "".join(
            f"{row.r!r},{row.eta!r},{row.alpha!r},"
            f"{row.dispersion!r},{row.n_singular},{int(row.warn_degenerate)}\n"
            for row in rows[a:b]
        )

    atomic_write_bytes(path, _line_pieces(GRID_REPORT_HEADER, len(rows), 5 * _VALUE_CHARS, lines))


def read_scores_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a detect output back; empty cells become NaN."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"scores file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != SCORES_HEADER:
            raise InputError(f"{path}: not a scores CSV (expected header {SCORES_HEADER})")
        columns: list[list[float]] = [[] for _ in SCORES_HEADER]
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(SCORES_HEADER):
                raise InputError(f"{path}:{lineno}: wrong column count")
            try:
                for col, cell in zip(columns, cells):
                    col.append(float(cell) if cell.strip() else math.nan)
            except ValueError:
                raise InputError(f"{path}:{lineno}: non-numeric value") from None
    return {name: np.asarray(col) for name, col in zip(SCORES_HEADER, columns)}


def read_label_column(path: str | Path) -> np.ndarray:
    """Single-column binary labels; any blank or non-binary row is an error."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"labels file not found: {path}")
    labels = []
    with open(path, newline="") as fh:
        for lineno, cells in enumerate(csv.reader(fh), start=1):
            if not cells or all(not c.strip() for c in cells):
                raise InputError(f"{path}:{lineno}: missing label")
            cell = cells[0].strip()
            if lineno == 1 and _try_parse_row([cell]) is None:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise InputError(f"{path}:{lineno}: missing or non-numeric label")
            if value not in (0.0, 1.0):
                raise InputError(f"{path}:{lineno}: label must be 0 or 1")
            labels.append(int(value))
    if not labels:
        raise InputError(f"{path}: no labels")
    return np.asarray(labels, dtype=int)


def dct_reduce(rows: np.ndarray, keep: int) -> np.ndarray:
    """Reduce flattened square grayscale images to their top-left keep x keep
    block of orthonormal type-II DCT coefficients (row-major).  Each image is
    transformed alone, so the images go in blocks of about CACHE_BYTES."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    side = int(round(math.sqrt(rows.shape[1])))
    if side * side != rows.shape[1]:
        raise InputError(
            f"rows of length {rows.shape[1]} do not reshape to a square image"
        )
    if keep < 1 or keep > side:
        raise InputError(f"keep must be in [1, {side}]")
    images = rows.reshape(-1, side, side)
    out = np.empty((len(rows), keep * keep))
    step = max(1, CACHE_BYTES // (8 * side * side))
    for a in range(0, len(rows), step):
        coeffs = dctn(images[a : a + step], type=2, norm="ortho", axes=(1, 2))
        out[a : a + step] = coeffs[:, :keep, :keep].reshape(-1, keep * keep)
    return out
