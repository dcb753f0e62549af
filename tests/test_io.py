import math
import tracemalloc

import numpy as np
import pytest
from scipy.fft import dctn

from singscan import io
from singscan.io import (
    InputError,
    atomic_write_bytes,
    dct_reduce,
    read_point_cloud_csv,
    read_scores_csv,
    write_grid_report,
    write_point_cloud_csv,
    write_scores_csv,
)
from singscan.scoring import log_inv_p
from singscan.tuning import GridRow
from singscan.uniformity import Scores


def _read(tmp_path, text):
    path = tmp_path / "cloud.csv"
    path.write_text(text)
    return path, read_point_cloud_csv(path)


def _error(tmp_path, text):
    path = tmp_path / "cloud.csv"
    path.write_text(text)
    with pytest.raises(InputError) as info:
        read_point_cloud_csv(path)
    return path, str(info.value)


def test_read_parses_rows_exactly(tmp_path):
    values = np.random.default_rng(0).standard_normal((50, 3))
    text = "\n".join(",".join(repr(v) for v in row) for row in values.tolist()) + "\n"
    _, got = _read(tmp_path, text)
    assert got.shape == (50, 3)
    assert np.array_equal(got, values)


def test_read_non_numeric_row_named(tmp_path):
    path, msg = _error(tmp_path, "0,0\n1,2\n3,oops\n4,5\n")
    assert msg == f"{path}:3: row is not numeric"


def test_read_wrong_column_count_named(tmp_path):
    path, msg = _error(tmp_path, "0,0\n1,2\n3,4,5\n")
    assert msg == f"{path}:3: expected 2 columns, got 3"


def test_read_non_finite_value_named(tmp_path):
    path, msg = _error(tmp_path, "0,0\n1,2\n3,inf\n")
    assert msg == f"{path}:3: non-finite value"
    path, msg = _error(tmp_path, "0,0\nnan,2\n")
    assert msg == f"{path}:2: non-finite value"


def test_read_no_data_rows(tmp_path):
    for text in ("", "x,y\n", "\n\n"):
        path, msg = _error(tmp_path, text)
        assert msg == f"{path}: no data rows"


def test_read_skips_blank_and_comma_only_rows(tmp_path):
    _, got = _read(tmp_path, "1,2\n\n,\n  \n3, 4\n")
    assert np.array_equal(got, [[1.0, 2.0], [3.0, 4.0]])


def test_read_header_skipped_only_on_line_one(tmp_path):
    _, got = _read(tmp_path, "x,y\n1,2\n3,4\n")
    assert np.array_equal(got, [[1.0, 2.0], [3.0, 4.0]])
    path, msg = _error(tmp_path, "1,2\nx,y\n3,4\n")
    assert msg == f"{path}:2: row is not numeric"
    path, msg = _error(tmp_path, "\nx,y\n3,4\n")
    assert msg == f"{path}:2: row is not numeric"


def test_write_rows_byte_identical_to_per_value_format(tmp_path):
    coords = np.array([
        [-0.0, 5e-324, 1e308, 3.0],
        [0.1, -2.5e-310, 1.0 / 3.0, -7.0],
        [np.nextafter(1.0, 2.0), 123456789012345678.0, -1e-5, 0.0],
    ])
    path = tmp_path / "out.csv"
    for values in (coords, np.array([[1, -2, 30], [0, 5, 6]])):
        write_point_cloud_csv(path, values)
        want = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in values)
        assert path.read_bytes() == want.encode()
    write_point_cloud_csv(path, coords)
    assert np.array_equal(read_point_cloud_csv(path), coords)
    assert np.signbit(read_point_cloud_csv(path)[0, 0])


def test_scores_csv_log_inv_p_is_the_filters_score(tmp_path):
    # The column `roc --scores` ranks is, bit for bit, the log(1/p) that the
    # knee filter and the evaluation compute, from p near 1 (where libm's
    # log and NumPy's differ most often) down to the p-value floor.
    rng = np.random.default_rng(0)
    p = np.concatenate([
        rng.random(50_000), 10.0 ** -rng.uniform(0.0, 300.0, 50_000), [1.0, 1e-300, np.nan]
    ])
    m = len(p)
    scores = Scores(np.full(m, 20), np.where(np.isnan(p), np.nan, 2.0), np.full(m, 0.01), p)
    write_scores_csv(tmp_path / "scores.csv", scores, np.zeros(m, dtype=int))
    written = read_scores_csv(tmp_path / "scores.csv")
    assert np.array_equal(written["p_value"], p, equal_nan=True)
    assert np.array_equal(written["log_inv_p"], log_inv_p(p), equal_nan=True)


def _record_pieces(monkeypatch) -> list[bytes]:
    """The pieces each later write hands to the atomic writer, in order."""
    pieces: list[bytes] = []
    write = io.atomic_write_bytes
    monkeypatch.setattr(io, "atomic_write_bytes",
                        lambda path, it: write(path, (pieces.append(p) or p for p in it)))
    return pieces


@pytest.mark.parametrize("n, dim", [(1, 4), (13, 1), (40, 1), (20, 2), (21, 2)])
def test_streamed_writers_equal_one_shot_text(tmp_path, monkeypatch, n, dim):
    # 500-byte pieces hold 20 values, 5 score lines or 4 report lines: the
    # sizes land one row, one column, exactly on a piece boundary and just past one.
    monkeypatch.setattr("singscan.io.CACHE_BYTES", 500)
    pieces = _record_pieces(monkeypatch)
    rng = np.random.default_rng(n * dim)
    coords = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-300, 300, (n, dim))
    write_point_cloud_csv(tmp_path / "cloud.csv", coords)
    want = "\n".join(",".join("%.17g" % v for v in row) for row in coords.tolist()) + "\n"
    assert (tmp_path / "cloud.csv").read_bytes() == want.encode()
    assert len(pieces) == math.ceil(n / (20 // dim))

    p = rng.random(n)
    p[::3] = np.nan
    scores = Scores(rng.integers(0, 500, n), np.where(np.isnan(p), np.nan, 2.0), rng.random(n), p)
    labels = rng.integers(0, 2, n)
    lines = [",".join(io.SCORES_HEADER)]
    for i, (k, d, mmd, pv, score, label) in enumerate(zip(
        scores.k_obs.tolist(), scores.d_hat.tolist(), scores.mmd.tolist(), p.tolist(),
        log_inv_p(p).tolist(), labels.tolist(),
    )):
        lines.append(f"{i},,{k},,,,{label}" if math.isnan(pv)
                     else f"{i},{int(d)},{k},{mmd:.17g},{pv:.17g},{score:.17g},{label}")
    pieces.clear()
    write_scores_csv(tmp_path / "scores.csv", scores, labels)
    assert (tmp_path / "scores.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
    assert len(pieces) == 1 + math.ceil(n / 5)

    rows = [GridRow(*rng.random(4).tolist(), int(rng.integers(0, n + 1)), bool(i % 2))
            for i in range(n)]
    lines = [",".join(io.GRID_REPORT_HEADER)] + [
        f"{row.r!r},{row.eta!r},{row.alpha!r},{row.dispersion!r},{row.n_singular},"
        f"{int(row.warn_degenerate)}" for row in rows
    ]
    pieces.clear()
    write_grid_report(tmp_path / "grid.csv", rows)
    assert (tmp_path / "grid.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
    assert len(pieces) == 1 + math.ceil(n / 4)


def test_atomic_write_keeps_the_target_when_a_piece_fails(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old\n")

    def pieces():
        yield b"new,"
        raise RuntimeError("no more pieces")

    with pytest.raises(RuntimeError, match="no more pieces"):
        atomic_write_bytes(path, pieces())
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("keep", [3, 16])
def test_dct_reduce_equals_one_transform_of_all_images(keep):
    # 16 x 16 images go 512 to a block, so 1,300 of them take three blocks.
    images = np.random.default_rng(keep).random((1300, 256))
    whole = dctn(images.reshape(-1, 16, 16), type=2, norm="ortho", axes=(1, 2))
    want = whole[:, :keep, :keep].reshape(len(images), keep * keep)
    assert np.array_equal(dct_reduce(images, keep), want)


def _traced_peak(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writing_and_dct_hold_a_few_blocks(tmp_path):
    # The image benchmark's sizes: 6,060 images of 16 x 16, reduced to 100
    # coefficients, of which the DCT's output alone is 4.8 MB.
    rng = np.random.default_rng(0)
    images = rng.random((6060, 256))
    assert _traced_peak(lambda: dct_reduce(images, 10)) < 10 * 2**20
    coeffs = rng.standard_normal((6060, 100))
    assert _traced_peak(lambda: write_point_cloud_csv(tmp_path / "dct.csv", coeffs)) < 10 * 2**20
    assert np.array_equal(read_point_cloud_csv(tmp_path / "dct.csv"), coeffs)
