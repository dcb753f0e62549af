import numpy as np
import pytest

from singscan.io import (
    InputError,
    read_point_cloud_csv,
    read_scores_csv,
    write_point_cloud_csv,
    write_scores_csv,
)
from singscan.scoring import log_inv_p
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
