import numpy as np
import pytest

import convexuq as cq
from convexuq.dataio import read_matrix_csv
from convexuq.errors import ParseError


def test_read_samples_roundtrip(tmp_path):
    path = tmp_path / "s.csv"
    rows = np.array([[1.25, -3.5], [0.125, 7.0]])
    cq.write_samples_csv(path, ("a", "b"), rows)
    back = cq.read_samples_csv(path)
    assert back.names == ("a", "b")
    np.testing.assert_array_equal(back.rows, rows)


def test_read_samples_skips_blank_lines(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("a,b\n1,2\n\n3,4\n")
    assert cq.read_samples_csv(path).rows.shape == (2, 2)


def test_read_samples_bad_number_has_location(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("a,b\n1,2\n1,oops\n")
    with pytest.raises(ParseError) as exc:
        cq.read_samples_csv(path)
    assert exc.value.line == 3
    assert exc.value.field == "b"


def test_read_samples_cells_convert_as_stripped_text(tmp_path):
    """Whitespace around a cell, ASCII or not, is ignored as str.strip
    ignores it, and a row's first bad cell is the one named, stripped."""
    path = tmp_path / "s.csv"
    path.write_text("a,b,c\n 1.5 ,\t-2e3\u2003,\xa07\n", encoding="utf-8")
    np.testing.assert_array_equal(cq.read_samples_csv(path).rows, [[1.5, -2000.0, 7.0]])
    path.write_text("a,b,c\n1,2,3\n1, x ,y\n", encoding="utf-8")
    with pytest.raises(ParseError, match="cannot parse number 'x'") as exc:
        cq.read_samples_csv(path)
    assert (exc.value.line, exc.value.field) == (3, "b")


def test_read_samples_ragged_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("a,b\n1,2,3\n")
    with pytest.raises(ParseError):
        cq.read_samples_csv(path)


def test_read_samples_header_only(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("a,b\n")
    with pytest.raises(ParseError):
        cq.read_samples_csv(path)


def test_read_intervals(tmp_path):
    path = tmp_path / "iv.csv"
    path.write_text("a,0,4\nb,-3,1\n")
    spec = cq.read_intervals_csv(path)
    assert spec.names == ("a", "b")
    np.testing.assert_allclose(spec.midpoints, [2.0, -1.0])


def test_read_intervals_bad_field_count(tmp_path):
    path = tmp_path / "iv.csv"
    path.write_text("a,0\n")
    with pytest.raises(ParseError) as exc:
        cq.read_intervals_csv(path)
    assert exc.value.line == 1


def test_read_matrix_bad_cell_has_location(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1,0.5\n\n0.5,one\n")
    with pytest.raises(ParseError) as exc:
        read_matrix_csv(path)
    assert exc.value.line == 3
    assert exc.value.field == "column 2"
