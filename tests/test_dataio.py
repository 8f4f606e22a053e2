import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import convexuq as cq
from convexuq import dataio
from convexuq.dataio import read_matrix_csv
from convexuq.domain import SampleSet
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


@pytest.mark.parametrize("name", ["standard", "beam", "geotech"])
def test_read_samples_skips_a_byte_order_mark(tmp_path, data_dir, name):
    """A copy that starts with a UTF-8 byte-order mark, as Excel's "CSV
    UTF-8" writes, reads as the bundled file, bit for bit: the plain copy
    in one call, the quoted copy (its header names in quotes) on the walk."""
    text = (data_dir / f"{name}_samples.csv").read_text(encoding="utf-8")
    header, body = text.split("\n", 1)
    quoted = ",".join(f'"{cell}"' for cell in header.split(",")) + "\n" + body
    expected = _read_outcome(cq.read_samples_csv, data_dir / f"{name}_samples.csv")
    for copy in (text, quoted):
        path = tmp_path / "s.csv"
        path.write_bytes(b"\xef\xbb\xbf" + copy.encode("utf-8"))
        text = dataio.read_text(path, newline="")
        assert (dataio._plain_samples(text) is None) == (copy is quoted)
        assert _read_outcome(cq.read_samples_csv, path) == expected


def test_read_samples_reads_a_quoted_file_once(tmp_path, monkeypatch):
    """A file that takes the row walk (its header quoted) is read from disk
    and decoded once, for the one-call attempt and the walk alike."""
    path = tmp_path / "s.csv"
    rows = np.arange(2000.0).reshape(1000, 2) / 8.0
    path.write_text('"a","b"\n' + "".join(f"{x!r},{y!r}\n" for x, y in rows.tolist()))
    calls = []
    read_bytes = type(path).read_bytes
    monkeypatch.setattr(type(path), "read_bytes", lambda p: calls.append(p) or read_bytes(p))
    samples = cq.read_samples_csv(path)
    assert calls == [path]
    np.testing.assert_array_equal(samples.rows, rows)


def test_read_intervals_and_matrix_skip_a_byte_order_mark(tmp_path, data_dir):
    path = tmp_path / "iv.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (data_dir / "beam_intervals.csv").read_bytes())
    assert cq.read_intervals_csv(path) == cq.read_intervals_csv(data_dir / "beam_intervals.csv")
    path.write_bytes(b"\xef\xbb\xbf1,0.5\n0.5,1\n")
    np.testing.assert_array_equal(read_matrix_csv(path), [[1.0, 0.5], [0.5, 1.0]])


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, end):
    """A Latin-1 byte on line 3 raises ParseError with line 3, whatever the
    line ends, after a byte-order mark or not: on the sample file's
    one-call path and on its row walk, and in an interval file."""
    path = tmp_path / "s.csv"
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + end.join(["a,b", "1,2", "3,4\xe9", "5,6"]).encode("latin-1"))
        for read in (cq.read_samples_csv, _walk):
            with pytest.raises(ParseError, match="byte 0xe9 is not UTF-8") as exc:
                read(path)
            assert exc.value.line == 3
    path.write_bytes(end.join(["a,0,1", "b,0,1", "c\xe9,0,1"]).encode("latin-1"))
    with pytest.raises(ParseError) as exc:
        cq.read_intervals_csv(path)
    assert exc.value.line == 3


def test_read_intervals(tmp_path):
    path = tmp_path / "iv.csv"
    path.write_text("a,0,4\nb,-3,1\n")
    spec = cq.read_intervals_csv(path)
    assert spec.names == ("a", "b")
    np.testing.assert_allclose(spec.midpoints, [2.0, -1.0])


@pytest.mark.parametrize(
    "text, message, line",
    [("a,0,1\n , -1, 1\n", "blank variable name", 2), ("\n ,, \n", "interval file is empty", 1)],
)
def test_read_intervals_refuses_a_blank_name_and_an_empty_file(tmp_path, text, message, line):
    path = tmp_path / "iv.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=message) as exc:
        cq.read_intervals_csv(path)
    assert exc.value.line == line


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


def _walk(path):
    """The row walk, the reference of read_samples_csv: one csv.reader
    record at a time, one float() per cell, and a ParseError that names
    the first bad record's line and field."""
    records = dataio._records(dataio.read_text(path, newline=""))
    try:
        header_line, header = next(records)
    except StopIteration:
        raise ParseError("empty sample file", line=1) from None
    names = tuple(name.strip() for name in header)
    if any(not name for name in names):
        raise ParseError("blank name in header", line=header_line)
    rows = []
    for lineno, record in records:
        if len(record) != len(names):
            raise ParseError(f"expected {len(names)} values, got {len(record)}", line=lineno)
        try:  # float() ignores the whitespace that _parse_number strips
            rows.append([float(cell) for cell in record])
        except ValueError:  # raises the first bad cell's ParseError
            rows.append(
                [dataio._parse_number(cell, lineno, names[i]) for i, cell in enumerate(record)]
            )
    if not rows:
        raise ParseError("sample file has a header but no data rows", line=header_line + 1)
    matrix = np.array(rows, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ParseError("non-finite value in sample file")
    return SampleSet(names=names, rows=matrix)


def _read_outcome(read, path):
    """(names, rows as uint64, shape) of a read, or its exception's type,
    text, line and field; any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            samples = read(path)
        except Exception as exc:  # compared with the walk's
            return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "field", None)
    return samples.names, samples.rows.view(np.uint64).tolist(), samples.rows.shape


_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(
        ["1_0", "nan", "inf", "-inf", "1e400", " 1.5 ", "\t-2e3", "3\u2003", "\xa07", "2\x0c",
         "1\x0c2", "", "  ", '"3"', '"1,5"', "x", "\u0661", "0x1p3", "1\x00"]
    ),
)
_NAME = st.sampled_from(["a", "b", " c ", "d\x0c", "e\u2028", "", '"q"', '"r,s"', '"t\nu"'])


@st.composite
def _sample_texts(draw):
    """Sample CSV texts: a header of 1 to 3 names, then rows of that many
    cells, ragged rows, and blank, whitespace-only and comma-only lines,
    each ended by \\n, \\r\\n or a lone \\r, perhaps after a BOM and
    without a final newline."""
    width = draw(st.integers(1, 3))
    row = st.lists(_CELL, min_size=width, max_size=width).map(",".join)
    other = st.lists(_CELL, min_size=1, max_size=4).map(",".join) | st.sampled_from(
        ["", "   ", ",,", " , ", "\t"]
    )
    header = ",".join(draw(st.lists(_NAME, min_size=width, max_size=width)))
    lines = [header] + draw(st.lists(row | row | other, max_size=6))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["", " ", ","])))
    end = st.sampled_from(["\n", "\r\n", "\r"])
    ends = draw(st.lists(end, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return ("\ufeff" if draw(st.booleans()) else "") + text


@settings(max_examples=300, deadline=None)
@given(text=_sample_texts())
@example(text="a,b\n1,2\x0c3,4\n")
@example(text="a,b\r\n1,2\r3,4\r\n\r\n")
@example(text="a,b\n")
@example(text="\ufeffa,b\n1,2")
@example(text='a,b\n"1",2\n')
@example(text="a\n1_0\n")
# one field past csv's field limit, which the walk refuses
@example(text="a\n" + " " * 131072 + "1\n")
def test_read_samples_is_the_row_walk(tmp_path_factory, text):
    """The one-call conversion gives the walk's names and rows, bit for
    bit, or the walk's exception, and no warning."""
    path = tmp_path_factory.mktemp("texts") / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _read_outcome(cq.read_samples_csv, path) == _read_outcome(_walk, path)
