"""CSV ingestion for sample sets, interval files and correlation matrices.

Sample CSV: first line is a comma-separated header of variable names,
subsequent lines are decimal numbers ('.' separator, no thousands
separators). Interval file: one `name,lower,upper` line per variable.
Correlation file: a headerless square matrix of numbers, one row per
line. Blank lines are skipped everywhere, and a bad cell names its line
(and its column or field).

Every file the library and the CLI read, model files and limit states
included, is decoded by `read_text`: UTF-8, a leading byte-order mark
skipped, and a byte that is not UTF-8 raises ParseError with its 1-based
line.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterator

import numpy as np

from .domain import MarginalSpec, SampleSet, make_marginal_spec
from .errors import ParseError


def _parse_number(text: str, line: int, field: str) -> float:
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"cannot parse number '{text}'", line=line, field=field) from None


def read_text(path: str | Path, newline: str | None = None) -> str:
    """The text of the file at `path`: UTF-8 less a leading byte-order
    mark, which Excel's "CSV UTF-8" writes, its line ends translated to
    \\n as `open` does, or kept where newline="" (as csv needs). A byte
    that is not UTF-8 raises ParseError with its line, counted at \\r\\n,
    \\r and \\n: every file read goes through here."""
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8", line=line) from None
    return text if newline == "" else text.replace("\r\n", "\n").replace("\r", "\n")


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, cells) of every non-blank CSV record of text
    read with newline=""."""
    for lineno, record in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if any(map(str.strip, record)):
            yield lineno, record


def _plain_samples(text: str) -> SampleSet | None:
    """The sample set of a file's text (read with newline="") whose records
    are plain, converted in one `np.loadtxt` call; None where the row
    walk's answer could differ.

    Text without quotes ends a csv.reader record at each \\r\\n, \\r and
    \\n and nowhere else (str.splitlines would also split at \\x0c, \\x1c
    or \\u2028), and splits it at each comma. numpy's parser strips a
    cell's whitespace and calls PyOS_string_to_double, as float() does; a
    cell float() takes and it refuses (`1_0`, non-ASCII digits) raises
    here. So the result is kept only where the text has no quote
    and no line past csv's field limit, its first line is a header of
    non-blank names and a later line is not empty, loadtxt raises nothing,
    and every entry is finite: there it holds the walk's rows, bit for
    bit."""
    if '"' in text:
        return None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    # a line past csv's field limit may hold a field that the walk refuses
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    names = tuple(name.strip() for name in lines[0].split(","))
    # loadtxt skips only empty lines, and warns only where it reads no row
    if not all(names) or not any(lines[1:]):
        return None
    try:
        rows = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a cell or a row for the walk to name
        return None
    if rows.shape[1] != len(names) or not np.isfinite(rows).all():
        return None
    return SampleSet(names=names, rows=rows)


def read_samples_csv(path: str | Path) -> SampleSet:
    """Read a header+rows sample CSV into a SampleSet. A file of plain
    records converts in one call (`_plain_samples`), with the bits of the
    row walk. Any other goes through the walk: each row converts with one
    float() per cell, and a row with a bad cell is converted again cell by
    cell, so the ParseError names its line and column. The file is read
    and decoded once, for both."""
    text = read_text(path, newline="")
    plain = _plain_samples(text)
    if plain is not None:
        return plain
    records = _records(text)
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
            rows.append([_parse_number(cell, lineno, names[i]) for i, cell in enumerate(record)])
    if not rows:
        raise ParseError("sample file has a header but no data rows", line=header_line + 1)
    matrix = np.array(rows, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ParseError("non-finite value in sample file")
    return SampleSet(names=names, rows=matrix)


def write_samples_csv(path: str | Path, names, rows: np.ndarray) -> None:
    """Write a sample matrix in the same header+rows CSV format."""
    path = Path(path)
    rows = np.asarray(rows, dtype=float)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names))
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def read_intervals_csv(path: str | Path) -> MarginalSpec:
    """Read a `name,lower,upper` interval file into a MarginalSpec."""
    triples = []
    for lineno, record in _records(read_text(path, newline="")):
        if len(record) != 3:
            raise ParseError(f"expected 'name,lower,upper', got {len(record)} fields", line=lineno)
        name = record[0].strip()
        if not name:
            raise ParseError("blank variable name", line=lineno)
        lower = _parse_number(record[1], lineno, "lower")
        upper = _parse_number(record[2], lineno, "upper")
        triples.append((name, lower, upper))
    if not triples:
        raise ParseError("interval file is empty", line=1)
    return make_marginal_spec(triples)


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Read a headerless square numeric CSV (a correlation matrix); a bad
    cell's field is its 1-based column."""
    rows = [
        [_parse_number(cell, lineno, f"column {k}") for k, cell in enumerate(record, start=1)]
        for lineno, record in _records(read_text(path, newline=""))
    ]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ParseError("correlation file must hold a square numeric matrix")
    return np.array(rows)
