"""CSV ingestion for sample sets, interval files and correlation matrices.

Sample CSV: first line is a comma-separated header of variable names,
subsequent lines are decimal numbers ('.' separator, no thousands
separators, UTF-8). Interval file: one `name,lower,upper` line per
variable. Correlation file: a headerless square matrix of numbers, one
row per line. Blank lines are skipped everywhere, and a bad cell names
its line (and its column or field).
"""

from __future__ import annotations

import csv
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


def _records(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, cells) of every non-blank CSV record."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if any(cell.strip() for cell in record):
                yield lineno, record


def read_samples_csv(path: str | Path) -> SampleSet:
    """Read a header+rows sample CSV into a SampleSet. Each row converts
    with one float() per cell; a row with a bad cell is converted again
    cell by cell, so the ParseError names its line and column."""
    records = _records(path)
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
    for lineno, record in _records(path):
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
        for lineno, record in _records(path)
    ]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ParseError("correlation file must hold a square numeric matrix")
    return np.array(rows)
