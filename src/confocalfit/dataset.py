"""CSV dataset ingestion for the command-line tools.

The header row is read with ``csv``; the body is loaded in one
``np.loadtxt`` pass over every column, and the finiteness and positive-mass
checks run on the arrays.  ``loadtxt`` is given the file's absolute path and
the number of lines the header read consumed: numpy reads a path in chunks,
where it would iterate an open handle line by line in Python.  Whatever that
pass does not accept -- quoted cells, rows of blank cells, text, empty or
non-finite cells, non-positive masses, rows of the wrong width, a file whose
name numpy takes for a compressed one -- falls back to the per-cell path,
which is the one source of every error message.  Either path freezes the
arrays it has made, and the ``Dataset`` keeps them without a copy.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, ParseError
from .geometry import WeightedPointSet, _store

# suffixes of the names that np.lib._datasource opens as compressed files
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


@dataclass(frozen=True)
class Dataset:
    """Rectangular numeric data with named columns and optional masses."""

    columns: tuple[str, ...]
    values: np.ndarray
    masses: np.ndarray | None
    path: str

    def __post_init__(self) -> None:
        _store(self, "values", self.values)
        if self.masses is not None:
            _store(self, "masses", self.masses)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def point_set(self) -> WeightedPointSet:
        return WeightedPointSet(self.values, self.masses)


def _dataset(
    cols: list[str], values: np.ndarray, masses: np.ndarray | None, path: str
) -> Dataset:
    """A Dataset of arrays a parser has just made: they are frozen here, so
    ``Dataset`` shares them instead of copying them again."""
    values.setflags(write=False)
    if masses is not None:
        masses.setflags(write=False)
    return Dataset(tuple(cols), values, masses, path)


def _parse_cell(raw: str, row: int, column: str) -> float:
    text = raw.strip()
    if not text:
        raise ParseError(f"row {row}, column {column!r}: empty cell")
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(
            f"row {row}, column {column!r}: not a decimal number: {text!r}"
        ) from exc
    if not math.isfinite(value):
        raise ParseError(f"row {row}, column {column!r}: non-finite value {text!r}")
    return value


def parse_dataset(
    path: str,
    cols: list[str] | None = None,
    mass_col: str | None = None,
) -> Dataset:
    """Read a CSV file with a header row into a Dataset.

    ``cols`` selects the coordinate columns in order (default: every column
    except the mass column); ``mass_col`` names an optional positive mass
    column.  NaN and infinite entries are rejected, and so is a selected
    name that appears twice in the header.
    """
    ds = _parse_vectorized(path, cols, mass_col)
    return ds if ds is not None else _parse_cells(path, cols, mass_col)


def _select(
    header: list[str], cols: list[str] | None, mass_col: str | None
) -> tuple[list[str], list[int], int | None]:
    """Selected column names, their header positions and the mass column's."""
    index = {name: i for i, name in enumerate(header)}
    if mass_col is not None and mass_col not in index:
        raise ParseError(f"mass column {mass_col!r} not found in header {header}")
    if cols is None:
        cols = [name for name in header if name != mass_col]
    missing = [name for name in cols if name not in index]
    if missing:
        raise ParseError(f"columns {missing} not found in header {header}")
    for name in [*cols, mass_col]:
        if name is not None and header.count(name) > 1:
            raise ParseError(f"column {name!r} appears more than once in header {header}")
    return cols, [index[name] for name in cols], None if mass_col is None else index[mass_col]


def _parse_vectorized(
    path: str, cols: list[str] | None, mass_col: str | None
) -> Dataset | None:
    """One ``np.loadtxt`` pass over the body; None where ``_parse_cells`` must decide.

    ``loadtxt`` is given the path, not the open handle: it reads a handle
    line by line in Python but a path in chunks.  It skips the physical lines
    that the ``csv`` read of the header consumed (``reader.line_num``, which
    counts the lines of a quoted name with a line break, and the blank rows
    before the header).  numpy opens a path through ``np.lib._datasource``,
    which fetches a URL-like string such as ``http://host/d.csv`` and
    decompresses a name ending in one of ``_COMPRESSED``.  So the path is
    made absolute, which is never taken for a URL, and ``loadtxt`` is called
    only after ``open`` has read the header from it; a name numpy would
    decompress goes to the per-cell path.

    Files with quoted cells, rows of blank cells, rows of another width,
    text, non-finite selected cells or masses <= 0 fall through, and so does
    any error: the per-cell path then gives the same arrays or the same
    exception.
    """
    if os.path.splitext(path)[1] in _COMPRESSED:
        return None
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            rows = (row for row in reader if row and any(c.strip() for c in row))
            header = [name.strip() for name in next(rows)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on an empty body
            body = np.loadtxt(
                os.path.abspath(path), delimiter=",", comments=None, ndmin=2,
                skiprows=reader.line_num, encoding="utf-8",
            )
        cols, picked, mass_at = _select(header, cols, mass_col)
    # unreadable or empty files, unparsable cells, ragged rows, the empty-body
    # warning and header errors: the per-cell path reports each of them
    except (OSError, ValueError, csv.Error, StopIteration, Warning, ParseError):
        return None
    if body.shape[1] != len(header):
        return None
    # every column in header order is the body itself: no second N x k array
    values = body if picked == list(range(len(header))) else body.take(picked, axis=1)
    if not np.isfinite(values).all():
        return None
    masses = None
    if mass_at is not None:
        masses = np.ascontiguousarray(body[:, mass_at])
        if not (np.isfinite(masses).all() and (masses > 0).all()):
            return None
    return _dataset(cols, values, masses, path)


def _parse_cells(path: str, cols: list[str] | None, mass_col: str | None) -> Dataset:
    """Parse cell by cell; names the first offending cell on failure."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    # csv.Error: an oversized field or a stray quote; ValueError: not UTF-8
    # (UnicodeDecodeError) or a NUL in the path
    except (OSError, csv.Error, ValueError) as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    if not rows:
        raise EmptyDataset(f"{path!r} is empty")
    header = [name.strip() for name in rows[0]]
    body = rows[1:]
    if not body:
        raise EmptyDataset(f"{path!r} has a header but no data rows")
    cols, picked, mass_at = _select(header, cols, mass_col)

    values = np.empty((len(body), len(cols)))
    for r, row in enumerate(body):
        if len(row) != len(header):
            raise ParseError(
                f"row {r + 2}: expected {len(header)} cells, got {len(row)}"
            )
        for c, (name, i) in enumerate(zip(cols, picked)):
            values[r, c] = _parse_cell(row[i], r + 2, name)

    masses = None
    if mass_at is not None:
        masses = np.empty(len(body))
        for r, row in enumerate(body):
            masses[r] = _parse_cell(row[mass_at], r + 2, mass_col)
        if np.any(masses <= 0):
            bad = int(np.flatnonzero(masses <= 0)[0])
            raise ParseError(f"row {bad + 2}, column {mass_col!r}: mass must be positive")

    return _dataset(cols, values, masses, path)
