"""The text codec behind the dataset tables, checkpoints and CSV run files.

Floats are written as %.17g, which round-trips every float64 exactly. A
writer builds one %-format per row and streams the rows through it in
chunks of CHUNK_ROWS, so converting an array to Python objects never holds
more than one chunk at a time.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import StateError

FLOAT = "%.17g"
CHUNK_ROWS = 2048


def floats(n: int, sep: str) -> str:
    """The %-format of ``n`` float cells joined by ``sep``."""
    return sep.join([FLOAT] * n)


def csv_format(cells: list[str], end: str = "\r\n") -> str:
    """The row of ``cells`` as csv's default writer quotes it, ending in ``end``:
    a row format when every literal % in a cell is written %%."""
    out = io.StringIO()
    csv.writer(out).writerow(cells)  # "\r\n" ends: "\r" in a cell is quoted too
    return out.getvalue()[:-2] + end


def write_rows(fh, fmt: str, *columns) -> None:
    """Write ``fmt % row`` for every row, a row being the cells of all columns.

    A column is a 1-D sequence (one cell per row) or a 2-D one (a run of
    cells per row); every column has the same number of rows.
    """
    n = len(columns[0])
    for start in range(0, n, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, n - start)
        block = np.hstack([
            np.asarray(c[start : start + rows]).reshape(rows, -1).astype(object) for c in columns
        ])
        fh.write("".join([fmt % tuple(row) for row in block.tolist()]))


def read_rows(path, n_header: int, what: str) -> tuple[list[list[str]], list[np.ndarray]]:
    """Split a "header, then float rows" file into header tokens and float rows.

    Blank lines are skipped. Raises StateError naming the file when it has
    fewer than ``n_header`` lines or a row holds a non-numeric or non-finite
    value.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    if len(lines) < n_header:
        raise StateError(f"{what} file {path} is truncated")
    try:
        rows = [np.array([float(t) for t in ln], dtype=np.float64) for ln in lines[n_header:]]
    except ValueError:
        raise StateError(f"{what} file {path} holds a non-numeric value") from None
    if not all(np.isfinite(row).all() for row in rows):
        raise StateError(f"{what} file {path} holds a non-finite value")
    return lines[:n_header], rows
