"""The text codec behind the dataset tables, checkpoints and every run file.

A row is its cells joined by one separator, then a line end. Float cells
are written as %.17g, which round-trips every float64 exactly; every other
cell is ``str(v)``, rendered once per call for each distinct value of its
column and taken into each chunk by ``np.searchsorted``. Rows are rendered
in chunks of CHUNK_CELLS cells, each a byte matrix with one row per line and
_PAD in unused bytes, deleted before the write. A float's decade comes from
its binary exponent e, floor(e log10 2) = (e * 78913) >> 18 (Adams, Ryu,
PLDI 2018), and one ``_TENS`` comparison, its digits from an exact float64
product (``_render_floats``), byte for byte as Python's ``'%.17g' % v``.
"""

from __future__ import annotations

import csv
import io
import math
import zlib
from contextlib import closing

import numpy as np

from .errors import StateError

CHUNK_CELLS = 8192  # cells, not rows: 64 KiB float temporaries keep the render in L2 cache
field_size_limit = csv.field_size_limit  # called bare: the most characters csv reads as one cell

_PAD = 0xFF  # never a byte of UTF-8 text, so deleting it leaves exactly the text

# A rendered float is 40 bytes, 5 uint64 words: the sign and the "0.000"
# prefix in bytes 0-5, digit p of 17 at byte 2p+6 and the point after it at
# 2p+7. Byte 39, where digit 16 never takes a point, holds the first byte of
# the text after the cell.
_GLYPH = 40
# The fast window [1e-4, 1e15), where %g prints fixed notation: each entry is
# the least double >= its power of ten, so comparing against it compares against the power.
_TENS = np.array([float(f"1e{e}") for e in range(-4, 16)])


def _digit_words() -> np.ndarray:
    """The glyph word of each 4-digit group 0000-9999, its digits at bytes 0,
    2, 4 and 6, then of each leading digit 0-9, at byte 6; other bytes zero."""
    out = np.zeros((10010, 8), np.uint8)
    out[:10000, 0:8:2] = 48 + np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T
    out[10000:, 6] = 48 + np.arange(10)
    return out.view(np.uint64).ravel()


def _glyph_masks() -> np.ndarray:
    """The 5 words OR-ed over the digit words of a value with decimal
    exponent E in [-4, 15], sign and nd significant digits, at row
    ((E + 4) * 2 + negative) * 18 + nd: _PAD over the dropped digits and
    unused bytes, the sign, the "0.000" prefix and the point over zero ones."""
    e = np.arange(-4, 16)[:, None, None, None]
    nd = np.arange(18)[:, None]
    byte = np.arange(_GLYPH)
    kept = (byte >= 6) & (byte % 2 == 0) & ((byte - 6) // 2 < np.maximum(nd, e + 1))
    point = (byte == 2 * e + 7) & (e >= 0) & (nd > e + 1)
    masks = np.where(kept, 0, np.where(point, ord("."), _PAD)).astype(np.uint8)
    masks = np.repeat(masks, 2, axis=1)
    for i, exp in enumerate(range(-4, 16)):
        for negative in (0, 1):
            prefix = "-" * negative + ("0." + "0" * (-exp - 1) if exp < 0 else "")
            masks[i, negative, :, : len(prefix)] = list(prefix.encode())
    return masks.view(np.uint64).reshape(-1, _GLYPH // 8)


_DIGIT_WORDS = _digit_words()
_GLYPH_MASKS = _glyph_masks()
# trailing zeros of each 4-digit group, 4 for 0000
_TRAILING = sum(np.arange(10000) % p == 0 for p in (10, 100, 1000, 10000)).astype(np.uint8)


def csv_cell(text: str) -> str:
    """``text`` as a cell of a row that csv's default writer quotes: a cell
    holding ``,``, ``"``, ``\\r`` or ``\\n`` is quoted, an empty one stays empty."""
    out = io.StringIO()
    csv.writer(out).writerow([text, ""])  # of two cells: a lone empty cell is written ""
    return out.getvalue()[:-3]


def write_file(path, sep: str, end: str, *parts) -> bytes:
    """Write ``parts`` in order to the file at ``path``, opened in binary
    mode: a str part as its UTF-8 bytes, a tuple part as the columns of one
    ``write_rows(fh, sep, end, *part)`` call. No line end is translated: a ``\\n``
    is written ``\\n`` on every platform. Returns the ``_Hashed`` digest of the bytes."""
    with open(path, "wb") as fh:
        hashed = _Hashed(fh)
        for part in parts:
            if isinstance(part, str):
                hashed.write(part.encode())
            else:
                write_rows(hashed, sep, end, *part)
    return hashed.digest()


class _Hashed:
    """A binary file whose reads and writes also feed one CRC-32 and a byte count."""

    def __init__(self, fh):
        self.fh, self.crc, self.size = fh, 0, 0

    def read(self, size: int) -> bytes:
        data = self.fh.read(size)
        self.crc, self.size = zlib.crc32(data, self.crc), self.size + len(data)
        return data

    def write(self, data) -> int:
        self.crc, self.size = zlib.crc32(data, self.crc), self.size + len(data)
        return self.fh.write(data)

    def digest(self) -> bytes:  # the CRC-32 in 4 bytes, then the count in 8, little-endian
        return self.crc.to_bytes(4, "little") + self.size.to_bytes(8, "little")


def write_rows(fh, sep: str, end: str, *columns) -> None:
    """Write each row's cells joined by ``sep``, then ``end``.

    A column is a 1-D array (one cell per row) or a 2-D one (a run of cells
    per row) of floats, integers, bools or str, or a str, the same cell in
    every row. Float cells are written %.17g, every other cell ``str(v)``,
    a ``U`` array's as numpy holds them (a list cell ending in NUL is refused).
    ``sep`` is one ASCII character. ``fh`` is a binary file: it gets the
    UTF-8 bytes.
    """
    if len(sep) != 1 or not sep.isascii():
        raise ValueError(f"the separator must be one ASCII character, got {sep!r}")
    given, columns = columns, [c if isinstance(c, str) else np.asarray(c) for c in columns]
    if all(isinstance(c, str) for c in columns):
        raise ValueError("write_rows needs a column that is not a str")
    n = next((len(c) for c in columns if not isinstance(c, str) and c.ndim), 0)
    for i, (g, c) in enumerate(zip(given, columns)):
        if not isinstance(c, str) and (c.ndim not in (1, 2) or len(c) != n or 0 in c.shape[1:]
                                       or c.dtype.kind not in "fiubU"):
            raise ValueError(f"column {i} has shape {c.shape} and dtype {c.dtype}: array columns "
                             f"are 1-D or 2-D, of {n} rows of cells, of floats, integers, bools or str")
        if isinstance(g, (list, tuple)) and any(str(v).endswith("\0") for v in np.array(g, object).flat):
            raise ValueError(f"column {i} holds a str ending in NUL, which numpy's str arrays drop")
    width = sum(c.shape[1] if not isinstance(c, str) and c.ndim == 2 else 1 for c in columns)
    step = max(1, CHUNK_CELLS // max(1, width))
    # once per call, in row order, as (cells, values, rendered): 2-D floats, None and
    # the byte after each row's last one; a non-float cell column, its sorted distinct
    # values and their padded texts with the text after each; or one padded row
    parts: list = []
    for i, c in enumerate(columns):
        tail = end if i == len(columns) - 1 else sep
        if isinstance(c, str):
            parts.append((None, None, _padded([c + tail])))
        elif c.dtype.kind == "f":
            last = tail.encode()
            parts.append((c if c.ndim == 2 else c[:, None], None, last[0] if last else _PAD))
            if len(last) > 1:
                parts.append((None, None, np.frombuffer(last[1:], np.uint8)[None]))
        else:
            cols = c.T if c.ndim == 2 else c[None]
            for cells, t in zip(cols, [sep] * (len(cols) - 1) + [tail]):
                # with counts np.unique sorts: no numpy.ma import, no hash table of every cell
                values = np.unique(cells, return_counts=True)[0]
                parts.append((cells, values, _padded([f"{v}{t}" for v in values.tolist()])))
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        block = [rendered if cells is None else (cells[rows], rendered) if values is None
                 else rendered[np.searchsorted(values, cells[rows])] for cells, values, rendered in parts]
        fh.write(_render_rows(sep, rows.stop - start, block))


def _render_rows(sep: str, rows: int, block: list) -> bytes:
    """The UTF-8 bytes of ``rows`` rows of ``block``, in row order: uint8
    matrices of one row or one per row, and (2-D float cells, the byte after
    each row's last one), the floats joined by ``sep``."""
    words = [_GLYPH // 8 * p[0].shape[1] if isinstance(p, tuple) else -(-p.shape[1] // 8) for p in block]
    raw = np.full((rows, 8 * sum(words)), _PAD, np.uint8)
    at = 0
    for piece, width in zip(block, words):
        if isinstance(piece, tuple):
            a, last = piece
            glyphs = raw.view(np.uint64)[:, at : at + width].reshape(rows, a.shape[1], -1)
            _render_floats(np.ascontiguousarray(a, dtype=np.float64), glyphs)
            raw[:, 8 * at + _GLYPH - 1 : 8 * (at + width) : _GLYPH] = ord(sep)
            raw[:, 8 * (at + width) - 1] = last
        else:
            raw[:, 8 * at : 8 * at + piece.shape[1]] = piece
        at += width
    return raw.tobytes().translate(None, bytes([_PAD]))


def _padded(texts: list[str], width: int = 0) -> np.ndarray:
    """The UTF-8 bytes of each text as a row of a uint8 matrix at least
    ``width`` wide, padded with _PAD."""
    encoded = [t.encode() for t in texts]
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    out = np.full((len(encoded), max(width, lengths.max(initial=0))), _PAD, np.uint8)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(encoded), np.uint8)
    return out


def _render_floats(x: np.ndarray, out: np.ndarray) -> None:
    """Render ``'%.17g' % v`` of every v of the float64 array ``x`` into the
    glyph words ``out`` (uint64, shape x.shape + (5,)), byte 39 left _PAD.

    For 1e-4 <= |v| < 1e15, where %g prints fixed notation, the 17 correctly
    rounded digits come from an exact two-product (``_digits``). Python
    formats every other value: +-0, subnormals, the tiny, the huge, nan and
    inf.
    """
    ax = np.abs(x)
    fast = (ax >= _TENS[0]) & (ax < _TENS[-1])
    ax = np.where(fast, ax, 1.0)
    e10 = ((ax.view(np.int64) >> 52) - 1023) * 78913 >> 18  # floor(log10 2**e): one low at most
    e10 += ax >= _TENS[e10 + 5]
    q = _digits(ax, 16 - e10)  # < 10**17: no double in the window rounds up to the next decade
    top = q // 10**16
    rest = q - top * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    a, c = upper // 10**4, lower // 10**4
    groups = (top + 10000, a, upper - a * 10**4, c, lower - c * 10**4)
    zeros = _TRAILING[groups[4]]
    for i, group in enumerate(groups[3:0:-1], 1):  # a group of zeros lets the next one count
        more = zeros == 4 * i
        if not more.any():
            break
        zeros[more] += _TRAILING[group[more]]
    out[...] = _GLYPH_MASKS.take(((e10 + 4) * 2 + (x < 0)) * 18 + 17 - zeros, axis=0)
    for word, group in enumerate(groups):
        out[..., word] |= _DIGIT_WORDS.take(group)
    slow = ~fast
    if slow.any():
        texts = ["%.17g" % v for v in x[slow].tolist()]
        out[slow] = _padded(texts, _GLYPH).view(np.uint64)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: hi + lo == a exactly, each of at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(21)])  # each exact
_POW10_HI, _POW10_LO = _split(_POW10)


def _digits(v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """v * 10**k rounded half to even, as int64, for the positive doubles
    ``v`` and the k in [2, 20] that put v * 10**k in [10**16, 10**17).

    Dekker's exact two-product (Numer. Math. 1971): p = v * 10**k in float64
    and e, summed from the products of the factors' halves, add up to v * 10**k
    exactly. p >= 10**16 > 2**53 is an even integer, so the rounding is p + rint(e).
    """
    p = v * _POW10.take(k)
    hi, lo = _split(v)
    f_hi, f_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    e = hi * f_hi - p + hi * f_lo + lo * f_hi + lo * f_lo  # each step exact, in this order
    return p.astype(np.intp) + np.rint(e).astype(np.intp)


def read_cells(path, sep: str, error: type[Exception]):
    """Yield (line, cells) for each record of the text file at ``path``: the
    physical line where it starts and its cells as csv splits them at ``sep``,
    quoted only where ``sep`` is ``,`` (an empty line has none). Bad UTF-8 or a
    csv.Error raises ``error`` naming the file and line. Read it under
    ``contextlib.closing`` to close the file as soon as you stop."""
    quoting = csv.QUOTE_MINIMAL if sep == "," else csv.QUOTE_NONE
    with open(path, "rb") as fh:
        reader = csv.reader(_text_lines(path, fh, error), delimiter=sep, quoting=quoting)
        start = 1
        try:
            for cells in reader:
                yield start, cells
                start = reader.line_num + 1
        except csv.Error as exc:
            raise error(f"{path}: line {reader.line_num}: {exc}") from None


def _text_lines(path, fh, error: type[Exception]):
    """The physical lines of a binary file as text, split as ``newline=""``
    splits them; one that is not UTF-8 raises ``error`` naming it."""
    lines = (line for chunk in fh for line in chunk.splitlines(keepends=True))  # fh splits after b"\n"
    for lineno, line in enumerate(lines, 1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(
                f"{path}: line {lineno}: byte {exc.start + 1} is not UTF-8 ({exc.reason})"
            ) from None


def numbers(cells: list[str], where: str, error: type[Exception]) -> list[float]:
    """The cells as floats; ``error`` naming ``where`` if a cell holds ``_`` or
    a character outside ASCII (which ``float`` and ``int`` read as a separator
    or a digit, but no writer emits), is no number, or is not finite."""
    text = "".join(cells)
    if "_" in text or not text.isascii():
        raise error(f"{where}: a number holds '_' or a non-ASCII character")
    try:
        values = list(map(float, cells))
    except ValueError:
        raise error(f"{where}: non-numeric value") from None
    if not all(map(math.isfinite, values)):
        raise error(f"{where}: non-finite value")
    return values


def read_rows(path, n_header: int, what: str) -> tuple[list[list[str]], list[np.ndarray]]:
    """Split a "header, then float rows" file, one space between cells, into header
    tokens and float rows, skipping empty lines. StateError names the file if it has
    fewer than ``n_header`` lines, and the line that ``read_cells`` or ``numbers`` refuses."""
    with closing(read_cells(path, " ", StateError)) as records:
        lines = [(cells, numbers(cells, f"{what} file {path}: line {line}", StateError))
                 for line, cells in records if cells]
    if len(lines) < n_header:
        raise StateError(f"{what} file {path} is truncated")
    return [cells for cells, _ in lines[:n_header]], [np.array(v) for _, v in lines[n_header:]]
