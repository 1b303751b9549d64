"""The text codec behind the dataset tables, checkpoints and CSV run files.

A row is its cells joined by one separator, then a line end. Float cells
are written as %.17g, which round-trips every float64 exactly; every other
cell is ``str(v)``. A writer streams its rows in chunks of CHUNK_ROWS. A
chunk is laid out as a byte matrix with one row per line, unused bytes
holding _PAD, which is deleted before the write. The float cells are
rendered by integer array arithmetic (``_render_floats``), byte for byte
as Python's ``'%.17g' % v``.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import StateError

CHUNK_ROWS = 512  # keeps a wide table's per-chunk arrays small enough to stay in cache

_PAD = 0xFF  # never a byte of UTF-8 text, so deleting it leaves exactly the text

# A rendered float is 40 bytes, 5 uint64 words: the sign and the "0.000"
# prefix in bytes 0-5, digit p of 17 at byte 2p+6 and the point after it at
# 2p+7. Byte 39, where digit 16 never takes a point, holds the first byte of
# the text after the cell.
_GLYPH = 40
# The fast window [1e-4, 1e15): %g prints fixed notation there, and the
# product in _digits fits two words. Each entry is the least double >= its
# power of ten, so comparing against it compares against the power itself.
_TENS = np.array([float(f"1e{e}") for e in range(-4, 16)])
_POW5 = np.array([5**k for k in range(21)], np.uint64)
_U = np.uint64


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


def write_rows(fh, sep: str, end: str, *columns) -> None:
    """Write each row's cells joined by ``sep``, then ``end``.

    A column is a 1-D array (one cell per row), a 2-D one (a run of cells
    per row) or a str, the same cell in every row. Float cells are written
    %.17g, every other cell ``str(v)``. ``sep`` is one ASCII character. A
    text file is written str, any other file the UTF-8 bytes.
    """
    if len(sep) != 1 or not sep.isascii():
        raise ValueError(f"the separator must be one ASCII character, got {sep!r}")
    text = isinstance(fh, io.TextIOBase)
    n = len(next(c for c in columns if not isinstance(c, str)))
    for start in range(0, n, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, n - start)
        block = [c if isinstance(c, str) else np.asarray(c[start : start + rows]).reshape(rows, -1)
                 for c in columns]
        chunk = _render_rows(sep, end, rows, block)
        fh.write(chunk.decode("utf-8") if text else chunk)


def _render_rows(sep: str, end: str, rows: int, block: list) -> bytes:
    """The UTF-8 bytes of ``rows`` rows of the str cells and 2-D arrays
    ``block``, each row's cells joined by ``sep`` and followed by ``end``."""
    # in row order: uint8 matrices (one row, or one per row) and (float array, byte after it)
    pieces: list = []
    for i, col in enumerate(block):
        tail = end if i == len(block) - 1 else sep
        if isinstance(col, str):
            pieces.append(_padded([col + tail]))
        elif col.dtype.kind == "f":
            last = tail.encode()
            pieces.append((col, last[0] if last else _PAD))
            if len(last) > 1:
                pieces.append(np.frombuffer(last[1:], np.uint8)[None])
        else:
            tails = [sep] * (col.shape[1] - 1) + [tail]
            pieces += [_padded([f"{v}{t}" for v in cells]) for cells, t in zip(col.T.tolist(), tails)]
    words = [_GLYPH // 8 * p[0].shape[1] if isinstance(p, tuple) else -(-p.shape[1] // 8) for p in pieces]
    raw = np.full((rows, 8 * sum(words)), _PAD, np.uint8)
    at = 0
    for piece, width in zip(pieces, words):
        if isinstance(piece, tuple):
            a, last = piece
            glyphs = raw.view(np.uint64)[:, at : at + width].reshape(rows, a.shape[1], -1)
            _render_floats(np.ascontiguousarray(a, dtype=np.float64), glyphs)
            ends = np.full(a.shape[1], ord(sep), np.uint8)
            ends[-1] = last
            raw[:, 8 * at + _GLYPH - 1 : 8 * (at + width) : _GLYPH] = ends
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
    rounded digits come from integer arithmetic (``_digits``). Python
    formats every other value: +-0, subnormals, the tiny, the huge, nan and
    inf.
    """
    ax = np.abs(x)
    fast = (ax >= _TENS[0]) & (ax < _TENS[-1])
    ax = np.where(fast, ax, 1.0)
    e10 = np.floor(np.log10(ax)).astype(np.intp).clip(-4, 14)  # off by one near powers of ten
    e10 = e10 + (ax >= _TENS[e10 + 5]) - (ax < _TENS[e10 + 4])
    q = _digits(ax.view(np.uint64), 16 - e10)
    rolled = q == 10**17
    q[rolled] = 10**16
    e10 += rolled
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


def _digits(bits: np.ndarray, k: np.ndarray) -> np.ndarray:
    """v * 10**k rounded half to even, as int64, for the doubles v of
    ``bits`` and the k in [2, 20] that put v * 10**k in [10**16, 10**17).

    As in Ryu printf (Adams, OOPSLA 2019): v = m * 2**e, so the product is
    m * 5**k / 2**s with s = -(e + k), which lies in [1, 63] here. m * 5**k
    has at most 100 bits, held in two uint64 words.
    """
    s = (1075 - (bits >> _U(52)).astype(np.intp) - k).astype(np.uint64)
    m = (bits & _U(2**52 - 1)) | _U(2**52)
    f = _POW5[k]
    m_hi, m_lo, f_hi, f_lo = m >> _U(32), m & _U(2**32 - 1), f >> _U(32), f & _U(2**32 - 1)
    low = m_lo * f_lo
    mid = m_hi * f_lo + m_lo * f_hi
    carry = (low >> _U(32)) + (mid & _U(2**32 - 1))
    lo = (low & _U(2**32 - 1)) | (carry << _U(32))
    hi = m_hi * f_hi + (mid >> _U(32)) + (carry >> _U(32))
    q = (hi << (_U(64) - s)) | (lo >> s)
    dropped = lo & ((_U(1) << s) - _U(1))
    half = _U(1) << (s - _U(1))
    q += (dropped > half) | ((dropped == half) & (q & _U(1)).astype(bool))
    return q.astype(np.intp)


def read_rows(path, n_header: int, what: str) -> tuple[list[list[str]], list[np.ndarray]]:
    """Split a "header, then float rows" file into header tokens and float rows.

    Blank lines are skipped. Raises StateError naming the file when it holds
    a byte outside ASCII or an underscore (which ``float`` and ``int`` would
    read as a digit or a separator, but no writer emits), has fewer than
    ``n_header`` lines, or a row holds a non-numeric or non-finite value.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise StateError(f"{what} file {path} holds a non-ASCII byte") from None
    if "_" in text:
        raise StateError(f"{what} file {path} holds an underscore")
    lines = [ln.split() for ln in text.split("\n") if ln.strip()]
    if len(lines) < n_header:
        raise StateError(f"{what} file {path} is truncated")
    try:
        rows = [np.array([float(t) for t in ln], dtype=np.float64) for ln in lines[n_header:]]
    except ValueError:
        raise StateError(f"{what} file {path} holds a non-numeric value") from None
    if not all(np.isfinite(row).all() for row in rows):
        raise StateError(f"{what} file {path} holds a non-finite value")
    return lines[:n_header], rows
