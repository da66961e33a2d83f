"""File formats: CSV (header row, '.' decimal, '\\n' line ends), plain-text
PGM (P2), and JSON with stable key order. All writers are deterministic so
identical inputs give byte-identical files.

Floats are written as '%.17g', which round-trips every double, and integers
as '%d'. The bulk writers (CSV, PGM and the integer tables of `write_json`)
share one text encoder, `_encode`. Integers reach it only as small alphabets
(PGM levels, a group table's distinct entries) and take '%d' value by value;
floats take a vectorised path that gives the bytes of '%.17g' without a `%`
conversion per value:

* Digits. For a finite nonzero double v let k = floor(log10|v|) and
  S = |v| * 10**(16-k). S is formed as a double-double: Dekker's exact
  product of |v| with p, the double nearest 10**(16-k), plus |v| * q, where q
  is the double nearest 10**(16-k) - p. The three roundings involved (q
  itself, |v| * q and the sum of the low parts) keep the computed S within
  2**-104 * S < 5e-15 of the exact one. N = round(S) is then the 17
  significant digits '%.17g' prints, with decimal exponent k, provided
  10**16 < N < 10**17 (which also catches a k that log10 put off by one next
  to a power of ten) and S lies farther than _MARGIN = 1e-9 from a
  half-integer (so the error cannot move N).
* Fallback. Every value the fast path does not certify is formatted by
  '%.17g' % v: exact ties such as 2**-25 (18 significant digits ending in 5),
  subnormals and other magnitudes outside the power-of-ten table, values
  whose 17 digits would be 10**16 (exact powers of ten among them). Of
  values with full 53-bit mantissas that is about 2 * _MARGIN; values with
  short binary expansions (dyadic grids) meet exact ties more often. ±0 is
  written directly.
* Text. N is split at 10**8 into a leading digit and two 8-digit halves,
  and each half at 10**4 into two groups, whose digits come from one table
  of the 10,000 4-digit groups' byte words: two words make the half's
  uint64. Byte masks, picked by the exponent's layout class (a per-exponent
  table) and the count of significant digits, lay them out as %g does:
  fixed notation for -4 <= k < 17, scientific otherwise, trailing zeros and
  a bare '.' stripped, 'e±dd' or 'e±ddd', '-0' kept. Each value becomes a
  NUL-padded field of _FIELD bytes (sign, 22 slots, exponent), of which
  `_encode` returns only the columns its chunk uses: the sign byte only if
  a value is negative, the exponent only if one is scientific, and the 24
  bytes of the longest '%.17g' text if one falls back.

A writer lays the fields of a chunk of rows side by side with the separators
in one uint8 matrix, drops its NULs with one `bytes.translate` and writes the
bytes, so it never holds the whole text. A small alphabet (grid coordinates,
PGM levels, a repeated CSV column, a group table's n**3 distinct entries) is
encoded once by `_words` and repeated for each row. The writers refuse
non-finite values.

The encoder's tables are built once per process and held for its life, so no
work model counts them: they total 94,624 bytes, and a test holds them to at
most 100,000.
"""

from __future__ import annotations

import json
from functools import cache
from typing import NamedTuple

import numpy as np

# Values encoded per chunk: bounds the memory a writer holds at once.
CHUNK_FIELDS = 16384

_FIELD = 32  # bytes per encoded value: sign, 22 digit/point slots, exponent, NULs
_MARGIN = 1.0e-9  # least distance of S from a half-integer, >> its 5e-15 error
_E_MIN, _E_MAX = -280, 296  # decimal scales 16 - k in the power-of-ten table
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_U = np.uint64
_N_MIN, _N_MAX = 10**16, 10**17
_ASCII_ZERO = 0x30
_CLASSES = 22  # fixed notation at exponents -4..16, then scientific


class _Tables(NamedTuple):
    p_hi: np.ndarray  # double nearest 10**e, e = _E_MIN.._E_MAX
    p_hi_hi: np.ndarray  # its Dekker split
    p_hi_lo: np.ndarray
    p_lo: np.ndarray  # double nearest 10**e - p_hi
    layout: np.ndarray  # (9, _CLASSES * 17) uint64 masks, see _layout_words
    column: np.ndarray  # per exponent _E_MIN.._E_MAX: 17 * its layout class - 127, see _fields
    exponent: np.ndarray  # uint64 "e±dd[d]" for exponents _E_MIN.._E_MAX, 0 if fixed
    digits: np.ndarray  # uint32: the digits of f"{i:04d}" as byte values 0..9, first in the low byte


def _power_of_ten(e: int) -> tuple:
    """The double p nearest 10**e and the double nearest 10**e - p, by exact
    integer arithmetic (int / int is correctly rounded)."""
    if e >= 0:
        p = float(10**e)
        return p, float(10**e - int(p))
    d = 10**-e
    p = 1 / d
    m, two_q = p.as_integer_ratio()
    return p, (two_q - m * d) / (d * two_q)


def _layout_words(cls: int, digits: int) -> list:
    """The byte masks that place one value's characters in its field.

    `_fields` builds bytes G: G[0] the sign (NUL there; `_encode` writes
    it), G[1..4] '0000', G[5..21] the 17 digits, G[22..23] NUL; slot
    j = 0..21 of the field is its byte 1 + j.
    Slots s..p keep G[1 + j]: the digits before the point, or for exponents
    x < 0 the '0' before it (s = p = 4 + x, so the zeros after the point
    follow). The point takes slot p + 1 when significant digits follow it;
    later slots hold G[j], the digits shifted up one byte, up to the last
    significant one. Returns the keep, shift and point masks as three
    8-byte words each."""
    x = cls - 4
    s, p = (4 + x, 4 + x) if x < 0 else (4, 4 + x if cls < _CLASSES - 1 else 4)
    keep, shift, point = bytearray(24), bytearray(24), bytearray(24)
    keep[0] = 0xFF
    for j in range(22):
        if s <= j <= p:
            keep[1 + j] = 0xFF
        elif j == p + 1 and digits + 3 > p:
            point[1 + j] = ord(".")
        elif j > p + 1 and j - 1 < 4 + digits:
            shift[1 + j] = 0xFF
    return [int.from_bytes(m[i : i + 8], "little") for m in (keep, shift, point) for i in (0, 8, 16)]


@cache
def _tables() -> _Tables:
    powers = np.array([_power_of_ten(e) for e in range(_E_MIN, _E_MAX + 1)])
    p_hi, p_lo = powers[:, 0], powers[:, 1]
    c = p_hi * _SPLIT
    p_hi_hi = c - (c - p_hi)
    layout = np.array(
        [_layout_words(cls, digits) for cls in range(_CLASSES) for digits in range(1, 18)], dtype=np.uint64
    ).T.copy()
    x = np.arange(_E_MIN, _E_MAX + 1)
    column = 17 * np.where((x >= -4) & (x < 17), x + 4, _CLASSES - 1) - 127
    exponent = np.array(
        [0 if -4 <= e < 17 else int.from_bytes(b"e%+03d" % e, "little") for e in x.tolist()], dtype=np.uint64
    )
    # by the uint64 arithmetic the encoder runs anyway: numpy loops that no
    # other code runs would add their code pages to the resident set
    i = np.arange(10**4, dtype=np.uint64)
    words = np.zeros_like(i)
    for shift in (24, 16, 8, 0):  # the last digit to the highest byte
        q = i // _U(10)
        words |= (i - q * _U(10)) << _U(shift)
        i = q
    digits = words.view(np.uint32)[::2].copy()
    return _Tables(p_hi, p_hi_hi, p_hi - p_hi_hi, p_lo, layout, column.astype(np.intp), exponent, digits)


def _scaled(a: np.ndarray, i: np.ndarray, t: _Tables):
    """a * 10**(_E_MIN + i) as a double-double (hi, lo), within 2**-104 of
    it relative (module docstring)."""
    p_hi, p_hi_hi, p_hi_lo, p_lo = (t.p_hi.take(i), t.p_hi_hi.take(i), t.p_hi_lo.take(i), t.p_lo.take(i))
    h = a * p_hi
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = a_lo * p_hi_lo - (((h - a_hi * p_hi_hi) - a_lo * p_hi_hi) - a_hi * p_hi_lo)
    low = err + a * p_lo
    s_hi = h + low
    return s_hi, low - (s_hi - h)


def _float_digits(a: np.ndarray, t: _Tables):
    """17-digit N and exponent k with |a| ~ N * 10**(k-16), and where the
    fast path certifies them (module docstring). `a` holds |v|."""
    with np.errstate(divide="ignore"):
        k = np.floor(np.log10(a))
    e = 16.0 - k
    in_table = (e >= _E_MIN) & (e <= _E_MAX)
    with np.errstate(over="ignore", invalid="ignore"):
        s_hi, s_lo = _scaled(a, np.clip(e, _E_MIN, _E_MAX).astype(np.intp) - _E_MIN, t)
        r = np.rint(s_lo)
        n = s_hi.astype(np.int64) + r.astype(np.int64)
    ok = in_table & (np.abs(s_lo - r) < 0.5 - _MARGIN) & (n > _N_MIN) & (n < _N_MAX)
    return n, np.where(in_table, k, 0).astype(np.intp), ok


def _fields(n: np.ndarray, k: np.ndarray, t: _Tables) -> np.ndarray:
    """(len(n), 4) uint64 words holding the NUL-padded text of
    n * 10**(k-16) for 10**16 <= n < 10**17 in '%.17g' layout, byte 0 (the
    sign) NUL and word 3 (the exponent) unset."""
    n = n.view(np.uint64)  # unsigned division is the cheaper one
    high = n // _U(10**8)
    lead = high // _U(10**8)
    halves = np.empty((2, len(n)), dtype=np.uint64)  # d1..d8 and d9..d16
    np.subtract(high, lead * _U(10**8), out=halves[0])
    np.subtract(n, high * _U(10**8), out=halves[1])
    first = halves // _U(10**4)
    halves -= first * _U(10**4)
    # the 4-digit groups of each half side by side, as intp indices (take
    # casts any other kind first): their two table words make one uint64 of
    # the half's digits as byte values 0..9, d1 and d9 in the low byte
    raw = t.digits.take(np.stack([first, halves], axis=-1).view(np.intp)).view(np.uint64)[..., 0]
    # the layout column, 17 * class + digits - 1: digits - 1 is the bytes the
    # 16-byte number d16..d1 uses, ((E + 1) >> 3) - 127 for the biased
    # exponent E of the double nearest it plus 1/2 (so that 0 uses none; bytes
    # of at most 9 leave no run of ones to round up), and t.column holds the
    # -127
    f = raw.astype(np.float64)
    f[1] *= 2.0**64
    f[1] += f[0]
    f[1] += 0.5
    column = t.column.take(k - _E_MIN)
    column += (((f[1].view(np.uint64) >> _U(52)) + _U(1)) >> _U(3)).view(np.intp)
    del high, first, halves, f

    raw |= _U(0x3030303030303030)
    g = np.empty((3, len(n)), dtype=np.uint64)
    np.left_shift(lead, _U(40), out=g[0])
    g[0] |= _U(0x303030303000)
    g[0] |= raw[0] << _U(48)
    np.right_shift(raw[0], _U(16), out=g[1])
    g[1] |= raw[1] << _U(48)
    np.right_shift(raw[1], _U(16), out=g[2])
    del raw, lead
    # the same bytes one slot later, for the digits after the point
    up = g << _U(8)
    up[1:] |= g[:2] >> _U(56)
    g &= t.layout[0:3].take(column, axis=1)
    up &= t.layout[3:6].take(column, axis=1)
    g |= up
    out = np.empty((len(n), _FIELD // 8), dtype=np.uint64)
    np.bitwise_or(g, t.layout[6:9].take(column, axis=1), out=out[:, :3].T)
    return out


def _percent(fmt: bytes, values: np.ndarray) -> np.ndarray:
    """fmt % v of each value, as a (size, _FIELD) uint8 matrix of NUL-padded
    fields."""
    text = np.array([fmt % x for x in values.tolist()], dtype=f"S{_FIELD}")
    return text.view(np.uint8).reshape(values.size, _FIELD)


def _encode(values) -> np.ndarray:
    """'%.17g' (float arrays) or '%d' (integer arrays) of every value, as a
    (size, width) uint8 matrix of NUL-padded fields (module docstring)."""
    v = np.asarray(values).ravel()
    if v.dtype.kind in "iu":
        return _percent(b"%d", v)
    t = _tables()
    a = np.abs(v, dtype=np.float64)
    n, k, ok = _float_digits(a, t)
    neg, zero = np.signbit(v), a == 0
    rest = np.flatnonzero(~(ok | zero))
    words = _fields(np.where(ok, n, _N_MIN), k, t)
    scientific = not ((k >= -4) & (k < 17)).all()
    if scientific:  # "e±dd[d]" from byte 23 on, right after slot 21
        exponent = t.exponent.take(k - _E_MIN)
        words[:, 2] |= exponent << _U(56)
        words[:, 3] = exponent >> _U(8)
    out = words.view(np.uint8)
    if zero.any():
        out[zero] = 0
        out[zero, 1] = _ASCII_ZERO
    signed = rest.size or neg.any()
    if signed:
        out[:, 0] = np.where(neg, ord("-"), 0)
    if rest.size:
        out[rest] = _percent(b"%.17g", v[rest])
    # only the columns the chunk uses: byte 0 if a value is negative, the
    # exponent if one is scientific, 24 for the longest '%.17g' text
    return out[:, (0 if signed else 1) : (28 if scientific else 24 if rest.size else 23)]


def _lay(*pieces) -> np.ndarray:
    """Lay uint8 pieces of shape (..., width) side by side, broadcasting
    them against each other."""
    shape = np.broadcast_shapes(*(p.shape[:-1] for p in pieces))
    t = np.empty(shape + (sum(p.shape[-1] for p in pieces),), dtype=np.uint8)
    at = 0
    for p in pieces:
        t[..., at : at + p.shape[-1]] = p
        at += p.shape[-1]
    return t


def _text(*pieces) -> bytes:
    """The pieces laid side by side, as bytes without the NULs."""
    return _lay(*pieces).tobytes().translate(None, b"\0")


def _b(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8)


_COMMA, _NEWLINE = _b(","), _b("\n")


def _words(values, before: str = "", after: str = "") -> np.ndarray:
    """Each value's text between `before` and `after`, right-aligned in a
    NUL-padded uint8 row, so that `after` ends every row at the same columns."""
    t = _lay(_b(before), _encode(values), _b(after))
    text = t != 0
    t = np.take_along_axis(t, np.argsort(text, axis=1, kind="stable"), axis=1)  # NULs first
    return t[:, t.shape[1] - text.sum(axis=1).max() :]


def _check_finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("refusing to write non-finite values")


def _chunks(rows: int, values_per_row: int):
    step = max(1, CHUNK_FIELDS // values_per_row)
    return ((i, min(i + step, rows)) for i in range(0, rows, step))


def write_density_csv(dmap, path) -> None:
    """Columns x, y, density over the grid, x-major; the coordinates are
    encoded once and broadcast over a chunk's block of whole x rows (or of
    one row's y values, when a row is longer than a chunk)."""
    density = np.asarray(dmap.density, dtype=float).reshape(len(dmap.xs), len(dmap.ys))
    _check_finite(dmap.xs, dmap.ys, density)
    xs_w, ys_w = _words(dmap.xs, after=","), _words(dmap.ys, after=",")
    with open(path, "wb") as fh:
        fh.write(b"x,y,density\n")
        for i0, i1 in _chunks(len(dmap.xs), 2 * len(dmap.ys)):
            for j0, j1 in _chunks(len(dmap.ys), 2 * (i1 - i0)):
                block = density[i0:i1, j0:j1]
                fh.write(_text(xs_w[i0:i1, None], ys_w[j0:j1], _encode(block).reshape(*block.shape, -1), _NEWLINE))


def write_pgm(dmap, path) -> None:
    """8-bit plain PGM (P2), row-major with y decreasing down the image,
    values scaled to 0..255 by the grid maximum."""
    d = np.asarray(dmap.density, dtype=float)
    _check_finite(d)
    peak = d.max()
    width, height = d.shape
    image = d.T[::-1]
    levels = _words(np.arange(256), after=" ")
    with open(path, "wb") as fh:
        fh.write(f"P2\n{width} {height}\n255\n".encode())
        for i0, i1 in _chunks(height, width):
            # scaled a chunk at a time by the grid maximum: no grid-sized temporaries
            block = image[i0:i1]
            scaled = np.zeros(block.shape, dtype=np.intp) if peak == 0 else np.rint(block / peak * 255).astype(np.intp)
            rows = levels.take(scaled, axis=0)
            rows[:, -1, -1] = ord("\n")  # ' ' inside a row, '\n' at its end
            fh.write(_text(rows))


def write_table_csv(header, columns, path) -> None:
    """One '%.17g' column per entry of `columns` (equal-length 1-D arrays or
    scalars, which repeat on every row), under the given header names."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    _check_finite(*columns)
    rows = (np.broadcast_shapes(*(c.shape for c in columns)) or (1,))[0]
    repeated = {i: _words(c) for i, c in enumerate(columns) if c.size == 1}
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i0, i1 in _chunks(rows, len(columns)):
            pieces = []
            for i, c in enumerate(columns):
                pieces += [_COMMA, repeated[i] if i in repeated else _encode(c[i0:i1])]
            fh.write(_text(*pieces[1:], _NEWLINE))


def _write_int_table(fh, table) -> None:
    """A non-empty 2-D integer array in the layout json.dump(indent=2) gives
    a list of int lists that is the value of a top-level key."""
    rows, cols = table.shape
    keys = np.sort(table, axis=None)  # the distinct entries (np.unique hashes: slower)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    entries = _words(keys, "      ", ",\n")
    fh.write(b"[\n")
    for i0, i1 in _chunks(rows, cols):
        lines = entries.take(np.searchsorted(keys, table[i0:i1]), axis=0)
        lines[:, -1, -2] = 0  # no comma after the last entry of a row
        text = _text(_b("    [\n"), lines.reshape(i1 - i0, -1), _b("    ],\n"))
        fh.write(text[:-2] if i1 == rows else text)  # nor after the last row
    fh.write(b"\n  ]")


def write_json(obj, path, tables=None) -> None:
    """json.dump(obj, indent=2, sort_keys=True) plus a newline. NaN and
    +-Infinity raise ValueError before the file is opened.

    `tables` maps further top-level keys to non-empty 2-D integer arrays.
    They are gathered from the entry lines of their distinct values, with
    the bytes json gives the same tables as lists of int lists, but without
    json's pure-Python indent encoder (about 0.8 s for a 10^6-entry table).
    """
    tables = tables or {}
    if any(key in obj for key in tables) or any(np.size(t) == 0 for t in tables.values()):
        raise ValueError("tables must be non-empty and keyed apart from obj")
    # json encodes each table as this placeholder string; splice at each
    marks = {key: f"@table {key}@" for key in tables}
    text = json.dumps({**obj, **marks}, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "wb") as fh:
        for key in sorted(tables):
            head, text = text.split(json.dumps(marks[key]), 1)
            fh.write(head.encode())
            _write_int_table(fh, np.asarray(tables[key]))
        fh.write((text + "\n").encode())
