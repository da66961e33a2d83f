"""File formats: CSV (header row, '.' decimal, '\\n' line ends), plain-text
PGM (P2), and JSON with stable key order. All writers are deterministic so
identical inputs give byte-identical files.

Floats are written as '%.17g', which round-trips every double, and integers
as '%d'. The bulk writers (CSV, PGM and the integer tables of `write_json`)
share one vectorised text encoder, `_encode`, which gives exactly those bytes
without a `%` conversion per value:

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
  whose digits come out as the bytes of one uint64 each (split into 32-bit
  lanes, then 16-bit pairs, then bytes, dividing by multiply-shifts). They
  are laid out as %g does: fixed notation for -4 <= k < 17, scientific
  otherwise, trailing zeros and a bare '.' stripped, 'e±dd' or 'e±ddd', '-0'
  kept. Each value becomes a NUL-padded field of _FIELD bytes.

Integers below 2**53 in magnitude take the same path (their S is an integer,
which the product meets to within its error bound, far inside the margin);
larger ones, and powers of ten, go to '%d'.
A writer lays the fields of a chunk of rows side by side with the separators
in one uint8 matrix, drops its NULs and writes the bytes, so it never holds
the whole text. The writers refuse non-finite values.
"""

from __future__ import annotations

import json
from functools import cache
from typing import NamedTuple

import numpy as np

# Values encoded per chunk: bounds the memory a writer holds at once.
CHUNK_FIELDS = 16384

_FIELD = 32  # bytes per encoded value: sign, 22 digit/point slots, NUL, exponent
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
    exponent: np.ndarray  # uint64 "e±dd[d]" for exponents _E_MIN.._E_MAX, 0 if fixed


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

    `_fields` builds bytes G: G[0] the sign, G[1..4] '0000', G[5..21] the 17
    digits, G[22..23] NUL; slot j = 0..21 of the field is its byte 1 + j.
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
    exponent = np.array(
        [0 if -4 <= x < 17 else int.from_bytes(b"e%+03d" % x, "little") for x in range(_E_MIN, _E_MAX + 1)],
        dtype=np.uint64,
    )
    return _Tables(p_hi, p_hi_hi, p_hi - p_hi_hi, p_lo, layout, exponent)


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


def _digit_bytes(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each x < 10**8 as byte values 0..9 of one
    uint64, first digit in the low byte: split at 10**4 into two 32-bit
    lanes, then each lane into 16-bit pairs and those into bytes, with one
    multiply-shift per step for the division (by 100: * 10486 >> 20, by 10:
    * 103 >> 10, exact for the lane values below 10**4 and 100)."""
    high = x // _U(10**4)
    v = high | ((x - high * _U(10**4)) << _U(32))
    q = ((v * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)
    v = ((v - q * _U(100)) << _U(16)) | q
    q = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return ((v - q * _U(10)) << _U(8)) | q


def _fields(n: np.ndarray, k: np.ndarray, neg: np.ndarray, t: _Tables) -> np.ndarray:
    """(len(n), _FIELD) uint8 NUL-padded text of ±n * 10**(k-16) for
    10**16 <= n < 10**17, in '%.17g' layout."""
    high = n // 10**8
    lead = high // 10**8
    raw = _digit_bytes(np.stack([high - lead * 10**8, n - high * 10**8]).astype(np.uint64))
    # significant digits: through the highest nonzero byte (the bit length of
    # a word whose bytes are at most 9 is exact in float64)
    used = (np.frexp(raw.astype(np.float64))[1] + 7) >> 3
    digits = np.where(raw[1] != 0, 9 + used[1], 1 + used[0])
    cls = np.where((k >= -4) & (k < 17), k + 4, _CLASSES - 1)
    masks = t.layout.take(cls * 17 + digits - 1, axis=1)

    middle, low = raw | _U(0x3030303030303030)
    g0 = _U(0x3030303000) | (neg * _U(ord("-"))) | ((lead.astype(np.uint64) + _U(_ASCII_ZERO)) << _U(40)) | (middle << _U(48))
    g1 = (middle >> _U(16)) | (low << _U(48))
    g2 = low >> _U(16)
    up = (g0 << _U(8), (g1 << _U(8)) | (g0 >> _U(56)), (g2 << _U(8)) | (g1 >> _U(56)))
    out = np.empty((len(n), _FIELD // 8), dtype=np.uint64)
    for w, g in enumerate((g0, g1, g2)):
        out[:, w] = (g & masks[w]) | (up[w] & masks[3 + w]) | masks[6 + w]
    out[:, 3] = t.exponent.take(np.clip(k, _E_MIN, _E_MAX) - _E_MIN)
    return out.view(np.uint8)


def _encode(values) -> np.ndarray:
    """'%.17g' (float arrays) or '%d' (integer arrays) of every value, as a
    (size, _FIELD) uint8 matrix of NUL-padded fields."""
    v = np.asarray(values).ravel()
    t = _tables()
    a = np.abs(v, dtype=np.float64)
    n, k, ok = _float_digits(a, t)
    if v.dtype.kind in "iu":
        ok &= a < 2.0**53  # beyond, an integer need not equal its double
        fmt = b"%d"
    else:
        fmt = b"%.17g"
    neg, zero = np.signbit(v), a == 0
    out = _fields(np.where(ok, n, _N_MIN), k, neg, t)
    if zero.any():
        out[zero] = 0
        out[zero, 0] = np.where(neg[zero], ord("-"), 0)
        out[zero, 1] = _ASCII_ZERO
    rest = np.flatnonzero(~(ok | zero))
    if rest.size:
        text = np.array([fmt % x for x in v[rest].tolist()], dtype=f"S{_FIELD}")
        out[rest] = text.view(np.uint8).reshape(rest.size, _FIELD)
    return out


def _compact(fields: np.ndarray) -> np.ndarray:
    """Left-align each field and trim the matrix to the longest one: for
    small tables formatted once and gathered for every row."""
    text = [row.replace(b"\0", b"") for row in fields.view(f"S{fields.shape[1]}").ravel().tolist()]
    return np.array(text, dtype=bytes).view(np.uint8).reshape(len(text), -1)


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
    t = _lay(*pieces)
    return t[t != 0].tobytes()


def _b(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8)


_COMMA, _NEWLINE = _b(","), _b("\n")


def _check_finite(*arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("refusing to write non-finite values")


def _chunks(rows: int, values_per_row: int):
    step = max(1, CHUNK_FIELDS // values_per_row)
    return ((i, min(i + step, rows)) for i in range(0, rows, step))


def write_density_csv(dmap, path) -> None:
    """Columns x, y, density over the grid, x-major; the coordinates are
    encoded once and gathered for each row."""
    density = np.asarray(dmap.density, dtype=float)
    _check_finite(dmap.xs, dmap.ys, density)
    xs_f, ys_f = _compact(_encode(dmap.xs)), _compact(_encode(dmap.ys))
    density = density.reshape(-1)
    ny = len(dmap.ys)
    with open(path, "wb") as fh:
        fh.write(b"x,y,density\n")
        for i0, i1 in _chunks(len(dmap.xs) * ny, 2):
            ix, iy = np.divmod(np.arange(i0, i1), ny)
            pieces = (xs_f.take(ix, axis=0), _COMMA, ys_f.take(iy, axis=0), _COMMA, _encode(density[i0:i1]))
            fh.write(_text(*pieces, _NEWLINE))


def write_pgm(dmap, path) -> None:
    """8-bit plain PGM (P2), row-major with y decreasing down the image,
    values scaled to 0..255 by the grid maximum."""
    d = np.asarray(dmap.density, dtype=float)
    _check_finite(d)
    peak = d.max()
    scaled = np.zeros_like(d, dtype=np.intp) if peak == 0 else np.rint(d / peak * 255).astype(np.intp)
    width, height = d.shape
    image = scaled.T[::-1]
    # each level's digits and its separator in one uint32 word: ' ' inside a
    # row, '\n' at its end
    words = np.zeros((2, 256, 4), dtype=np.uint8)
    words[:, :, :3] = _compact(_encode(np.arange(256)))
    words[0, :, 3], words[1, :, 3] = ord(" "), ord("\n")
    inner, last = words.view(np.uint32)[..., 0]
    with open(path, "wb") as fh:
        fh.write(f"P2\n{width} {height}\n255\n".encode())
        for i0, i1 in _chunks(height, width):
            rows = inner.take(image[i0:i1])
            rows[:, -1] = last.take(image[i0:i1, -1])
            fh.write(_text(rows.view(np.uint8)))


def write_table_csv(header, columns, path) -> None:
    """One '%.17g' column per entry of `columns` (equal-length 1-D arrays or
    scalars, which repeat on every row), under the given header names."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    _check_finite(*columns)
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    rows = shape[0] if shape else 1
    repeated = {i: _encode(c) for i, c in enumerate(columns) if c.size == 1}
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
    indent, comma = _b("      "), _b(",\n")
    fh.write(b"[\n")
    for i0, i1 in _chunks(rows, cols):
        lines = _lay(indent, _encode(table[i0:i1]), comma).reshape(i1 - i0, cols, -1)
        lines[:, -1, -2] = 0  # no comma after the last entry of a row
        text = _text(_b("    [\n"), lines.reshape(i1 - i0, -1), _b("    ],\n"))
        fh.write(text[:-2] if i1 == rows else text)  # nor after the last row
    fh.write(b"\n  ]")


def write_json(obj, path, tables=None) -> None:
    """json.dump(obj, indent=2, sort_keys=True) plus a newline.

    `tables` maps further top-level keys to non-empty 2-D integer arrays.
    They are written by the vectorised encoder, with the bytes json gives
    the same tables as lists of int lists, but without json's pure-Python
    indent encoder (about 0.8 s for a 10^6-entry table).
    """
    tables = tables or {}
    if any(key in obj for key in tables) or any(np.size(t) == 0 for t in tables.values()):
        raise ValueError("tables must be non-empty and keyed apart from obj")
    # json encodes each table as this placeholder string; splice at each
    marks = {key: f"@table {key}@" for key in tables}
    text = json.dumps({**obj, **marks}, indent=2, sort_keys=True)
    with open(path, "wb") as fh:
        for key in sorted(tables):
            head, text = text.split(json.dumps(marks[key]), 1)
            fh.write(head.encode())
            _write_int_table(fh, np.asarray(tables[key]))
        fh.write((text + "\n").encode())
