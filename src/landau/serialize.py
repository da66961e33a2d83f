"""File formats: CSV (header row, '.' decimal, '\\n' line ends), plain-text
PGM (P2), and JSON with stable key order. All writers are deterministic so
identical inputs give byte-identical files.

Floats are written as '%.17g', which round-trips every double. The CSV and
PGM writers format a chunk of rows with one C-level `%` call, so a large grid
costs about one '%.17g' conversion per value and never holds the whole text.
They refuse non-finite values.
"""

from __future__ import annotations

import json
from itertools import chain, islice, product

import numpy as np

# Values formatted per `%` call: bounds the memory a writer holds at once.
CHUNK_FIELDS = 16384


def _check_finite(*arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("refusing to write non-finite values")


def _write_rows(fh, line: str, rows) -> None:
    """Write `line % row` for every row of `rows`, CHUNK_FIELDS values per
    `%` call. `line` holds one '%' per field and no '%%'."""
    per_chunk = max(1, CHUNK_FIELDS // line.count("%"))
    rows = iter(rows)
    while chunk := list(islice(rows, per_chunk)):
        fh.write(line * len(chunk) % tuple(chain.from_iterable(chunk)))


def _array_rows(table):
    """The rows of a 2-D array as lists of Python scalars, converted one
    chunk of rows at a time."""
    step = max(1, CHUNK_FIELDS // table.shape[1])
    return chain.from_iterable(table[i : i + step].tolist() for i in range(0, len(table), step))


def _grid_prefixes(xs, ys):
    """'x,y' for every grid point, x-major, each coordinate formatted once."""
    xs_s = ["%.17g" % v for v in np.asarray(xs, dtype=float).tolist()]
    ys_s = ["%.17g" % v for v in np.asarray(ys, dtype=float).tolist()]
    return map(",".join, product(xs_s, ys_s))


def write_state_csv(state, path) -> None:
    """Columns x, y, re, im over the closed grid."""
    _check_finite(state.xs, state.ys, state.values)
    re = chain.from_iterable(_array_rows(state.values.real))
    im = chain.from_iterable(_array_rows(state.values.imag))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,re,im\n")
        _write_rows(fh, "%s,%.17g,%.17g\n", zip(_grid_prefixes(state.xs, state.ys), re, im))


def write_density_csv(dmap, path) -> None:
    """Columns x, y, density."""
    density = np.asarray(dmap.density, dtype=float)
    _check_finite(dmap.xs, dmap.ys, density)
    values = chain.from_iterable(_array_rows(density))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,density\n")
        _write_rows(fh, "%s,%.17g\n", zip(_grid_prefixes(dmap.xs, dmap.ys), values))


def write_pgm(dmap, path) -> None:
    """8-bit plain PGM (P2), row-major with y decreasing down the image,
    values scaled to 0..255 by the grid maximum."""
    d = np.asarray(dmap.density, dtype=float)
    _check_finite(d)
    peak = d.max()
    scaled = np.zeros_like(d, dtype=int) if peak == 0 else np.rint(d / peak * 255).astype(int)
    width = d.shape[0]
    height = d.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"P2\n{width} {height}\n255\n")
        _write_rows(fh, " ".join(["%d"] * width) + "\n", _array_rows(scaled.T[::-1]))


def write_table_csv(header, columns, path) -> None:
    """One '%.17g' column per entry of `columns` (equal-length 1-D arrays or
    scalars, which repeat on every row), under the given header names."""
    table = np.column_stack(np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in columns)))
    _check_finite(table)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, ",".join(["%.17g"] * len(header)) + "\n", _array_rows(table))


def write_trace_csv(times, positions, path) -> None:
    """Columns t, x, y for an orbit trace."""
    positions = np.asarray(positions, dtype=float)
    write_table_csv(("t", "x", "y"), (times, positions[:, 0], positions[:, 1]), path)


def _write_int_table(fh, table) -> None:
    """A non-empty 2-D integer array in the layout json.dump(indent=2) gives
    a list of int lists that is the value of a top-level key."""
    row = "    [\n" + ",\n".join(["      %d"] * table.shape[1]) + "\n    ]"
    rows = _array_rows(table)
    fh.write("[\n" + row % tuple(next(rows)))
    _write_rows(fh, ",\n" + row, rows)
    fh.write("\n  ]")


def write_json(obj, path, tables=None) -> None:
    """json.dump(obj, indent=2, sort_keys=True) plus a newline.

    `tables` maps further top-level keys to non-empty 2-D integer arrays.
    They are written by the chunked row formatter, with the bytes json gives
    the same tables as lists of int lists, but without json's pure-Python
    indent encoder (about 0.8 s for a 10^6-entry table).
    """
    tables = tables or {}
    if any(key in obj for key in tables) or any(np.size(t) == 0 for t in tables.values()):
        raise ValueError("tables must be non-empty and keyed apart from obj")
    # json encodes each table as this placeholder string; splice at each
    marks = {key: f"@table {key}@" for key in tables}
    text = json.dumps({**obj, **marks}, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(tables):
            head, text = text.split(json.dumps(marks[key]), 1)
            fh.write(head)
            _write_int_table(fh, np.asarray(tables[key]))
        fh.write(text + "\n")
