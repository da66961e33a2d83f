"""The chunked writers against per-element reference writers, byte for byte.

The reference writers below format one value at a time with
format(float(v), '.17g') (and str(int(v)) for the PGM). They are the
definition of the file formats; the library writers must reproduce them
exactly while formatting whole chunks of rows per call.
"""

import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau import serialize
from landau.maggroup import multiplication_indices, multiplication_table
from landau.serialize import (
    write_density_csv,
    write_json,
    write_pgm,
    write_state_csv,
    write_table_csv,
    write_trace_csv,
)


def _fmt(v) -> str:
    return format(float(v), ".17g")


def reference_state_csv(state, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,re,im\n")
        for i, x in enumerate(state.xs):
            for j, y in enumerate(state.ys):
                v = state.values[i, j]
                fh.write(f"{_fmt(x)},{_fmt(y)},{_fmt(v.real)},{_fmt(v.imag)}\n")


def reference_density_csv(dmap, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,density\n")
        for i, x in enumerate(dmap.xs):
            for j, y in enumerate(dmap.ys):
                fh.write(f"{_fmt(x)},{_fmt(y)},{_fmt(dmap.density[i, j])}\n")


def reference_pgm(dmap, path):
    d = np.asarray(dmap.density, dtype=float)
    peak = d.max()
    scaled = np.zeros_like(d, dtype=int) if peak == 0 else np.rint(d / peak * 255).astype(int)
    width, height = d.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"P2\n{width} {height}\n255\n")
        for j in range(height - 1, -1, -1):
            fh.write(" ".join(str(int(scaled[i, j])) for i in range(width)))
            fh.write("\n")


def reference_trace_csv(times, positions, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,y\n")
        for t, (x, y) in zip(times, positions):
            fh.write(f"{_fmt(t)},{_fmt(x)},{_fmt(y)}\n")


# Signed zeros, the smallest subnormal, a value whose '.17g' form is an
# integer with 17 digits, a repeating fraction and values that print with an
# exponent.
SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1 / 3, -2 / 3, 1.5e-7, 6.02214076e23, 2.5e-300, 1.7976931348623157e308]
)


def _values(shape, seed):
    """Random values of mixed magnitude and sign, with SPECIAL spread in."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    flat = v.reshape(-1)
    flat[: min(flat.size, SPECIAL.size)] = SPECIAL[: flat.size]
    rng.shuffle(flat)
    return v


def _grid(nx, ny, seed):
    rng = np.random.default_rng(seed + 1)
    xs = np.sort(rng.uniform(-1.0, 1.0, nx))
    ys = np.sort(rng.uniform(-1.0, 1.0, ny))
    xs[0] = -0.0
    return xs, ys


def _same_bytes(tmp_path, write, reference, *args):
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    write(*args, ours)
    reference(*args, theirs)
    assert ours.read_bytes() == theirs.read_bytes()


ROWS_PER_CHUNK_2 = serialize.CHUNK_FIELDS // 2  # density CSV: 'x,y' and the value
ROWS_PER_CHUNK_3 = serialize.CHUNK_FIELDS // 3  # state and trace CSV
SHAPES_2 = [(1, 1), (3, 5), (5, 3)] + [(1, ROWS_PER_CHUNK_2 + d) for d in (-1, 0, 1)]
SHAPES_3 = [(1, 1), (3, 5), (5, 3)] + [(1, ROWS_PER_CHUNK_3 + d) for d in (-1, 0, 1)]


@pytest.mark.parametrize("shape", SHAPES_2)
def test_density_csv_matches_reference(tmp_path, shape):
    xs, ys = _grid(*shape, seed=sum(shape))
    dmap = SimpleNamespace(xs=xs, ys=ys, density=np.abs(_values(shape, seed=sum(shape))))
    _same_bytes(tmp_path, write_density_csv, reference_density_csv, dmap)


@pytest.mark.parametrize("shape", SHAPES_3)
def test_state_csv_matches_reference(tmp_path, shape):
    xs, ys = _grid(*shape, seed=sum(shape))
    values = _values(shape, seed=sum(shape)) + 1j * _values(shape, seed=sum(shape) + 7)
    state = SimpleNamespace(xs=xs, ys=ys, values=values)
    _same_bytes(tmp_path, write_state_csv, reference_state_csv, state)


@pytest.mark.parametrize("rows", [1, 5, ROWS_PER_CHUNK_3 - 1, ROWS_PER_CHUNK_3, ROWS_PER_CHUNK_3 + 1])
def test_trace_csv_matches_reference(tmp_path, rows):
    times = np.linspace(0.0, 3.0, rows)
    positions = _values((rows, 2), seed=rows)
    _same_bytes(tmp_path, write_trace_csv, reference_trace_csv, times, positions)


def _pgm_shapes():
    width = 100
    per_chunk = serialize.CHUNK_FIELDS // width
    return [(1, 1), (3, 5), (5, 3)] + [(width, per_chunk + d) for d in (-1, 0, 1)]


@pytest.mark.parametrize("shape", _pgm_shapes())
def test_pgm_matches_reference(tmp_path, shape):
    xs, ys = _grid(*shape, seed=0)
    density = np.abs(np.random.default_rng(sum(shape)).standard_normal(shape))
    _same_bytes(tmp_path, write_pgm, reference_pgm, SimpleNamespace(xs=xs, ys=ys, density=density))


@pytest.mark.parametrize("shape", [(1, 1), (4, 6)])
def test_all_zero_density_matches_reference(tmp_path, shape):
    xs, ys = _grid(*shape, seed=3)
    dmap = SimpleNamespace(xs=xs, ys=ys, density=np.zeros(shape))
    _same_bytes(tmp_path, write_pgm, reference_pgm, dmap)
    _same_bytes(tmp_path, write_density_csv, reference_density_csv, dmap)


def test_table_csv_repeats_scalar_columns(tmp_path):
    path = tmp_path / "table.csv"
    write_table_csv(("a", "b", "c"), (np.array([0.5, -0.0]), 1 / 3, np.array([1e16, 5e-324])), path)
    assert path.read_text() == "a,b,c\n0.5,0.33333333333333331,10000000000000000\n-0,0.33333333333333331,4.9406564584124654e-324\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writers_refuse_non_finite_values(tmp_path, bad):
    xs, ys = _grid(2, 3, seed=0)
    density = np.ones((2, 3))
    density[1, 2] = bad
    dmap = SimpleNamespace(xs=xs, ys=ys, density=density)
    state = SimpleNamespace(xs=xs, ys=ys, values=density * (1 + 1j))
    positions = np.ones((3, 2))
    positions[1, 0] = bad
    calls = [
        (write_density_csv, (dmap,)),
        (write_pgm, (dmap,)),
        (write_state_csv, (state,)),
        (write_trace_csv, (np.arange(3.0), positions)),
        (write_table_csv, (("t", "v"), (np.arange(3.0), positions[:, 0]))),
    ]
    for k, (write, args) in enumerate(calls):
        path = tmp_path / f"out{k}"
        with pytest.raises(ValueError, match="non-finite"):
            write(*args, path)
        assert not path.exists()


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=6),
    data=st.data(),
    chunk=st.integers(min_value=1, max_value=20),
)
def test_row_formatter_matches_per_value_format(width, data, chunk):
    rows = data.draw(st.lists(st.lists(finite, min_size=width, max_size=width), max_size=40))
    line = ",".join(["%.17g"] * width) + "\n"
    fh = io.StringIO()
    old = serialize.CHUNK_FIELDS
    serialize.CHUNK_FIELDS = chunk  # small chunks: many chunk boundaries
    try:
        serialize._write_rows(fh, line, rows)
    finally:
        serialize.CHUNK_FIELDS = old
    assert fh.getvalue() == "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# JSON with integer tables spliced in; json.dump(indent=2) is the reference


def reference_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n_phi", range(1, 13))
def test_group_table_json_matches_json_dump(tmp_path, n_phi):
    payload = {"n_phi": n_phi, "center": list(range(n_phi)), "tx": [[[0.5, -0.0]]], "weyl_deviation": 1e-16}
    path = tmp_path / "group.json"
    write_json(payload, path, tables={"multiplication_table": multiplication_indices(n_phi)})
    want = reference_json({**payload, "multiplication_table": multiplication_table(n_phi)})
    assert path.read_text(encoding="utf-8") == want


def test_json_tables_in_key_order_with_chunk_boundaries(tmp_path):
    rng = np.random.default_rng(3)
    tables = {
        "b_first": rng.integers(-10**9, 10**9, size=(7, 3)),
        "m_column": rng.integers(-5, 5, size=(40, 1)),
        "z_last": np.array([[0]]),
    }
    payload = {"a": [1, [2, 3]], "k": {"x": 1.5}, "y": "text", "zz": None}
    path = tmp_path / "t.json"
    old = serialize.CHUNK_FIELDS
    serialize.CHUNK_FIELDS = 2  # a chunk boundary inside every table
    try:
        write_json(payload, path, tables=tables)
    finally:
        serialize.CHUNK_FIELDS = old
    want = reference_json({**payload, **{k: v.tolist() for k, v in tables.items()}})
    assert path.read_text(encoding="utf-8") == want


def test_json_tables_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_json({"t": 1}, tmp_path / "a.json", tables={"t": np.ones((2, 2), dtype=int)})
    with pytest.raises(ValueError):
        write_json({}, tmp_path / "b.json", tables={"t": np.zeros((0, 3), dtype=int)})
