"""The chunked writers against per-element reference writers, byte for byte.

The reference writers below format one value at a time with
format(float(v), '.17g') (and str(int(v)) for the PGM). They are the
definition of the file formats; the library writers must reproduce them
exactly while formatting whole chunks of rows per call.
"""

import io
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau import serialize
from landau.maggroup import multiplication_indices
from landau.serialize import (
    write_density_csv,
    write_json,
    write_pgm,
    write_table_csv,
)


def _fmt(v) -> str:
    return format(float(v), ".17g")


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
ROWS_PER_CHUNK_3 = serialize.CHUNK_FIELDS // 3  # trace CSV
SHAPES_2 = [(1, 1), (3, 5), (5, 3)] + [(1, ROWS_PER_CHUNK_2 + d) for d in (-1, 0, 1)]


@pytest.mark.parametrize("shape", SHAPES_2)
def test_density_csv_matches_reference(tmp_path, shape):
    xs, ys = _grid(*shape, seed=sum(shape))
    dmap = SimpleNamespace(xs=xs, ys=ys, density=np.abs(_values(shape, seed=sum(shape))))
    _same_bytes(tmp_path, write_density_csv, reference_density_csv, dmap)


@pytest.mark.parametrize("rows", [1, 5, ROWS_PER_CHUNK_3 - 1, ROWS_PER_CHUNK_3, ROWS_PER_CHUNK_3 + 1])
def test_trace_csv_matches_reference(tmp_path, rows):
    times = np.linspace(0.0, 3.0, rows)
    positions = _values((rows, 2), seed=rows)
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    write_table_csv(("t", "x", "y"), (times, positions[:, 0], positions[:, 1]), ours)
    reference_trace_csv(times, positions, theirs)
    assert ours.read_bytes() == theirs.read_bytes()


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
    positions = np.ones((3, 2))
    positions[1, 0] = bad
    calls = [
        (write_density_csv, (dmap,)),
        (write_pgm, (dmap,)),
        (write_table_csv, (("t", "x", "y"), (np.arange(3.0), positions[:, 0], positions[:, 1]))),
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
def test_row_formatter_matches_per_value_format(tmp_path_factory, width, data, chunk):
    rows = data.draw(st.lists(st.lists(finite, min_size=width, max_size=width), max_size=40))
    columns = [np.array([row[j] for row in rows], dtype=float) for j in range(width)]
    path = tmp_path_factory.mktemp("rows") / "table.csv"
    old = serialize.CHUNK_FIELDS
    serialize.CHUNK_FIELDS = chunk  # small chunks: many chunk boundaries
    try:
        write_table_csv([f"c{j}" for j in range(width)], columns, path)
    finally:
        serialize.CHUNK_FIELDS = old
    want = ",".join(f"c{j}" for j in range(width)) + "\n"
    want += "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
    assert path.read_text() == want


# ---------------------------------------------------------------------------
# The vectorised encoder against format(v, '.17g') and str(int), value by value


def _encoded(values) -> list:
    fields = serialize._encode(np.asarray(values))
    return serialize._text(fields, serialize._NEWLINE).decode().splitlines()


def _assert_encodes(values):
    values = np.asarray(values, dtype=float)
    got = serialize._text(serialize._encode(values), serialize._NEWLINE)
    want = "".join(format(v, ".17g") + "\n" for v in values.tolist()).encode()
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got.decode().splitlines(), want.decode().splitlines()) if g != w]
        raise AssertionError(f"{len(bad)} values differ, first {bad[:5]}")


def _certified(values):
    values = np.abs(np.asarray(values, dtype=float))
    return serialize._float_digits(values, serialize._tables())[2]


def _boundary_values():
    """Both sides of every switch in the '%.17g' layout and of the fast
    path's own range."""
    powers = 10.0 ** np.arange(-5, 18)
    near = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
    exponents = [1.5e-5, 1.5e-4, 1.5e16, 1.5e17, 9.5e-5, 9.5e16, 123456789012345678.0]
    ties = [2.0**-25, 3 * 2.0**-25, 2.0**-24 * 5, 0.5, 0.125]
    extremes = [5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308, 1e-310, 1.7976931348623157e308]
    three_digit = [1e-100, 1.2345e-100, 9.87e100, 1e200, 3.3e-250, 1e-281, 1e-279, 1e296, 1e298]
    values = np.concatenate([near, exponents, ties, extremes, three_digit, [0.0, 1.0, 10.0, 0.1]])
    return np.concatenate([values, -values])


def test_encoder_boundary_table():
    values = _boundary_values()
    _assert_encodes(values)
    assert "99999999999999984" in _encoded(values) and "9.9999999999999991e-05" in _encoded(values)
    assert _encoded([0.0, -0.0]) == ["0", "-0"]


def test_encoder_random_bit_patterns():
    rng = np.random.default_rng(20240917)
    values = rng.integers(0, 2**64, size=1_200_000, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)][:1_000_000]
    assert values.size == 1_000_000
    _assert_encodes(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, min_size=1, max_size=50))
def test_encoder_matches_format_property(values):
    _assert_encodes(values)


def test_encoder_certifies_nearly_all_values_and_falls_back_on_the_rest():
    uniform = np.random.default_rng(5).uniform(0.0, 4.0, 100_000)
    assert _certified(uniform).mean() >= 0.999
    _assert_encodes(uniform)
    # exact ties (18 significant digits ending in 5), subnormals and values
    # beyond the power-of-ten table are left to '%'
    for v in (2.0**-25, 3 * 2.0**-25, 5e-324, 1e-310, 2.2250738585072009e-308, 1e-300, 1e300, 1.7976931348623157e308):
        assert not _certified([v])[0], v


def test_encoder_scaled_product_within_error_bound():
    # the double-double S = |v| * 10**e the digits come from, against exact
    # rationals over the whole power-of-ten table
    rng = np.random.default_rng(8)
    e = rng.integers(serialize._E_MIN, serialize._E_MAX + 1, 3000)
    a = rng.uniform(1.0, 10.0, e.size) * 10.0 ** (16 - e).astype(float)
    hi, lo = serialize._scaled(a, e - serialize._E_MIN, serialize._tables())
    for v, p, h, l in zip(a.tolist(), e.tolist(), hi.tolist(), lo.tolist()):
        exact = Fraction(v) * Fraction(10) ** p
        assert abs(Fraction(h) + Fraction(l) - exact) <= exact * Fraction(1, 2**104)


def test_encoder_integers_match_str():
    rng = np.random.default_rng(11)
    edges = [0, 1, -1, 9, 10, 99, 100, 10**9, -(10**9), 10**16, 10**17 - 1, 10**17, -(10**17), 2**63 - 1, -(2**63)]
    values = np.concatenate([np.array(edges, dtype=np.int64), rng.integers(-(2**62), 2**62, 100_000), rng.integers(-300, 300, 1000)])
    for v in (values, 10 ** rng.integers(0, 18, 1000) * rng.choice([-1, 1], 1000)):
        assert _encoded(v) == [str(int(x)) for x in v]


# ---------------------------------------------------------------------------
# JSON with integer tables spliced in; json.dump(indent=2) is the reference


def reference_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n_phi", range(1, 13))
def test_group_table_json_matches_json_dump(tmp_path, n_phi):
    payload = {"n_phi": n_phi, "center": list(range(n_phi)), "tx": [[[0.5, -0.0]]], "weyl_deviation": 1e-16}
    path = tmp_path / "group.json"
    write_json(payload, path, tables={"multiplication_table": multiplication_indices(n_phi)})
    want = reference_json({**payload, "multiplication_table": multiplication_indices(n_phi).tolist()})
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
