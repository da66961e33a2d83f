import functools
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landau import cli, spectral, verify
from landau.cli import _CHUNK_VALUE_WORK, _WRITE_GRIDS, build_parser, main
from landau.config import GRID_BUDGET, WORK_BUDGET, TorusConfig, check_work
from landau.plane import CoherentLabel, coherent_expectations, evolve_coherent
from landau.torus import _STREAM_BLOCK_WEIGHT, _STREAM_ROWS, TorusLabel, density_work, image_count
from landau.verify import _BLOCK_ROWS
from oracles import center_brute_force, conjugacy_classes_brute_force, element_index, group_law


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args):
    return main(args)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def read_json(path):
    """json.load that rejects NaN, Infinity and -Infinity, which json.load
    accepts but no strict JSON parser does."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def test_read_json_rejects_non_finite_constants(tmp_path):
    path = tmp_path / "x.json"
    for text in ('{"residual": NaN}', "[Infinity]", "[-Infinity]"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            read_json(path)


def test_spectrum_command(tmp_path):
    code = run_cli(
        ["spectrum", "--nphi", "3", "--lx", "1", "--ly", "1", "--grid", "48", "--levels", "3", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    payload = read_json(tmp_path / "spectrum.json")
    assert [c["multiplicity"] for c in payload["clusters"]] == [3, 3, 3]
    omega = 6 * math.pi
    for i, c in enumerate(payload["clusters"]):
        assert abs(c["mean"] - omega * (i + 0.5)) / (omega * (i + 0.5)) < 0.05
    manifest = read_json(tmp_path / "spectrum_manifest.json")
    assert "spectrum.json" in manifest["outputs"]
    assert manifest["config"]["nphi"] == 3


def test_spectrum_solver_telemetry_only_in_manifest(tmp_path):
    run_cli(["spectrum", "--nphi", "2", "--grid", "48", "--levels", "2", "--out-dir", str(tmp_path)])
    solver = read_json(tmp_path / "spectrum_manifest.json")["solver"]
    assert set(solver) == {
        "method", "blocks", "wells_per_block", "well_sizes", "k_per_well", "edge_bound", "edge_tol", "kept",
    }
    assert len(solver["well_sizes"]) == solver["blocks"] * solver["wells_per_block"]
    assert solver["edge_bound"] <= solver["edge_tol"]
    assert "solver" not in read_json(tmp_path / "spectrum.json")


def test_spectrum_unit_flux_nondegenerate(tmp_path):
    run_cli(["spectrum", "--nphi", "1", "--grid", "48", "--levels", "2", "--out-dir", str(tmp_path)])
    payload = read_json(tmp_path / "spectrum.json")
    assert payload["clusters"][0]["multiplicity"] == 1


def test_spectrum_missing_nphi_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["spectrum", "--out-dir", str(tmp_path)])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--nphi", "1", "--grid", "16", "--levels", "0"],
        ["spectrum", "--nphi", "2", "--grid", "8"],
        ["spectrum", "--nphi", "1", "--grid", "16", "--lx", "nan"],
        ["spectrum", "--nphi", "1", "--grid", "16", "--theta-x", "inf"],
        ["density", "--nphi", "1", "--n", "0", "--grid", "0"],
        ["density", "--nphi", "2", "--n", "-1", "--grid", "16"],
        ["density", "--nphi", "1", "--lam", "nan", "--grid", "16"],
        ["orbit", "--nphi", "1", "--radius", "0.1", "--samples", "0"],
        ["orbit", "--nphi", "1", "--radius", "0.1", "--periods", "-1"],
        ["orbit", "--nphi", "1", "--radius", "-1"],
        ["orbit", "--nphi", "1", "--radius", "0.1", "--periods", "0"],
        ["density", "--nphi", "1", "--lam", "1e3", "--grid", "16"],
        ["coherent", "--nphi", "1", "--lam", "0", "--lam-prime", "0", "--periods", "-1"],
        ["coherent", "--nphi", "1", "--lam", "0", "--lam-prime", "0", "--samples", "0"],
        ["group", "--nphi", "0"],
        ["density", "--nphi", "1", "--n", "0", "--grid", "1"],
        ["density", "--nphi", "1", "--n", "0", "--grid", "2"],
        ["density", "--nphi", "2", "--n", "0", "--grid", "15"],
        ["verify", "--nphi", "1", "--nphi-override", "nan"],
        ["verify", "--nphi", "1", "--nphi-override", "inf"],
        # B = 2 pi 1e308 / (e Lx Ly) overflows
        ["verify", "--nphi", "1", "--nphi-override", "1e308"],
        # hx far above the magnetic length l_B
        ["spectrum", "--nphi", "1", "--grid", "32", "--lx", "1e8"],
        ["orbit", "--nphi", "1", "--radius", "nan"],
        ["orbit", "--nphi", "1", "--radius", "inf"],
        ["orbit", "--nphi", "1", "--radius", "0.1", "--center-x", "nan"],
        ["orbit", "--nphi", "1", "--radius", "0.1", "--phase0", "inf"],
        # the energy column |lam|^2 + 1/2 overflows
        ["coherent", "--nphi", "1", "--lam", "1e200", "--lam-prime", "0"],
        # the coordinates overflow; the cyclotron period 2 pi M / eB overflows
        ["orbit", "--nphi", "1", "--radius", "1e308", "--center-x", "1e308"],
        ["orbit", "--nphi", "1", "--mass", "1e308", "--radius", "0.1", "--periods", "2"],
        ["verify", "--nphi", "1", "--seed", "-1"],
        # hy (hx) far above l_B on a torus of tiny area
        ["spectrum", "--nphi", "1", "--lx", "1e-160"],
        ["spectrum", "--nphi", "1", "--ly", "1e-300"],
        # e Lx Ly underflows to 0: B is not a finite double
        ["spectrum", "--nphi", "1", "--lx", "1e-200", "--ly", "1e-200"],
        ["density", "--nphi", "1", "--lam-prime", "1e100", "--grid", "16"],
        # |lam|^2 overflows the packet's energy, which the image bounds do not read
        ["density", "--nphi", "1", "--lam", "1e200", "--grid", "16"],
        ["verify", "--nphi", "1", "--lx", "1e-200", "--ly", "1e-200"],
        ["density", "--nphi", "1", "--n", "0", "--lx", "1e-200", "--ly", "1e-200"],
        ["orbit", "--nphi", "1", "--radius", "0.1", "--lx", "1e-200", "--ly", "1e-200"],
        ["coherent", "--nphi", "1", "--lam", "0", "--lam-prime", "0", "--lx", "1e-200", "--ly", "1e-200"],
        # B = 2 pi / 1e-320 overflows
        ["verify", "--nphi", "1", "--charge", "1e-320"],
        # the default 96^2 grid does not resolve l_B
        ["spectrum", "--nphi", "1", "--lx", "100", "--ly", "0.01"],
        ["spectrum", "--nphi", "1", "--lx", "1e-306"],
        # hx = 1.56 is about 4 l_B: the grid rule of spectrum holds for density too
        ["density", "--nphi", "1", "--lx", "100", "--ly", "0.01", "--n", "0", "--grid", "64"],
        # a coherent state has no eigenstate basis to pick
        ["density", "--nphi", "1", "--lam", "0.3", "--basis", "lx", "--grid", "16"],
        # the amplitude overflows and the density integrates to inf (ROADMAP item 22)
        ["density", "--nphi", "1", "--lam", "27", "--lam-prime", "0", "--grid", "16"],
        # above oscillator.MAX_LEVEL the recurrence's seed underflows: the
        # state held 66% of its norm at n = 1000, and 10^9 recurrence passes
        # would run for about a day
        ["density", "--nphi", "1", "--n", "1000", "--grid", "64"],
        ["density", "--nphi", "1", "--n", "1000000000", "--grid", "64"],
        # each |a|^2 is finite but their sum overflows: the density would
        # divide to zeros
        ["density", "--nphi", "1", "--lam", "26.5", "--grid", "64"],
    ],
)
def test_invalid_input_exits_2(tmp_path, args):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run_cli(args + ["--out-dir", str(out_dir)])
    assert err.value.code == 2
    assert not out_dir.exists()  # a usage error writes nothing


@pytest.mark.parametrize(
    "flags",
    [
        ["--lx", "100", "--ly", "0.01"],
        ["--lx", "1e-306"],
        ["--lx", "1e8", "--grid", "32"],
        ["--lx", "1e-160"],
        ["--ly", "1e-300"],
    ],
)
def test_spectrum_unresolved_grid_names_the_magnetic_length(tmp_path, capsys, flags):
    # density's default 256^2 grid resolves the 100 x 0.01 torus, so it runs at 64^2
    for command in (["spectrum"], ["density", "--n", "0", "--grid", "64"]):
        with pytest.raises(SystemExit) as err:
            run_cli([*command, "--nphi", "1", *flags, "--out-dir", str(tmp_path / "out")])
        assert err.value.code == 2
        assert "does not resolve the magnetic length l_B" in capsys.readouterr().err, command


def _reject(*args, **kwargs):
    raise ValueError("rejected by the library")


@pytest.mark.parametrize(
    "target, args",
    [
        ("landau.cli.low_spectrum", ["spectrum", "--nphi", "1", "--grid", "16"]),
        ("landau.cli.density_map", ["density", "--nphi", "1", "--n", "0", "--grid", "16"]),
        ("landau.maggroup.multiplication_indices", ["group", "--nphi", "2"]),
        ("landau.cli.run_verification", ["verify", "--nphi", "1"]),
        ("landau.cli.classical_orbit_trace", ["orbit", "--nphi", "1", "--radius", "0.1"]),
        ("landau.cli.evolve_coherent", ["coherent", "--nphi", "1", "--lam", "0", "--lam-prime", "0"]),
    ],
)
def test_value_error_before_first_output_exits_2(tmp_path, capsys, monkeypatch, target, args):
    monkeypatch.setattr(target, _reject)
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run_cli(args + ["--out-dir", str(out_dir)])
    assert err.value.code == 2
    assert "rejected by the library" in capsys.readouterr().err
    assert not out_dir.exists()


def test_value_error_after_first_output_propagates(tmp_path, monkeypatch):
    monkeypatch.setattr("landau.cli.write_pgm", _reject)
    with pytest.raises(ValueError, match="rejected by the library"):
        run_cli(["density", "--nphi", "1", "--n", "0", "--grid", "16", "--out-dir", str(tmp_path)])
    assert (tmp_path / "density.csv").exists()


def test_spectrum_overlapping_wells_exits_2(tmp_path, capsys):
    # hy*sqrt(eB) = 0.63 passes the grid rule, but the barrier between
    # cyclotron centres is 5 hbar*omega: the lattice levels tunnel
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run_cli(["spectrum", "--nphi", "1", "--lx", "0.5", "--ly", "2", "--grid", "8", "--out-dir", str(out_dir)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "Landau wells of grid 8x8 overlap: hy*sqrt(eB) = 0.627" in message
    assert "refine the grid in y" in message
    assert not out_dir.exists()


def run_capped(args, out_dir):
    """`landau args --out-dir out_dir` in a child process under a 2 GiB
    address-space cap, set in the child only."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from landau.cli import main\n"
        "sys.exit(main())"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args, "--out-dir", str(out_dir)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_verify_sizes_its_work_before_allocating(tmp_path):
    # lx = 1e-8 asks for a 32 x 1121000 grid and 2.2 TiB of image factors
    # (1.1 TiB, each held with its exponent array); under the cap verify must
    # refuse it as a usage error before it allocates
    out_dir = tmp_path / "out"
    done = run_capped(["verify", "--nphi", "2", "--lx", "1e-8"], out_dir)
    assert done.returncode == 2, done.stderr
    assert "32x1121000 grid would hold 2.28e+03 times the work budget" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        # its chain would hold a 20000 x 20000 float64 diagonal alone, 2.98 GiB
        (["spectrum", "--nphi", "1", "--grid", "20000"], "the lattice spectrum on the 20000x20000 grid would hold 59.4"),
        # its float density alone would be 2.98 GiB of float64
        (["density", "--nphi", "1", "--n", "0", "--grid", "20000"], "density on the 20000x20000 grid would hold 3.35"),
        # its chain fits, but 2000 eigenvectors of the 1024^2-site well
        # would be 15.6 GiB of float64
        (
            ["spectrum", "--nphi", "1", "--levels", "2000", "--grid", "1024"],
            "the lattice spectrum on the 1024x1024 grid would hold 31.2",
        ),
    ],
    ids=["spectrum", "density", "spectrum-levels"],
)
def test_export_commands_size_their_work_before_allocating(tmp_path, args, message):
    out_dir = tmp_path / "out"
    done = run_capped(args, out_dir)
    assert done.returncode == 2, done.stderr
    assert f"{message} times the work budget of 67371264 complex values" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out_dir.exists()


def test_density_budget_follows_the_state_kind():
    # arithmetic only: one formula for every kind, the larger of the writer
    # stage's grids and the stream's, the float density and one block of rows
    # weighted by the kind's measured peak, plus the image sum's factors: the
    # x factors twice at block length, the y factors twice, or half a column
    # for the real 'lx' profile. At 20000^2 the writer's 0.5625 grids
    # outweigh the stream's 0.503-0.519
    cfg = TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=1)
    for label, kind, y_columns in (
        (TorusLabel(0, 0), "ly", 2),
        (TorusLabel(0, 0, "lx"), "lx", 0.5),
        (CoherentLabel(0.3, 0.2j), "coherent", 2),
    ):
        grids = max(0.5 + _STREAM_BLOCK_WEIGHT[kind] * _STREAM_ROWS / 20001, _WRITE_GRIDS)
        images = image_count(cfg, label)
        want = math.ceil(grids * 20001 * 20001) + math.ceil(images * (2 * _STREAM_ROWS + y_columns * 20001))
        assert density_work(cfg, 20000, 20000, label, _WRITE_GRIDS) == want
    # a grid that every streamed kind fits, 'lx' included
    for label in (TorusLabel(3, 0), TorusLabel(3, 0, "lx"), CoherentLabel(0.3, 0.2j)):
        check_work(density_work(cfg, 5000, 5000, label, _WRITE_GRIDS), "streamed", "")


def test_spectrum_budget_counts_the_well_vectors(monkeypatch):
    # arithmetic only: three complex values per chain site, and the largest
    # well's whole segment, size = ceil(sites / wells), at k + 4 values per
    # site: its k eigenvectors and the quotient's temporary of their size,
    # and the solver's arrays. Nothing is built before the work is checked
    counted = []

    def record(work, what, remedy):
        counted.append(work)
        raise ValueError("counted")

    def build(*args):
        raise AssertionError("a chain was built before its work was checked")

    monkeypatch.setattr(spectral, "check_work", record)
    monkeypatch.setattr(spectral, "bloch_chain", build)
    for nphi, grid, k, sites, size in (
        # one chain of one well
        (1, 1024, 2000, 1024 * 1024, 1024 * 1024),
        # gcd(6, 100) = 2 chains of 5,000 sites, each 3 wells of 1,667 at most
        (6, 100, 9, 5000, 1667),
        # k above the segment counts the segment's size
        (6, 100, 2000, 5000, 1667),
    ):
        cfg = TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=nphi)
        with pytest.raises(ValueError, match="counted"):
            spectral.chain_spectra(cfg, grid, grid, k)
        assert counted.pop() == 3 * sites + size * (min(k, size) + 4)
    monkeypatch.setattr(spectral, "check_work", check_work)
    with pytest.raises(ValueError, match=r"on the 1024x1024 grid would hold 31\.2 times the work budget"):
        spectral.low_spectrum(TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=1), 1024, 1024, 2000)


DENSITY_BUDGET_SLACK = 1.8


@pytest.mark.parametrize(
    "args",
    [
        # the CSV writer's stage outweighs the 'ly' stream on every grid
        ["--nphi", "2", "--n", "0", "--grid", "128"],
        ["--nphi", "2", "--n", "0", "--grid", "256"],
        ["--nphi", "1", "--n", "0", "--grid", "513"],
        # the export benchmark's largest density, which sets its peak_rss_mb
        ["--nphi", "1", "--n", "0", "--grid", "1025"],
        ["--nphi", "2", "--n", "1", "--l", "1", "--basis", "lx", "--grid", "512"],
        ["--nphi", "1", "--lam", "0.3+0.2j", "--lam-prime=-0.1+0.4j", "--grid", "513"],
        # 972 coherent and 766 'lx' images on a thin torus
        ["--nphi", "1", "--lx", "100", "--ly", "0.01", "--lam", "0.35+0.2j", "--lam-prime", "0.3-0.4j", "--grid", "512"],
        ["--nphi", "1", "--lx", "100", "--ly", "0.01", "--n", "0", "--basis", "lx", "--grid", "512"],
    ],
    ids=["ly-128", "ly-256", "ly", "ly-1025", "lx", "coherent", "coherent-100x0.01", "lx-100x0.01"],
)
def test_density_holds_no_more_than_its_work_budget(tmp_path, monkeypatch, args):
    # the whole run's tracemalloc peak against the work it passed to
    # check_work, complex values 16 bytes each: the budget holds the peak and
    # is tight. Budget over peak read 1.14 (ly-128), 1.16 (ly-256), 1.10
    # ('ly'), 1.13 (ly-1025), 1.14 ('lx'), 1.08 (coherent), 1.04
    # (coherent-100x0.01) and 1.14 (lx-100x0.01, whose 766 real 'lx' y
    # profiles count half a complex column each) as a process's first run,
    # which also builds the parser and the encoder's tables, and 1.28, 1.27,
    # 1.16, 1.15, 1.20, 1.10, 1.04 and 1.15 after another run. The writer's
    # stage sets every 'ly' peak; density_map's own 'ly' peak on 1025^2 is
    # its stream, 0.95 values per block value, since its argmax holds one
    # value per row and no grid of booleans
    budget = []

    def record(work, what, remedy):
        budget.append(work)
        check_work(work, what, remedy)

    monkeypatch.setattr(cli, "check_work", record)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(["density", *args, "--out-dir", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 16 * budget[0] <= DENSITY_BUDGET_SLACK * peak


@pytest.mark.parametrize(
    "nphi, grid, levels",
    [(1, 96, 3), (4, 96, 3), (4, 192, 3), (2, 384, 3), (1, 96, 100), (1, 96, 300)],
    ids=["1-96", "4-96", "4-192", "2-384", "1-96-100", "1-96-300"],
)
def test_spectrum_holds_no_more_than_its_work_budget(tmp_path, nphi, grid, levels):
    # the run's tracemalloc peak against the manifest's work: three complex
    # values per chain site, and the whole segment of the largest well with
    # its eigenvectors, the quotient's temporary and the solver's arrays. A
    # first run builds what a process builds once. Each chain is freed before
    # the next is built, and its hops once their moduli are taken. At three
    # levels the chains set the peak, 2.5-2.9 values per site, and the wells
    # are cropped: budget over peak read 3.9, 3.4, 3.8 and 4.0. At 100 and
    # 300 levels the well is the whole 9,216-site chain, and its vectors and
    # the quotient's temporary set the peak: 1.05 and 1.02, where the chain
    # term alone reads 0.03 and 0.01. Below 96^2 fixed-size arrays dominate,
    # so no smaller grid is held to the model
    argv = ["spectrum", "--nphi", str(nphi), "--theta-x", "0.7", "--theta-y", "2.1", "--levels", str(levels)]
    assert main([*argv, "--grid", "48", "--out-dir", str(tmp_path / "first")]) == 0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main([*argv, "--grid", str(grid), "--out-dir", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 16 * read_json(tmp_path / "spectrum_manifest.json")["work"]["work_elements"]


@pytest.mark.parametrize(
    "periods, samples", [(1, 256), (1, 4096), (16, 4096), (64, 4096)], ids=["257", "4097", "65537", "262145"]
)
@pytest.mark.parametrize(
    "args",
    [
        ["orbit", "--nphi", "2", "--radius", "1"],
        ["coherent", "--nphi", "2", "--lam", "0.5", "--lam-prime", "0.2"],
    ],
    ids=["orbit", "coherent"],
)
def test_trace_holds_no_more_than_its_work_budget(tmp_path, monkeypatch, args, periods, samples):
    # the run's tracemalloc peak against the work it passed to check_work.
    # A first, one-row run builds what a process builds once, the parser and
    # the encoder's tables (95 kB), so the peak is the run's own. Budget over
    # peak read 1.14 and 1.22 at 257 rows (orbit, coherent), 1.30 and 1.28 at
    # 4,097, 2.19 and 1.17 at 65,537, and 1.82 and 1.09 at 262,145: `orbit`
    # holds 3.0 values per row of the 5.1 that `coherent` sets
    assert main([*args, "--samples", "1", "--out-dir", str(tmp_path / "first")]) == 0
    budget = []

    def record(work, what, remedy):
        budget.append(work)
        check_work(work, what, remedy)

    monkeypatch.setattr(cli, "check_work", record)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main([*args, "--periods", str(periods), "--samples", str(samples), "--out-dir", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 16 * budget[0]


@pytest.mark.parametrize(
    "args",
    [
        ["orbit", "--nphi", "1", "--radius", "1"],
        ["coherent", "--nphi", "1", "--lam", "0.5", "--lam-prime", "0.2"],
    ],
    ids=["orbit", "coherent"],
)
def test_trace_commands_size_their_work_before_allocating(tmp_path, capsys, args):
    # 10^12 + 1 rows: sampling the times alone would take 7.28 TiB
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run_cli([*args, "--periods", "1000000", "--samples", "1000000", "--out-dir", str(out_dir)])
    assert err.value.code == 2
    assert f"the {args[0]} trace of 1000000000001 samples would hold 7.57e+04 times the work budget" in capsys.readouterr().err
    assert not out_dir.exists()


def test_spectrum_levels_below_one_names_the_flag(tmp_path, capsys):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run_cli(["spectrum", "--nphi", "1", "--grid", "16", "--levels", "0", "--out-dir", str(out_dir)])
    assert err.value.code == 2
    assert "--levels must be >= 1, got 0" in capsys.readouterr().err
    assert not out_dir.exists()


def test_density_fig2_reproduction(tmp_path):
    pi = repr(math.pi)
    code = run_cli(
        ["density", "--nphi", "1", "--theta-x", pi, "--theta-y", pi, "--n", "0", "--l", "0", "--grid", "128", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    argmax = read_json(tmp_path / "argmax.json")
    assert abs(argmax["argmax_x"] - 0.5) <= 1 / 128
    assert abs(argmax["argmax_y"] - 0.5) <= 1 / 128
    assert argmax["grid"] == [129, 129]
    pgm = (tmp_path / "density.pgm").read_text().splitlines()
    assert pgm[0] == "P2" and pgm[1] == "129 129"


def test_density_coherent_normalized(tmp_path):
    code = run_cli(
        ["density", "--nphi", "1", "--lam", "0", "--lam-prime", "0.2+0.1j", "--grid", "96", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    argmax = read_json(tmp_path / "argmax.json")
    assert abs(argmax["integral"] - 1.0) < 1e-8


def test_density_near_overflow_normalized(tmp_path):
    # the largest |a|^2 are close to overflow, but their sum is finite (at
    # --lam 26.5 it overflows, and density exits 2)
    assert run_cli(["density", "--nphi", "1", "--lam", "26.4", "--grid", "64", "--out-dir", str(tmp_path)]) == 0
    argmax = read_json(tmp_path / "argmax.json")
    assert abs(argmax["integral"] - 1.0) < 1e-12


def test_density_resolution_flag_changes_grid(tmp_path):
    # --grid is rounded up to a multiple of n_phi; the closed grid adds one point
    for nphi, closed in (("2", 65), ("3", 67)):
        out = tmp_path / nphi
        run_cli(["density", "--nphi", nphi, "--n", "0", "--l", "1", "--grid", "64", "--out-dir", str(out)])
        assert read_json(out / "argmax.json")["grid"] == [closed, closed]


def test_density_selector_required(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["density", "--nphi", "1", "--out-dir", str(tmp_path)])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli(["density", "--nphi", "1", "--n", "0", "--lam", "0", "--out-dir", str(tmp_path)])
    assert err.value.code == 2


def test_group_dump(tmp_path):
    code = run_cli(["group", "--nphi", "4", "--out-dir", str(tmp_path)])
    assert code == 0
    payload = read_json(tmp_path / "group.json")
    assert payload["order"] == 64
    assert len(payload["multiplication_table"]) == 64
    assert payload["center"] == [0, 1, 2, 3]
    assert payload["weyl_deviation"] < 1e-14
    tx = np.array([[complex(re, im) for re, im in row] for row in payload["tx"]])
    ty = np.array([[complex(re, im) for re, im in row] for row in payload["ty"]])
    assert np.array_equal(tx, np.array([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex))
    assert np.max(np.abs(ty - np.diag([1, 1j, -1, -1j]))) < 1e-15
    # conjugacy classes partition the group
    sizes = sum(len(c) for c in payload["conjugacy_classes"])
    assert sizes == 64


def test_group_too_large(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["group", "--nphi", "13", "--out-dir", str(tmp_path)])
    assert err.value.code == 2


def test_verify_passes_and_reports_numbers(tmp_path):
    code = run_cli(["verify", "--nphi", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    payload = read_json(tmp_path / "verify.json")
    assert payload["all_passed"] is True
    assert all(isinstance(c["residual"], float) for c in payload["checks"])
    assert len(payload["checks"]) >= 15


def test_verify_detects_non_integer_flux(tmp_path):
    code = run_cli(["verify", "--nphi", "1", "--nphi-override", "1.5", "--out-dir", str(tmp_path)])
    assert code == 1
    payload = read_json(tmp_path / "verify.json")
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert any(c["name"] == "boundary_shift_consistency" for c in failed)


@pytest.mark.parametrize("override", ["1.5", "1e300"])
def test_verify_override_fails_only_the_flux_check(tmp_path, override):
    assert run_cli(["verify", "--nphi", "1", "--out-dir", str(tmp_path / "base")]) == 0
    code = run_cli(["verify", "--nphi", "1", "--nphi-override", override, "--out-dir", str(tmp_path / "over")])
    assert code == 1
    base = read_json(tmp_path / "base" / "verify.json")["checks"]
    over = read_json(tmp_path / "over" / "verify.json")["checks"]
    changed = [b["name"] for b, o in zip(base, over, strict=True) if b != o]
    assert changed == ["boundary_shift_consistency"]
    assert [c["name"] for c in over if not c["passed"]] == changed


def test_verify_tiny_mass_writes_strict_json(tmp_path):
    # every check is unit-free (energies in hbar*omega), so in magnetic units
    # each of these is the unit torus: all checks pass and the JSON is finite
    for k, flags in enumerate((["--mass", "1e-300"], ["--mass", "1e-3"], ["--lx", "1e-3", "--ly", "1e-3"])):
        out = tmp_path / str(k)
        assert run_cli(["verify", "--nphi", "1", *flags, "--out-dir", str(out)]) == 0, flags
        payload = read_json(out / "verify.json")
        assert payload["all_passed"] and all(c["passed"] for c in payload["checks"]), flags


def test_orbit_small_radius_no_wrap(tmp_path):
    code = run_cli(
        ["orbit", "--nphi", "1", "--center-x", "0.5", "--center-y", "0.5", "--radius", "0.2", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    info = read_json(tmp_path / "orbit.json")
    assert info["closes"] is True
    assert info["crosses_boundary"] is False
    assert info["closure_residual"] < 1e-9


def test_orbit_large_radius_wraps_and_closes(tmp_path):
    code = run_cli(["orbit", "--nphi", "1", "--radius", "1.4", "--out-dir", str(tmp_path)])
    assert code == 0
    info = read_json(tmp_path / "orbit.json")
    assert info["closes"] is True
    assert info["crosses_boundary"] is True
    trace = (tmp_path / "orbit.csv").read_text().splitlines()
    assert trace[0] == "t,x,y"
    xy = np.array([[float(v) for v in line.split(",")[1:]] for line in trace[1:]])
    assert np.all(xy >= 0.0) and np.all(xy < 1.0)  # folded into the unit torus
    assert np.abs(np.diff(xy, axis=0)).max() > 0.5  # at least one wraparound
    gap = np.abs(xy[-1] - xy[0])
    assert np.minimum(gap, 1.0 - gap).max() < 1e-12  # closes on the torus


def test_orbit_wider_than_the_torus_crosses(tmp_path):
    # a circle of radius 100 on the unit torus: one sample per 2.45 torus
    # lengths of arc, so consecutive wrapped samples need not jump far. The
    # closure residual is rounding and grows with the radius (2.4e-9 at 1e7,
    # 2.4e-4 at 1e12), but every such orbit still closes.
    for radius in ("100", "1e7", "1e12"):
        out = tmp_path / radius
        assert run_cli(["orbit", "--nphi", "1", "--radius", radius, "--out-dir", str(out)]) == 0
        info = read_json(out / "orbit.json")
        assert info["crosses_boundary"] is True
        assert info["closes"] is True, radius


def test_coherent_time_series(tmp_path):
    code = run_cli(
        ["coherent", "--nphi", "1", "--lam", "0", "--lam-prime", "0.3+0.2j", "--samples", "16", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "coherent.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,energy,delta_x,delta_y,delta_energy"
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    xs = {row[1] for row in rows}
    ys = {row[2] for row in rows}
    assert max(xs) - min(xs) < 1e-12  # lambda = 0: the packet sits still
    assert max(ys) - min(ys) < 1e-12
    energies = [row[3] for row in rows]
    assert max(energies) - min(energies) < 1e-12


def test_coherent_period_return(tmp_path):
    run_cli(
        ["coherent", "--nphi", "1", "--lam", "0.4+0.1j", "--lam-prime", "0.2-0.3j", "--samples", "32", "--out-dir", str(tmp_path)]
    )
    lines = (tmp_path / "coherent.csv").read_text().splitlines()
    first = list(map(float, lines[1].split(",")))
    last = list(map(float, lines[-1].split(",")))
    assert abs(first[1] - last[1]) < 1e-9 and abs(first[2] - last[2]) < 1e-9


def _coherent_csv_per_step(cfg, label, times):
    """coherent.csv as one scalar evolve/expectations call per time step."""
    lines = ["t,x,y,energy,delta_x,delta_y,delta_energy\n"]
    for t in times:
        ex = coherent_expectations(cfg, evolve_coherent(cfg, label, float(t)))
        x = ex.center_x + ex.rel_x
        y = ex.center_y + ex.rel_y
        dx = math.hypot(ex.spread_center_x, ex.spread_rel_x)
        dy = math.hypot(ex.spread_center_y, ex.spread_rel_y)
        lines.append(
            f"{t:.17g},{x:.17g},{y:.17g},{ex.energy:.17g},"
            f"{dx:.17g},{dy:.17g},{ex.spread_energy:.17g}\n"
        )
    return "".join(lines)


@pytest.mark.parametrize(
    "mass, charge, lam, lam_prime",
    [(1.0, 1.0, "0", "0.5-0.1j"), (1.3, 0.7, "0.3-0.8j", "0.2+0.4j"), (0.6, 2.0, "-0.9+0.1j", "-0.0-0.7j")],
)
def test_coherent_csv_matches_per_step_evaluation(tmp_path, mass, charge, lam, lam_prime):
    periods, samples = 8, 1024
    args = ["--nphi", "2", "--mass", str(mass), "--charge", str(charge), "--lx", "1.2", "--ly", "0.8"]
    run_cli(
        ["coherent", *args, f"--lam={lam}", f"--lam-prime={lam_prime}",
         "--periods", str(periods), "--samples", str(samples), "--out-dir", str(tmp_path)]
    )
    cfg = TorusConfig(mass=mass, charge=charge, lx=1.2, ly=0.8, n_phi=2)
    times = np.linspace(0.0, periods * 2.0 * math.pi / cfg.omega, periods * samples + 1)
    expected = _coherent_csv_per_step(cfg, CoherentLabel(complex(lam), complex(lam_prime)), times)
    assert (tmp_path / "coherent.csv").read_text() == expected


def test_group_table_matches_group_law(tmp_path):
    # group.json's table, classes and centre, against the oracle's group law
    for n in (1, 5, 7):
        run_cli(["group", "--nphi", str(n), "--out-dir", str(tmp_path)])
        payload = read_json(tmp_path / "group.json")
        els = [tuple(g) for g in payload["elements"]]
        assert els == list(itertools.product(range(n), repeat=3))
        assert payload["multiplication_table"] == [[element_index(group_law(g, h, n), n) for h in els] for g in els]
        assert payload["conjugacy_classes"] == conjugacy_classes_brute_force(n)
        assert payload["center"] == sorted(element_index(g, n) for g in center_brute_force(n))


def test_outputs_are_deterministic(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    flags = ["density", "--nphi", "1", "--n", "0", "--l", "0", "--grid", "64"]
    run_cli(flags + ["--out-dir", str(dir_a)])
    run_cli(flags + ["--out-dir", str(dir_b)])
    for name in ("density.csv", "density.pgm", "argmax.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


@pytest.mark.parametrize(
    "argv, stages",
    [
        (["density", "--nphi", "1", "--n", "1", "--grid", "16"], {"density", "csv", "pgm", "json"}),
        (["density", "--nphi", "1", "--lam", "0.2+0.1j", "--grid", "16"], {"density", "csv", "pgm", "json"}),
        (["orbit", "--nphi", "1", "--radius", "0.2", "--samples", "8"], {"trace", "csv", "json"}),
        (["coherent", "--nphi", "1", "--lam", "0.3", "--lam-prime", "0", "--samples", "8"], {"evolve", "csv"}),
        (["group", "--nphi", "3"], {"group", "table", "json"}),
        (["spectrum", "--nphi", "1", "--grid", "16", "--levels", "1"], {"solve", "json"}),
        (["verify", "--nphi", "1"], {"checks", "json"}),
    ],
)
def test_export_stage_timings_only_in_manifest(tmp_path, argv, stages):
    assert run_cli(argv + ["--out-dir", str(tmp_path)]) == 0
    manifest_name = f"{argv[0]}_manifest.json"
    manifest = read_json(tmp_path / manifest_name)
    assert {"command", "config", "seed", "version", "outputs", "stages", "wall_time_s"} <= set(manifest)
    assert manifest["outputs"] == sorted(p.name for p in tmp_path.iterdir() if p.name != manifest_name)
    assert set(manifest["stages"]) == stages
    assert all(isinstance(s, float) and s >= 0.0 for s in manifest["stages"].values())
    for name in manifest["outputs"]:
        assert "stages" not in (tmp_path / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, budget",
    [
        # the grids after the build, and the writer's one chunk of 65^2 rows of two values
        (
            ["density", "--nphi", "1", "--n", "0", "--grid", "64"],
            lambda cfg: density_work(cfg, 64, 64, TorusLabel(0, 0), _WRITE_GRIDS + _CHUNK_VALUE_WORK * 2 * 65**2 / 65**2),
        ),
        (["verify", "--nphi", "2"], verify.torus_work),
        # three complex values per site of each of the gcd(2, 48) = 2 chains,
        # and k = 2 eigenvectors plus the solver's four values per site of a
        # chain's one well
        (["spectrum", "--nphi", "2", "--grid", "48", "--levels", "2"], lambda cfg: (3 + 2 + 4) * 48 * 48 // 2),
        # 5.1 values per row of 4 * 16 + 1 samples, and the writer's one chunk
        # of those rows in 3 (orbit) or 7 (coherent) columns
        (
            ["orbit", "--nphi", "1", "--radius", "0.2", "--periods", "4", "--samples", "16"],
            lambda cfg: math.ceil(65 * 5.1 + _CHUNK_VALUE_WORK * 3 * 65),
        ),
        (
            ["coherent", "--nphi", "1", "--lam", "0.3", "--lam-prime", "0", "--periods", "4", "--samples", "16"],
            lambda cfg: math.ceil(65 * 5.1 + _CHUNK_VALUE_WORK * 7 * 65),
        ),
    ],
    ids=["density", "verify", "spectrum", "orbit", "coherent"],
)
def test_manifest_reports_the_work_model(tmp_path, argv, budget):
    assert run_cli(argv + ["--out-dir", str(tmp_path)]) == 0
    work = read_json(tmp_path / f"{argv[0]}_manifest.json")["work"]
    want = budget(TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=int(argv[2])))
    assert work == {"work_elements": want, "budget": WORK_BUDGET, "fraction": want / WORK_BUDGET}
    assert 0.0 < work["fraction"] < 1.0


def test_verify_timing_only_in_manifest(tmp_path):
    # verify.json holds residuals only; the per-check times go to the manifest
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        run_cli(["verify", "--nphi", "1", "--seed", "3", "--out-dir", str(d)])
    assert (dirs[0] / "verify.json").read_bytes() == (dirs[1] / "verify.json").read_bytes()
    names = [c["name"] for c in read_json(dirs[0] / "verify.json")["checks"]]
    timed = read_json(dirs[0] / "verify_manifest.json")["checks"]
    assert [c["name"] for c in timed] == names
    assert all(set(c) == {"name", "time_s"} and c["time_s"] >= 0.0 for c in timed)
    grid = read_json(dirs[0] / "verify_manifest.json")["heisenberg_grid"]
    assert grid == {
        "points_per_side": 381,
        "h_over_lB": pytest.approx(math.sqrt(GRID_BUDGET)),
        "margin": 6,
        "block_rows": _BLOCK_ROWS,
        "blocks": math.ceil((381 - 12) / _BLOCK_ROWS),
    }


def test_spectrum_output_deterministic_through_eigensolver(tmp_path):
    # 96^2 routes through the iterative solver; repeated runs must still be
    # byte-identical (spectrum.json embeds no timing, only eigenvalues)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    flags = ["spectrum", "--nphi", "2", "--grid", "96", "--levels", "2"]
    run_cli(flags + ["--out-dir", str(dir_a)])
    run_cli(flags + ["--out-dir", str(dir_b)])
    assert (dir_a / "spectrum.json").read_bytes() == (dir_b / "spectrum.json").read_bytes()


# The lattice spectrum of the seeded n_phi = 2, 1.1 x 1/1.1 torus on its
# 124 x 102 default_grid, written like spectrum.json; spectrum takes only
# square grids, so this case calls the library.
SEEDED_SPECTRUM_SCRIPT = """
import sys
from landau.config import TorusConfig
from landau.serialize import write_json
from landau.spectral import low_spectrum
from landau.torus import default_grid
cfg = TorusConfig(1.0, 1.0, lx=1.1, ly=1 / 1.1, n_phi=2, theta_x=0.7, theta_y=2.1)
assert default_grid(cfg) == (124, 102)
write_json(low_spectrum(cfg, 124, 102, 4).as_dict(), sys.argv[1])
"""


def test_spectrum_output_independent_of_blas_threads(tmp_path):
    # one chain of 16384 sites, and the seeded torus whose ring solve once
    # moved in the last digits; one and two threads must write the same bytes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        subprocess.run(
            [sys.executable, "-c", "import sys; from landau.cli import main; sys.exit(main())",
             "spectrum", "--nphi", "1", "--grid", "128", "--out-dir", str(tmp_path / threads)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        subprocess.run(
            [sys.executable, "-c", SEEDED_SPECTRUM_SCRIPT, str(tmp_path / threads / "seeded.json")],
            env=env, check=True, capture_output=True, timeout=120,
        )
    for name in ("spectrum.json", "seeded.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


VERIFY_THREAD_CASES = {
    "nphi1": "verify --nphi 1",
    "nphi2": "verify --nphi 2",
    "nphi4": "verify --nphi 4",
    "1.1x0.91": f"verify --nphi 2 --lx 1.1 --ly {1 / 1.1!r} --theta-x 0.7 --theta-y 2.1 --seed 3",
}


def test_verify_output_independent_of_blas_threads(tmp_path):
    # every residual is a pairwise numpy sum, whose order the thread count
    # does not change, or a LAPACK bisection, which calls no threaded BLAS
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = "import sys; from landau.cli import main\nfor argv in sys.argv[1:]: main(argv.split())"
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        argvs = [f"{flags} --out-dir {tmp_path / threads / case}" for case, flags in VERIFY_THREAD_CASES.items()]
        subprocess.run([sys.executable, "-c", script, *argvs], env=env, check=True, capture_output=True, timeout=300)
    for case in VERIFY_THREAD_CASES:
        one, two = ((tmp_path / threads / case / "verify.json").read_bytes() for threads in ("1", "2"))
        assert one == two, case


# The torus-state checks whose residuals move when the seeded torus's (lx, ly)
# is scaled by an odd power of two: hermite_eigenfunction's (M w)^(1/4)
# prefactor then scales by 2^(-1/2), not a power of two, so the states round
# differently before they are normalized. The largest move measured at
# 2^(+-1) and 2^(+-3) is 3.3e-16 (hamiltonian_eigen_residual).
LENGTH_ROUNDING_CHECKS = {
    "torus_boundary_residual", "degenerate_basis_orthonormality", "hamiltonian_eigen_residual",
    "weyl_relation_on_states", "tx_ladder_overlap", "ty_eigenvalue", "basis_projector_distance",
}
LENGTH_ROUNDING_BOUND = 1.0e-15


@functools.cache
def _seeded_verify_json(mass=1.0, charge=1.0, length=1.0) -> bytes:
    lx = 1.1
    with tempfile.TemporaryDirectory() as out:
        run_cli(
            ["verify", "--nphi", "2", "--theta-x", "0.7", "--theta-y", "2.1", "--seed", "3", "--mass", repr(mass),
             "--charge", repr(charge), "--lx", repr(lx * length), "--ly", repr(length / lx), "--out-dir", out]
        )
        return (Path(out) / "verify.json").read_bytes()


@settings(max_examples=8, deadline=None)
@given(kind=st.sampled_from(["mass", "charge", "length"]), power=st.integers(-3, 3))
@example(kind="length", power=1)
def test_verify_json_under_power_of_two_rescaling(kind, power):
    # in units of hbar*w and l_B each rescaled torus is the seeded one, and a
    # factor that enters only as a power of two rescales the arithmetic exactly
    base, scaled = _seeded_verify_json(), _seeded_verify_json(**{kind: 2.0**power})
    if kind != "length" or power % 2 == 0:  # (M w)^(1/4) scales by a power of two
        assert scaled == base
        return
    one, two = json.loads(base), json.loads(scaled)
    assert one["all_passed"] == two["all_passed"]
    moved = {}
    for a, b in zip(one["checks"], two["checks"], strict=True):
        if a != b:
            assert {**a, "residual": 0} == {**b, "residual": 0}
            moved[a["name"]] = abs(a["residual"] - b["residual"])
    assert set(moved) <= LENGTH_ROUNDING_CHECKS, moved
    assert max(moved.values(), default=0.0) <= LENGTH_ROUNDING_BOUND, moved


def readme_commands():
    """The `landau ...` lines of README's "Command line" block, continuation
    lines joined and comments dropped."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(argv[1:]))
def test_readme_command_line_block_runs(tmp_path, monkeypatch, argv):
    # every documented line exits as documented: 0, or 1 for the
    # non-integer flux that verify fails by design
    assert argv[0] == "landau"
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == (1 if "--nphi-override" in argv else 0)


def test_parser_is_built_once_and_keeps_no_parsed_state(tmp_path):
    assert build_parser() is build_parser()
    spectrum = ["spectrum", "--nphi", "2", "--grid", "48", "--levels", "2"]
    density = ["density", "--nphi", "3", "--lx", "1.3", "--ly", "0.8", "--theta-x", "1.5", "--n", "1", "--grid", "48"]
    run_cli(density + ["--out-dir", str(tmp_path / "density")])
    after = vars(build_parser().parse_args(spectrum))
    run_cli(spectrum + ["--out-dir", str(tmp_path / "after")])
    build_parser.cache_clear()
    assert vars(build_parser().parse_args(spectrum)) == after
    run_cli(spectrum + ["--out-dir", str(tmp_path / "fresh")])
    assert (tmp_path / "after" / "spectrum.json").read_bytes() == (tmp_path / "fresh" / "spectrum.json").read_bytes()
    configs = [read_json(tmp_path / d / "spectrum_manifest.json")["config"] for d in ("after", "fresh")]
    assert configs[0] == configs[1]


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "t.cfg"
    cfg_file.write_text("mass=1\ncharge=1\nlx=1\nly=1\nnphi=2\ntheta_x=0.5\n")
    run_cli(
        ["density", "--config", str(cfg_file), "--theta-x", "1.5", "--n", "0", "--l", "0", "--grid", "32", "--out-dir", str(tmp_path)]
    )
    manifest = read_json(tmp_path / "density_manifest.json")
    assert manifest["config"]["nphi"] == 2
    assert manifest["config"]["theta_x"] == 1.5
