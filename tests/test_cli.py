import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from landau.cli import main
from landau.config import TorusConfig
from landau.maggroup import GroupElement, multiply
from landau.plane import CoherentLabel, coherent_expectations, evolve_coherent


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
        "method", "blocks", "block_dimension", "bandwidth", "k_per_block", "shift", "tol",
        "operator_applications", "kept",
    }
    assert len(solver["operator_applications"]) == solver["blocks"]
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
        # hx far above the magnetic length: the chain is singular in doubles
        ["spectrum", "--nphi", "1", "--grid", "32", "--lx", "1e8"],
        ["orbit", "--nphi", "1", "--radius", "nan"],
        ["orbit", "--nphi", "1", "--radius", "inf"],
        ["orbit", "--nphi", "1", "--radius", "0.1", "--center-x", "nan"],
        ["orbit", "--nphi", "1", "--radius", "0.1", "--phase0", "inf"],
        # the energy column |lam|^2 + 1/2 overflows
        ["coherent", "--nphi", "1", "--lam", "1e200", "--lam-prime", "0"],
        ["verify", "--nphi", "1", "--seed", "-1"],
        # hx^2 (hy^2) underflows: the chain's hop amplitudes are not finite
        ["spectrum", "--nphi", "1", "--lx", "1e-160"],
        ["spectrum", "--nphi", "1", "--ly", "1e-300"],
        ["spectrum", "--nphi", "1", "--lx", "1e-200", "--ly", "1e-200"],
        ["density", "--nphi", "1", "--lam-prime", "1e100", "--grid", "16"],
    ],
)
def test_invalid_input_exits_2(tmp_path, args):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run_cli(args + ["--out-dir", str(out_dir)])
    assert err.value.code == 2
    assert not out_dir.exists()  # a usage error writes nothing


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


def test_density_resolution_flag_changes_grid(tmp_path):
    run_cli(["density", "--nphi", "2", "--n", "0", "--l", "1", "--grid", "64", "--out-dir", str(tmp_path)])
    assert read_json(tmp_path / "argmax.json")["grid"] == [65, 65]


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
    assert len(payload["center"]) == 4
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
    xs = [float(line.split(",")[1]) for line in trace[1:]]
    assert all(0 <= x < 1 for x in xs)


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
    run_cli(["group", "--nphi", "5", "--out-dir", str(tmp_path)])
    payload = read_json(tmp_path / "group.json")
    els = [GroupElement(nx, ny, m, 5) for nx, ny, m in payload["elements"]]
    index = {g: i for i, g in enumerate(els)}
    assert payload["multiplication_table"] == [[index[multiply(g, h)] for h in els] for g in els]


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
        (["density", "--nphi", "1", "--n", "1", "--grid", "16"], {"state", "density", "csv", "pgm", "json"}),
        (["density", "--nphi", "1", "--lam", "0.2+0.1j", "--grid", "16"], {"state", "density", "csv", "pgm", "json"}),
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


def test_spectrum_output_deterministic_through_eigensolver(tmp_path):
    # 96^2 routes through the iterative solver; repeated runs must still be
    # byte-identical (spectrum.json embeds no timing, only eigenvalues)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    flags = ["spectrum", "--nphi", "2", "--grid", "96", "--levels", "2"]
    run_cli(flags + ["--out-dir", str(dir_a)])
    run_cli(flags + ["--out-dir", str(dir_b)])
    assert (dir_a / "spectrum.json").read_bytes() == (dir_b / "spectrum.json").read_bytes()


def test_spectrum_output_independent_of_blas_threads(tmp_path):
    # one chain of 16384 sites, large enough for a threaded BLAS to split its
    # vector operations; one and two threads must write the same bytes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        subprocess.run(
            [sys.executable, "-c", "import sys; from landau.cli import main; sys.exit(main())",
             "spectrum", "--nphi", "1", "--grid", "128", "--out-dir", str(tmp_path / threads)],
            env=env, check=True, capture_output=True, timeout=120,
        )
    assert (tmp_path / "1" / "spectrum.json").read_bytes() == (tmp_path / "2" / "spectrum.json").read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "t.cfg"
    cfg_file.write_text("mass=1\ncharge=1\nlx=1\nly=1\nnphi=2\ntheta_x=0.5\n")
    run_cli(
        ["density", "--config", str(cfg_file), "--theta-x", "1.5", "--n", "0", "--l", "0", "--grid", "32", "--out-dir", str(tmp_path)]
    )
    manifest = read_json(tmp_path / "density_manifest.json")
    assert manifest["config"]["nphi"] == 2
    assert manifest["config"]["theta_x"] == 1.5
