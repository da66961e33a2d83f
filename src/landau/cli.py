"""Command-line front end.

Subcommands: spectrum, density, group, verify, orbit, coherent. Physical
parameters come from flags or from a key=value config file (--config), with
flags taking precedence. Outputs are deterministic, so identical flags give
byte-identical files. One runner, `Run`, owns what every command shares: it
makes the out-dir when the first output is written, times the stages and
writes the run manifest (<command>_manifest.json) listing the outputs once
the command returns. One rule decides usage errors, in `main`: a ValueError
raised before the command names its first output is a usage error (exit 2,
and no files, not even the out-dir); after that it propagates unchanged.
Commands and the library raise ValueError and never exit themselves.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, maggroup
from .config import (
    TORUS_DEFAULTS,
    TORUS_KEYS,
    TWO_PI,
    check_grid,
    check_work,
    commensurate,
    parse_config_text,
    torus_config_from_mapping,
    work_report,
)
from .plane import (
    ClassicalOrbit,
    CoherentLabel,
    classical_orbit_trace,
    coherent_expectations,
    evolve_coherent,
    landau_energy,
)
from .serialize import CHUNK_FIELDS, write_density_csv, write_json, write_pgm, write_table_csv
from .spectral import low_spectrum
from .torus import TorusLabel, density_map, density_work
from .verify import heisenberg_grid, run_verification, torus_work


def _add_config_flags(parser):
    for key, kind in TORUS_KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, default=None)
    parser.add_argument("--config", type=str, default=None, help="key=value config file")
    parser.add_argument("--out-dir", dest="out_dir", type=str, default=".")


def _merge_config(args, run):
    """Defaults < config file < explicit flags; nphi is mandatory. Records the
    merged values in the manifest and returns the TorusConfig built from them."""
    values = dict(TORUS_DEFAULTS)
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
            values.update(parse_config_text(text))
        except (OSError, ValueError) as exc:
            raise ValueError(f"bad config file: {exc}") from None
    for key in TORUS_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if "nphi" not in values or values["nphi"] is None:
        raise ValueError("--nphi is required (flag or config file)")
    try:
        cfg = torus_config_from_mapping(values)
    except ValueError as exc:
        raise ValueError(f"bad configuration: {exc}") from None
    run.manifest["config"] = {k: values[k] for k in TORUS_KEYS if k in values}
    return cfg


class Run:
    """The plumbing every command shares. `output(name)` makes the out-dir on
    first use and lists the file, `stage(name)` times a block, and `manifest`
    takes the command's own fields (config, seed, grid, solver, ...). `main`
    makes one per run and calls `write_manifest` once the command returns;
    every command writes an output first, so the out-dir exists by then."""

    def __init__(self, command: str, out_dir: str):
        self.started = time.perf_counter()
        self.command, self.out_dir = command, Path(out_dir)
        self.outputs, self.stages = [], {}
        self.manifest = {"config": {}, "seed": None}

    def output(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out_dir / name

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = time.perf_counter() - start

    def write_manifest(self) -> None:
        payload = {**self.manifest, "command": self.command, "version": __version__}
        payload.update(outputs=sorted(self.outputs), stages=self.stages)
        payload["wall_time_s"] = time.perf_counter() - self.started
        write_json(payload, self.out_dir / f"{self.command}_manifest.json")


def _parse_complex(text: str, flag: str) -> complex:
    try:
        value = complex(text)
    except ValueError:
        raise ValueError(f"{flag} expects a complex literal like 0.5+0.3j, got {text!r}") from None
    if not cmath.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {text!r}")
    return value


# Complex values `orbit` and `coherent` hold per sample row, the writer's
# chunk not included (`_CHUNK_VALUE_WORK` counts it): with the writer stubbed
# out, tracemalloc read 5.00 per row for `coherent` from 65,537 to 524,289
# rows and 5.08 at 4,097, and 3.00-3.06 for `orbit`.
_TRACE_ROW_VALUES = 5.1
# Complex values (16 bytes) a CSV writer's buffers hold per value of the chunk
# it encodes, counted in the writer stage: once a process has built the
# encoder's tables, tracemalloc read 85-93 bytes for `write_table_csv` at 3 and
# 7 columns from 257 to 262,145 rows, and 138-150 bytes per row, two values,
# for `write_density_csv` from 64^2 to 1024^2.
_CHUNK_VALUE_WORK = 5.9


def _trace_times(args, period: float, run, columns: int) -> np.ndarray:
    """Sample times for --periods periods at --samples steps each, sized with
    the writer's chunk of `columns` columns before anything is allocated; the
    count goes to the manifest's `work`."""
    if args.periods < 0:
        raise ValueError(f"--periods must be >= 0, got {args.periods}")
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    rows = args.periods * args.samples + 1
    chunk = min(rows, CHUNK_FIELDS // columns)
    work = math.ceil(rows * _TRACE_ROW_VALUES + _CHUNK_VALUE_WORK * columns * chunk)
    check_work(work, f"the {args.command} trace of {rows} samples", "choose fewer --periods or --samples")
    run.manifest["work"] = work_report(work)
    end = args.periods * period
    if not math.isfinite(end):
        raise ValueError(f"--periods {args.periods} times the cyclotron period {period:g} is not a finite end time")
    return np.linspace(0.0, end, rows)


def cmd_spectrum(args, run) -> int:
    cfg = _merge_config(args, run)
    if args.levels < 1:
        raise ValueError(f"--levels must be >= 1, got {args.levels}")
    grid = args.grid
    with run.stage("solve"):
        report = low_spectrum(cfg, grid, grid, args.levels * cfg.n_phi)
    payload = report.as_dict()
    payload["grid"] = grid
    payload["analytic_levels"] = [landau_energy(cfg, n) for n in range(args.levels)]
    with run.stage("json"):
        write_json(payload, run.output("spectrum.json"))
    run.manifest.update(grid=grid, levels=args.levels, solver=report.solver, work=work_report(report.work_elements))
    for c in report.clusters:
        print(
            f"cluster mean={c.mean:.8g} multiplicity={c.multiplicity} "
            f"target={c.target:.8g} rel_dev={c.relative_deviation:+.2e}"
        )
    return 0


# Closed grids `density` holds once `density_map` returns: its float density,
# half a grid, and the boolean grid of one finiteness check, an eighth of
# that. The CSV writer's chunk buffers come on top (`_CHUNK_VALUE_WORK`).
_WRITE_GRIDS = 0.5625


def cmd_density(args, run) -> int:
    cfg = _merge_config(args, run)
    check_grid(cfg, args.grid, args.grid)
    grid = commensurate(args.grid, cfg.n_phi)

    eigen_selector = args.n is not None or args.l is not None
    coherent_selector = args.lam is not None or args.lam_prime is not None
    if eigen_selector and coherent_selector:
        raise ValueError("choose either an eigenstate (--n/--l) or a coherent state (--lam/--lam-prime)")
    if coherent_selector and args.basis is not None:
        raise ValueError("--basis selects an eigenstate basis; a coherent state (--lam/--lam-prime) has none")
    if eigen_selector:
        basis = args.basis or "ly"
        label = TorusLabel(args.n or 0, args.l or 0, basis)
        selector = {"kind": "eigenstate", "n": args.n or 0, "l": args.l or 0, "basis": basis}
    elif coherent_selector:
        lam = _parse_complex(args.lam or "0", "--lam")
        lam_prime = _parse_complex(args.lam_prime or "0", "--lam-prime")
        label = CoherentLabel(lam, lam_prime)
        selector = {
            "kind": "coherent",
            "lam": [lam.real, lam.imag],
            "lam_prime": [lam_prime.real, lam_prime.imag],
        }
    else:
        raise ValueError("no state selected: pass --n/--l or --lam/--lam-prime")
    cells = (grid + 1) ** 2
    # the CSV writer's chunks hold at most CHUNK_FIELDS // 2 rows of two
    # values: the density it encodes and the x and y words laid beside it
    chunk = _CHUNK_VALUE_WORK * 2 * min(cells, CHUNK_FIELDS // 2)
    work = density_work(cfg, grid, grid, label, _WRITE_GRIDS + chunk / cells)
    check_work(work, f"density on the {grid}x{grid} grid", "choose a smaller --grid")
    run.manifest["work"] = work_report(work)
    # a huge coherent label overflows the amplitude to NaN; the check below rejects it
    with run.stage("density"), np.errstate(over="ignore", invalid="ignore"):
        dmap = density_map(cfg, label, grid, grid)
        finite = np.isfinite(dmap.density).all()
    if not finite:
        raise ValueError("the state's density is not finite; choose a smaller label")
    with run.stage("csv"):
        write_density_csv(dmap, run.output("density.csv"))
    with run.stage("pgm"):
        write_pgm(dmap, run.output("density.pgm"))
    integral = float(dmap.density[:-1, :-1].sum() * (cfg.lx / grid) * (cfg.ly / grid))
    with run.stage("json"):
        write_json(
            {
                "argmax_x": dmap.argmax_x,
                "argmax_y": dmap.argmax_y,
                "grid": [grid + 1, grid + 1],
                "integral": integral,
                "selector": selector,
            },
            run.output("argmax.json"),
        )
    run.manifest["grid"] = grid
    print(f"density argmax at ({dmap.argmax_x:.6g}, {dmap.argmax_y:.6g}), integral {integral:.12g}")
    return 0


def cmd_group(args, run) -> int:
    n = args.nphi
    if not 1 <= n <= 12:
        raise ValueError(f"--nphi must be in [1, 12] for a full table dump, got {n}")
    run.manifest["config"] = {"nphi": n}

    with run.stage("group"):
        elements = maggroup.elements(n)
        classes = maggroup.conjugacy_class_indices(n)
        rep = maggroup.clock_and_shift(n)

    def mat_to_list(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]

    payload = {
        "n_phi": n,
        "order": len(elements),
        "elements": elements,
        "conjugacy_classes": classes,
        "center": maggroup.center(n),
        "tx": mat_to_list(rep.tx),
        "ty": mat_to_list(rep.ty),
        "weyl_deviation": maggroup.weyl_deviation(rep),
    }
    with run.stage("table"):
        table = maggroup.multiplication_indices(n)
    with run.stage("json"):
        write_json(payload, run.output("group.json"), tables={"multiplication_table": table})
    print(
        f"group of order {len(elements)}: {len(classes)} conjugacy classes, "
        f"center size {n}, weyl deviation {payload['weyl_deviation']:.2e}"
    )
    return 0


def cmd_verify(args, run) -> int:
    cfg = _merge_config(args, run)
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    with run.stage("checks"):
        checks, ok = run_verification(cfg, nphi_override=args.nphi_override, seed=args.seed)
    payload = {
        "all_passed": bool(ok),
        "checks": [c.as_dict() for c in checks],
        "nphi_override": args.nphi_override,
    }
    with run.stage("json"):
        write_json(payload, run.output("verify.json"))
    run.manifest.update(
        seed=args.seed,
        checks=[{"name": c.name, "time_s": c.time_s} for c in checks],
        heisenberg_grid=heisenberg_grid(cfg),
        work=work_report(torus_work(cfg)),
    )
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: residual {c.residual:.3e} (tol {c.tolerance:.1e})")
    print("verification:", "all passed" if ok else "FAILURES above")
    return 0 if ok else 1


def cmd_orbit(args, run) -> int:
    cfg = _merge_config(args, run)
    orbit = ClassicalOrbit(
        center_x=args.center_x,
        center_y=args.center_y,
        radius=args.radius,
        phase0=args.phase0,
        omega=cfg.omega,
    )
    if args.periods < 1:
        raise ValueError(f"--periods must be >= 1 for an orbit, got {args.periods}")
    period = TWO_PI / cfg.omega
    times = _trace_times(args, period, run, 3)
    with run.stage("trace"):
        with np.errstate(over="ignore"):
            free = classical_orbit_trace(orbit, times)
        if not np.isfinite(free).all():
            raise ValueError("the orbit's coordinates overflow; choose a smaller --radius or center")
        closure = float(np.max(np.abs(free[-1] - free[0])))
        # every cyclotron orbit closes; the residual is rounding, which scales
        # with the largest coordinate of the circle
        closes = closure <= 1.0e-9 * max(args.radius, abs(args.center_x), abs(args.center_y))
        # the torus cells of the first sample and of each column's extremes:
        # floor is monotonic, so some sample leaves the first cell exactly
        # when an extreme does
        with np.errstate(over="ignore"):  # a cell index beyond doubles reads inf
            cells = np.floor(np.stack([free[0], free.min(axis=0), free.max(axis=0)]) / (cfg.lx, cfg.ly))
        wraps = bool((cells != cells[0]).any())
        np.mod(free, (cfg.lx, cfg.ly), out=free)  # folded into [0, lx) x [0, ly)
    with run.stage("csv"):
        write_table_csv(("t", "x", "y"), (times, free[:, 0], free[:, 1]), run.output("orbit.csv"))
    with run.stage("json"):
        write_json(
            {
                "closure_residual": closure,
                "closes": closes,
                "crosses_boundary": wraps,
                "period": period,
                "radius": args.radius,
            },
            run.output("orbit.json"),
        )
    print(f"orbit closure residual {closure:.2e}; crosses boundary: {wraps}")
    return 0


def cmd_coherent(args, run) -> int:
    cfg = _merge_config(args, run)
    lam = _parse_complex(args.lam, "--lam")
    lam_prime = _parse_complex(args.lam_prime, "--lam-prime")
    label = CoherentLabel(lam, lam_prime)
    period = TWO_PI / cfg.omega
    times = _trace_times(args, period, run, 7)
    # a huge label overflows the moments, which the check below rejects
    with run.stage("evolve"), np.errstate(over="ignore", invalid="ignore"):
        ex = coherent_expectations(cfg, evolve_coherent(cfg, label, times))
        columns = (
            times,
            ex.center_x + ex.rel_x,
            ex.center_y + ex.rel_y,
            ex.energy,
            math.hypot(ex.spread_center_x, ex.spread_rel_x),
            math.hypot(ex.spread_center_y, ex.spread_rel_y),
            ex.spread_energy,
        )
    if not all(np.isfinite(c).all() for c in columns):
        raise ValueError("the coherent state's moments are not finite; choose a smaller label")
    with run.stage("csv"):
        write_table_csv(("t", "x", "y", "energy", "delta_x", "delta_y", "delta_energy"), columns, run.output("coherent.csv"))
    print(f"wrote {args.periods * args.samples + 1} steps over {args.periods} period(s)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: `parse_args` reads it and never changes
    it, so repeated in-process `main` calls share it."""
    parser = argparse.ArgumentParser(
        prog="landau",
        description="Charged particle in a uniform magnetic field on plane and torus",
    )
    parser.add_argument("--version", action="version", version=f"landau {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="discrete-Hamiltonian Landau spectrum and degeneracy")
    _add_config_flags(p)
    p.add_argument("--grid", type=int, default=96)
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("density", help="probability density of a torus state")
    _add_config_flags(p)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--basis", choices=("ly", "lx"), default=None)  # "ly" for an eigenstate
    p.add_argument("--lam", type=str, default=None)
    p.add_argument("--lam-prime", dest="lam_prime", type=str, default=None)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("group", help="magnetic translation group tables and representation")
    p.add_argument("--nphi", type=int, required=True)
    p.add_argument("--out-dir", dest="out_dir", type=str, default=".")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("verify", help="run all module invariants")
    _add_config_flags(p)
    p.add_argument("--nphi-override", dest="nphi_override", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orbit", help="classical cyclotron orbit trace on the torus")
    _add_config_flags(p)
    p.add_argument("--center-x", dest="center_x", type=float, default=0.0)
    p.add_argument("--center-y", dest="center_y", type=float, default=0.0)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--phase0", type=float, default=0.0)
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("coherent", help="coherent-state expectation time series")
    _add_config_flags(p)
    p.add_argument("--lam", type=str, required=True)
    p.add_argument("--lam-prime", dest="lam_prime", type=str, required=True)
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=cmd_coherent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run = Run(args.command, args.out_dir)
    try:
        code = args.func(args, run)
    except ValueError as exc:
        if run.outputs:
            raise
        parser.error(str(exc))
    run.write_manifest()
    return code


if __name__ == "__main__":
    sys.exit(main())
