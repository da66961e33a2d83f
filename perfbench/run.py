"""landau benchmark: closed loop, one client, one worker process.

    python3 perfbench/run.py --workload {spectrum,verify,export} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Each op is one `landau.cli.main(argv)` call in a worker that has already
imported the package (perfbench/worker.py); the client sends the next op only
after the previous one returned and its outputs were checked
(perfbench/checks.py). Ops come in rounds of a fixed mix
(perfbench/workloads.py); a run measures round(S / nominal round time) whole
rounds, at least one, so every commit runs the same ops for a given seed.

--trace 0 prints the end-to-end metrics. --trace 1 runs one round untraced
and the same round traced (perfbench/tracer.py), plus, for spectrum, the same
round traced with one BLAS thread, and prints the per-layer metrics. The
last line of stdout is the JSON result; the full record (op list, per-op
times, residuals, spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

NPROC = len(os.sched_getaffinity(0))
THREADS = min(2, NPROC)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import checks  # noqa: E402  (after pinning threads: it imports numpy)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 5
OP_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "fraction",
    "accuracy.worst_ratio": "ratio",
}

# span name -> per-layer bucket; (module, None) is the module's default
LAYERS = {
    ("spectral", "build_hamiltonian"): "spectral.build.s",
    ("spectral", "lowest_eigenvalues"): "spectral.solve.s",
    ("spectral", "lowest_eigenpairs"): "spectral.solve.s",
    ("spectral", None): "spectral.cluster.s",
    ("torus", "torus_eigenstate"): "torus.eigenstate.s",
    ("torus", "eigenbasis_coefficients"): "torus.eigenstate.s",
    ("torus", "torus_coherent"): "torus.coherent.s",
    ("torus", "apply_tx"): "torus.translate.s",
    ("torus", "apply_ty"): "torus.translate.s",
    ("torus", "apply_translation_power"): "torus.translate.s",
    ("torus", "translation_expectation"): "torus.translate.s",
    ("torus", "torus_inner"): "torus.inner.s",
    ("torus", "torus_norm"): "torus.inner.s",
    ("torus", "normalized"): "torus.inner.s",
    ("torus", "projector_distance"): "torus.inner.s",
    ("torus", "apply_operator"): "torus.operator.s",
    ("torus", "expectation"): "torus.operator.s",
    ("torus", "eigenvalue_residual"): "torus.operator.s",
    ("torus", "coherent_translation_series"): "torus.series.s",
    ("torus", "coherent_prefactor"): "torus.series.s",
    ("torus", "density_map"): "torus.density_map.s",
    ("oscillator", None): "oscillator.hermite.s",
    ("finitediff", None): "finitediff.apply.s",
    ("plane", "apply_operator_plane"): "plane.operator.s",
    ("plane", "ladder_apply"): "plane.operator.s",
    ("plane", "coherent_expectations"): "plane.expectations.s",
    ("plane", "evolve_coherent"): "plane.expectations.s",
    ("plane", "coherent_center"): "plane.expectations.s",
    ("plane", "classical_orbit_trace"): "plane.orbit.s",
    ("plane", None): "plane.amplitude.s",
    ("gauge", None): "gauge.s",
    ("maggroup", None): "maggroup.s",
    ("verify", None): "verify.self_s",
    ("serialize", "write_pgm"): "serialize.pgm.s",
    ("serialize", "write_json"): "serialize.json.s",
    ("serialize", None): "serialize.csv.s",
    ("cli", None): "cli.self_s",
}
OTHER = "other.s"  # config, torus grid helpers, anything not named above

COUNTS = {
    "spectral.build.calls": "landau.spectral.build_hamiltonian",
    "torus.eigenstate.calls": "landau.torus.torus_eigenstate",
    "torus.coherent.calls": "landau.torus.torus_coherent",
    "oscillator.hermite.calls": "landau.oscillator.hermite_functions",
    "maggroup.multiply.calls": "landau.maggroup.multiply",
}
SUMS = {
    "spectral.nnz": "spectral.nnz",
    "spectral.solve.dense_calls": "solve.dense_calls",
    "spectral.solve.sparse_calls": "solve.sparse_calls",
    "spectral.solve.dim": "solve.dim",
    "torus.image_terms": "torus.image_terms",
    "torus.grid_points": "torus.grid_points",
}


def layer_of(span_name: str) -> str:
    parts = span_name.split(".")
    if len(parts) != 3:
        return OTHER
    _, module, func = parts
    return LAYERS.get((module, func)) or LAYERS.get((module, None)) or OTHER


PER_LAYER_UNITS = {
    **{name: "s" for name in sorted(set(LAYERS.values()) | {OTHER})},
    **{name: "count" for name in (*COUNTS, *SUMS)},
    "serialize.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "baseline_1t.wall_s": "s",
    "baseline_1t.spectral.solve.s": "s",
}


class WorkerDied(RuntimeError):
    pass


class Worker:
    """One `perfbench/worker.py` process; `setup_s` is spawn to ready."""

    def __init__(self, trace: bool = False, threads: int = THREADS):
        env = dict(os.environ, PYTHONPATH="", PYTHONHASHSEED="0")
        env.update({var: str(threads) for var in THREAD_VARS})
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd + (["--trace"] if trace else []),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            bufsize=1,
        )
        try:
            self.info = self._read(OP_TIMEOUT_S)
        except WorkerDied:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise WorkerDied("worker exited or timed out")
        return json.loads(line)

    def run(self, argv, out_dir: str, op_id):
        start = time.perf_counter()
        self.proc.stdin.write(json.dumps({"argv": argv, "out_dir": out_dir, "op": op_id}) + "\n")
        self.proc.stdin.flush()
        response = self._read(OP_TIMEOUT_S)
        return response, time.perf_counter() - start

    def close(self) -> float:
        """Stop the worker; returns its peak RSS in MB."""
        try:
            self.proc.stdin.write(json.dumps({"exit": True}) + "\n")
            self.proc.stdin.flush()
            peak = self._read(30.0)["peak_rss_mb"]
            self.proc.wait(timeout=30)
            return peak
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream:
                stream.close()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Session:
    """Runs ops on a worker, checks each op's outputs in a fresh directory,
    and respawns the worker if it dies."""

    def __init__(self, trace=False, threads=THREADS, worker=None):
        self.trace, self.threads = trace, threads
        self.worker = worker or Worker(trace, threads)
        self.peak_rss_mb = 0.0
        self.warm_up()

    def warm_up(self):
        for argv in workloads.WARMUP:
            self.execute({"kind": "warmup", "argv": list(argv)}, op_id=-1, check=False)

    def execute(self, op, op_id, check=True) -> dict:
        tmp = Path(tempfile.mkdtemp(prefix="op-", dir=OUT / "tmp"))
        try:
            try:
                response, wall = self.worker.run(op["argv"], str(tmp), op_id)
            except WorkerDied as exc:
                self.worker.kill()
                self.worker = Worker(self.trace, self.threads)
                response, wall = {"rc": None, "error": str(exc), "wall_s": float("nan")}, float("nan")
            record = {"op": op_id, "argv": op["argv"], "rc": response["rc"], "wall_s": wall, "worker_wall_s": response["wall_s"]}
            if not check:
                return record
            if response.get("error"):
                result = {"problems": [response["error"]], "ratios": {}, "residuals": {}}
            else:
                try:
                    result = checks.check(op, tmp, response["rc"])
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    result = {"problems": [f"output check raised {exc!r}"], "ratios": {}, "residuals": {}}
            record.update(result, bytes=_dir_bytes(tmp), ok=not result["problems"])
            record["program_ok"] = record["ok"] and response["rc"] == 0
            if "trace" in response:
                record["trace"] = response["trace"]
            return record
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def run_ops(self, ops) -> list:
        return [self.execute(op, i) for i, op in enumerate(ops)]

    def close(self):
        self.peak_rss_mb = max(self.peak_rss_mb, self.worker.close())
        return self.peak_rss_mb


def tail(times):
    """(value, percentile, n): the highest nearest-rank percentile with at
    least ten samples above it; with fewer than 11 samples none exists and
    the maximum is reported (percentile 100)."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(records, setup, peak_rss_mb) -> dict:
    finite = [r["wall_s"] for r in records if math.isfinite(r["wall_s"])]
    ratios = [v for r in records for v in r.get("ratios", {}).values()]
    return {
        "ops_per_s": len(records) / sum(finite),
        "op_s.p50": statistics.median(finite),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "pass_frac": sum(r["program_ok"] for r in records) / len(records),
        "accuracy.worst_ratio": max(ratios, default=0.0),
    }


def per_layer(traced, untraced, baseline) -> dict:
    values = Counter({name: 0.0 for name in PER_LAYER_UNITS})
    for record in traced:
        trace = record.get("trace")
        if trace is None:  # the worker died during this op
            continue
        for span, self_s in zip(trace["spans"], tracing.self_times(trace["spans"])):
            values[layer_of(span[0])] += self_s
        for name, hot in trace["hot_s"].items():
            values[layer_of(name)] += hot
        for metric, key in COUNTS.items():
            values[metric] += trace["counts"].get(key, 0)
        for metric, key in SUMS.items():
            values[metric] += trace["sums"].get(key, 0)
        values["serialize.bytes"] += record["bytes"]
    values["trace.wall_s"] = sum(r["worker_wall_s"] for r in traced)
    values["trace.overhead_s"] = (sum(r["wall_s"] for r in traced) - sum(r["wall_s"] for r in untraced)) / len(traced)
    if baseline:
        values["baseline_1t.wall_s"] = sum(r["worker_wall_s"] for r in baseline)
        for record in baseline:
            trace = record.get("trace", {"spans": []})
            for span, self_s in zip(trace["spans"], tracing.self_times(trace["spans"])):
                if layer_of(span[0]) == "spectral.solve.s":
                    values["baseline_1t.spectral.solve.s"] += self_s
    return dict(values)


def span_gaps(records) -> list:
    """Per traced op: worker wall time minus the sum of span self times and
    hot-helper times (what the spans do not account for)."""
    gaps = []
    for record in records:
        trace = record.get("trace")
        if trace is None:
            continue
        covered = sum(tracing.self_times(trace["spans"])) + sum(trace["hot_s"].values())
        gaps.append(record["worker_wall_s"] - covered)
    return gaps


def measure(workload, seed, seconds, smoke=False) -> dict:
    setup = []
    worker = None
    for _ in range(2 if smoke else SETUP_SPAWNS):
        if worker is not None:
            worker.close()
        worker = Worker()
        setup.append(worker.setup_s)
    session = Session(worker=worker)
    total = 1 if smoke else max(1, round(seconds / workloads.ROUND_SECONDS[workload]))
    gen = workloads.rounds(workload, seed, smoke=smoke)
    ops = [op for _ in range(total) for op in next(gen)]
    try:
        records = session.run_ops(ops)
    finally:
        peak = session.close()
    return {
        "ops": ops,
        "records": records,
        "rounds": total,
        "setup_s": setup,
        "metrics": end_to_end(records, setup, peak),
        "worker": worker.info,
    }


def measure_traced(workload, seed, smoke=False) -> dict:
    ops = next(workloads.rounds(workload, seed, smoke=smoke))
    runs = {}
    for name, trace, threads in (("untraced", False, THREADS), ("traced", True, THREADS), ("baseline_1t", True, 1)):
        if name == "baseline_1t" and workload != "spectrum":
            runs[name] = []
            continue
        session = Session(trace=trace, threads=threads)
        try:
            runs[name] = session.run_ops(ops)
        finally:
            session.close()
    records = runs["untraced"] + runs["traced"] + runs["baseline_1t"]
    return {
        "ops": ops,
        "records": records,
        "rounds": 1,
        "metrics": per_layer(runs["traced"], runs["untraced"], runs["baseline_1t"]),
        "span_gaps": span_gaps(runs["traced"]),
        "worker": session.worker.info,
    }


def environment(seed, worker_info) -> dict:
    return {
        "seed": seed,
        "nproc": NPROC,
        "blas_threads": THREADS,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        **{k: worker_info.get(k) for k in ("python", "numpy", "scipy", "blas")},
    }


def report(workload, seed, trace, result) -> dict:
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    records = result["records"]
    failed = sum(not r["ok"] for r in records)
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    for record in records:
        if not record["ok"]:
            print(f"FAILED op {record['op']} {' '.join(record['argv'])}: {record['problems'][:3]}", file=sys.stderr)
    print(f"workload {workload}, seed {seed}, {len(records)} ops checked, {result['rounds']} round(s) timed, "
          f"{THREADS} BLAS thread(s) of {NPROC} CPUs")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not trace:
        value, pct, n = tail([r["wall_s"] for r in records if math.isfinite(r["wall_s"])])
        print(f"  {'op_s.tail':32s} {value:.6g} s (p{pct:.1f} of {n} ops; not gated, see README)")
        print(f"  {'fail_frac':32s} {1.0 - result['metrics']['pass_frac']:.4g} fraction "
              f"(non-zero exit, exception, non-finite output or failed output check)")
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload,
                "environment": environment(seed, result["worker"]),
                "metrics": metrics,
                **{k: v for k, v in result.items() if k not in ("metrics", "worker")},
            },
            fh,
        )
    print(f"  record: {record_path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def smoke() -> int:
    """Tiny sizes, every workload, both modes: every metric named in
    BENCHMARK.json is emitted with its unit, every op's outputs pass, and
    each traced op's span self times add up to its wall time."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = measure_traced(workload, 0, smoke=True) if trace else measure(workload, 0, 0, smoke=True)
            out = report(workload, 0, trace, result)
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(declared[trace]))} differ from BENCHMARK.json")
            if not out["correct"]:
                problems.append(f"{workload} trace={trace}: {out['failed']} op(s) failed their checks")
            if trace:
                allowance = 0.002 + abs(result["metrics"]["trace.overhead_s"])
                worst = max(map(abs, result["span_gaps"]))
                if worst > allowance:
                    problems.append(f"{workload}: span self times miss {worst:.4f} s of an op (allowed {allowance:.4f})")
    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of the benchmark")
    args = parser.parse_args()
    if not (SRC / "landau" / "cli.py").is_file():
        print(f"error: no landau package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if args.trace:
        result = measure_traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
