"""Benchmark worker: imports the package once, then runs one
`landau.cli.main(argv)` per request line.

Protocol: JSON lines. The worker writes {"ready": ...} once its imports are
done, then answers each {"argv": [...], "out_dir": ..., "op": id} with
{"rc", "error", "wall_s"[, "trace"]}; {"exit": true} makes it report its peak
RSS and leave. Responses go to the original stdout descriptor; everything the
program prints goes to a buffer (or to stderr), never into the protocol.

Usage: python3 worker.py --src DIR [--trace]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    proto = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    sys.path.insert(0, args.src)
    import landau.cli as cli
    import scipy.sparse.linalg  # noqa: F401  (the CLI's solver path loads it)

    import numpy
    import scipy

    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"landau imported from {cli.__file__}, not from {src}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ready = {
        "ready": True,
        "pid": os.getpid(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
    }
    proto.write(json.dumps(ready) + "\n")

    for line in sys.stdin:
        request = json.loads(line)
        if request.get("exit"):
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            proto.write(json.dumps({"peak_rss_mb": peak_kb / 1024.0}) + "\n")
            return 0
        argv = [*request["argv"], "--out-dir", request["out_dir"]]
        captured = io.StringIO()
        rc, error = None, None
        if tracer is not None:
            tracer.begin_op(request["op"])
        sys.stdout = captured
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the op failed; report it and keep serving
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        sys.stdout = sys.stderr
        response = {"rc": rc, "error": error, "wall_s": wall, "stdout": captured.getvalue()[-4000:]}
        if tracer is not None:
            response["trace"] = tracer.end_op()
        proto.write(json.dumps(response) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
