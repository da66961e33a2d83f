"""In-memory spans around the public functions of every `landau` module.

The package binds functions by name across modules (`cli` imports from
`spectral`, `torus` and `serialize`; `torus` from `oscillator` and `plane`),
so each wrapper replaces the original at every module attribute that holds
it. The package source is not modified.

A span is [name, start, end, parent, op, hot]: `parent` is the index of the
enclosing span (-1 for the op's root) and `hot` the time spent inside it in
hot helpers. Hot helpers (HOT) are called up to ~1e6 times per op, so they are
counted and timed but record no span; their time moves from the caller's self
time to the helper's own bucket.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

HOT = {"landau.maggroup.multiply", "landau.maggroup.inverse", "landau.maggroup.identity"}

# Library eigensolvers, counted while a `landau.spectral` span is innermost.
# The list covers the banded and tridiagonal routines too, so a rewrite of the
# solver that moves to them is still counted as dense.
DENSE_SOLVERS = (
    ("numpy.linalg", "eigvalsh"), ("numpy.linalg", "eigh"),
    ("scipy.linalg", "eigvalsh"), ("scipy.linalg", "eigh"),
    ("scipy.linalg", "eigh_tridiagonal"), ("scipy.linalg", "eigvalsh_tridiagonal"),
    ("scipy.linalg", "eig_banded"), ("scipy.linalg", "eigvals_banded"),
)
SPARSE_SOLVERS = (
    ("scipy.sparse.linalg", "eigsh"), ("scipy.sparse.linalg", "eigs"),
    ("scipy.sparse.linalg", "lobpcg"),
)


def _dim(matrix) -> int:
    shape = getattr(matrix, "shape", None)
    return int(shape[0]) if shape else 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.sums = Counter()
        self.hot_s = Counter()
        self.op = None

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id):
        # cleared in place: the wrappers hold references to these containers
        for store in (self.spans, self.stack, self.counts, self.sums, self.hot_s):
            store.clear()
        self.op = op_id

    def end_op(self) -> dict:
        return {
            "spans": list(self.spans),
            "counts": dict(self.counts),
            "sums": dict(self.sums),
            "hot_s": dict(self.hot_s),
        }

    def _span(self, name, fn, observe):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            spans.append(record)
            stack.append(index)
            self.counts[name] += 1
            record[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _hot(self, name, fn):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter
        counts, hot_s = self.counts, self.hot_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            dt = perf() - t0
            counts[name] += 1
            hot_s[name] += dt
            if stack:
                self.spans[stack[-1]][5] += dt
            return result

        return wrapper

    def _counter(self, key, fn, amount):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.sums[key] += amount(args, result)
            return result

        return wrapper

    def _solver(self, kind, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0].startswith("landau.spectral."):
                self.sums[f"solve.{kind}_calls"] += 1
                self.sums["solve.dim"] += _dim(args[0]) if args else 0
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of every loaded `landau` module."""
        modules = {n: m for n, m in sys.modules.items() if n == "landau" or n.startswith("landau.")}
        originals = {}
        for mod_name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod_name:
                    continue
                name = f"{mod_name}.{attr}"
                if name in HOT:
                    originals[obj] = self._hot(name, obj)
                else:
                    originals[obj] = self._span(name, obj, OBSERVERS.get(name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, attr, originals[obj])

        torus = modules.get("landau.torus")
        policy = getattr(torus, "LatticeSumPolicy", None)
        if policy is not None and hasattr(policy, "indices"):
            setattr(policy, "indices", self._counter("torus.image_terms", policy.indices, lambda a, r: len(r)))

        for kind, solvers in (("dense", DENSE_SOLVERS), ("sparse", SPARSE_SOLVERS)):
            for mod_name, attr in solvers:
                owner = sys.modules.get(mod_name)
                if owner is None:
                    __import__(mod_name)
                    owner = sys.modules[mod_name]
                if hasattr(owner, attr):
                    setattr(owner, attr, self._solver(kind, getattr(owner, attr)))


def _nnz(tracer, args, result):
    matrix = getattr(result, "matrix", result)
    tracer.sums["spectral.nnz"] += int(getattr(matrix, "nnz", 0))


def _grid_points(tracer, args, result):
    values = getattr(result, "values", None)
    tracer.sums["torus.grid_points"] += int(getattr(values, "size", 0))


OBSERVERS = {
    "landau.spectral.build_hamiltonian": _nnz,
    "landau.torus.torus_eigenstate": _grid_points,
    "landau.torus.torus_coherent": _grid_points,
}


def self_times(spans) -> list:
    """Self time of each span: duration minus child spans and hot helpers."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _hot in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] - hot for i, (_n, start, end, _p, _o, hot) in enumerate(spans)]
