"""Seeded operation lists for the three workloads.

A workload is an endless sequence of rounds; every round holds the same fixed
mix of operation kinds and sizes, and the seed draws only the physical inputs
inside each op (boundary angles, aspect ratio, degeneracy label l, coherent
labels, verify seed). A run measures whole rounds, so two runs of one commit
always see the same mix, and the same seed always gives the same ops.

Each op is a dict: `argv` for landau.cli.main (without --out-dir) and `expect`
with what the output checks need to know about the inputs.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random

TWO_PI = 2.0 * math.pi

# Aspect ratios Lx/Ly are drawn log-uniformly in [1/1.25, 1.25] at unit area.
# Inside this range every verify check at n_phi = 1, 2 passes for all angles
# (worst hamiltonian_eigen_residual 0.91 of its tolerance at n_phi = 2).
ASPECT_MAX = 1.25

# spectrum: (grid, n_phi). The dense branch takes dimension <= 5000
# (48^2 = 2304); the rest are sparse. 100^2 at n_phi = 3 has ny not a
# multiple of n_phi.
SPECTRUM_MIX = ((48, 2), (96, 1), (96, 2), (96, 3), (96, 4), (100, 3), (192, 4))
SPECTRUM_LEVELS = 3

# verify: n_phi 1 and 2 run at seeded angles and aspect ratio. n_phi 3 and 4
# run on the default square, untwisted torus, which is what `landau verify
# --nphi N` does; there hamiltonian_eigen_residual exceeds its tolerance
# (1.70x and 5.56x). With seeded angles those two ratios range over 0.4-3.5
# and 1.0-11, which would make pass_frac and accuracy.worst_ratio differ
# from seed to seed by far more than any bound.
VERIFY_SEEDED = (1, 2)
VERIFY_PINNED = (3, 4)

# export density ops: (basis or "coherent", level n, n_phi, grid).
DENSITY_MIX = (
    ("ly", 0, 1, 1025),
    ("lx", 1, 2, 512),
    ("ly", 2, 3, 513),
    ("lx", 3, 4, 512),
    ("coherent", None, 1, 513),
)
GROUP_MIX = (8, 10)
# orbit and coherent traces long enough (262145 and 65537 rows) that, like the
# densities, each op builds one large artifact: op times then cluster around
# 1 s instead of spreading down to 0.02 s, which keeps op_s.p50 steady.
ORBIT = {"nphi": 2, "periods": 64, "samples": 4096}
COHERENT = {"nphi": 2, "periods": 64, "samples": 1024}

WORKLOADS = ("spectrum", "verify", "export")

# Wall time of one round at the commit that defined the benchmark, with two
# BLAS threads on a 2-CPU Xeon. A run measures round(seconds / this) rounds:
# a fixed count, so a faster commit runs the same ops in less time rather
# than different ops.
ROUND_SECONDS = {"spectrum": 10.0, "verify": 27.0, "export": 17.0}

# Tiny variants for --smoke: every kind of op, at the smallest sizes the CLI
# accepts (verify has no size knob; its n_phi = 1 op is the cheapest).
SMOKE_SPECTRUM_MIX = ((16, 1), (72, 1))
SMOKE_DENSITY_MIX = (("ly", 0, 1, 48), ("lx", 1, 2, 48), ("coherent", None, 1, 49))
SMOKE_GROUP_MIX = (3,)


def _torus(rng: random.Random, nphi: int, pinned: bool = False) -> dict:
    if pinned:
        lx = ly = 1.0
        tx = ty = 0.0
    else:
        aspect = math.exp(rng.uniform(-math.log(ASPECT_MAX), math.log(ASPECT_MAX)))
        lx = math.sqrt(aspect)
        ly = 1.0 / lx
        tx = rng.uniform(0.0, TWO_PI)
        ty = rng.uniform(0.0, TWO_PI)
    return {"nphi": nphi, "lx": lx, "ly": ly, "theta_x": tx, "theta_y": ty}


def _torus_argv(t: dict) -> list:
    return [
        "--nphi", str(t["nphi"]),
        "--lx", repr(t["lx"]),
        "--ly", repr(t["ly"]),
        "--theta-x", repr(t["theta_x"]),
        "--theta-y", repr(t["theta_y"]),
    ]


def _label(rng: random.Random) -> complex:
    """Uniform on the closed unit disc."""
    return cmath.rect(math.sqrt(rng.random()), rng.uniform(0.0, TWO_PI))


def _complex_arg(z: complex) -> str:
    # passed as --flag=value: a value starting with '-' would read as a flag
    return f"{z.real!r}{z.imag:+.17g}j"


def _spectrum_round(rng, mix):
    for grid, nphi in mix:
        t = _torus(rng, nphi)
        yield {
            "kind": "spectrum",
            "argv": ["spectrum", *_torus_argv(t), "--grid", str(grid), "--levels", str(SPECTRUM_LEVELS)],
            "expect": {**t, "grid": grid, "levels": SPECTRUM_LEVELS},
        }


def _verify_round(rng, seeded, pinned):
    for nphi in (*seeded, *pinned):
        t = _torus(rng, nphi, pinned=nphi in pinned)
        seed = rng.randrange(2**31)
        yield {
            "kind": "verify",
            "argv": ["verify", *_torus_argv(t), "--seed", str(seed)],
            "expect": {**t, "seed": seed},
        }


def _export_round(rng, density_mix, group_mix, orbit, coherent):
    for basis, n, nphi, grid in density_mix:
        t = _torus(rng, nphi)
        argv = ["density", *_torus_argv(t), "--grid", str(grid)]
        expect = {**t, "grid": grid, "basis": basis}
        if basis == "coherent":
            lam, lam_prime = _label(rng), _label(rng)
            argv += [f"--lam={_complex_arg(lam)}", f"--lam-prime={_complex_arg(lam_prime)}"]
            expect.update(lam=[lam.real, lam.imag], lam_prime=[lam_prime.real, lam_prime.imag])
        else:
            l = rng.randrange(nphi)
            argv += ["--n", str(n), "--l", str(l), "--basis", basis]
            expect.update(n=n, l=l)
        yield {"kind": "density", "argv": argv, "expect": expect}
    for nphi in group_mix:
        yield {"kind": "group", "argv": ["group", "--nphi", str(nphi)], "expect": {"nphi": nphi}}

    t = _torus(rng, orbit["nphi"])
    o = {
        "center_x": rng.uniform(0.0, t["lx"]),
        "center_y": rng.uniform(0.0, t["ly"]),
        "radius": rng.uniform(0.1, 0.4),
        "phase0": rng.uniform(0.0, TWO_PI),
        "periods": orbit["periods"],
        "samples": orbit["samples"],
    }
    yield {
        "kind": "orbit",
        "argv": [
            "orbit", *_torus_argv(t),
            "--center-x", repr(o["center_x"]), "--center-y", repr(o["center_y"]),
            "--radius", repr(o["radius"]), "--phase0", repr(o["phase0"]),
            "--periods", str(o["periods"]), "--samples", str(o["samples"]),
        ],
        "expect": {**t, **o},
    }

    t = _torus(rng, coherent["nphi"])
    lam, lam_prime = _label(rng), _label(rng)
    yield {
        "kind": "coherent",
        "argv": [
            "coherent", *_torus_argv(t),
            f"--lam={_complex_arg(lam)}", f"--lam-prime={_complex_arg(lam_prime)}",
            "--periods", str(coherent["periods"]), "--samples", str(coherent["samples"]),
        ],
        "expect": {
            **t,
            "lam": [lam.real, lam.imag],
            "lam_prime": [lam_prime.real, lam_prime.imag],
            "periods": coherent["periods"],
            "samples": coherent["samples"],
        },
    }


def rounds(workload: str, seed: int, smoke: bool = False):
    """Endless iterator of rounds (lists of ops) for `workload` and `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spectrum":
        make = lambda: _spectrum_round(rng, SMOKE_SPECTRUM_MIX if smoke else SPECTRUM_MIX)
    elif workload == "verify":
        make = lambda: _verify_round(rng, VERIFY_SEEDED[:1] if smoke else VERIFY_SEEDED, () if smoke else VERIFY_PINNED)
    elif workload == "export":
        if smoke:
            small = {"nphi": 1, "periods": 1, "samples": 16}
            make = lambda: _export_round(rng, SMOKE_DENSITY_MIX, SMOKE_GROUP_MIX, small, small)
        else:
            make = lambda: _export_round(rng, DENSITY_MIX, GROUP_MIX, ORBIT, COHERENT)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    for index in itertools.count():
        yield [dict(op, round=index) for op in make()]


# Untimed ops run once in every fresh worker before measuring, so lazy imports
# and first-call set-up inside numpy/scipy (LAPACK, ARPACK, SuperLU) are done.
WARMUP = (
    ["spectrum", "--nphi", "1", "--grid", "72", "--levels", "1"],
    ["spectrum", "--nphi", "1", "--grid", "16", "--levels", "1"],
    ["density", "--nphi", "1", "--n", "1", "--grid", "32"],
    ["density", "--nphi", "1", "--lam", "0.1", "--lam-prime", "0.2", "--grid", "32"],
    ["group", "--nphi", "2"],
    ["orbit", "--nphi", "1", "--radius", "0.2", "--samples", "8"],
    ["coherent", "--nphi", "1", "--lam", "0.1", "--lam-prime", "0.2", "--samples", "8"],
)
