"""Landau levels in the infinite plane
=====================================

The spectrum of a charged particle in a uniform magnetic field is a ladder
E_n = w (n + 1/2) with cyclotron frequency w = eB/M, independent of any
degeneracy label. This script walks from the classical orbit through the
semiclassical radii to the exact quantum spectrum and the ladder algebra.
"""

import math

import numpy as np

from landau.config import InfiniteConfig
from landau.plane import (
    ClassicalOrbit,
    FockLabel,
    classical_orbit_trace,
    ladder_apply,
    landau_energy,
)

cfg = InfiniteConfig(mass=1.0, charge=1.0, b_field=2.0)
omega = cfg.omega
print(f"cyclotron frequency w = eB/M = {omega}")

###############################################################################
# Classical closed orbits: every trajectory is a circle traversed at w,
# whatever its radius. The orbit center is a constant of motion.

orbit = ClassicalOrbit(center_x=0.0, center_y=0.0, radius=1.5, phase0=0.0, omega=omega)
period = 2 * np.pi / omega
trace = classical_orbit_trace(orbit, np.linspace(0.0, period, 9))
print("\nclassical orbit, one period in 8 steps:")
for (x, y) in trace:
    print(f"   ({x:+.4f}, {y:+.4f})")

###############################################################################
# Semiclassical quantization allows only radii r_n = sqrt(2n/eB); energies
# n*w miss the exact ladder by the zero-point w/2.

print("\n n   r_n        E_semi    E_exact")
for n in range(1, 6):
    print(
        f" {n}   {math.sqrt(2.0 * n / (cfg.charge * cfg.b_field)):.6f}   "
        f"{n * omega:.4f}    {landau_energy(cfg, n):.4f}"
    )

###############################################################################
# Two commuting sets of ladder operators act on |n n'>: a/adag move the
# energy, b/bdag move only the degeneracy label (the orbit center), so the
# angular momentum m = n - n' changes under both.

state = {FockLabel(0, 0): 1.0}
print("\nclimbing from the vacuum:")
for step, op in enumerate(("adag", "adag", "bdag")):
    state = ladder_apply(op, state)
    (label, amp), = state.items()
    e, m = landau_energy(cfg, label.n), label.angular_momentum
    print(f"   after {op:>4}: |{label.n} {label.n_prime}>  amp {amp:.4f}  E={e:.3f}  m={m}")

lowered = ladder_apply("a", {FockLabel(0, 5): 1.0})
print(f"\n a on |0 5> annihilates the level-0 state: {lowered == {}}")
