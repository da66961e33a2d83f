"""Landau levels in the infinite plane
=====================================

The spectrum of a charged particle in a uniform magnetic field is a ladder
E_n = w (n + 1/2) with cyclotron frequency w = eB/M, independent of any
degeneracy label. This script walks from the classical orbit through the
semiclassical radii to the exact quantum spectrum and the ladder algebra.
"""

import math

import numpy as np

from landau.config import InfiniteConfig, TorusConfig
from landau.plane import ClassicalOrbit, classical_orbit_trace, landau_energy
from landau.verify import run_verification

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
# Two commuting sets of ladder operators act on |n n'>: a/adag, built from the
# radius vector rho = r - R, move the energy; b/bdag, built from the orbit
# center R, move only the degeneracy label. For e, B > 0
#   a = sqrt(eB/2) (rho_x - i rho_y),   b = sqrt(eB/2) (R_x + i R_y),
# so [a, adag] = [b, bdag] = 1 and [a, b] = [a, bdag] = 0 read
#   [rho_x, rho_y] = -i/eB,   [R_x, R_y] = i/eB,   [rho_i, R_j] = 0.
# `landau verify` measures these on a finite-difference plane grid, in units
# of l_B^2 = 1/eB; a level n state with n' quanta of b has m = n - n'.

print("\n n  n'  E        m")
for n, n_prime in ((0, 0), (1, 0), (2, 0), (2, 1)):
    print(f" {n}  {n_prime}   {landau_energy(cfg, n):.3f}    {n - n_prime:+d}")

checks = {c.name: c for c in run_verification(TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=1))[0]}
print()
for name in ("ladder_algebra", "heisenberg_center_commutator"):
    print(f"{name}: residual {checks[name].residual:.3e} (tolerance {checks[name].tolerance:.0e})")
