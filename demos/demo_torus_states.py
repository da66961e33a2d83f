"""Landau states on the flux-quantized torus
===========================================

Periodic boundary conditions force the flux to be an integer n_phi of flux
quanta and leave two angles (theta_x, theta_y) labeling inequivalent
quantizations. Each Landau level carries exactly n_phi states, permuted by
the magnetic translation Tx and graded by Ty. The probability density of the
unit-flux ground state peaks where the angles dictate.
"""

import math

import numpy as np

from landau import (
    CoherentLabel,
    TorusConfig,
    TorusLabel,
    boundary_residual,
    density_map,
    eigenvalue_residual,
    expectation,
    torus_coherent,
    torus_eigenstate,
    torus_inner,
    translate,
)
from landau.serialize import write_pgm

###############################################################################
# Unit flux, angles at pi: the ground state is unique and its density bump
# sits at (Lx/2, Ly/2). The PGM written here is the single-bump picture.

cfg1 = TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=1, theta_x=math.pi, theta_y=math.pi)
ground = torus_eigenstate(cfg1, TorusLabel(0, 0), nx=160, ny=160)
print(f"boundary-condition residual: {boundary_residual(ground):.2e}")
print(f"energy residual against 1/2 (units of hbar*w): {eigenvalue_residual('H', ground, 0.5):.2e}")
dm = density_map(ground)
print(f"density maximum at ({dm.argmax_x:.3f}, {dm.argmax_y:.3f}); expected (0.5, 0.5)")
write_pgm(dm, "ground_density.pgm")
print("wrote ground_density.pgm")

###############################################################################
# Three flux quanta: a threefold-degenerate level. Ty is diagonal with
# eigenvalues exp(2 pi i l / 3); Tx cycles the three states.

cfg3 = TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=3, theta_x=0.8, theta_y=1.7)
states = [torus_eigenstate(cfg3, TorusLabel(0, l), nx=96, ny=96) for l in range(3)]
print("\nTy eigenvalues (phase / 2pi):")
for l, st in enumerate(states):
    eig = torus_inner(st, translate(st, "y"))
    print(f"   l={l}: {np.angle(eig) / (2 * math.pi):+.4f}  (expected {l}/3 mod 1)")
print("Tx ladder overlaps |<l+1|Tx|l>|:")
for l in range(3):
    ov = torus_inner(states[(l + 1) % 3], translate(states[l], "x"))
    print(f"   l={l} -> {(l + 1) % 3}: {abs(ov):.10f}")

###############################################################################
# Torus coherent states: an image sum of plane coherent packets. At small
# |lambda| the energy sits close to the ground level. Energies are in units
# of hbar*omega.

lab = CoherentLabel(0.4 + 0.2j, 0.3 - 0.1j)
coh = torus_coherent(cfg3, lab, nx=96, ny=96)
e = expectation("H", coh).real
target = abs(lab.lam) ** 2 + 0.5
print(f"\ncoherent <H> = {e:.6f}, closed form {target:.6f}")
