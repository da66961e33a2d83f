"""Cross-checking the spectrum with a lattice Hamiltonian
========================================================

A Peierls-phase finite-difference Hamiltonian with the twisted boundary
condition is an independent route to the same physics: its low eigenvalues
must cluster at w (n + 1/2) with exactly n_phi states per cluster, whatever
the angles theta. The magnetic translations commute with the lattice
Hamiltonian exactly, so the degeneracy survives discretization to solver
precision.
"""

from landau.config import TorusConfig
from landau.spectral import low_spectrum

GRID = 96

for n_phi in (1, 2, 3):
    cfg = TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=n_phi, theta_x=0.7, theta_y=1.9)
    report = low_spectrum(cfg, GRID, GRID, 3 * n_phi)
    print(f"\nn_phi = {n_phi} (w = {cfg.omega:.4f}), grid {GRID}x{GRID}:")
    print("   mult   mean        target      rel dev     spread")
    for c in report.clusters:
        print(
            f"    {c.multiplicity}   {c.mean:10.6f}  {c.target:10.6f}  "
            f"{c.relative_deviation:+.2e}  {c.spread:.1e}"
        )

###############################################################################
# The angles move the eigenstates but not the Landau eigenvalues.

print("\ntheta-independence at n_phi = 2:")
for theta in ((0.0, 0.0), (3.14159, 3.14159)):
    cfg = TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=2, theta_x=theta[0], theta_y=theta[1])
    report = low_spectrum(cfg, GRID, GRID, 4)
    means = ", ".join(f"{c.mean:.8f}" for c in report.clusters)
    print(f"   theta = {theta}: cluster means {means}")
