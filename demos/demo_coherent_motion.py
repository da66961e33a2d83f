"""Coherent wave packets on cyclotron orbits
===========================================

Joint eigenstates of the two annihilation operators are Gaussian packets:
lambda sets the orbit radius, lambda' the (quantum-uncertain) orbit center.
Under time evolution only lambda rotates, so the packet circles like a
classical particle without spreading.
"""

from dataclasses import asdict

import numpy as np

from landau.config import InfiniteConfig
from landau.plane import CoherentLabel, coherent_expectations, evolve_coherent

cfg = InfiniteConfig(mass=1.0, charge=1.0, b_field=1.0)
label = CoherentLabel(lam=1.2, lam_prime=0.5 + 0.5j)

###############################################################################
# The closed-form expectation table: center, radius vector, kinetic momentum
# and energy, each with its quantum spread.

ex = coherent_expectations(cfg, label)
print("expectations in |lambda lambda'>:")
for key, value in asdict(ex).items():
    print(f"   {key:>28}: {value:+.6f}")

###############################################################################
# One revolution: <x>(t) traces the circle of radius sqrt(2/Mw)|lambda|
# around (<R_x>, <R_y>); the energy and all spreads are constant.

period = 2 * np.pi / cfg.omega
print("\n   t/T      <x>       <y>      <H>")
for frac in np.linspace(0.0, 1.0, 9):
    lab_t = evolve_coherent(cfg, label, frac * period)
    ex_t = coherent_expectations(cfg, lab_t)
    x = ex_t.center_x + ex_t.rel_x
    y = ex_t.center_y + ex_t.rel_y
    print(f"   {frac:.3f}  {x:+.5f}  {y:+.5f}  {ex_t.energy:.6f}")

print(
    "\nrelative spreads shrink as |lambda| grows (classical limit): "
    f"dH/<H> = {ex.spread_energy / ex.energy:.3f} at |lambda| = {abs(label.lam)}"
)
