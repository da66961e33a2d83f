"""The discrete magnetic translation group
=========================================

On a torus threaded by n_phi flux quanta, only translations by multiples of
(Lx, Ly)/n_phi survive quantization, and they commute only up to n_phi-th
roots of unity. The resulting finite group of order n_phi^3 is a central
extension of Z(n_phi) x Z(n_phi) and acts irreducibly on each Landau level
through clock and shift matrices.
"""

import itertools

import numpy as np

from landau import maggroup

N_PHI = 4
els = maggroup.elements(N_PHI)
print(f"group order: {len(els)} = {N_PHI}^3")

###############################################################################
# Non-commutativity in exact integer arithmetic: measure the group
# commutator of the two elementary translations.

gx = maggroup.GroupElement(1, 0, 0, N_PHI)
gy = maggroup.GroupElement(0, 1, 0, N_PHI)
comm = maggroup.multiply(
    maggroup.multiply(gx, gy), maggroup.multiply(maggroup.inverse(gx), maggroup.inverse(gy))
)
print(f"commutator of the generators: {comm} (a pure center phase)")

###############################################################################
# Conjugacy classes: the n_phi central phases sit alone; everything else
# groups into classes that sweep the center direction.

classes = sorted(
    {maggroup.conjugacy_class(g) for g in els},
    key=lambda c: (len(c), sorted((g.nx, g.ny, g.m) for g in c)),
)
sizes = {}
for c in classes:
    sizes[len(c)] = sizes.get(len(c), 0) + 1
print(f"{len(classes)} conjugacy classes, sizes: {sizes}")
print(f"center: {sorted(maggroup.center(N_PHI), key=lambda g: g.m)}")

###############################################################################
# The clock-and-shift representation: Ty diagonal with n_phi-th roots of
# unity, Tx the cyclic shift, and Ty Tx = exp(2 pi i / n_phi) Tx Ty.

rep = maggroup.clock_and_shift(N_PHI)
np.set_printoptions(precision=3, suppress=True)
print("\nTx =\n", rep.tx.real.astype(int))
print("Ty = diag", np.diag(rep.ty))
print(f"Weyl relation deviation: {maggroup.weyl_deviation(rep):.2e}")
print(f"commutant dimension (1 = irreducible): {maggroup.commutant_dimension(rep)}")

###############################################################################
# Factoring out the center leaves the abelian group of physical translations.

ok = True
for nx, ny, nxp, nyp in itertools.product(range(N_PHI), repeat=4):
    p = maggroup.multiply(maggroup.GroupElement(nx, ny, 0, N_PHI), maggroup.GroupElement(nxp, nyp, 0, N_PHI))
    ok = ok and (p.nx, p.ny) == ((nx + nxp) % N_PHI, (ny + nyp) % N_PHI)
print(f"\nG / Z(n_phi) multiplies like Z(n_phi) x Z(n_phi): {ok}")
