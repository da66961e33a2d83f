"""The discrete magnetic translation group
=========================================

On a torus threaded by n_phi flux quanta, only translations by multiples of
(Lx, Ly)/n_phi survive quantization, and they commute only up to n_phi-th
roots of unity. The resulting finite group of order n_phi^3 is a central
extension of Z(n_phi) x Z(n_phi) and acts irreducibly on each Landau level
through clock and shift matrices.
"""

import itertools
from collections import Counter

import numpy as np

from landau import maggroup

N_PHI = 4
els = maggroup.elements(N_PHI)  # els[i] = [nx, ny, m] of element i
table = maggroup.multiplication_indices(N_PHI)  # table[i, j]: index of i * j
print(f"group order: {len(els)} = {N_PHI}^3")


def name(i):
    return "g({},{},{})".format(*els[i])


###############################################################################
# Non-commutativity in exact integer arithmetic: measure the group
# commutator of the two elementary translations. Element 0 is the identity,
# so the inverse of i is the j with table[i, j] == 0.

inverse = (table == 0).argmax(axis=1)
gx, gy = els.index([1, 0, 0]), els.index([0, 1, 0])
comm = table[table[gx, gy], table[inverse[gx], inverse[gy]]]
center = maggroup.center(N_PHI)
print(f"commutator of the generators: {name(comm)} (central: {comm in center}, identity: {comm == 0})")

###############################################################################
# Conjugacy classes: the n_phi central phases sit alone; everything else
# groups into classes that sweep the center direction.

classes = maggroup.conjugacy_class_indices(N_PHI)
sizes = dict(sorted(Counter(len(c) for c in classes).items()))
print(f"{len(classes)} conjugacy classes, sizes: {sizes}")
print(f"center: [{', '.join(name(i) for i in center)}]")

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
    p = els[table[els.index([nx, ny, 0]), els.index([nxp, nyp, 0])]]
    ok = ok and p[:2] == [(nx + nxp) % N_PHI, (ny + nyp) % N_PHI]
print(f"\nG / Z(n_phi) multiplies like Z(n_phi) x Z(n_phi): {ok}")
