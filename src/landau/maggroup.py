"""The discrete magnetic translation group as exact integer arithmetic, plus
its n_phi-dimensional clock-and-shift unitary representation.

Element i of the group of order n_phi^3 is

    g(nx, ny, m) = exp(2 pi i m / n_phi) Ty^{ny} Tx^{nx},  i = (nx*n_phi + ny)*n_phi + m,

with 0 <= nx, ny, m < n_phi; an index is the only encoding of an element.
The one group law is `multiplication_indices`:

    g(nx, ny, m) g(nx', ny', m') = g(nx + nx', ny + ny', m + m' - nx ny')

with everything mod n_phi. Group arithmetic never touches floating point;
matrices appear only in the representation checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import TWO_PI


def elements(n_phi: int) -> list:
    """The [nx, ny, m] components of every element, in index order."""
    return [list(g) for g in itertools.product(range(n_phi), repeat=3)]


def multiplication_indices(n_phi: int) -> np.ndarray:
    """int32 array table[i, j] = index of the product of elements i and j."""
    n = n_phi
    nx, ny, m = (a.ravel() for a in np.indices((n, n, n), dtype=np.int32))
    gx, gy, gm = nx[:, None], ny[:, None], m[:, None]  # left factor, one per row
    return ((gx + nx) % n * n + (gy + ny) % n) * n + (gm + m - gx * ny) % n


def conjugacy_class_indices(n_phi: int) -> list:
    """Every conjugacy class as a sorted list of element indices, the classes
    ordered by their smallest index.

    Conjugation adds nx*ny' - nx'*ny to m, and those values run over the
    multiples of d = gcd(nx, ny, n_phi), so the class of g(nx, ny, m) is every
    g(nx, ny, m') with m' = m mod d. Central elements g(0, 0, m) are
    conjugate only to themselves.
    """
    n = n_phi
    classes = []
    for nx, ny in itertools.product(range(n), repeat=2):
        base = (nx * n + ny) * n
        d = math.gcd(nx, ny, n)
        classes.extend(list(range(base + r, base + n, d)) for r in range(d))
    return classes


def center(n_phi: int) -> list:
    """The indices of the center {g(0, 0, m)}, a cyclic subgroup of order n_phi."""
    return list(range(n_phi))


# ---------------------------------------------------------------------------
# clock-and-shift representation


@dataclass(frozen=True)
class UnitaryRep:
    """n_phi x n_phi matrices for the generators: tx is the cyclic shift
    (basis vector e_l -> e_{l+1}), ty the clock matrix diag(exp(2 pi i l / n))."""

    n_phi: int
    tx: np.ndarray
    ty: np.ndarray


def clock_and_shift(n_phi: int) -> UnitaryRep:
    n = n_phi
    tx = np.zeros((n, n), dtype=complex)
    for l in range(n):
        tx[(l + 1) % n, l] = 1.0
    ty = np.diag(np.exp(TWO_PI * 1j * np.arange(n) / n))
    return UnitaryRep(n_phi=n, tx=tx, ty=ty)


def represent(rep: UnitaryRep, nx: int, ny: int, m: int) -> np.ndarray:
    """Matrix exp(2 pi i m / n_phi) Ty^{ny} Tx^{nx} of g(nx, ny, m)."""
    phase = np.exp(TWO_PI * 1j * m / rep.n_phi)
    return phase * (
        np.linalg.matrix_power(rep.ty, ny) @ np.linalg.matrix_power(rep.tx, nx)
    )


def homomorphism_defect(rep: UnitaryRep, table: np.ndarray, pairs) -> float:
    """max |D(table[g, h]) - D(g) D(h)| over the element index pairs (g, h),
    for a multiplication table on those indices (as `multiplication_indices`
    gives): zero when rep represents that group law. Each element's matrix is
    built once."""
    d = [represent(rep, *g) for g in elements(rep.n_phi)]
    return max(
        (float(np.max(np.abs(d[table[g, h]] - d[g] @ d[h]))) for g, h in pairs),
        default=0.0,
    )


def weyl_deviation(rep: UnitaryRep) -> float:
    """max |Ty Tx - exp(2 pi i / n_phi) Tx Ty|: zero for a true representation."""
    lhs = rep.ty @ rep.tx
    rhs = np.exp(TWO_PI * 1j / rep.n_phi) * rep.tx @ rep.ty
    return float(np.max(np.abs(lhs - rhs)))


# Singular values below this fraction of the largest (at least 1) count as
# zero: the constraint entries have modulus at most 2, so a true null
# direction sits at rounding level, far below it.
COMMUTANT_TOL = 1.0e-10


# No runtime caller yet: ROADMAP item 3 checks irreducibility of the lattice
# levels' translation matrices with it.
def commutant_dimension(rep: UnitaryRep) -> int:
    """Dimension of {X : [X, Tx] = [X, Ty] = 0}; 1 means irreducible.

    Solved numerically: vectorize X and stack the two commutator constraints
    into one linear system, then count near-zero singular values.
    """
    n = rep.n_phi
    eye = np.eye(n)
    rows = [
        np.kron(eye, rep.tx) - np.kron(rep.tx.T, eye),
        np.kron(eye, rep.ty) - np.kron(rep.ty.T, eye),
    ]
    system = np.vstack(rows)
    sv = np.linalg.svd(system, compute_uv=False)
    return int(np.sum(sv < COMMUTANT_TOL * max(1.0, sv[0])))
