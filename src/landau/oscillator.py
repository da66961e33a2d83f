"""Numerically stable 1-D harmonic-oscillator eigenfunctions.

Every Landau state in this package is assembled from the oscillator
eigenfunctions psi_n for mass*frequency product M*omega. Evaluation uses the
recurrence on the *normalized* Hermite functions

    h_0(xi) = pi^(-1/4) exp(-xi^2/2),   h_1(xi) = sqrt(2) xi h_0(xi),
    h_n(xi) = sqrt(2/n) xi h_{n-1}(xi) - sqrt((n-1)/n) h_{n-2}(xi),

whose values stay O(1) for all n, instead of raw Hermite polynomials times a
Gaussian (H_n overflows double precision near n ~ 20).
"""

from __future__ import annotations

import math

import numpy as np

# Quadrature grids keep this many samples per oscillator length 1/sqrt(M w).
POINTS_PER_LENGTH = 16


def hermite_functions(nmax: int, xi) -> np.ndarray:
    """All normalized Hermite functions h_0..h_nmax at points xi.

    Returns an array of shape (nmax+1,) + xi.shape. Intermediate values are
    bounded (|h_n| < 1), so there is no overflow at any level.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.empty((nmax + 1,) + xi.shape, dtype=float)
    out[0] = math.pi ** (-0.25) * np.exp(-0.5 * xi * xi)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * xi * out[0]
    for n in range(2, nmax + 1):
        out[n] = math.sqrt(2.0 / n) * xi * out[n - 1] - math.sqrt((n - 1) / n) * out[n - 2]
    return out


def hermite_eigenfunction(mass_omega: float, n: int, u) -> np.ndarray:
    """L2-normalized oscillator eigenfunction psi_n at coordinate u.

    psi_n(u) = (M w)^(1/4) h_n(sqrt(M w) u), normalized so that
    integral |psi_n|^2 du = 1.
    """
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    s = math.sqrt(mass_omega)
    xi = s * np.asarray(u, dtype=float)
    return math.sqrt(s) * hermite_functions(n, xi)[n]
