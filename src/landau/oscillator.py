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

# The highest level the recurrence represents. Its seed exp(-xi^2/2)
# underflows once xi^2/2 passes about 708, and psi_n reaches out to
# xi = sqrt(2n + 1), so the state loses its tail from about n = 700. On a
# trapezoid of 600,001 points over xi in [-60, 60], integral |psi_n|^2 - 1
# read at most 2.3e-12 through n = 688, then 2.4e-11 at 694, 2.0e-10 at 698,
# 5.4e-10 at 700 and 6.7e-3 at 745.
MAX_LEVEL = 694


def check_level(n: int) -> None:
    """ValueError unless 0 <= n <= MAX_LEVEL."""
    if not 0 <= n <= MAX_LEVEL:
        raise ValueError(
            f"level must be in [0, {MAX_LEVEL}], got {n}; above {MAX_LEVEL} the oscillator "
            "recurrence's exp(-xi^2/2) seed underflows and the state loses its norm"
        )


def hermite_eigenfunction(mass_omega: float, n: int, u) -> np.ndarray:
    """L2-normalized oscillator eigenfunction psi_n at coordinate u.

    psi_n(u) = (M w)^(1/4) h_n(sqrt(M w) u), normalized so that
    integral |psi_n|^2 du = 1. The recurrence holds only h_(k-1) and h_k, so
    memory stays a few arrays of u's shape at any level, and the values are
    bounded (|h_k| < 1), so nothing overflows. Levels above MAX_LEVEL are
    refused (ValueError).
    """
    check_level(n)
    s = math.sqrt(mass_omega)
    xi = s * np.asarray(u, dtype=float)
    h = math.pi ** (-0.25) * np.exp(-0.5 * xi * xi)
    if n >= 1:
        prev, h = h, math.sqrt(2.0) * xi * h
    for k in range(2, n + 1):
        prev, h = h, math.sqrt(2.0 / k) * xi * h - math.sqrt((k - 1) / k) * prev
    return math.sqrt(s) * h
