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
from dataclasses import dataclass

import numpy as np

# Quadrature grids keep this many samples per oscillator length 1/sqrt(M w).
POINTS_PER_LENGTH = 16


@dataclass(frozen=True)
class OscillatorBasis:
    """Family psi_0..psi_max_level of oscillator eigenfunctions with a fixed
    mass*frequency product."""

    mass_omega: float
    max_level: int = 64

    def __post_init__(self):
        if self.mass_omega <= 0:
            raise ValueError(f"mass_omega must be positive, got {self.mass_omega}")
        if self.max_level < 0:
            raise ValueError(f"max_level must be >= 0, got {self.max_level}")


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


def hermite_eigenfunction(basis: OscillatorBasis, n: int, u) -> np.ndarray:
    """L2-normalized oscillator eigenfunction psi_n at coordinate u.

    psi_n(u) = (M w)^(1/4) h_n(sqrt(M w) u), normalized so that
    integral |psi_n|^2 du = 1.
    """
    if not 0 <= n <= basis.max_level:
        raise ValueError(f"level {n} outside [0, {basis.max_level}]")
    s = math.sqrt(basis.mass_omega)
    xi = s * np.asarray(u, dtype=float)
    return math.sqrt(s) * hermite_functions(n, xi)[n]


def oscillator_grid(basis: OscillatorBasis, n: int):
    """Uniform grid wide enough to hold psi_n to below-roundoff tails.

    The cutoff is the classical turning point sqrt(2n+1) plus 8 decay lengths
    in units of 1/sqrt(M w); spacing keeps at least POINTS_PER_LENGTH
    samples per oscillator length so the trapezoid rule is in its
    spectrally-accurate regime for Gaussian-decaying integrands.
    """
    s = math.sqrt(basis.mass_omega)
    half_width = (math.sqrt(2.0 * n + 1.0) + 8.0) / s
    du = 1.0 / (POINTS_PER_LENGTH * s)
    m = int(math.ceil(half_width / du))
    u = du * np.arange(-m, m + 1)
    return u, du


def quadrature_inner_product(f, g, du: float) -> complex:
    """Trapezoid-rule approximation of integral conj(f) * g.

    f and g must be sampled on the same uniform grid with spacing du.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape:
        raise ValueError(f"grid mismatch: {f.shape} vs {g.shape}")
    integrand = np.conj(f) * g
    total = integrand.sum() - 0.5 * (integrand.flat[0] + integrand.flat[-1])
    return complex(total * du)
