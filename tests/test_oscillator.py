import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from landau.oscillator import MAX_LEVEL, hermite_eigenfunction
from oracles import independent_psi_n


def trapezoid_gram(mass_omega, levels):
    """Trapezoid inner products <psi_m|psi_n> for m, n < levels, on a uniform
    grid reaching 8 oscillator lengths past the top level's turning point at
    16 samples per oscillator length (spectrally accurate for these
    Gaussian-decaying integrands)."""
    s = np.sqrt(mass_omega)
    du = 1.0 / (16 * s)
    m = int(np.ceil((np.sqrt(2.0 * levels - 1.0) + 8.0) / s / du))
    u = du * np.arange(-m, m + 1)
    psis = np.array([hermite_eigenfunction(mass_omega, n, u) for n in range(levels)])
    weights = np.full(u.size, du)
    weights[[0, -1]] *= 0.5
    return (psis * weights) @ psis.T


def test_odd_level_vanishes_at_origin():
    assert hermite_eigenfunction(1.0, 1, 0.0) == 0.0


def test_ground_state_peaks_at_origin():
    u = np.linspace(-5, 5, 1001)
    psi0 = np.abs(hermite_eigenfunction(2.0, 0, u))
    assert np.argmax(psi0) == 500


@pytest.mark.parametrize("n", range(0, 11))
def test_matches_independent_hermite_route(n):
    # oracle: raw Hermite polynomial + explicit normalization (safe n <= 12)
    u = np.linspace(-6, 6, 301)
    mine = hermite_eigenfunction(1.7, n, u)
    ref = independent_psi_n(1.7, n, u)
    assert np.max(np.abs(mine - ref)) < 1e-13


@pytest.mark.parametrize("n", range(0, 11))
def test_unit_norm_by_adaptive_quadrature(n):
    # scipy.integrate.quad on [-12, 12] as the independent integrator
    val, err = quad(lambda u: hermite_eigenfunction(1.0, n, u) ** 2, -12, 12, limit=200)
    assert abs(val - 1.0) < 1e-10


def test_trapezoid_inner_product_normalization_and_parity():
    gram = trapezoid_gram(1.0, 3)
    assert gram[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert abs(gram[0, 1]) < 1e-10
    assert gram[2, 2] == pytest.approx(1.0, abs=1e-10)


def test_gram_matrix_is_identity():
    gram = trapezoid_gram(0.8, 9)
    assert np.max(np.abs(gram - np.eye(9))) < 1e-8


def hermite_table(nmax, xi):
    """h_0..h_nmax stored level by level: the full-table recurrence that
    hermite_eigenfunction replaced with two rolling levels, same operations
    in the same order."""
    out = np.empty((nmax + 1,) + xi.shape, dtype=float)
    out[0] = math.pi ** (-0.25) * np.exp(-0.5 * xi * xi)
    out[1] = math.sqrt(2.0) * xi * out[0]
    for n in range(2, nmax + 1):
        out[n] = math.sqrt(2.0 / n) * xi * out[n - 1] - math.sqrt((n - 1) / n) * out[n - 2]
    return out


def test_recurrence_intermediates_bounded():
    # three-term recurrence on normalized functions stays O(1) up to n = 50,
    # and each level (M w = 1, so psi_n = h_n) is the table's, bit for bit
    xi = np.linspace(-15, 15, 2001)
    all_levels = np.array([hermite_eigenfunction(1.0, n, xi) for n in range(51)])
    assert np.array_equal(all_levels, hermite_table(50, xi))
    assert np.max(np.abs(all_levels)) < 10.0


def test_high_level_holds_a_few_arrays():
    # the full table at the level cap on 10^4 points would be 695 arrays (56 MB)
    u = np.linspace(-70.0, 70.0, 10_000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        psi = hermite_eigenfunction(1.0, MAX_LEVEL, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(psi))
    assert peak <= 8 * u.nbytes


def test_no_overflow_far_out():
    for n in (0, 1, 32, 64):
        v = hermite_eigenfunction(1.0, n, np.array([-40.0, 40.0]))
        assert np.all(np.isfinite(v))


def test_level_out_of_range():
    for n in (-1, MAX_LEVEL + 1):
        with pytest.raises(ValueError, match=rf"\[0, {MAX_LEVEL}\]"):
            hermite_eigenfunction(1.0, n, 0.0)


@pytest.mark.parametrize("mass_omega", [1.0, 2.5])
def test_unit_norm_at_the_level_cap(mass_omega):
    # trapezoid over xi in [-60, 60], spectrally accurate for this Gaussian-
    # decaying integrand: its floor is a few 1e-12, and from the cap up the
    # error grows about 1.7x per level as the seed's underflow reaches the tail
    s = math.sqrt(mass_omega)
    u = np.linspace(-60.0, 60.0, 60001) / s
    psi = hermite_eigenfunction(mass_omega, MAX_LEVEL, u)
    w = psi * psi
    norm = (w.sum() - 0.5 * (w[0] + w[-1])) * (u[1] - u[0])
    assert abs(norm - 1.0) < 1e-10
