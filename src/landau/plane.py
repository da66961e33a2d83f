"""Infinite-volume physics: spectrum, eigenstates, coherent states, and
classical cyclotron orbits.

Analytic states are returned as callables amplitude(x, y) accepting
broadcastable arrays; discretization happens only in the consumers
(quadrature, finite-difference checks), so the closed forms stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oscillator import hermite_eigenfunction


# ---------------------------------------------------------------------------
# spectrum


def landau_energy(cfg, n: int) -> float:
    """Level energy omega*(n + 1/2)."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    return cfg.omega * (n + 0.5)


# ---------------------------------------------------------------------------
# eigenstates


# No runtime caller yet: ROADMAP item 4 takes the plane state of its [H, R]
# check from here.
def eigenstate_py(cfg, n: int, p_y: float):
    """Landau level n as an eigenstate of the y-translation generator Py.

    amplitude(x, y) = psi_n(x + p_y/(M w)) * exp(i p_y y). With p_y = 0 and
    n = 0 the amplitude is real and positive at the origin, which fixes the
    otherwise arbitrary global phase.
    """
    shift = p_y / cfg.mass_omega

    def amplitude(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return hermite_eigenfunction(cfg.mass_omega, n, x + shift) * np.exp(1j * p_y * y)

    return amplitude


# ---------------------------------------------------------------------------
# coherent states


@dataclass(frozen=True)
class CoherentLabel:
    """Joint eigenvalues (lambda, lambda') of the annihilation operators a
    (orbit amplitude) and b (orbit center):

        <R_x> = sqrt(2/(M w)) Re lambda',  <R_y> = sqrt(2/(M w)) Im lambda'.
    """

    lam: complex
    lam_prime: complex


def coherent_center(cfg, c: CoherentLabel) -> tuple[float, float]:
    """Expectation (<R_x>, <R_y>) of the orbit center."""
    s = math.sqrt(2.0 / cfg.mass_omega)
    return s * c.lam_prime.real, s * c.lam_prime.imag


@dataclass(frozen=True)
class CoherentExpectations:
    """The closed-form expectation values and uncertainties in |lam lam'>."""

    center_x: float
    spread_center_x: float
    center_y: float
    spread_center_y: float
    rel_x: float
    spread_rel_x: float
    rel_y: float
    spread_rel_y: float
    kinetic_momentum_x: float
    spread_kinetic_momentum_x: float
    kinetic_momentum_y: float
    spread_kinetic_momentum_y: float
    energy: float
    spread_energy: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def coherent_expectations(cfg, c: CoherentLabel) -> CoherentExpectations:
    """Closed-form table of the fourteen first and second moments; an array
    lambda gives arrays for the moments that depend on it.

    rel_* are the components of the radius vector (x - R_x, y - R_y);
    kinetic_momentum_* are M v_i = p_i + e A_i.
    """
    mw = cfg.mass_omega
    omega = cfg.omega
    s2 = math.sqrt(2.0 / mw)
    lam, lamp = c.lam, c.lam_prime
    # |lam| as abs() gives it for one complex; np.abs on an array may round
    # differently
    amp = np.hypot(lam.real, lam.imag)
    return CoherentExpectations(
        center_x=s2 * lamp.real,
        spread_center_x=1.0 / math.sqrt(2.0 * mw),
        center_y=s2 * lamp.imag,
        spread_center_y=1.0 / math.sqrt(2.0 * mw),
        rel_x=s2 * lam.real,
        spread_rel_x=1.0 / math.sqrt(2.0 * mw),
        rel_y=-s2 * lam.imag,
        spread_rel_y=1.0 / math.sqrt(2.0 * mw),
        kinetic_momentum_x=math.sqrt(2.0 * mw) * lam.imag,
        spread_kinetic_momentum_x=math.sqrt(mw / 2.0),
        kinetic_momentum_y=math.sqrt(2.0 * mw) * lam.real,
        spread_kinetic_momentum_y=math.sqrt(mw / 2.0),
        energy=omega * (amp**2 + 0.5),
        spread_energy=omega * amp,
    )


def evolve_coherent(cfg, c: CoherentLabel, t) -> CoherentLabel:
    """Coherent label after time t: lambda rotates by exp(-i w t), lambda'
    (the orbit center) is conserved. An array t gives an array lambda."""
    rot = np.exp(-1j * cfg.omega * np.asarray(t, dtype=float))
    lam = c.lam
    # The product in real arithmetic: numpy's vectorised complex multiply can
    # round differently from the scalar one.
    out = np.empty(rot.shape, dtype=complex)
    out.real = lam.real * rot.real - lam.imag * rot.imag
    out.imag = lam.real * rot.imag + lam.imag * rot.real
    return CoherentLabel(out[()], c.lam_prime)


# ---------------------------------------------------------------------------
# classical orbits


@dataclass(frozen=True)
class ClassicalOrbit:
    """Circular cyclotron orbit around a fixed center."""

    center_x: float
    center_y: float
    radius: float
    phase0: float
    omega: float

    def __post_init__(self):
        for name in ("center_x", "center_y", "radius", "phase0", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    def energy(self, mass: float) -> float:
        return 0.5 * mass * self.omega**2 * self.radius**2


def classical_orbit_trace(orbit: ClassicalOrbit, times) -> np.ndarray:
    """Positions (len(times), 2) along the orbit in the plane."""
    times = np.asarray(times, dtype=float)
    phase = orbit.omega * times + orbit.phase0
    return np.stack(
        [
            orbit.center_x + orbit.radius * np.cos(phase),
            orbit.center_y + orbit.radius * np.sin(phase),
        ],
        axis=-1,
    )
