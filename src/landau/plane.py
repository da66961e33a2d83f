"""Infinite-volume physics: spectrum, eigenstates, ladder algebra on Fock
labels, coherent states, and classical / semiclassical cyclotron orbits.

Analytic states are returned as callables amplitude(x, y) accepting
broadcastable arrays; discretization happens only in the consumers
(quadrature, finite-difference checks), so the closed forms stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oscillator import POINTS_PER_LENGTH, hermite_eigenfunction


# ---------------------------------------------------------------------------
# spectrum


def landau_energy(cfg, n: int) -> float:
    """Level energy omega*(n + 1/2)."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    return cfg.omega * (n + 0.5)


def semiclassical_radius(cfg, n: int) -> float:
    """Quantized orbit radius sqrt(2n/(eB)) from angular-momentum quantization."""
    if n < 1:
        raise ValueError(f"no semiclassical orbit for n < 1, got {n}")
    return math.sqrt(2.0 * n / (cfg.charge * cfg.b_field))


def semiclassical_energy(cfg, n: int) -> float:
    """Semiclassical level energy n*omega (misses the zero-point omega/2)."""
    if n < 1:
        raise ValueError(f"no semiclassical orbit for n < 1, got {n}")
    return n * cfg.omega


# ---------------------------------------------------------------------------
# eigenstates


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


def eigenstate_px(cfg, n: int, p_x: float):
    """Landau level n as an eigenstate of the gauge-covariant generator
    Px = -i dx + e B y of x-translations.

    amplitude(x, y) = psi_n(y - p_x/(M w)) * exp(i p_x x) * exp(-i e B x y).
    """
    eb = cfg.mass_omega
    shift = p_x / eb

    def amplitude(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (
            hermite_eigenfunction(eb, n, y - shift)
            * np.exp(1j * p_x * x)
            * np.exp(-1j * eb * x * y)
        )

    return amplitude


def sample_plane(state, xs, ys) -> np.ndarray:
    """Sample a callable state on the tensor grid xs x ys; values[ix, iy]."""
    return np.asarray(state(xs[:, None], ys[None, :]), dtype=complex)


# ---------------------------------------------------------------------------
# Fock labels and ladder algebra


@dataclass(frozen=True)
class FockLabel:
    """State |n n'> built by raising n times with adag and n' times with bdag
    from the vacuum; m = n - n' is the angular momentum."""

    n: int
    n_prime: int

    def __post_init__(self):
        if self.n < 0 or self.n_prime < 0:
            raise ValueError(f"Fock labels must be >= 0, got {self}")

    @property
    def angular_momentum(self) -> int:
        return self.n - self.n_prime


def ladder_apply(which: str, coeffs: dict) -> dict:
    """Apply a, adag, b or bdag to a finitely supported coefficient map.

    a |n n'> = sqrt(n) |n-1 n'>           adag |n n'> = sqrt(n+1) |n+1 n'>
    b |n n'> = sqrt(n') |n n'-1>          bdag |n n'> = sqrt(n'+1) |n n'+1>

    Annihilating the vacuum drops the term; an empty map is returned for the
    zero vector.
    """
    out: dict = {}
    for label, amp in coeffs.items():
        n, np_ = label.n, label.n_prime
        if which == "a":
            if n == 0:
                continue
            new, factor = FockLabel(n - 1, np_), math.sqrt(n)
        elif which == "adag":
            new, factor = FockLabel(n + 1, np_), math.sqrt(n + 1)
        elif which == "b":
            if np_ == 0:
                continue
            new, factor = FockLabel(n, np_ - 1), math.sqrt(np_)
        elif which == "bdag":
            new, factor = FockLabel(n, np_ + 1), math.sqrt(np_ + 1)
        else:
            raise ValueError(f"unknown ladder operator {which!r}")
        out[new] = out.get(new, 0.0) + factor * amp
    return {k: v for k, v in out.items() if v != 0.0}


def fock_energy_and_angular_momentum(cfg, label: FockLabel) -> tuple[float, int]:
    """(E, m) = (omega*(n + 1/2), n - n') for the state |n n'>."""
    return landau_energy(cfg, label.n), label.angular_momentum


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


def _coherent_raw(cfg, c: CoherentLabel):
    mw = cfg.mass_omega
    pre = math.sqrt(mw / 2.0)
    k = -0.25 * mw
    s, d = c.lam + c.lam_prime, c.lam - c.lam_prime

    def raw(x, y):
        """exp(k (x^2 + 2i x y + y^2) + pre (x s + i y d))."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.exp(k * (x * x + 2j * x * y + y * y) + pre * (x * s + 1j * y * d))

    return raw


def coherent_norm_constant(cfg, c: CoherentLabel) -> float:
    """Normalization constant A for the coherent amplitude, by quadrature.

    The closed form is deliberately not assumed; A is fixed so that the
    sampled |A * raw|^2 integrates to 1 over a box of 9 decay lengths around
    the packet center, with POINTS_PER_LENGTH samples per oscillator length.
    """
    mw = cfg.mass_omega
    raw = _coherent_raw(cfg, c)
    s2 = math.sqrt(2.0 / mw)
    cx = s2 * (c.lam + c.lam_prime).real
    cy = s2 * (c.lam_prime.imag - c.lam.imag)
    half = 9.0 / math.sqrt(mw)
    h = 1.0 / (POINTS_PER_LENGTH * math.sqrt(mw))
    m = int(math.ceil(half / h))
    xs = cx + h * np.arange(-m, m + 1)
    ys = cy + h * np.arange(-m, m + 1)
    density = np.abs(raw(xs[:, None], ys[None, :])) ** 2
    norm_sq = density.sum() * h * h
    return 1.0 / math.sqrt(norm_sq)


def coherent_amplitude(cfg, c: CoherentLabel):
    """Unit-norm coherent-state amplitude with a positive real constant:

    A exp[-(Mw/4)(x^2 + 2ixy + y^2)
          + sqrt(Mw/2) (x (lam + lam') + i y (lam - lam'))]
    """
    a = coherent_norm_constant(cfg, c)
    raw = _coherent_raw(cfg, c)

    def amplitude(x, y):
        out = raw(x, y)
        out *= a
        return out

    return amplitude


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


def classical_orbit_trace(orbit: ClassicalOrbit, times, wrap=None) -> np.ndarray:
    """Positions (len(times), 2) along the orbit; wrap=(Lx, Ly) folds the
    trace into the fundamental domain [0, Lx) x [0, Ly)."""
    times = np.asarray(times, dtype=float)
    phase = orbit.omega * times + orbit.phase0
    pos = np.stack(
        [
            orbit.center_x + orbit.radius * np.cos(phase),
            orbit.center_y + orbit.radius * np.sin(phase),
        ],
        axis=-1,
    )
    if wrap is not None:
        lx, ly = wrap
        pos = np.stack([np.mod(pos[..., 0], lx), np.mod(pos[..., 1], ly)], axis=-1)
    return pos
