"""Torus gauge structure: transition functions, holonomy (Polyakov-loop)
phases, the cocycle consistency condition, and the boundary-condition
residual used to certify every constructed torus state.

The wave function on the torus obeys

    Psi(x + Lx, y) = exp(i theta_x - 2 pi i n_phi y / Ly) Psi(x, y)
    Psi(x, y + Ly) = exp(i theta_y) Psi(x, y)

which is gauge covariance under the transition functions
phi_x(y) = theta_x/e - B Lx y and phi_y(x) = theta_y/e.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TWO_PI


@dataclass(frozen=True)
class TransitionFunctions:
    """Gauge functions gluing the torus boundaries, stored as closed-form
    callables so that no sampling error enters the group-relation tests."""

    phi_x: object  # function of y
    phi_y: object  # function of x


def standard_transition_functions(cfg) -> TransitionFunctions:
    theta_x, theta_y = cfg.theta_x, cfg.theta_y
    e, b, lx = cfg.charge, cfg.b_field, cfg.lx

    def phi_x(y):
        return theta_x / e - b * lx * np.asarray(y, dtype=float)

    def phi_y(x):
        return theta_y / e + 0.0 * np.asarray(x, dtype=float)

    return TransitionFunctions(phi_x=phi_x, phi_y=phi_y)


def polyakov_phase_x(cfg, y):
    """Holonomy phase exp(i e Phi_x(y)) = exp(i e B Lx y - i theta_x)."""
    return np.exp(1j * (cfg.charge * cfg.b_field * cfg.lx * np.asarray(y, dtype=float) - cfg.theta_x))


def polyakov_phase_y(cfg, x):
    """Holonomy phase exp(i e Phi_y(x)) = exp(i e B Ly x - i theta_y)."""
    return np.exp(1j * (cfg.charge * cfg.b_field * cfg.ly * np.asarray(x, dtype=float) - cfg.theta_y))


def cocycle_defect(tf: TransitionFunctions, cfg, x: float = 0.0, y: float = 0.0) -> float:
    """phi_y(x+Lx) + phi_x(y) - phi_x(y+Ly) - phi_y(x).

    For consistent transition functions this equals 2 pi n_phi / e
    independently of (x, y).
    """
    return float(
        tf.phi_y(x + cfg.lx) + tf.phi_x(y) - tf.phi_x(y + cfg.ly) - tf.phi_y(x)
    )


def flux_consistency_defect(charge: float, b_field: float, lx: float, ly: float) -> float:
    """|exp(-i e B Lx Ly) - 1|: zero iff the flux is an integer number of
    quanta, O(1) otherwise. This is what forces flux quantization when the
    two boundary shifts are applied in both orders."""
    return float(abs(np.exp(-1j * charge * b_field * lx * ly) - 1.0))


def x_boundary_twist(cfg, y):
    """Factor relating Psi(x + Lx, y) to Psi(x, y)."""
    return np.exp(1j * (cfg.theta_x - TWO_PI * cfg.n_phi * np.asarray(y, dtype=float) / cfg.ly))


def y_boundary_twist(cfg) -> complex:
    """Factor relating Psi(x, y + Ly) to Psi(x, y)."""
    return complex(np.exp(1j * cfg.theta_y))


def boundary_residual(state) -> float:
    """Sup-norm violation of the twisted boundary condition, relative to the
    state's own sup norm.

    The state's grid must cover the closed fundamental domain, i.e. include
    the boundary lines x = Lx and y = Ly (grid shape (Nx+1, Ny+1)). Returns 0
    for a null state.
    """
    cfg = state.config
    values = state.values
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 0.0
    mis_x = np.max(np.abs(values[-1, :] - x_boundary_twist(cfg, state.ys) * values[0, :]))
    mis_y = np.max(np.abs(values[:, -1] - y_boundary_twist(cfg) * values[:, 0]))
    return float(max(mis_x, mis_y) / peak)
