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

import numpy as np

from .config import TWO_PI


def transition_x(cfg, y):
    """Gauge function phi_x(y) = theta_x/e - B Lx y gluing x = Lx to x = 0,
    in closed form so that no sampling error enters the cocycle test."""
    return cfg.theta_x / cfg.charge - cfg.b_field * cfg.lx * np.asarray(y, dtype=float)


def transition_y(cfg, x):
    """Gauge function phi_y(x) = theta_y/e gluing y = Ly to y = 0."""
    return cfg.theta_y / cfg.charge + 0.0 * np.asarray(x, dtype=float)


def polyakov_phase_x(cfg, y):
    """Holonomy phase exp(i e Phi_x(y)) = exp(i e B Lx y - i theta_x)."""
    return np.exp(1j * (cfg.charge * cfg.b_field * cfg.lx * np.asarray(y, dtype=float) - cfg.theta_x))


def polyakov_phase_y(cfg, x):
    """Holonomy phase exp(i e Phi_y(x)) = exp(i e B Ly x - i theta_y)."""
    return np.exp(1j * (cfg.charge * cfg.b_field * cfg.ly * np.asarray(x, dtype=float) - cfg.theta_y))


def cocycle_defect(cfg, x: float = 0.0, y: float = 0.0) -> float:
    """phi_y(x+Lx) + phi_x(y) - phi_x(y+Ly) - phi_y(x).

    For consistent transition functions this equals 2 pi n_phi / e
    independently of (x, y).
    """
    return float(
        transition_y(cfg, x + cfg.lx) + transition_x(cfg, y) - transition_x(cfg, y + cfg.ly) - transition_y(cfg, x)
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
