import math

import numpy as np
import pytest

from landau.config import TorusConfig
from landau.gauge import (
    boundary_residual,
    cocycle_defect,
    flux_consistency_defect,
    polyakov_phase_x,
    polyakov_phase_y,
)
from landau.torus import SampledState, TorusLabel, grid_axes, torus_eigenstate

TWO_PI = 2.0 * math.pi


def test_polyakov_phase_trivial_point():
    cfg = TorusConfig(1, 1, 1, 1, 2, theta_x=0.0)
    assert polyakov_phase_x(cfg, 0.0) == pytest.approx(1.0)


def test_polyakov_phase_theta_pi():
    cfg = TorusConfig(1, 1, 1, 1, 1, theta_x=math.pi)
    assert polyakov_phase_x(cfg, 0.0) == pytest.approx(-1.0)


def test_polyakov_phase_step_invariance():
    cfg = TorusConfig(1, 1, 1.3, 0.7, 3, theta_x=0.4, theta_y=1.1)
    ys = np.linspace(0, cfg.ly, 17)
    xs = np.linspace(0, cfg.lx, 17)
    assert np.max(np.abs(polyakov_phase_x(cfg, ys + cfg.ay) - polyakov_phase_x(cfg, ys))) < 1e-12
    assert np.max(np.abs(polyakov_phase_y(cfg, xs + cfg.ax) - polyakov_phase_y(cfg, xs))) < 1e-12


def test_polyakov_phase_unit_modulus():
    cfg = TorusConfig(1, 2, 1.1, 0.9, 2, theta_x=2.2, theta_y=0.3)
    ys = np.linspace(-1, 2, 31)
    assert np.max(np.abs(np.abs(polyakov_phase_x(cfg, ys)) - 1.0)) < 1e-14


def test_cocycle_standard_values():
    cfg1 = TorusConfig(1, 1, 1, 1, 1)
    assert cocycle_defect(cfg1) == pytest.approx(TWO_PI, rel=1e-14)
    cfg2 = TorusConfig(1, 2, 1, 1, 3)
    assert cocycle_defect(cfg2) == pytest.approx(3 * math.pi, rel=1e-14)


def test_cocycle_constant_over_points():
    cfg = TorusConfig(1.2, 0.8, 1.4, 0.6, 2, theta_x=0.3, theta_y=2.0)
    rng = np.random.default_rng(3)
    target = TWO_PI * cfg.n_phi / cfg.charge
    vals = [cocycle_defect(cfg, *rng.uniform(-2, 2, 2)) for _ in range(10)]
    assert max(abs(v - target) for v in vals) < 1e-12 * max(1.0, target)


def test_boundary_residual_analytic_state():
    cfg = TorusConfig(1, 1, 1, 1, 2, theta_x=1.0, theta_y=0.5)
    st = torus_eigenstate(cfg, TorusLabel(1, 1), nx=64, ny=64)
    assert boundary_residual(st) < 1e-8


def test_boundary_residual_plane_wave_fails():
    # f(x) exp(i p_y y) cannot satisfy the twisted boundary condition
    cfg = TorusConfig(1, 1, 1, 1, 1, theta_x=1.5, theta_y=0.0)
    xs, ys = grid_axes(cfg, 32, 32)
    st = SampledState(cfg, np.exp(TWO_PI * 1j * xs[:, None] / cfg.lx) + 0 * ys[None, :])
    assert boundary_residual(st) > 0.1


def test_boundary_residual_zero_state():
    cfg = TorusConfig(1, 1, 1, 1, 1)
    xs, ys = grid_axes(cfg, 16, 16)
    st = SampledState(cfg, 0.0 * xs[:, None] * ys[None, :])
    assert boundary_residual(st) == 0.0


def test_flux_consistency_forced():
    # the two boundary shifts commute only for integer flux
    for n_phi in (1, 2, 5):
        assert flux_consistency_defect(1.0, TWO_PI * n_phi, 1.0, 1.0) < 1e-12
    for flux in (0.5, 1.3, 2.7):
        assert flux_consistency_defect(1.0, TWO_PI * flux, 1.0, 1.0) > 0.5
