"""Mutation matrix for `landau verify`: each row breaks one term of an
operator the suite is meant to guard, for the duration of one
`run_verification` call per torus, and asserts that some check fails.

A mutation is patched where it is called: `translate` in `verify`, its one
caller, `apply_fd_operator` in both `verify` and `torus` (whose
`apply_operator` passes it the boundary twists), and `bloch_chain` in
`spectral`. The translation rows post-multiply the result of the real
`translate`, one elementary step at a time, and the operator and lattice
rows add the mutated term, built from the np.roll stencils of `oracles`, to
the real result, so no row depends on how the code under test is built.

The matrix holds 16 caught rows, each naming the checks it fails, a control
row (the unmutated tori pass), and 4 blind rows. Rows marked xfail are known
blind spots: every check still passes. Each names the ROADMAP item that
closes it; pyproject sets xfail_strict, so once that item lands the row
fails until its marker is removed.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest

from landau.config import TorusConfig
from landau.finitediff import apply_fd_operator
from landau.gauge import x_boundary_twist, y_boundary_twist
from landau.spectral import bloch_chain
from landau.torus import SampledState, translate
from landau.verify import run_verification
from oracles import _linked, reference_d1, reference_d2

THETA = dict(theta_x=0.7, theta_y=2.1)
TORI = {
    "nphi2-1.1x0.91": TorusConfig(1.0, 1.0, lx=1.1, ly=1.0 / 1.1, n_phi=2, **THETA),
    "nphi3-1.3x0.77": TorusConfig(1.0, 1.0, lx=1.3, ly=0.77, n_phi=3, **THETA),
}


def failing_checks(targets: dict) -> dict:
    """Names of the failing checks on each torus while every dotted name in
    `targets` is patched with its value."""
    failing = {}
    for name, cfg in TORI.items():
        with contextlib.ExitStack() as stack:
            for target, new in targets.items():
                stack.enter_context(mock.patch(target, new))
            checks, _ = run_verification(cfg, seed=0)
        failing[name] = {c.name for c in checks if not c.passed}
    return failing


def translate_mutation(direction, fix):
    """`translate` with each elementary step along `direction` followed by
    values -> fix(state, values), on a writable copy of the closed grid."""

    def mutated(state, d, power=1):
        if d != direction:
            return translate(state, d, power)
        for _ in range(power):
            state = translate(state, d)
            state = SampledState(state.config, fix(state, state.values.copy()))
        return state

    return {"landau.verify.translate": mutated}


def _drop_theta_x(st, v):
    return v * np.exp(1j * st.config.theta_x / st.config.n_phi)


def _drop_theta_y(st, v):
    return v * np.exp(1j * st.config.theta_y / st.config.n_phi)


def _drop_y_gauge(st, v):
    return v * np.exp(-2j * math.pi * st.ys / st.config.ly)[None, :]


def _drop_x_wrap(st, v):
    s = st.nx // st.config.n_phi
    v[st.nx - s : st.nx, :] /= x_boundary_twist(st.config, st.ys)[None, :]
    return v


def _drop_y_wrap(st, v):
    s = st.ny // st.config.n_phi
    v[:, st.ny - s : st.ny] /= y_boundary_twist(st.config)
    return v


def fd_mutation(mutated):
    """Patch `mutated` in for `apply_fd_operator` in both of its callers."""
    return {"landau.verify.apply_fd_operator": mutated, "landau.torus.apply_fd_operator": mutated}


def operator_mutation(name, delta):
    """`apply_fd_operator` whose result for operator `name` gains the term
    delta(values, xs, ys, hx, hy, cfg, twist_x, twist_y)."""

    def mutated(op, values, xs, ys, hx, hy, cfg, twist_x=None, twist_y=None):
        out = apply_fd_operator(op, values, xs, ys, hx, hy, cfg, twist_x, twist_y)
        if op == name:
            out = out + delta(np.asarray(values, dtype=complex), xs, ys, hx, hy, cfg, twist_x, twist_y)
        return out

    return fd_mutation(mutated)


def twist_mutation(axis):
    """`apply_fd_operator` with the boundary twist along `axis` set to 1
    wherever a caller passes one."""

    def mutated(op, values, xs, ys, hx, hy, cfg, twist_x=None, twist_y=None):
        if axis == "x" and twist_x is not None:
            twist_x = np.ones_like(twist_x)
        if axis == "y" and twist_y is not None:
            twist_y = 1.0
        return apply_fd_operator(op, values, xs, ys, hx, hy, cfg, twist_x, twist_y)

    return fd_mutation(mutated)


def _h_x_term(values, hx, cfg, twist_x):
    """H's x-stencil term, -dxx / (2 eB)."""
    return reference_d2(values, hx, 0, twist_x) * (-1.0 / (2.0 * cfg.mass_omega))


def _h_y_term(values, xs, hy, cfg, twist_y, link_sign):
    """H's y-stencil term, -Dyy / (2 eB), with the links exp(i eB x s hy)
    raised to link_sign: 1 is H's own term, -1 conjugates them, 0 drops them."""
    x = xs[:, None]
    eb = cfg.mass_omega

    def r(s):
        return _linked(values, s, x, link_sign * eb, hy, twist_y)

    dyy = (-r(2) + 16.0 * r(1) - 30.0 * values + 16.0 * r(-1) - r(-2)) / (12.0 * hy * hy)
    return dyy * (-1.0 / (2.0 * eb))


def _h_x_scaled(v, xs, ys, hx, hy, cfg, tx, ty):
    return 0.001 * _h_x_term(v, hx, cfg, tx)


def _h_y_scaled(v, xs, ys, hx, hy, cfg, tx, ty):
    return 0.001 * _h_y_term(v, xs, hy, cfg, ty, 1.0)


def _relinked(link_sign):
    def delta(v, xs, ys, hx, hy, cfg, tx, ty):
        return _h_y_term(v, xs, hy, cfg, ty, link_sign) - _h_y_term(v, xs, hy, cfg, ty, 1.0)

    return delta


def _rx_scaled(v, xs, ys, hx, hy, cfg, tx, ty):
    return reference_d1(v, hy, 1, ty) * (0.001j / cfg.mass_omega)


def _ry_y_term_scaled(v, xs, ys, hx, hy, cfg, tx, ty):
    return 0.001 * ys[None, :] * v


def _ry_without_x_term(op, values, xs, ys, hx, hy, cfg, twist_x=None, twist_y=None):
    if op == "Ry":
        return ys[None, :] * np.asarray(values, dtype=complex)
    return apply_fd_operator(op, values, xs, ys, hx, hy, cfg, twist_x, twist_y)


def _ry_x_term_scaled(v, xs, ys, hx, hy, cfg, tx, ty):
    return reference_d1(v, hx, 0, tx) * (-0.001j / cfg.mass_omega)


def chain_mutation(change):
    """`bloch_chain` with its result (diag, hop) replaced by
    change(cfg, nx, ny, m0, diag, hop)."""

    def mutated(cfg, nx, ny, m0):
        return change(cfg, nx, ny, m0, *bloch_chain(cfg, nx, ny, m0))

    return {"landau.spectral.bloch_chain": mutated}


def _lattice_y_term(cfg, nx, ny, m0, eb_scale=1.0, theta_y=None):
    """The y-kinetic part of bloch_chain's diagonal, 2ky - 2ky cos(eB x hy + q_m),
    with eB times eb_scale and q_m = (2 pi m + theta_y) / ny."""
    eb = cfg.mass_omega
    hy = cfg.ly / ny
    ky = 1.0 / (2.0 * eb * hy * hy)
    ms = (m0 + cfg.n_phi * np.arange(ny // math.gcd(cfg.n_phi, ny))) % ny
    qs = (2.0 * math.pi * ms + (cfg.theta_y if theta_y is None else theta_y)) / ny
    xs = cfg.lx / nx * np.arange(nx)
    return (2.0 * ky - 2.0 * ky * np.cos(eb_scale * eb * xs[None, :] * hy + qs[:, None])).ravel()


def _lattice_x_kinetic_scaled(cfg, nx, ny, m0, diag, hop):
    hx = cfg.lx / nx
    kx = 1.0 / (2.0 * cfg.mass_omega * hx * hx)
    return diag + 0.001 * 2.0 * kx, hop * 1.001


def _lattice_y_kinetic_scaled(cfg, nx, ny, m0, diag, hop):
    return diag + 0.001 * _lattice_y_term(cfg, nx, ny, m0), hop


def _lattice_cosine_eb_scaled(cfg, nx, ny, m0, diag, hop):
    return diag - _lattice_y_term(cfg, nx, ny, m0) + _lattice_y_term(cfg, nx, ny, m0, eb_scale=1.001), hop


def _lattice_momenta_without_theta_y(cfg, nx, ny, m0, diag, hop):
    return diag - _lattice_y_term(cfg, nx, ny, m0) + _lattice_y_term(cfg, nx, ny, m0, theta_y=0.0), hop


def _lattice_hops_without_theta_x(cfg, nx, ny, m0, diag, hop):
    hop = hop.copy()
    hop[nx - 1 :: nx] *= np.exp(-1j * cfg.theta_x)
    return diag, hop


H_FAILS = {"hamiltonian_eigen_residual"}
H_AND_COHERENT_FAIL = {"hamiltonian_eigen_residual", "coherent_energy_expectation"}

# row -> (patches, checks that fail on both tori)
CAUGHT = {
    "tx_theta_x_dropped": (translate_mutation("x", _drop_theta_x), {"translation_expectation_series"}),
    "ty_theta_y_dropped": (translate_mutation("y", _drop_theta_y), {"ty_eigenvalue"}),
    "tx_y_gauge_dropped": (
        translate_mutation("x", _drop_y_gauge),
        {"weyl_relation_on_states", "tx_ladder_overlap", "translation_expectation_series"},
    ),
    "tx_wrap_twist_dropped": (
        translate_mutation("x", _drop_x_wrap),
        {"tx_ladder_overlap", "translation_expectation_series"},
    ),
    "ty_wrap_twist_dropped": (translate_mutation("y", _drop_y_wrap), {"ty_eigenvalue"}),
    "h_x_stencil_scaled_1.001": (operator_mutation("H", _h_x_scaled), H_FAILS),
    "h_y_stencil_scaled_1.001": (operator_mutation("H", _h_y_scaled), H_FAILS),
    "h_links_conjugated": (operator_mutation("H", _relinked(-1.0)), H_AND_COHERENT_FAIL),
    "h_links_dropped": (operator_mutation("H", _relinked(0.0)), H_AND_COHERENT_FAIL),
    "operator_x_twist_set_to_1": (twist_mutation("x"), H_AND_COHERENT_FAIL),
    "operator_y_twist_set_to_1": (twist_mutation("y"), H_AND_COHERENT_FAIL),
    "rx_coefficient_scaled_1.001": (operator_mutation("Rx", _rx_scaled), {"heisenberg_center_commutator"}),
    "ry_y_term_scaled_1.001": (operator_mutation("Ry", _ry_y_term_scaled), {"heisenberg_center_commutator"}),
    "ry_x_term_dropped": (fd_mutation(_ry_without_x_term), {"ladder_algebra"}),
    "ry_x_term_scaled_1.001": (operator_mutation("Ry", _ry_x_term_scaled), {"ladder_algebra"}),
    "lattice_cosine_eb_scaled_1.001": (chain_mutation(_lattice_cosine_eb_scaled), {"spectrum_clusters"}),
}

BLIND = {
    "lattice_x_kinetic_scaled_1.001": (chain_mutation(_lattice_x_kinetic_scaled), "closed by ROADMAP item 2"),
    "lattice_y_kinetic_scaled_1.001": (chain_mutation(_lattice_y_kinetic_scaled), "closed by ROADMAP item 2"),
    "lattice_hops_theta_x_dropped": (chain_mutation(_lattice_hops_without_theta_x), "closed by ROADMAP item 3"),
    "lattice_momenta_theta_y_dropped": (
        chain_mutation(_lattice_momenta_without_theta_y),
        "closed by ROADMAP item 3",
    ),
}


def test_unmutated_tori_pass():
    # without it a mutation row would pass on a torus that fails anyway
    assert failing_checks({}) == {name: set() for name in TORI}


@pytest.mark.parametrize("row", CAUGHT)
def test_mutation_fails_verify(row):
    targets, expected = CAUGHT[row]
    for torus, failing in failing_checks(targets).items():
        assert expected <= failing, (torus, sorted(failing))


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(row, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason))
        for row, (_, reason) in BLIND.items()
    ],
)
def test_blind_spot_fails_verify(row):
    targets, _ = BLIND[row]
    for torus, failing in failing_checks(targets).items():
        assert failing, torus
