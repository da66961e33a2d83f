"""Mutation matrix for `landau verify`: each row breaks one term of an
operator the suite is meant to guard, for the duration of one
`run_verification` call per torus, and asserts that some check fails.

A mutation is patched where it is called: `translate` in both `verify` and
`torus` (translation_expectation calls it there), `apply_fd_operator` in both
`verify` and `torus`, and `bloch_chain` in `spectral`. The translation rows
post-multiply the result of the real `translate`, one elementary step at a
time, so they do not depend on how it is built.

Rows marked xfail are known blind spots: every check still passes. Each names
the ROADMAP item that closes it; pyproject sets xfail_strict, so once that
item lands the row fails until its marker is removed.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest

from landau import TorusConfig
from landau.finitediff import apply_fd_operator
from landau.gauge import x_boundary_twist, y_boundary_twist
from landau.spectral import bloch_chain
from landau.torus import SampledState, translate
from landau.verify import run_verification

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

    return {"landau.verify.translate": mutated, "landau.torus.translate": mutated}


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


def _ry_without_x_term(op, values, xs, ys, hx, hy, cfg, twist_x=None, twist_y=None):
    if op == "Ry":
        return ys[None, :] * np.asarray(values, dtype=complex)
    return apply_fd_operator(op, values, xs, ys, hx, hy, cfg, twist_x, twist_y)


def _lattice_x_kinetic_scaled(cfg, nx, ny, m0):
    diag, hop = bloch_chain(cfg, nx, ny, m0)
    hx = cfg.lx / nx
    kx = 1.0 / (2.0 * cfg.mass_omega * hx * hx)
    return diag + 0.001 * 2.0 * kx, hop * 1.001


def _lattice_hops_without_theta_x(cfg, nx, ny, m0):
    diag, hop = bloch_chain(cfg, nx, ny, m0)
    hop = hop.copy()
    hop[nx - 1 :: nx] *= np.exp(-1j * cfg.theta_x)
    return diag, hop


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
}

BLIND = {
    "ry_x_term_dropped": (
        {"landau.verify.apply_fd_operator": _ry_without_x_term, "landau.torus.apply_fd_operator": _ry_without_x_term},
        "closed by ROADMAP item 4",
    ),
    "lattice_x_kinetic_scaled_1.001": (
        {"landau.spectral.bloch_chain": _lattice_x_kinetic_scaled},
        "closed by ROADMAP item 2",
    ),
    "lattice_hops_theta_x_dropped": (
        {"landau.spectral.bloch_chain": _lattice_hops_without_theta_x},
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
