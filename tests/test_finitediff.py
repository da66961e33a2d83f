"""The ghost-cell operators of landau.finitediff against the np.roll
references in tests/oracles.py: the covariant form for H, the plain
Landau-gauge forms for Rx and Ry.

Outputs may differ only in the sign of an exact zero (a complex multiply by
a real or imaginary factor adds a signed 0 * part term, and the two routes
do not apply the same such factors in the same order). Each stencil is checked through
the operators that apply it: the first derivative through Ry (x) and Rx (y),
the second through H (x plain, y covariant). The covariant and plain forms
are also checked to converge to one operator under refinement."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau.config import TorusConfig
from landau.finitediff import OPERATORS, apply_fd_operator
from landau.torus import TorusLabel, torus_eigenstate, x_boundary_twist, y_boundary_twist
from oracles import covariant_fd_operator, reference_fd_operator

SHORT = range(2, 10)
CFGS = [
    TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=2, theta_x=0.6, theta_y=1.2),
    TorusConfig(2.0, 0.7, lx=1.3, ly=0.8, n_phi=3, theta_x=2.0, theta_y=5.1),
]


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view(np.uint64)


def assert_same_up_to_zero_sign(got, want):
    # x + 0.0 maps -0.0 to +0.0 and leaves every other value (NaN payloads too)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(bits(got + 0.0), bits(want + 0.0))


def sample(shape, seed, complex_values=True):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape)
    if complex_values:
        values = values + 1j * rng.normal(size=shape)
    return values


def twist_for(kind, shape, axis, seed):
    """None, a unit-modulus array broadcastable over the other axis, or a
    complex scalar."""
    rng = np.random.default_rng(seed + 1000)
    if kind is None:
        return None
    if kind == "scalar":
        return complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    other = shape[1 - axis]
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=other))
    return phases if axis == 0 else phases[:, None]


def reference(op, *args):
    """The oracle form that landau.finitediff must reproduce bit for bit."""
    oracle = covariant_fd_operator if op == "H" else reference_fd_operator
    return oracle(op, *args)


def grid(cfg, nx, ny):
    xs = cfg.lx * np.arange(nx) / nx - 0.3
    ys = cfg.ly * np.arange(ny) / ny + 0.2
    return xs, ys


# the operator that applies each stencil along each axis
STENCIL_OPS = {("d1", 0): "Ry", ("d1", 1): "Rx", ("d2", 0): "H", ("d2", 1): "H"}
STENCILS = ("d1", "d2")


def assert_stencil_matches_reference(stencil, axis, values, twist):
    """The operator applying `stencil` along `axis`, with `twist` on that axis
    and none on the other, against the reference."""
    cfg = CFGS[0]
    xs, ys = grid(cfg, *values.shape)
    twists = (twist, None) if axis == 0 else (None, twist)
    op = STENCIL_OPS[stencil, axis]
    want = reference(op, values, xs, ys, cfg, *twists)
    got = apply_fd_operator(op, values, xs, ys, xs[1] - xs[0], ys[1] - ys[0], cfg, *twists)
    assert_same_up_to_zero_sign(got, want)


@pytest.mark.parametrize("stencil", STENCILS)
@pytest.mark.parametrize("axis", (0, 1))
@pytest.mark.parametrize("twist_kind", (None, "array", "scalar"))
@pytest.mark.parametrize("complex_values", (True, False), ids=["complex", "real"])
def test_stencils_match_roll_reference_on_short_axes(stencil, axis, twist_kind, complex_values):
    for nx, ny in itertools.product(SHORT, SHORT):
        shape = (nx, ny)
        values = sample(shape, nx * 10 + ny, complex_values)
        twist = twist_for(twist_kind, shape, axis, nx * 10 + ny)
        assert_stencil_matches_reference(stencil, axis, values, twist)


@pytest.mark.parametrize("stencil", STENCILS)
@pytest.mark.parametrize("axis", (0, 1))
@pytest.mark.parametrize("twist_kind", (None, "array", "scalar"))
def test_stencils_match_roll_reference_on_a_verify_block(stencil, axis, twist_kind):
    # the shape of one block of verify's streamed plane check
    values = sample((68, 571), 7)
    twist = twist_for(twist_kind, values.shape, axis, 7)
    assert_stencil_matches_reference(stencil, axis, values, twist)


@pytest.mark.parametrize("stencil", STENCILS)
@pytest.mark.parametrize("twist", (None, 1j))
def test_length_one_axis_raises(stencil, twist):
    # np.roll would apply the twist once where the 5-point stencil wraps twice
    cfg = CFGS[0]
    for axis, shape in ((0, (1, 5)), (1, (5, 1))):
        xs, ys = grid(cfg, *shape)
        twists = (twist, None) if axis == 0 else (None, twist)
        values = np.ones(shape, dtype=complex)
        with pytest.raises(ValueError):
            apply_fd_operator(STENCIL_OPS[stencil, axis], values, xs, ys, 0.1, 0.1, cfg, *twists)


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(2, 40),
    ny=st.integers(2, 40),
    axis=st.sampled_from((0, 1)),
    twist_kind=st.sampled_from((None, "array", "scalar")),
    complex_values=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_stencils_match_roll_reference_property(nx, ny, axis, twist_kind, complex_values, seed):
    values = sample((nx, ny), seed, complex_values)
    twist = twist_for(twist_kind, (nx, ny), axis, seed)
    for stencil in STENCILS:
        assert_stencil_matches_reference(stencil, axis, values, twist)


@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("cfg", CFGS, ids=["unit", "mass2"])
@pytest.mark.parametrize("twisted", (False, True), ids=["open", "torus"])
@pytest.mark.parametrize("complex_values", (True, False), ids=["complex", "real"])
def test_operators_match_complex_reference(op, cfg, twisted, complex_values):
    for nx, ny in ((2, 2), (3, 9), (9, 4), (70, 1141), (33, 48)):
        xs, ys = grid(cfg, nx, ny)
        values = sample((nx, ny), nx + ny, complex_values)
        twists = (x_boundary_twist(cfg, ys), y_boundary_twist(cfg)) if twisted else (None, None)
        want = reference(op, values, xs, ys, cfg, *twists)
        hx, hy = xs[1] - xs[0], ys[1] - ys[0]
        got = apply_fd_operator(op, values, xs, ys, hx, hy, cfg, *twists)
        assert_same_up_to_zero_sign(got, want)


@pytest.mark.parametrize("op", ("H", "a", "adag"))
def test_covariant_operators_converge_to_plain_reference(op):
    # both routes are 4th order, so their gap on a torus eigenstate should
    # drop 16x per halving of h; from h^2 Mw = 1.6e-2 down to 2.5e-4. H is
    # landau's; a and adag exist only as oracles, and the covariant ones are
    # what the coherent-state tests apply
    cfg = TorusConfig(1.0, 1.0, lx=1.1, ly=0.9, n_phi=2, theta_x=0.6, theta_y=1.2)
    gaps = []
    for n in (28, 56, 112, 224):
        st = torus_eigenstate(cfg, TorusLabel(1, 0), nx=n, ny=n)
        xs, ys = st.xs[:-1], st.ys[:-1]
        twists = (x_boundary_twist(cfg, ys), y_boundary_twist(cfg))
        if op == "H":
            got = apply_fd_operator(op, st.core, xs, ys, st.hx, st.hy, cfg, *twists)
        else:
            got = covariant_fd_operator(op, st.core, xs, ys, cfg, *twists)
        want = reference_fd_operator(op, st.core, xs, ys, cfg, *twists)
        if op == "H":
            # landau's H is in units of hbar*omega, the plain reference's in energy
            want = want / cfg.omega
        gaps.append(np.linalg.norm(got - want) / np.linalg.norm(want))
    drops = [a / b for a, b in zip(gaps, gaps[1:])]
    assert min(drops) >= 12.0, (gaps, drops)
