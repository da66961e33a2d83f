import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from landau import (
    CoherentLabel,
    TorusConfig,
    TorusLabel,
    apply_operator,
    coherent_translation_series,
    density_map,
    eigenvalue_residual,
    expectation,
    gram_matrix,
    projector_distance,
    torus_coherent,
    torus_eigenstate,
    torus_inner,
    translate,
    translation_expectation,
)
from landau.gauge import boundary_residual, x_boundary_twist, y_boundary_twist
from landau.oscillator import hermite_eigenfunction
from landau.plane import evolve_coherent
from landau.torus import (
    SampledState,
    _eigenstate_images,
    _image_indices,
    _series_reach,
    default_grid,
    grid_axes,
    normalized,
    torus_eigenstates,
    torus_norm,
)
from oracles import coherent_prefactor, coherent_raw, covariant_eigen_residual

TWO_PI = 2.0 * math.pi


def image_range(c0, step, lo, hi, decay, extra=0.0):
    """Image indices k of the Gaussians exp(-decay (u - c0 - k step)^2) that
    exceed 1e-16 of their peak somewhere in [lo - extra, hi + extra], and
    one more on each side (whose terms must be negligible)."""
    width = extra + math.sqrt(math.log(1e16) / decay)
    ends = ((lo - width - c0) / step, (hi + width - c0) / step)
    return range(math.ceil(min(ends)) - 1, math.floor(max(ends)) + 2)


def make_cfg(n_phi, theta_x=1.0, theta_y=2.0, lx=1.0, ly=1.0):
    return TorusConfig(1.0, 1.0, lx=lx, ly=ly, n_phi=n_phi, theta_x=theta_x, theta_y=theta_y)


# ---------------------------------------------------------------------------
# construction


@pytest.mark.parametrize("n_phi", [1, 2, 3])
@pytest.mark.parametrize("basis", ["ly", "lx"])
def test_eigenstate_boundary_residual_and_norm(n_phi, basis):
    cfg = make_cfg(n_phi)
    for n in range(3):
        for l in range(n_phi):
            st = torus_eigenstate(cfg, TorusLabel(n, l, basis), nx=24 * n_phi, ny=24 * n_phi)
            assert boundary_residual(st) < 1e-8
            assert torus_norm(st) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_phi", [1, 2, 3])
def test_degenerate_level_is_orthonormal(n_phi):
    cfg = make_cfg(n_phi)
    n = 1
    states = [torus_eigenstate(cfg, TorusLabel(n, l), nx=32 * n_phi, ny=32 * n_phi) for l in range(n_phi)]
    gram = np.array([[torus_inner(a, b) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(n_phi))) < 1e-8


def reference_eigenstate(cfg, label, nx, ny):
    """The per-image loop that the one-product sum replaced: one outer
    product (times the gauge factor, for 'lx') per image term k."""
    mw = cfg.mass_omega
    xs, ys = grid_axes(cfg, nx, ny)
    turning = math.sqrt(2.0 * label.n + 1.0) / math.sqrt(mw)
    values = np.zeros((nx + 1, ny + 1), dtype=complex)
    if label.basis == "ly":
        c0 = -(label.l + cfg.theta_y / TWO_PI) * cfg.ax
        for k in image_range(c0, -cfg.lx, 0.0, cfg.lx, mw / 2.0, turning):
            kval = cfg.n_phi * k + label.l + cfg.theta_y / TWO_PI
            profile = hermite_eigenfunction(mw, label.n, xs + kval * cfg.ax)
            wave = np.exp(TWO_PI * 1j * ys * kval / cfg.ly - 1j * cfg.theta_x * k)
            values += profile[:, None] * wave[None, :]
    else:
        c0 = (label.l + cfg.theta_x / TWO_PI) * cfg.ay
        cross = np.exp(-TWO_PI * 1j * cfg.n_phi * xs[:, None] * ys[None, :] / (cfg.lx * cfg.ly))
        for k in image_range(c0, cfg.ly, 0.0, cfg.ly, mw / 2.0, turning):
            qval = cfg.n_phi * k + label.l + cfg.theta_x / TWO_PI
            profile = hermite_eigenfunction(mw, label.n, ys - qval * cfg.ay)
            wave = np.exp(TWO_PI * 1j * xs * qval / cfg.lx + 1j * cfg.theta_y * k)
            values += wave[:, None] * profile[None, :] * cross
    return normalized(SampledState(cfg, values))


def assert_eigenstate_matches_reference(cfg, label, nx, ny):
    got = torus_eigenstate(cfg, label, nx=nx, ny=ny).values
    want = reference_eigenstate(cfg, label, nx, ny).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n_phi", [1, 2, 3, 4])
@pytest.mark.parametrize("lx, ly", [(1.0, 1.0), (1.3, 0.8)])
@pytest.mark.parametrize("basis", ["ly", "lx"])
def test_eigenstate_product_sum_matches_image_loop(n_phi, lx, ly, basis):
    cfg = make_cfg(n_phi, lx=lx, ly=ly)
    for n in range(4):
        assert_eigenstate_matches_reference(
            cfg, TorusLabel(n, n_phi - 1, basis), 16 * n_phi, 24 * n_phi
        )


@settings(max_examples=25, deadline=None)
@given(
    n_phi=strategies.integers(min_value=1, max_value=4),
    angles=strategies.tuples(strategies.floats(-TWO_PI, TWO_PI), strategies.floats(-TWO_PI, TWO_PI)),
    aspect=strategies.floats(min_value=0.5, max_value=2.0),
    level=strategies.integers(min_value=0, max_value=5),
    l=strategies.integers(min_value=-3, max_value=6),
    basis=strategies.sampled_from(["ly", "lx"]),
    cells=strategies.tuples(strategies.integers(4, 12), strategies.integers(4, 12)),
)
def test_eigenstate_product_sum_property(n_phi, angles, aspect, level, l, basis, cells):
    side = math.sqrt(aspect)
    cfg = make_cfg(n_phi, theta_x=angles[0], theta_y=angles[1], lx=side, ly=1.0 / side)
    assert_eigenstate_matches_reference(
        cfg, TorusLabel(level, l, basis), n_phi * cells[0], n_phi * cells[1]
    )


def complex_sum_eigenstate(cfg, label, nx, ny):
    """`torus_eigenstate` as one complex contraction over the image index,
    factors stored y-major ('ly') or x-major ('lx'): the form the real-plane
    'ly' sum replaced, which it must reproduce bit for bit."""
    mw = cfg.mass_omega
    xs, ys = grid_axes(cfg, nx, ny)
    k = _image_indices(*_eigenstate_images(cfg, label))
    if label.basis == "ly":
        kval = cfg.n_phi * k + label.l + cfg.theta_y / TWO_PI
        profile = hermite_eigenfunction(mw, label.n, xs[:, None] + kval * cfg.ax)
        wave = np.exp(TWO_PI * 1j * ys[:, None] * kval / cfg.ly - 1j * cfg.theta_x * k)
        values = np.einsum("xk,yk->xy", profile, wave, optimize=False)
    else:
        cross = np.exp(-TWO_PI * 1j * cfg.n_phi * xs[:, None] * ys[None, :] / (cfg.lx * cfg.ly))
        qval = cfg.n_phi * k + label.l + cfg.theta_x / TWO_PI
        profile = hermite_eigenfunction(mw, label.n, ys[:, None] - qval * cfg.ay)
        wave = np.exp(TWO_PI * 1j * xs[:, None] * qval / cfg.lx + 1j * cfg.theta_y * k)
        values = cross * np.einsum("xk,yk->xy", wave, profile, optimize=False)
    return normalized(SampledState(cfg, values))


# verify's grid for its seeded n_phi = 2 torus, and export-sized grids: the
# 'lx' cross product is 256 KiB and more only on the latter, where numpy
# multiplies in the other operand order (torus_eigenstates)
LAYOUT_GRIDS = {
    "verify-124x102": (make_cfg(2, 0.7, 2.1, lx=1.1, ly=1.0 / 1.1), 124, 102),
    "export-513": (make_cfg(3, 0.7, 2.1), 513, 513),
    "export-512": (make_cfg(2, 0.7, 2.1), 512, 512),
}


@pytest.mark.parametrize("basis", ["ly", "lx"])
@pytest.mark.parametrize("grid", LAYOUT_GRIDS.values(), ids=LAYOUT_GRIDS.keys())
def test_eigenstates_equal_complex_sum_bit_for_bit(grid, basis):
    cfg, nx, ny = grid
    labels = [TorusLabel(n, l, basis) for n in (0, 2) for l in range(cfg.n_phi)]
    for label, got in zip(labels, torus_eigenstates(cfg, labels, nx, ny)):
        want = complex_sum_eigenstate(cfg, label, nx, ny)
        assert got.values.tobytes() == want.values.tobytes(), label
        assert got.values.tobytes() == torus_eigenstate(cfg, label, nx, ny).values.tobytes(), label


def test_sampled_state_values_are_c_contiguous():
    # density_map's sums run in memory order, so every state is C-ordered
    cfg = make_cfg(2)
    ly, lx = torus_eigenstates(cfg, [TorusLabel(1, 1), TorusLabel(1, 1, "lx")], 32, 24)
    coherent = torus_coherent(cfg, CoherentLabel(0.3 + 0.2j, -0.1 + 0.4j), nx=32, ny=24)
    fortran = SampledState(cfg, np.asfortranarray(ly.values))
    states = [ly, lx, coherent, fortran, translate(ly, "x"), translate(lx, "y"), apply_operator("H", ly), normalized(lx)]
    for st in states:
        assert st.values.flags.c_contiguous
    assert np.array_equal(fortran.values, ly.values)


def test_sampled_state_axes_are_built_once():
    st = torus_eigenstate(make_cfg(2), TorusLabel(0, 1), nx=32, ny=24)
    assert st.xs is st.xs and st.ys is st.ys
    xs, ys = grid_axes(st.config, 32, 24)
    assert np.array_equal(st.xs, xs) and np.array_equal(st.ys, ys)
    with pytest.raises(ValueError):
        st.xs[0] = 1.0


def test_gram_matrix_matches_pairwise_inner():
    cfg = make_cfg(3, lx=1.3, ly=0.8)
    states = [torus_eigenstate(cfg, TorusLabel(1, l, b), nx=48, ny=60) for b in ("ly", "lx") for l in range(3)]
    gram = gram_matrix(states)
    pairwise = np.array([[torus_inner(a, b) for b in states] for a in states])
    assert np.max(np.abs(gram - pairwise)) <= 1e-14
    # the upper triangle and diagonal are summed as torus_inner sums them, and
    # the lower triangle is the upper one conjugated
    upper = np.triu_indices(len(states))
    assert np.array_equal(gram[upper], pairwise[upper])
    lower = np.tril_indices(len(states), -1)
    assert np.array_equal(gram[lower], gram.T[lower].conj())


def test_gram_matrix_rejects_mixed_grids():
    cfg = make_cfg(2)
    a, b = (torus_eigenstate(cfg, TorusLabel(0, 0), nx=n, ny=32) for n in (32, 34))
    with pytest.raises(ValueError, match="grid mismatch"):
        gram_matrix([a, b])


def test_fig2_density_peak():
    # n_phi = 1, theta_x = theta_y = pi: single bump at (Lx/2, Ly/2)
    cfg = make_cfg(1, theta_x=math.pi, theta_y=math.pi)
    st = torus_eigenstate(cfg, TorusLabel(0, 0), nx=128, ny=128)
    dm = density_map(st)
    assert dm.argmax_x == pytest.approx(0.5, abs=1 / 128)
    assert dm.argmax_y == pytest.approx(0.5, abs=1 / 128)


def test_density_peak_follows_theta():
    # maximum at (-Lx theta_y / 2 pi, Ly theta_x / 2 pi) mod periods
    theta_x, theta_y = 1.1, 2.5
    cfg = make_cfg(1, theta_x=theta_x, theta_y=theta_y)
    st = torus_eigenstate(cfg, TorusLabel(0, 0), nx=160, ny=160)
    dm = density_map(st)
    assert dm.argmax_x == pytest.approx((-theta_y / TWO_PI) % 1.0, abs=2 / 160)
    assert dm.argmax_y == pytest.approx((theta_x / TWO_PI) % 1.0, abs=2 / 160)


def test_density_normalized_and_consistent():
    cfg = make_cfg(2)
    st = torus_eigenstate(cfg, TorusLabel(1, 0), nx=64, ny=64)
    dm = density_map(st)
    integral = dm.density[:-1, :-1].sum() * st.hx * st.hy
    assert integral == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n, coarse, fine", [(30, 16, 256), (200, 64, 512)])
def test_density_grid_holds_exact_samples(n, coarse, fine):
    # `density` applies no stencil, so a grid far coarser than the h^2 M w
    # rule (about 1600^2 at n = 200) still holds exact samples of the image
    # sum: 1.2e-15 (n = 30) and 4.8e-16 (n = 200) of the peak at the shared
    # points on a 2-CPU Xeon
    cfg = make_cfg(1, theta_x=0.7, theta_y=2.1)
    a = density_map(torus_eigenstate(cfg, TorusLabel(n, 0), coarse, coarse)).density
    b = density_map(torus_eigenstate(cfg, TorusLabel(n, 0), fine, fine)).density
    step = fine // coarse
    assert np.max(np.abs(a - b[::step, ::step])) < 1e-13 * np.max(b)


def test_degeneracy_index_shift_moves_density():
    # l -> l+1 shifts the pattern by -a_x (same physics as theta_y -> theta_y + 2 pi)
    cfg = make_cfg(3)
    n = 24 * 3
    d0 = density_map(torus_eigenstate(cfg, TorusLabel(0, 0), nx=n, ny=n)).density
    d1 = density_map(torus_eigenstate(cfg, TorusLabel(0, 1), nx=n, ny=n)).density
    shift = n // 3
    rolled = np.roll(d0[:-1, :-1], -shift, axis=0)
    assert np.max(np.abs(d1[:-1, :-1] - rolled)) < 1e-8 * d0.max()


def test_label_periodic_in_degeneracy_index():
    # l and l + n_phi give the same state up to a constant phase
    cfg = make_cfg(2)
    a = torus_eigenstate(cfg, TorusLabel(0, 0), nx=48, ny=48)
    b = torus_eigenstate(cfg, TorusLabel(0, 2), nx=48, ny=48)
    ov = torus_inner(a, b)
    assert abs(abs(ov) - 1.0) < 1e-10


def test_grid_commensurability_enforced():
    cfg = make_cfg(3)
    with pytest.raises(ValueError):
        SampledState(cfg, np.zeros((33, 34), dtype=complex))


# ---------------------------------------------------------------------------
# translation operators on the grid


@pytest.mark.parametrize("n_phi", [1, 2, 4])
def test_ty_power_n_phi_is_identity(n_phi):
    cfg = make_cfg(n_phi)
    st = torus_eigenstate(cfg, TorusLabel(1, 0), nx=16 * n_phi, ny=16 * n_phi)
    cycled = translate(st, "y", n_phi)
    assert np.max(np.abs(cycled.values - st.values)) < 1e-10
    cycled_x = translate(st, "x", n_phi)
    assert np.max(np.abs(cycled_x.values - st.values)) < 1e-10
    # a power is its steps composed, bit for bit, and power 0 is the state
    for direction in "xy":
        assert translate(st, direction, 0) is st
        stepped = st
        for power in range(1, 2 * n_phi + 1):
            stepped = translate(stepped, direction)
            assert translate(st, direction, power).values.tobytes() == stepped.values.tobytes()


@pytest.mark.parametrize("n_phi", [2, 3, 4])
def test_weyl_relation_pointwise(n_phi):
    cfg = make_cfg(n_phi)
    st = torus_eigenstate(cfg, TorusLabel(0, 1), nx=16 * n_phi, ny=16 * n_phi)
    lhs = translate(translate(st, "x"), "y").values
    rhs = np.exp(TWO_PI * 1j / n_phi) * translate(translate(st, "y"), "x").values
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(st.values))


def test_translations_are_unitary_on_grid():
    cfg = make_cfg(3)
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(49, 49)) + 1j * rng.normal(size=(49, 49))
    st = SampledState(cfg, raw)
    for direction in "xy":
        moved = translate(st, direction)
        assert torus_inner(moved, moved).real == pytest.approx(torus_inner(st, st).real, rel=1e-12)


def random_grid_state(cfg, cells, seed):
    """A state with random core values on the grid: no eigenstate of
    anything and no boundary condition; the boundary lines are noise too."""
    rng = np.random.default_rng(seed)
    shape = (cfg.n_phi * cells[0] + 1, cfg.n_phi * cells[1] + 1)
    return SampledState(cfg, rng.normal(size=shape) + 1j * rng.normal(size=shape))


grid_state_args = dict(
    n_phi=strategies.integers(min_value=1, max_value=4),
    angles=strategies.tuples(strategies.floats(-TWO_PI, TWO_PI), strategies.floats(-TWO_PI, TWO_PI)),
    aspect=strategies.floats(min_value=0.5, max_value=2.0),
    cells=strategies.tuples(strategies.integers(1, 8), strategies.integers(1, 8)),
    seed=strategies.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(**grid_state_args)
def test_translations_unitary_property(n_phi, angles, aspect, cells, seed):
    side = math.sqrt(aspect)
    cfg = make_cfg(n_phi, theta_x=angles[0], theta_y=angles[1], lx=side, ly=1.0 / side)
    a = random_grid_state(cfg, cells, seed)
    b = random_grid_state(cfg, cells, seed + 1)
    scale = torus_norm(a) * torus_norm(b)
    for direction in "xy":
        moved = torus_inner(translate(a, direction), translate(b, direction))
        assert abs(moved - torus_inner(a, b)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(**grid_state_args)
def test_weyl_relation_property(n_phi, angles, aspect, cells, seed):
    side = math.sqrt(aspect)
    cfg = make_cfg(n_phi, theta_x=angles[0], theta_y=angles[1], lx=side, ly=1.0 / side)
    st = random_grid_state(cfg, cells, seed)
    lhs = translate(translate(st, "x"), "y").values
    rhs = np.exp(TWO_PI * 1j / n_phi) * translate(translate(st, "y"), "x").values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(st.values))


@pytest.mark.parametrize("n_phi", [1, 2, 3, 4])
def test_tx_ladder_with_convention_phase(n_phi):
    # T_x |n l> = exp(-i theta_x/n_phi) |n l+1>, with an extra exp(i theta_x)
    # when l wraps around (frozen convention of the as-written lattice sum)
    cfg = make_cfg(n_phi, theta_x=0.8, theta_y=1.7)
    nx = ny = 24 * n_phi
    states = [torus_eigenstate(cfg, TorusLabel(1, l), nx=nx, ny=ny) for l in range(n_phi)]
    for l in range(n_phi):
        moved = translate(states[l], "x")
        target = states[(l + 1) % n_phi]
        ov = torus_inner(target, moved)
        assert abs(abs(ov) - 1.0) < 1e-8
        expected_phase = -cfg.theta_x / n_phi + (cfg.theta_x if l == n_phi - 1 else 0.0)
        assert ov == pytest.approx(np.exp(1j * expected_phase), abs=1e-8)


@pytest.mark.parametrize("n_phi", [1, 2, 3, 4])
def test_ty_eigenvalue(n_phi):
    cfg = make_cfg(n_phi, theta_x=2.2, theta_y=0.4)
    nx = ny = 24 * n_phi
    for l in range(n_phi):
        st = torus_eigenstate(cfg, TorusLabel(0, l), nx=nx, ny=ny)
        ov = torus_inner(st, translate(st, "y"))
        assert ov == pytest.approx(np.exp(TWO_PI * 1j * l / n_phi), abs=1e-8)


def test_ty_lowers_lx_label():
    cfg = make_cfg(3)
    nx = ny = 24 * 3
    states = [torus_eigenstate(cfg, TorusLabel(0, l, "lx"), nx=nx, ny=ny) for l in range(3)]
    for l in range(3):
        moved = translate(states[l], "y")
        ov = torus_inner(states[(l - 1) % 3], moved)
        assert abs(abs(ov) - 1.0) < 1e-8


def test_tx_eigenvalue_in_lx_basis():
    cfg = make_cfg(3, theta_x=0.9, theta_y=2.1)
    nx = ny = 24 * 3
    for l in range(3):
        st = torus_eigenstate(cfg, TorusLabel(0, l, "lx"), nx=nx, ny=ny)
        ov = torus_inner(st, translate(st, "x"))
        assert ov == pytest.approx(np.exp(TWO_PI * 1j * l / 3), abs=1e-8)


# ---------------------------------------------------------------------------
# finite-difference operators


def test_hamiltonian_eigen_residual_level_one():
    cfg = make_cfg(1)
    st = torus_eigenstate(cfg, TorusLabel(1, 0), nx=256, ny=256)
    assert eigenvalue_residual("H", st, 1.5) < 1e-6 / cfg.omega


def test_energy_independent_of_degeneracy_label():
    # the Rayleigh quotient <H> must hit n + 1/2 (hbar*omega) for every l at the
    # same tolerance; any genuine l-dependence would show up as a spread
    # beyond the measurement accuracy
    cfg = make_cfg(3)
    energies = []
    for l in range(3):
        st = torus_eigenstate(cfg, TorusLabel(0, l), nx=144, ny=144)
        energies.append(expectation("H", st).real)
    target = 0.5
    assert max(abs(e - target) for e in energies) < 2e-4 * target
    assert max(energies) - min(energies) < 2e-4 * target


def test_center_commutator_on_torus_state():
    # [Rx, Ry] = i/(eB) pointwise in the interior (margin for the second
    # finite-difference application at the seams)
    cfg = make_cfg(1)
    st = torus_coherent(cfg, CoherentLabel(0.2 + 0.1j, 0.3 - 0.2j), nx=128, ny=128)
    comm = apply_operator("Rx", apply_operator("Ry", st)).core - apply_operator(
        "Ry", apply_operator("Rx", st)
    ).core
    margin = 5
    window = comm[margin:-margin, margin:-margin]
    base = st.core[margin:-margin, margin:-margin]
    res = np.linalg.norm(window - (1j / cfg.mass_omega) * base) / np.linalg.norm(base)
    assert res < 1e-6


def test_annihilation_eigenvalue_on_coherent():
    cfg = make_cfg(1)
    lab = CoherentLabel(0.4 + 0.3j, 0.2 - 0.5j)
    st = torus_coherent(cfg, lab, nx=128, ny=128)
    twists = (x_boundary_twist(cfg, st.ys[:-1]), y_boundary_twist(cfg))
    assert covariant_eigen_residual("a", st, lab.lam, *twists) < 1e-6


# "Q" and the operators that only tests/oracles.py implements
@pytest.mark.parametrize("op", ("Q", "L", "Px", "Py", "a", "adag", "b", "bdag"))
def test_unknown_operator_rejected(op):
    cfg = make_cfg(1)
    st = torus_eigenstate(cfg, TorusLabel(0, 0), nx=32, ny=32)
    with pytest.raises(ValueError):
        apply_operator(op, st)


# ---------------------------------------------------------------------------
# torus coherent states


def reference_coherent(cfg, c, nx, ny):
    """The per-image double loop that the separable sum replaced: one
    full-grid complex exponential per (kx, ky) image term."""
    xs, ys = grid_axes(cfg, nx, ny)
    raw = coherent_raw(cfg, c)
    s2 = math.sqrt(2.0 / cfg.mass_omega)
    cx = s2 * (c.lam + c.lam_prime).real
    cy = s2 * (c.lam_prime.imag - c.lam.imag)
    decay = cfg.mass_omega / 4.0
    values = np.zeros((nx + 1, ny + 1), dtype=complex)
    x2 = xs[:, None]
    y2 = ys[None, :]
    for kx in image_range(cx, -cfg.lx, 0.0, cfg.lx, decay):
        for ky in image_range(cy, -cfg.ly, 0.0, cfg.ly, decay):
            phase = np.exp(
                TWO_PI * 1j * cfg.n_phi * kx * y2 / cfg.ly
                - 1j * (kx * cfg.theta_x + ky * cfg.theta_y)
            )
            values += phase * raw(x2 + kx * cfg.lx, y2 + ky * cfg.ly)
    return normalized(SampledState(cfg, values))


def assert_matches_reference(cfg, lab, nx, ny):
    got = torus_coherent(cfg, lab, nx=nx, ny=ny).values
    want = reference_coherent(cfg, lab, nx, ny).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n_phi", [1, 2, 3, 4])
@pytest.mark.parametrize("lx, ly", [(1.0, 1.0), (1.3, 0.8)])
@pytest.mark.parametrize(
    "lam, lam_prime",
    # |lam + lam'| ~ 3 puts the packet center outside the fundamental domain
    [(0.0, 0.0), (0.5 - 0.2j, -0.3 + 0.4j), (1.6 + 0.3j, 1.4 - 0.5j)],
)
def test_coherent_separable_sum_matches_image_loop(n_phi, lx, ly, lam, lam_prime):
    cfg = make_cfg(n_phi, lx=lx, ly=ly)
    assert_matches_reference(cfg, CoherentLabel(lam, lam_prime), 16 * n_phi, 24 * n_phi)


label_part = strategies.floats(min_value=-1.5, max_value=1.5)


@settings(max_examples=25, deadline=None)
@given(
    n_phi=strategies.integers(min_value=1, max_value=4),
    angles=strategies.tuples(strategies.floats(-TWO_PI, TWO_PI), strategies.floats(-TWO_PI, TWO_PI)),
    aspect=strategies.floats(min_value=0.5, max_value=2.0),
    label=strategies.tuples(label_part, label_part, label_part, label_part),
    cells=strategies.tuples(strategies.integers(4, 12), strategies.integers(4, 12)),
)
def test_coherent_separable_sum_property(n_phi, angles, aspect, label, cells):
    side = math.sqrt(aspect)
    cfg = make_cfg(n_phi, theta_x=angles[0], theta_y=angles[1], lx=side, ly=1.0 / side)
    lab = CoherentLabel(complex(label[0], label[1]), complex(label[2], label[3]))
    assert_matches_reference(cfg, lab, n_phi * cells[0], n_phi * cells[1])


def test_coherent_identity_at_unit_flux():
    # lambda = 0 with n_phi = 1 is the unique ground state in either basis
    cfg = make_cfg(1, theta_x=2.0, theta_y=0.7)
    coh = torus_coherent(cfg, CoherentLabel(0.0, 0.35 - 0.15j), nx=96, ny=96)
    for basis in ("ly", "lx"):
        ground = torus_eigenstate(cfg, TorusLabel(0, 0, basis), nx=96, ny=96)
        assert abs(abs(torus_inner(ground, coh)) - 1.0) < 1e-8


def test_coherent_energy_expectation():
    cfg = make_cfg(1)
    lab = CoherentLabel(0.3 + 0.2j, 0.1 + 0.1j)
    st = torus_coherent(cfg, lab, nx=128, ny=128)
    target = abs(lab.lam) ** 2 + 0.5
    assert abs(expectation("H", st) - target) < 1e-5 * target


def test_coherent_boundary_residual():
    for n_phi in (1, 2, 3):
        cfg = make_cfg(n_phi)
        st = torus_coherent(cfg, CoherentLabel(0.5 - 0.2j, -0.3 + 0.4j), nx=32 * n_phi, ny=32 * n_phi)
        assert boundary_residual(st) < 1e-8


def test_time_evolution_stays_coherent_vs_eigenbasis():
    # reconstructing from the evolved label must match evolving the initial
    # state through the eigenbasis, up to a global phase
    cfg = make_cfg(1)
    lab = CoherentLabel(0.45, 0.2 + 0.3j)
    nx = ny = 96
    start = torus_coherent(cfg, lab, nx=nx, ny=ny)
    t = 0.6 * TWO_PI / cfg.omega
    # each |n l> component with n <= 10 picks up exp(-i omega (n + 1/2) t);
    # the weight above n = 10 is negligible at |lambda| = 0.45
    evolved = np.zeros_like(start.values)
    for n in range(11):
        for l in range(cfg.n_phi):
            basis_state = torus_eigenstate(cfg, TorusLabel(n, l), nx=nx, ny=ny)
            amp = torus_inner(basis_state, start)
            evolved += amp * np.exp(-1j * cfg.omega * (n + 0.5) * t) * basis_state.values
    evolved_exact = SampledState(cfg, evolved)
    rebuilt = torus_coherent(cfg, evolve_coherent(cfg, lab, t), nx=nx, ny=ny)
    ov = torus_inner(evolved_exact, rebuilt)
    assert abs(abs(ov) - 1.0) < 1e-5


# ---------------------------------------------------------------------------
# translation expectations and the lattice-sum prefactors


def test_translation_expectation_normalization():
    cfg = make_cfg(2)
    st = torus_coherent(cfg, CoherentLabel(0.2, 0.3 + 0.1j), nx=64, ny=64)
    assert translation_expectation(st, "x", 0) == pytest.approx(1.0, abs=1e-12)


def test_translation_argument_validation():
    cfg = make_cfg(2)
    st = torus_eigenstate(cfg, TorusLabel(0, 0), nx=32, ny=32)
    with pytest.raises(ValueError):
        translate(st, "x", -1)
    with pytest.raises(ValueError):
        translate(st, "z", 1)


@pytest.mark.parametrize("direction", ["x", "y"])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_translation_expectation_matches_series(direction, l):
    # anisotropic torus so the Lx/Ly roles in the closed form are exercised
    cfg = TorusConfig(1.3, 1.0, lx=1.0, ly=1.7, n_phi=2, theta_x=0.9, theta_y=2.3)
    lab = CoherentLabel(0.3 - 0.2j, 0.45 + 0.35j)
    st = torus_coherent(cfg, lab, nx=128, ny=192)
    quad = translation_expectation(st, direction, l)
    series = coherent_translation_series(
        cfg, lab, lx=l if direction == "x" else 0, ly=l if direction == "y" else 0
    )
    assert abs(quad - series) < 1e-10


def test_translation_series_equals_term_by_term_sum():
    # the series with its per-term constants hoisted, against every term
    # computed anew: the same floating-point operations, bit for bit
    from landau.plane import coherent_center

    for cfg, lab in (
        (make_cfg(1), CoherentLabel(0.35 + 0.2j, 0.3 - 0.4j)),
        (make_cfg(3, 0.7, 2.1, lx=1.3, ly=0.77), CoherentLabel(-0.2 + 0.5j, 0.1 + 0.1j)),
    ):
        mw = cfg.mass_omega

        def term(lx, ly):
            rx, ry = coherent_center(cfg, lab)
            gauss = math.exp(-(math.pi**2 / mw) * (lx**2 / cfg.ly**2 + ly**2 / cfg.lx**2))
            phase = (
                -math.pi * lx * ly / cfg.n_phi
                + (TWO_PI * ry / cfg.ly - cfg.theta_x / cfg.n_phi) * lx
                - (TWO_PI * rx / cfg.lx + cfg.theta_y / cfg.n_phi) * ly
            )
            return gauss * complex(math.cos(phase), math.sin(phase))

        n, mm = cfg.n_phi, _series_reach(cfg)
        for lx, ly in ((1, 0), (0, 2), (1, 1)):
            num = den = 0.0 + 0.0j
            for mx in range(-mm, mm + 1):
                for my in range(-mm, mm + 1):
                    num += term(n * mx + lx, n * my + ly)
                    den += term(n * mx, n * my)
            assert coherent_translation_series(cfg, lab, lx=lx, ly=ly) == complex(num / den)


def test_phase_recovers_center_modulo_periods():
    cfg = make_cfg(2, theta_x=0.9, theta_y=2.3)
    lab = CoherentLabel(0.25 + 0.15j, 0.5 - 0.3j)
    st = torus_coherent(cfg, lab, nx=128, ny=128)
    from landau.plane import coherent_center

    rx, ry = coherent_center(cfg, lab)
    t1 = translation_expectation(st, "x", 1)
    b1 = coherent_prefactor(cfg, lab, 1, "x", coherent_translation_series(cfg, lab, lx=1))
    ry_rec = (np.angle(t1 / b1) + cfg.theta_x / cfg.n_phi) * cfg.ly / TWO_PI % cfg.ly
    assert ry_rec == pytest.approx(ry % cfg.ly, abs=1e-6)
    t1y = translation_expectation(st, "y", 1)
    b1y = coherent_prefactor(cfg, lab, 1, "y", coherent_translation_series(cfg, lab, ly=1))
    rx_rec = (-np.angle(t1y / b1y) - cfg.theta_y / cfg.n_phi) * cfg.lx / TWO_PI % cfg.lx
    assert rx_rec == pytest.approx(rx % cfg.lx, abs=1e-6)


def test_modulus_matches_prefactor():
    cfg = make_cfg(2, theta_x=1.4, theta_y=0.3)
    lab = CoherentLabel(0.1 + 0.4j, -0.2 + 0.25j)
    st = torus_coherent(cfg, lab, nx=128, ny=128)
    for l in (1, 2, 3):
        quad = translation_expectation(st, "x", l)
        b = coherent_prefactor(cfg, lab, l, "x", coherent_translation_series(cfg, lab, lx=l))
        assert abs(abs(quad) - abs(b)) < 1e-8


# ---------------------------------------------------------------------------
# subspace comparisons


def test_projector_distance_identical_sets():
    cfg = make_cfg(2)
    states = [torus_eigenstate(cfg, TorusLabel(0, l), nx=48, ny=48) for l in range(2)]
    assert projector_distance(states, states) < 1e-12


@pytest.mark.parametrize("n_phi", [1, 2, 3])
def test_lx_and_ly_bases_span_same_level(n_phi):
    cfg = make_cfg(n_phi)
    nx = ny = 32 * n_phi
    for n in range(2):
        set_ly = [torus_eigenstate(cfg, TorusLabel(n, l, "ly"), nx=nx, ny=ny) for l in range(n_phi)]
        set_lx = [torus_eigenstate(cfg, TorusLabel(n, l, "lx"), nx=nx, ny=ny) for l in range(n_phi)]
        assert projector_distance(set_ly, set_lx) < 1e-8


def test_distinct_levels_are_orthogonal_subspaces():
    cfg = make_cfg(2)
    nx = ny = 64
    level0 = [torus_eigenstate(cfg, TorusLabel(0, l), nx=nx, ny=ny) for l in range(2)]
    level1 = [torus_eigenstate(cfg, TorusLabel(1, l), nx=nx, ny=ny) for l in range(2)]
    assert projector_distance(level0, level1) == pytest.approx(1.0, abs=1e-8)


def random_family(cfg, rng, count, nx=24, ny=16, basis=None):
    """count seeded random states on the nx x ny grid, orthonormal under the
    grid inner product; with basis, its first columns span basis's span."""
    h = math.sqrt(cfg.lx / nx * cfg.ly / ny)
    cols = rng.normal(size=(nx * ny, count)) + 1j * rng.normal(size=(nx * ny, count))
    if basis is not None:
        cols[:, : len(basis)] = np.stack([s.core.ravel() * h for s in basis], axis=1)
    q = np.linalg.qr(cols)[0] / h
    states = []
    for col in q.T:
        values = np.zeros((nx + 1, ny + 1), dtype=complex)
        values[:-1, :-1] = col.reshape(nx, ny)
        states.append(SampledState(cfg, values))
    return states


def two_sided_distance(set_a, set_b):
    """max(|(I - P_A) V_B|, |(I - P_B) V_A|) by SVD of the grid vectors."""
    def matrix(states):
        return np.stack([s.core.ravel() * math.sqrt(s.hx * s.hy) for s in states], axis=1)

    va, vb = matrix(set_a), matrix(set_b)

    def side(u, v):
        return np.linalg.norm(v - u @ (u.conj().T @ v), 2)

    return max(side(va, vb), side(vb, va))


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_projector_distance_one_side_matches_two_sided(count):
    cfg = make_cfg(2)
    rng = np.random.default_rng(27 + count)
    set_a = random_family(cfg, rng, count)
    far = random_family(cfg, rng, count)
    # set_a turned by a small random unitary, then mixed with a tiny
    # component off its span: a distance of about 1e-3
    near = random_family(cfg, rng, 2 * count, basis=set_a)
    mixed = [SampledState(cfg, a.values + 1e-3 * b.values) for a, b in zip(set_a, near[count:])]
    close = random_family(cfg, rng, count, basis=mixed)
    for set_b in (far, close):
        got = projector_distance(set_a, set_b)
        assert got == pytest.approx(two_sided_distance(set_a, set_b), abs=1e-14)
        assert got == pytest.approx(projector_distance(set_b, set_a), abs=1e-14)
    assert 1e-4 < projector_distance(set_a, close) < 1e-2


def test_projector_distance_of_unequal_families_is_one():
    # span(small) lies inside span(large): (I - P_large) V_small = 0 but
    # (I - P_small) V_large has norm 1, the distance, in either argument order
    cfg = make_cfg(2)
    rng = np.random.default_rng(5)
    small = random_family(cfg, rng, 2)
    large = random_family(cfg, rng, 3, basis=small)
    # and for two unrelated families of sizes 1 and 4
    one, four = random_family(cfg, rng, 1), random_family(cfg, rng, 4)
    for set_a, set_b in ((small, large), (large, small), (one, four), (four, one)):
        assert projector_distance(set_a, set_b) == pytest.approx(1.0, abs=1e-12)
        assert two_sided_distance(set_a, set_b) == pytest.approx(1.0, abs=1e-12)


def test_projector_distance_sees_a_dropped_theta_x():
    # the 'lx' family of the torus with theta_x = 0 spans another subspace
    cfg = make_cfg(2, theta_x=0.7, theta_y=2.1)
    nx, ny = default_grid(cfg)
    set_ly = torus_eigenstates(cfg, [TorusLabel(0, l) for l in range(2)], nx, ny)
    lx_labels = [TorusLabel(0, l, "lx") for l in range(2)]
    dropped = [SampledState(cfg, s.values) for s in torus_eigenstates(replace(cfg, theta_x=0.0), lx_labels, nx, ny)]
    assert projector_distance(set_ly, torus_eigenstates(cfg, lx_labels, nx, ny)) < 1e-8
    assert projector_distance(set_ly, dropped) > 0.1


def test_projector_distance_requires_orthonormal_input():
    cfg = make_cfg(1)
    st = torus_eigenstate(cfg, TorusLabel(0, 0), nx=32, ny=32)
    doubled = SampledState(cfg, 2.0 * st.values)
    with pytest.raises(ValueError):
        projector_distance([doubled], [st])


# ---------------------------------------------------------------------------
# serialization formats


def test_state_and_density_files(tmp_path):
    from landau.serialize import write_density_csv, write_pgm

    cfg = make_cfg(1)
    st = torus_eigenstate(cfg, TorusLabel(0, 0), nx=8, ny=8)
    dm = density_map(st)
    density_csv = tmp_path / "density.csv"
    pgm = tmp_path / "density.pgm"
    write_density_csv(dm, density_csv)
    write_pgm(dm, pgm)

    dlines = density_csv.read_text().splitlines()
    assert dlines[0] == "x,y,density"
    assert len(dlines) == 1 + 9 * 9
    x, y, d = map(float, dlines[1].split(","))
    assert (x, y) == (0.0, 0.0)
    assert d == dm.density[0, 0]

    plines = pgm.read_text().splitlines()
    assert plines[0] == "P2"
    assert plines[1] == "9 9"
    assert plines[2] == "255"
    pixels = [int(v) for row in plines[3:] for v in row.split()]
    assert len(pixels) == 81
    assert max(pixels) == 255 and min(pixels) >= 0
