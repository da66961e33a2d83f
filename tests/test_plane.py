import math

import numpy as np
import pytest

from landau.config import InfiniteConfig
from landau.finitediff import apply_fd_operator
from landau.oscillator import hermite_eigenfunction
from landau.plane import (
    ClassicalOrbit,
    CoherentLabel,
    classical_orbit_trace,
    coherent_expectations,
    eigenstate_py,
    evolve_coherent,
    landau_energy,
)
from oracles import (
    FockLabel,
    PlaneOperators,
    coherent_amplitude,
    coherent_moments_by_quadrature,
    coherent_raw,
    covariant_fd_operator,
    eigenstate_px,
    interior,
    ladder_apply,
    plane_box,
    reference_fd_operator,
    sample_plane,
)

CFG = InfiniteConfig(mass=1.0, charge=1.0, b_field=4.0)


# ---------------------------------------------------------------------------
# spectrum


def test_landau_energy_examples():
    assert landau_energy(InfiniteConfig(1, 1, 1), 0) == 0.5
    assert landau_energy(InfiniteConfig(1, 1, 2), 3) == 7.0
    with pytest.raises(ValueError):
        landau_energy(CFG, -1)


def test_energy_spacing_is_omega():
    for n in range(12):
        assert landau_energy(CFG, n + 1) - landau_energy(CFG, n) == pytest.approx(
            CFG.omega, rel=1e-15
        )


# ---------------------------------------------------------------------------
# eigenstates


def test_eigenstate_py_phase_convention():
    state = eigenstate_py(CFG, 0, 0.0)
    val = complex(state(0.0, 0.0))
    assert val.imag == 0.0
    assert val.real > 0
    assert val.real == pytest.approx(float(hermite_eigenfunction(CFG.mass_omega, 0, 0.0)), rel=1e-14)


def test_eigenstate_py_shift_property():
    s = 0.37
    p_y = CFG.mass_omega * s
    shifted = eigenstate_py(CFG, 2, p_y)
    base = eigenstate_py(CFG, 2, 0.0)
    xs = np.linspace(-2, 2, 41)
    ys = np.linspace(-1, 1, 21)
    lhs = sample_plane(shifted, xs, ys)
    rhs = sample_plane(base, xs + s, ys) * np.exp(1j * p_y * ys)[None, :]
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("n,p_y", [(0, 0.0), (1, 0.8), (3, -0.5)])
def test_eigenstate_py_energy_residual(n, p_y):
    xs, ys = plane_box(CFG, -p_y / CFG.mass_omega, 0.0, half_width_units=9 + math.sqrt(2 * n + 1))
    values = sample_plane(eigenstate_py(CFG, n, p_y), xs, ys)
    # H in units of hbar*omega: E/omega = n + 1/2
    h_values = apply_fd_operator("H", values, xs, ys, xs[1] - xs[0], ys[1] - ys[0], CFG)
    res = interior(h_values - landau_energy(CFG, n) / CFG.omega * values, 4)
    assert np.linalg.norm(res) / np.linalg.norm(interior(values, 4)) < 1e-6 / CFG.omega


@pytest.mark.parametrize("n,p_x", [(0, 0.0), (2, 0.6)])
def test_eigenstate_px_energy_residual(n, p_x):
    # extended along x (plane wave), localized in y: keep the x window
    # narrow so the e^{-ieBxy} phase stays resolved at the stated spacing
    xs, ys = plane_box(
        CFG,
        0.0,
        p_x / CFG.mass_omega,
        half_width_units=1.0,
        half_width_units_y=9 + math.sqrt(2 * n + 1),
    )
    values = sample_plane(eigenstate_px(CFG, n, p_x), xs, ys)
    h_values = apply_fd_operator("H", values, xs, ys, xs[1] - xs[0], ys[1] - ys[0], CFG)
    res = interior(h_values - landau_energy(CFG, n) / CFG.omega * values, 4)
    assert np.linalg.norm(res) / np.linalg.norm(interior(values, 4)) < 1e-6 / CFG.omega


def test_eigenstate_px_at_origin():
    state = eigenstate_px(CFG, 0, 0.0)
    assert complex(state(0.0, 0.0)).real == pytest.approx(
        float(hermite_eigenfunction(CFG.mass_omega, 0, 0.0)), rel=1e-14
    )


def test_px_py_eigenstates_overlap_within_level():
    # same Landau level: the two labelings span the same subspace, so the
    # grid overlap must be nonzero
    xs, ys = plane_box(CFG, 0.0, 0.0, half_width_units=9)
    a = sample_plane(eigenstate_py(CFG, 1, 0.0), xs, ys)
    b = sample_plane(eigenstate_px(CFG, 1, 0.0), xs, ys)
    h = xs[1] - xs[0]
    overlap = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert overlap > 1e-3


# ---------------------------------------------------------------------------
# ladder algebra on Fock labels (`oracles.FockLabel`, `oracles.ladder_apply`)


def test_vacuum_annihilation():
    vac = {FockLabel(0, 0): 1.0}
    assert ladder_apply("a", vac) == {}
    assert ladder_apply("b", vac) == {}


def test_raising_from_vacuum():
    out = ladder_apply("adag", {FockLabel(0, 0): 1.0})
    assert out == {FockLabel(1, 0): pytest.approx(1.0)}


def random_fock_map(rng, terms=20):
    out = {}
    for _ in range(terms):
        lab = FockLabel(int(rng.integers(0, 7)), int(rng.integers(0, 7)))
        out[lab] = complex(rng.normal(), rng.normal())
    return out


def map_diff_norm(a, b):
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)


def commutator_map(p, q, state):
    pq = ladder_apply(p, ladder_apply(q, state))
    qp = ladder_apply(q, ladder_apply(p, state))
    return {k: pq.get(k, 0.0) - qp.get(k, 0.0) for k in set(pq) | set(qp)}


@pytest.mark.parametrize(
    "p,q,expected",
    [("a", "adag", 1.0), ("b", "bdag", 1.0), ("a", "b", 0.0), ("a", "bdag", 0.0)],
)
def test_ladder_commutators(p, q, expected):
    rng = np.random.default_rng(5)
    for _ in range(5):
        state = random_fock_map(rng)
        comm = commutator_map(p, q, state)
        want = {k: expected * v for k, v in state.items()} if expected else {}
        assert map_diff_norm(comm, want) < 1e-12


def test_fock_energy_and_angular_momentum():
    cfg1 = InfiniteConfig(1, 1, 1)
    label = FockLabel(0, 3)
    assert (landau_energy(cfg1, label.n), label.angular_momentum) == (pytest.approx(0.5), -3)
    label = FockLabel(2, 0)
    assert landau_energy(cfg1, label.n) == pytest.approx(2.5)
    assert label.angular_momentum == 2


def test_hamiltonian_splits_into_oscillator_plus_rotation():
    # omega*(n' + 1/2) + omega*(n - n') recombines to omega*(n + 1/2)
    rng = np.random.default_rng(2)
    for _ in range(30):
        lab = FockLabel(int(rng.integers(0, 9)), int(rng.integers(0, 9)))
        h0 = CFG.omega * (lab.n_prime + 0.5)
        assert h0 + CFG.omega * lab.angular_momentum == pytest.approx(landau_energy(CFG, lab.n), rel=1e-14)


def test_ladders_shift_energy_and_angular_momentum():
    lab = FockLabel(2, 1)
    up = ladder_apply("adag", {lab: 1.0})
    (new_lab,) = up.keys()
    e0, m0 = landau_energy(CFG, lab.n), lab.angular_momentum
    assert new_lab.angular_momentum == m0 + 1 and landau_energy(CFG, new_lab.n) == pytest.approx(e0 + CFG.omega)
    down_m = ladder_apply("bdag", {lab: 1.0})
    (new_lab,) = down_m.keys()
    assert new_lab.angular_momentum == m0 - 1 and landau_energy(CFG, new_lab.n) == pytest.approx(e0)


# ---------------------------------------------------------------------------
# coherent states


def test_coherent_ground_state_moments():
    # lambda = lambda' = 0: centered Gaussian with Var(x) = Var(y) = 1/(M w)
    # (center spread and radius spread add in quadrature)
    amp = coherent_amplitude(CFG, CoherentLabel(0.0, 0.0))
    xs, ys = plane_box(CFG, 0.0, 0.0)
    values = sample_plane(amp, xs, ys)
    h = xs[1] - xs[0]
    d = np.abs(values) ** 2
    norm = d.sum() * h * h
    assert norm == pytest.approx(1.0, abs=1e-8)
    mean_x = (d * xs[:, None]).sum() * h * h / norm
    var_x = (d * xs[:, None] ** 2).sum() * h * h / norm - mean_x**2
    assert abs(mean_x) < 1e-9
    assert var_x == pytest.approx(1.0 / CFG.mass_omega, rel=1e-8)


@pytest.mark.parametrize("lam,lamp", [(0.45 + 0.25j, -0.3 + 0.5j), (1.5 - 0.8j, 0.9 + 1.2j)])
def test_coherent_closed_form_constant_gives_unit_norm(lam, lamp):
    # the sampled norm checks the closed-form constant, which away from
    # lam = lam' = 0 carries the factor exp(-((Re s)^2 + (Im d)^2) / 2)
    s2 = math.sqrt(2.0 / CFG.mass_omega)
    xs, ys = plane_box(CFG, s2 * (lam + lamp).real, s2 * (lamp.imag - lam.imag))
    values = sample_plane(coherent_amplitude(CFG, CoherentLabel(lam, lamp)), xs, ys)
    h = xs[1] - xs[0]
    assert (np.abs(values) ** 2).sum() * h * h == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "lam,lamp",
    [(0.4 + 0.3j, -0.2 + 0.5j), (0.0, 0.7 - 0.1j)],
)
def test_coherent_is_joint_ladder_eigenstate(lam, lamp):
    label = CoherentLabel(lam, lamp)
    amp = coherent_amplitude(CFG, label)
    s2 = math.sqrt(2.0 / CFG.mass_omega)
    cx = s2 * (lam + lamp).real
    cy = s2 * (lamp.imag - lam.imag)
    xs, ys = plane_box(CFG, cx, cy)
    values = sample_plane(amp, xs, ys)
    for oracle, op, eig in ((covariant_fd_operator, "a", lam), (reference_fd_operator, "b", lamp)):
        applied = oracle(op, values, xs, ys, CFG)
        res = interior(applied - eig * values, 4)
        assert np.linalg.norm(res) / np.linalg.norm(interior(values, 4)) < 1e-6


def test_coherent_expectations_closed_forms():
    label = CoherentLabel(0.3 - 0.2j, 0.5 + 0.4j)
    ex = coherent_expectations(CFG, label)
    mw = CFG.mass_omega
    assert ex.center_x == pytest.approx(math.sqrt(2 / mw) * 0.5)
    assert ex.center_y == pytest.approx(math.sqrt(2 / mw) * 0.4)
    assert ex.spread_center_x == pytest.approx(1 / math.sqrt(2 * mw))
    assert ex.energy == pytest.approx(CFG.omega * (abs(label.lam) ** 2 + 0.5))
    assert ex.spread_energy == pytest.approx(CFG.omega * abs(label.lam))


def test_coherent_zero_orbit_amplitude_is_ground_state():
    ex = coherent_expectations(CFG, CoherentLabel(0.0, 1.0 + 0.0j))
    assert ex.energy == pytest.approx(CFG.omega / 2)
    assert ex.spread_energy == 0.0


@pytest.mark.parametrize(
    "lam,lamp,mw", [(0.3 + 0.2j, -0.1 + 0.4j, 1.0), (-0.8 + 0.05j, 0.6 - 0.7j, 6.283185307179586), (0.0, 0.0, 2.5)]
)
def test_coherent_raw_matches_complex_expression_bit_for_bit(lam, lamp, mw):
    # pins the bits of numpy's complex evaluation of the exponent, up to the
    # sign of a zero, against any rewrite of coherent_raw
    cfg = InfiniteConfig(mass=1.0, charge=1.0, b_field=mw)
    pre = math.sqrt(mw / 2.0)
    rng = np.random.default_rng(4)
    xs = np.concatenate((0.013 * np.arange(-40, 41), rng.uniform(-9.0, 9.0, 60)))
    ys = np.concatenate((0.017 * np.arange(-30, 31), rng.uniform(-9.0, 9.0, 50)))
    x, y = xs[:, None], ys[None, :]
    want = np.exp(-0.25 * mw * (x * x + 2j * x * y + y * y) + pre * (x * (lam + lamp) + 1j * y * (lam - lamp)))
    got = coherent_raw(cfg, CoherentLabel(lam, lamp))(x, y)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal((got + 0.0).view(np.uint64), (want + 0.0).view(np.uint64))
    assert got[40, 30] == 1.0  # x = y = 0


def test_coherent_center_plugin():
    cfg = InfiniteConfig(mass=1.0, charge=1.0, b_field=2.0)  # M w = e B = 2
    assert cfg.mass_omega == 2.0
    ex = coherent_expectations(cfg, CoherentLabel(0.0, 1.0 + 0.0j))
    assert ex.center_x == pytest.approx(1.0)
    assert ex.center_y == pytest.approx(0.0)


def test_all_fourteen_moments_by_quadrature():
    label = CoherentLabel(0.45 + 0.25j, -0.3 + 0.5j)
    closed = coherent_expectations(CFG, label).as_dict()
    amp = coherent_amplitude(CFG, label)
    s2 = math.sqrt(2.0 / CFG.mass_omega)
    cx = s2 * (label.lam + label.lam_prime).real
    cy = s2 * (label.lam_prime.imag - label.lam.imag)
    measured = coherent_moments_by_quadrature(CFG, amp, (cx, cy))
    assert set(measured) == set(closed)
    for key, value in closed.items():
        assert measured[key] == pytest.approx(value, abs=1e-6), key


def test_evolution_identity_and_periodicity():
    label = CoherentLabel(0.3 + 0.1j, 0.2 - 0.2j)
    assert evolve_coherent(CFG, label, 0.0) == label
    period = 2 * math.pi / CFG.omega
    evolved = evolve_coherent(CFG, label, period)
    assert evolved.lam == pytest.approx(label.lam, abs=1e-12)
    assert evolved.lam_prime == label.lam_prime


def _bits(v):
    return float(v).hex(), math.copysign(1.0, float(v))


LABELS = [0.3 - 0.8j, 0j, 0.0, -0.0 + 0.0j, 1.5, -0.45 + 0.25j, 2.0e-8 + 3.0e5j]


@pytest.mark.parametrize("lam", LABELS)
def test_scalar_evolution_equals_complex_product(lam):
    # lambda(t) = lambda * exp(-i w t) in numpy scalar arithmetic, bit for bit
    label = CoherentLabel(lam, 0.2 - 0.1j)
    for t in (0.0, 0.37, 5.0, -1.25, 1.0e3):
        expected = lam * np.exp(-1j * CFG.omega * t)
        got = evolve_coherent(CFG, label, t).lam
        assert isinstance(got, np.complex128)
        assert _bits(got.real) == _bits(expected.real) and _bits(got.imag) == _bits(expected.imag)


@pytest.mark.parametrize("lam", LABELS)
def test_scalar_moments_equal_abs_form(lam):
    # energy and its spread from abs(lambda), as for one complex number
    for label in (CoherentLabel(lam, 0.2 - 0.1j), evolve_coherent(CFG, CoherentLabel(lam, 0.5j), 0.7)):
        ex = coherent_expectations(CFG, label)
        a = abs(label.lam)
        assert _bits(ex.energy) == _bits(CFG.omega * (a**2 + 0.5))
        assert _bits(ex.spread_energy) == _bits(CFG.omega * a)
        assert _bits(ex.rel_y) == _bits(-math.sqrt(2.0 / CFG.mass_omega) * label.lam.imag)


def test_array_time_matches_scalar_calls():
    label = CoherentLabel(0.6 - 0.35j, 0.1 + 0.2j)
    times = np.linspace(0.0, 16.0 * 2.0 * math.pi / CFG.omega, 4097)
    lam_t = evolve_coherent(CFG, label, times).lam
    moments = coherent_expectations(CFG, CoherentLabel(lam_t, label.lam_prime)).as_dict()
    for i, t in enumerate(times):
        one = evolve_coherent(CFG, label, float(t))
        assert _bits(lam_t[i].real) == _bits(one.lam.real) and _bits(lam_t[i].imag) == _bits(one.lam.imag)
        for key, value in coherent_expectations(CFG, one).as_dict().items():
            assert _bits(np.broadcast_to(moments[key], times.shape)[i]) == _bits(value), key


def test_evolved_position_matches_quadrature():
    # <x>(t) = <R_x> + sqrt(2/Mw) |lambda| cos(w t) for real lambda(0)
    lam0 = 0.6
    label = CoherentLabel(lam0, 0.25 + 0.35j)
    mw = CFG.mass_omega
    for t in (0.0, 0.4, 1.1):
        lab_t = evolve_coherent(CFG, label, t)
        amp = coherent_amplitude(CFG, lab_t)
        s2 = math.sqrt(2.0 / mw)
        cx = s2 * (lab_t.lam + lab_t.lam_prime).real
        cy = s2 * (lab_t.lam_prime.imag - lab_t.lam.imag)
        xs, ys = plane_box(CFG, cx, cy)
        values = sample_plane(amp, xs, ys)
        h = xs[1] - xs[0]
        d = np.abs(values) ** 2
        mean_x = float((d * xs[:, None]).sum() / d.sum())
        expected = s2 * lab_t.lam_prime.real + s2 * lam0 * math.cos(CFG.omega * t)
        assert mean_x == pytest.approx(expected, abs=1e-6)


# ---------------------------------------------------------------------------
# operator identities (finite differences)


def test_center_coordinates_fail_to_commute():
    xs, ys = plane_box(CFG, 0.1, -0.2)
    amp = coherent_amplitude(CFG, CoherentLabel(0.2 + 0.1j, 0.1 - 0.1j))
    values = sample_plane(amp, xs, ys)
    ops = PlaneOperators(CFG, xs, ys, margin=6)
    comm = ops.named("Rx", ops.named("Ry", values)) - ops.named("Ry", ops.named("Rx", values))
    f = interior(values, 6)
    val = np.vdot(f, interior(comm, 6)) / np.vdot(f, f)
    assert abs(val - 1j / CFG.mass_omega) < 1e-6


@pytest.mark.parametrize("n", [0, 1, 2])
def test_radius_squared_fixed_by_energy(n):
    # (x - Rx)^2 + (y - Ry)^2 acts as 2 E_n / (M w^2) on level n
    xs, ys = plane_box(CFG, 0.0, 0.0, half_width_units=9 + math.sqrt(2 * n + 1))
    values = sample_plane(eigenstate_py(CFG, n, 0.0), xs, ys)
    ops = PlaneOperators(CFG, xs, ys)
    r2 = ops.apply("x_rel", ops.apply("x_rel", values)) + ops.apply(
        "y_rel", ops.apply("y_rel", values)
    )
    target = 2.0 * landau_energy(CFG, n) / (CFG.mass * CFG.omega**2)
    res = interior(r2 - target * values, 6)
    assert np.linalg.norm(res) / np.linalg.norm(interior(values, 6)) < 1e-6


# ---------------------------------------------------------------------------
# classical orbits


def test_zero_radius_orbit_is_constant():
    orbit = ClassicalOrbit(0.3, 0.4, 0.0, 0.0, omega=2.0)
    pos = classical_orbit_trace(orbit, np.linspace(0, 5, 17))
    assert np.max(np.abs(pos - np.array([0.3, 0.4]))) == 0.0


def test_orbit_closes_after_one_period():
    orbit = ClassicalOrbit(0.1, -0.2, 1.7, 0.3, omega=3.0)
    period = 2 * math.pi / orbit.omega
    pos = classical_orbit_trace(orbit, [0.0, period])
    assert np.max(np.abs(pos[1] - pos[0])) < 1e-12
    assert orbit.energy(mass=1.0) == pytest.approx(0.5 * 3.0**2 * 1.7**2)
