"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Tolerances are the
criterion tolerances, fixed here and nowhere else.
"""

import itertools
import math
import time

import numpy as np
import pytest

from landau import maggroup
from landau.config import InfiniteConfig, TorusConfig
from landau.gauge import boundary_residual, x_boundary_twist, y_boundary_twist
from landau.plane import (
    CoherentLabel,
    coherent_center,
    coherent_expectations,
    eigenstate_py,
    evolve_coherent,
    landau_energy,
)
from landau.serialize import write_pgm
from landau.spectral import low_spectrum
from landau.torus import (
    SampledState,
    TorusLabel,
    apply_operator,
    coherent_translation_series,
    density_map,
    grid_axes,
    projector_distance,
    torus_coherent,
    torus_eigenstate,
    torus_inner,
    translate,
)
from oracles import (
    FockLabel,
    PlaneOperators,
    center_brute_force,
    coherent_amplitude,
    coherent_moments_by_quadrature,
    coherent_prefactor,
    covariant_eigen_residual,
    element_index,
    group_law,
    interior,
    ladder_apply,
    plane_box,
    quotient_by_center_table,
    sample_plane,
)

TWO_PI = 2.0 * math.pi
THETA_PAIRS = [(math.pi, math.pi), (0.7, 1.9), (0.0, 0.0)]


def report(number, name, detail):
    print(f"\n[acceptance] criterion {number:02d} ({name}): PASS  {detail}")


def torus_cfg(n_phi, theta=(1.0, 2.0), lx=1.0, ly=1.0):
    return TorusConfig(1.0, 1.0, lx=lx, ly=ly, n_phi=n_phi, theta_x=theta[0], theta_y=theta[1])


def test_criterion_01_spectrum_and_degeneracy():
    worst_dev = 0.0
    worst_spread = 0.0
    worst_theta_shift = 0.0
    max_runtime = 0.0
    for n_phi in (1, 2, 3):
        started = time.perf_counter()
        means_by_theta = []
        spreads = []
        for theta in THETA_PAIRS:
            cfg = torus_cfg(n_phi, theta)
            rep = low_spectrum(cfg, 96, 96, 3 * n_phi)
            assert len(rep.clusters) == 3
            for cluster in rep.clusters:
                assert cluster.multiplicity == n_phi
                assert abs(cluster.relative_deviation) < 0.05
                rel_spread = cluster.spread / cluster.mean
                assert rel_spread < 1e-6
                worst_dev = max(worst_dev, abs(cluster.relative_deviation))
                worst_spread = max(worst_spread, rel_spread)
            means_by_theta.append([c.mean for c in rep.clusters])
            spreads.append(max(c.spread for c in rep.clusters))
        omega = torus_cfg(n_phi).omega
        allowance = max(10 * max(spreads), 1e-8 * omega)
        for other in means_by_theta[1:]:
            for a, b in zip(means_by_theta[0], other):
                assert abs(a - b) < allowance
                worst_theta_shift = max(worst_theta_shift, abs(a - b) / omega)
        runtime = time.perf_counter() - started
        max_runtime = max(max_runtime, runtime)
        assert runtime < 60.0
    report(
        1,
        "spectrum + degeneracy",
        f"96x96, max |rel dev| {worst_dev:.2e}, max rel spread {worst_spread:.1e}, "
        f"max theta shift {worst_theta_shift:.1e} w, slowest case {max_runtime:.1f}s",
    )


def test_criterion_02_weyl_relation():
    worst_matrix = 0.0
    for n_phi in range(2, 9):
        rep = maggroup.clock_and_shift(n_phi)
        dev = maggroup.weyl_deviation(rep)
        assert dev <= 1e-14
        worst_matrix = max(worst_matrix, dev)
    worst_grid = 0.0
    for n_phi in (1, 2, 3, 4):
        cfg = torus_cfg(n_phi, THETA_PAIRS[0])
        nx = ny = 16 * n_phi
        phase = np.exp(TWO_PI * 1j / n_phi)
        for n, l in itertools.product(range(3), range(n_phi)):
            st = torus_eigenstate(cfg, TorusLabel(n, l), nx=nx, ny=ny)
            lhs = translate(translate(st, "x"), "y").values
            rhs = phase * translate(translate(st, "y"), "x").values
            dev = float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(st.values)))
            assert dev < 1e-10
            worst_grid = max(worst_grid, dev)
    report(
        2,
        "Weyl relation",
        f"matrix dev {worst_matrix:.1e} (n_phi 2..8), grid-level dev {worst_grid:.1e}",
    )


def test_criterion_03_group_algebra():
    for n_phi in range(1, 6):
        els = maggroup.elements(n_phi)
        assert len(els) == n_phi**3
        idx = np.arange(n_phi**3)
        nx, ny, m = idx // (n_phi * n_phi), (idx // n_phi) % n_phi, idx % n_phi

        def vec_mul(a, b, n=n_phi):
            return (
                (a[0] + b[0]) % n,
                (a[1] + b[1]) % n,
                (a[2] + b[2] - a[0] * b[1]) % n,
            )

        g = (nx[:, None, None], ny[:, None, None], m[:, None, None])
        h = (nx[None, :, None], ny[None, :, None], m[None, :, None])
        k = (nx[None, None, :], ny[None, None, :], m[None, None, :])
        lhs = vec_mul(vec_mul(g, h), k)
        rhs = vec_mul(g, vec_mul(h, k))
        assert all(np.array_equal(a, b) for a, b in zip(lhs, rhs))

        # the table `landau group` writes, against the oracle's group law one
        # pair at a time: identity, inverses, classes, centre and quotient
        t = maggroup.multiplication_indices(n_phi)
        assert t.tolist() == [
            [element_index(group_law(a, b, n_phi), n_phi) for b in els] for a in els
        ]
        assert np.array_equal(t[t], t[:, t])
        ids = np.arange(n_phi**3)
        assert np.array_equal(t[0], ids) and np.array_equal(t[:, 0], ids)
        unit = t == 0
        assert (unit.sum(axis=1) == 1).all() and np.array_equal(unit, unit.T)
        inv = {tuple(a): next(b for b in els if group_law(a, b, n_phi) == (0, 0, 0)) for a in els}
        classes = maggroup.conjugacy_class_indices(n_phi)
        for a in els:
            brute = {group_law(group_law(x, a, n_phi), inv[tuple(x)], n_phi) for x in els}
            assert sorted(element_index(c, n_phi) for c in brute) in classes
        assert sorted(i for c in classes for i in c) == ids.tolist()

        assert maggroup.center(n_phi) == sorted(element_index(g, n_phi) for g in center_brute_force(n_phi))
        table = quotient_by_center_table(n_phi)
        for (a, b), prod in table.items():
            g = els[t[element_index((*a, 0), n_phi), element_index((*b, 0), n_phi)]]
            assert prod == tuple(g[:2]) == ((a[0] + b[0]) % n_phi, (a[1] + b[1]) % n_phi)

    rep = maggroup.clock_and_shift(4)
    assert np.array_equal(
        rep.tx, np.array([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex)
    )
    assert np.max(np.abs(rep.ty - np.diag([1, 1j, -1, -1j]))) < 1e-15
    report(3, "group algebra", "full enumeration n_phi <= 5; printed 4x4 generators exact")


def test_criterion_04_boundary_conditions():
    worst = 0.0
    count = 0
    for n_phi in (1, 2, 3, 4):
        for theta in THETA_PAIRS:
            cfg = torus_cfg(n_phi, theta)
            nx = ny = 16 * n_phi
            for basis in ("ly", "lx"):
                for n, l in itertools.product(range(4), range(n_phi)):
                    st = torus_eigenstate(cfg, TorusLabel(n, l, basis), nx=nx, ny=ny)
                    res = boundary_residual(st)
                    assert res < 1e-8
                    worst = max(worst, res)
                    count += 1
            coh = torus_coherent(cfg, CoherentLabel(0.4 - 0.1j, 0.25 + 0.3j), nx=nx, ny=ny)
            res = boundary_residual(coh)
            assert res < 1e-8
            worst = max(worst, res)
            count += 1
    # factorization ansatz f(x) exp(i p_y y) violates the twisted condition
    cfg = torus_cfg(1, (1.0, 2.0))
    xs, ys = grid_axes(cfg, 32, 32)
    x, y = xs[:, None], ys[None, :]
    ansatz = SampledState(cfg, np.exp(-((x - 0.5) ** 2)) * np.exp(TWO_PI * 1j * y / cfg.ly))
    fail_res = boundary_residual(ansatz)
    assert fail_res > 0.1
    report(
        4,
        "boundary conditions",
        f"{count} states, worst residual {worst:.1e}; factorization ansatz residual {fail_res:.2f}",
    )


def test_criterion_05_degenerate_basis_equivalence():
    worst = 0.0
    for n_phi in (1, 2, 3, 4):
        cfg = torus_cfg(n_phi)
        nx = ny = 32 * n_phi
        for n in range(3):
            set_ly = [
                torus_eigenstate(cfg, TorusLabel(n, l, "ly"), nx=nx, ny=ny) for l in range(n_phi)
            ]
            set_lx = [
                torus_eigenstate(cfg, TorusLabel(n, l, "lx"), nx=nx, ny=ny) for l in range(n_phi)
            ]
            dist = projector_distance(set_ly, set_lx)
            assert dist < 1e-8
            worst = max(worst, dist)
    report(5, "degenerate-basis equivalence", f"n <= 2, n_phi <= 4, worst distance {worst:.1e}")


def test_criterion_06_translation_ladder():
    worst_mod = 0.0
    worst_eig = 0.0
    for n_phi in (1, 2, 3, 4):
        cfg = torus_cfg(n_phi, (0.8, 1.7))
        nx = ny = 24 * n_phi
        for n in range(3):
            states = [torus_eigenstate(cfg, TorusLabel(n, l), nx=nx, ny=ny) for l in range(n_phi)]
            for l in range(n_phi):
                ov = torus_inner(states[(l + 1) % n_phi], translate(states[l], "x"))
                dev = abs(abs(ov) - 1.0)
                assert dev < 1e-8
                worst_mod = max(worst_mod, dev)
                eig = torus_inner(states[l], translate(states[l], "y"))
                dev = abs(eig - np.exp(TWO_PI * 1j * l / n_phi))
                assert dev < 1e-8
                worst_eig = max(worst_eig, dev)
    report(
        6,
        "translation ladder",
        f"Tx ladder modulus dev {worst_mod:.1e}, Ty eigenvalue dev {worst_eig:.1e}",
    )


def test_criterion_07_density_reproduction(tmp_path):
    cfg = torus_cfg(1, (math.pi, math.pi))
    st = torus_eigenstate(cfg, TorusLabel(0, 0), nx=256, ny=256)
    dm = density_map(st)
    cell = 1.0 / 256
    assert abs(dm.argmax_x - 0.5) <= cell
    assert abs(dm.argmax_y - 0.5) <= cell
    pgm_path = tmp_path / "figure2.pgm"
    write_pgm(dm, pgm_path)
    lines = pgm_path.read_text().splitlines()
    assert lines[0] == "P2"
    pixels = np.array([[int(v) for v in row.split()] for row in lines[3:]])
    # single central bump: bright center, vanishing corners, monotone decay
    # along the diagonal from the center out
    assert pixels[128, 128] == 255
    for corner in (pixels[0, 0], pixels[0, -1], pixels[-1, 0], pixels[-1, -1]):
        assert corner < 10
    diagonal = [pixels[128 + k, 128 + k] for k in range(0, 128, 16)]
    assert all(a >= b for a, b in zip(diagonal, diagonal[1:]))
    report(
        7,
        "density reproduction",
        f"256x256 argmax ({dm.argmax_x:.4f}, {dm.argmax_y:.4f}), single-bump PGM written",
    )


def test_criterion_08_coherent_state_suite():
    rng = np.random.default_rng(2026)
    cfg = InfiniteConfig(1.0, 1.0, 4.0)
    worst_moment = 0.0
    for _ in range(5):
        lam = complex(*rng.uniform(-0.8, 0.8, 2))
        lamp = complex(*rng.uniform(-0.8, 0.8, 2))
        label = CoherentLabel(lam, lamp)
        closed = coherent_expectations(cfg, label).as_dict()
        amp = coherent_amplitude(cfg, label)
        s2 = math.sqrt(2.0 / cfg.mass_omega)
        center = (s2 * (lam + lamp).real, s2 * (lamp.imag - lam.imag))
        measured = coherent_moments_by_quadrature(cfg, amp, center)
        for key, value in closed.items():
            dev = abs(measured[key] - value)
            assert dev < 1e-6, (key, dev)
            worst_moment = max(worst_moment, dev)

    # time evolution on the torus stays coherent: a-eigenvalue residual
    tcfg = torus_cfg(1, (1.0, 2.0))
    label = CoherentLabel(0.45 + 0.2j, 0.15 - 0.3j)
    period = TWO_PI / tcfg.omega
    worst_a = 0.0
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        lab_t = evolve_coherent(tcfg, label, frac * period)
        st = torus_coherent(tcfg, lab_t, nx=128, ny=128)
        twists = (x_boundary_twist(tcfg, st.ys[:-1]), y_boundary_twist(tcfg))
        res = covariant_eigen_residual("a", st, lab_t.lam, *twists)
        assert res < 1e-5
        worst_a = max(worst_a, res)

    # at unit flux the lambda = 0 coherent state is the unique ground state
    coh = torus_coherent(tcfg, CoherentLabel(0.0, 0.3 + 0.2j), nx=96, ny=96)
    worst_id = 0.0
    for basis in ("ly", "lx"):
        ground = torus_eigenstate(tcfg, TorusLabel(0, 0, basis), nx=96, ny=96)
        dev = abs(abs(torus_inner(ground, coh)) - 1.0)
        assert dev < 1e-8
        worst_id = max(worst_id, dev)
    report(
        8,
        "coherent-state suite",
        f"14 moments x5 labels worst dev {worst_moment:.1e}; a-residual along period "
        f"{worst_a:.1e}; unit-flux identity dev {worst_id:.1e}",
    )


def test_criterion_09_operator_identities():
    rng = np.random.default_rng(17)

    def commutator_map(p, q, state):
        pq = ladder_apply(p, ladder_apply(q, state))
        qp = ladder_apply(q, ladder_apply(p, state))
        return {key: pq.get(key, 0.0) - qp.get(key, 0.0) for key in set(pq) | set(qp)}

    worst_fock = 0.0
    for _ in range(10):
        state = {}
        for _ in range(20):
            lab = FockLabel(int(rng.integers(0, 7)), int(rng.integers(0, 7)))
            state[lab] = complex(rng.normal(), rng.normal())
        for p, q, expected in (("a", "adag", 1.0), ("b", "bdag", 1.0), ("a", "b", 0.0)):
            comm = commutator_map(p, q, state)
            want = {k: expected * v for k, v in state.items()} if expected else {}
            keys = set(comm) | set(want)
            dev = max((abs(comm.get(k, 0.0) - want.get(k, 0.0)) for k in keys), default=0.0)
            assert dev < 1e-12
            worst_fock = max(worst_fock, dev)

    cfg = InfiniteConfig(1.0, 1.0, 4.0)
    xs, ys = plane_box(cfg, 0.05, -0.1)
    amp = coherent_amplitude(cfg, CoherentLabel(0.25 + 0.15j, 0.1 - 0.2j))
    values = sample_plane(amp, xs, ys)
    ops = PlaneOperators(cfg, xs, ys, margin=6)
    comm = ops.named("Rx", ops.named("Ry", values)) - ops.named("Ry", ops.named("Rx", values))
    f = interior(values, 6)
    heis = abs(np.vdot(f, interior(comm, 6)) / np.vdot(f, f) - 1j / cfg.mass_omega)
    assert heis < 1e-6

    worst_radius = 0.0
    for n in range(3):
        xs, ys = plane_box(cfg, 0.0, 0.0, half_width_units=9 + math.sqrt(2 * n + 1))
        values = sample_plane(eigenstate_py(cfg, n, 0.0), xs, ys)
        ops = PlaneOperators(cfg, xs, ys)
        r2 = ops.apply("x_rel", ops.apply("x_rel", values)) + ops.apply(
            "y_rel", ops.apply("y_rel", values)
        )
        target = 2.0 * landau_energy(cfg, n) / (cfg.mass * cfg.omega**2)
        res = np.linalg.norm(interior(r2 - target * values, 6)) / np.linalg.norm(
            interior(values, 6)
        )
        assert res < 1e-6
        worst_radius = max(worst_radius, res)
    report(
        9,
        "operator identities",
        f"Fock commutators {worst_fock:.1e}; <[Rx,Ry]> dev {heis:.1e}; "
        f"radius-squared residual {worst_radius:.1e}",
    )


def test_criterion_10_translation_expectation_phases():
    worst_center = 0.0
    worst_mod = 0.0
    cases = [
        (torus_cfg(1, (0.9, 2.3)), CoherentLabel(0.3 - 0.2j, 0.45 + 0.35j), 128, 128),
        (torus_cfg(2, (1.4, 0.3)), CoherentLabel(0.1 + 0.4j, -0.2 + 0.25j), 128, 128),
        (
            TorusConfig(1.3, 1.0, lx=1.0, ly=1.7, n_phi=2, theta_x=0.9, theta_y=2.3),
            CoherentLabel(0.25 + 0.15j, 0.5 - 0.3j),
            128,
            192,
        ),
    ]
    for cfg, lab, nx, ny in cases:
        st = torus_coherent(cfg, lab, nx=nx, ny=ny)
        rx, ry = coherent_center(cfg, lab)
        for l in (1, 2):
            tx = torus_inner(st, translate(st, "x", l))
            bx = coherent_prefactor(cfg, lab, l, "x", coherent_translation_series(cfg, lab, lx=l))
            if l == 1:
                ry_rec = (np.angle(tx / bx) + cfg.theta_x / cfg.n_phi) * cfg.ly / TWO_PI
                dev = abs((ry_rec - ry + cfg.ly / 2) % cfg.ly - cfg.ly / 2)
                assert dev < 1e-6
                worst_center = max(worst_center, dev)
            mod_dev = abs(abs(tx) - abs(bx))
            assert mod_dev < 1e-8
            worst_mod = max(worst_mod, mod_dev)

            ty = torus_inner(st, translate(st, "y", l))
            by = coherent_prefactor(cfg, lab, l, "y", coherent_translation_series(cfg, lab, ly=l))
            if l == 1:
                rx_rec = (-np.angle(ty / by) - cfg.theta_y / cfg.n_phi) * cfg.lx / TWO_PI
                dev = abs((rx_rec - rx + cfg.lx / 2) % cfg.lx - cfg.lx / 2)
                assert dev < 1e-6
                worst_center = max(worst_center, dev)
            mod_dev = abs(abs(ty) - abs(by))
            assert mod_dev < 1e-8
            worst_mod = max(worst_mod, mod_dev)
    report(
        10,
        "translation-expectation phases",
        f"center recovery dev {worst_center:.1e}, modulus vs B_l dev {worst_mod:.1e}",
    )
