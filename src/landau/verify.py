"""Invariant suite behind the `verify` command: one measured residual per
module-level property, with the tolerance it is held to. Residuals are
reported as numbers, not just booleans, so regressions show up as drift."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import maggroup, spectral
from .config import TWO_PI, TorusConfig, grid_spacing
from .finitediff import apply_fd_operator
from .gauge import (
    cocycle_defect,
    flux_consistency_defect,
    polyakov_phase_x,
    polyakov_phase_y,
    standard_transition_functions,
)
from .plane import (
    CoherentLabel,
    FockLabel,
    coherent_amplitude,
    ladder_apply,
    sample_plane,
)
from .torus import (
    TorusLabel,
    apply_tx,
    apply_ty,
    coherent_translation_series,
    default_grid,
    eigenvalue_residual,
    expectation,
    gram_matrix,
    projector_distance,
    torus_coherent,
    torus_eigenstate,
    torus_inner,
    translation_expectation,
)


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float
    # wall time since the previous check (so setup shared by later checks
    # counts toward the first one that uses it); kept out of as_dict, which
    # must be deterministic
    time_s: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
        }


def _fock_commutator_residual(rng) -> float:
    labels = [FockLabel(int(n), int(m)) for n, m in rng.integers(0, 6, size=(20, 2))]
    coeffs = {lab: complex(rng.normal(), rng.normal()) for lab in labels}

    def comm(p, q, state):
        ab = ladder_apply(p, ladder_apply(q, state))
        ba = ladder_apply(q, ladder_apply(p, state))
        return {k: ab.get(k, 0.0) - ba.get(k, 0.0) for k in set(ab) | set(ba)}

    worst = 0.0
    for p, q, expected in (("a", "adag", 1.0), ("b", "bdag", 1.0), ("a", "b", 0.0), ("a", "bdag", 0.0)):
        c = comm(p, q, coeffs)
        diff = {k: c.get(k, 0.0) - expected * coeffs.get(k, 0.0) for k in set(c) | set(coeffs)}
        worst = max(worst, max((abs(v) for v in diff.values()), default=0.0))
    return worst


# The center-commutator check keeps the grid interior [MARGIN, N - MARGIN) in
# both axes and walks its rows (x) in blocks of BLOCK_ROWS, which bounds the
# memory it holds at once. Each block is sampled with HALO extra rows per
# side: the reach of the one x-stencil (Ry) in each product.
_MARGIN = 6
_BLOCK_ROWS = 64
_HALO = 2


def _commutator_blocks(cfg, amp, xs, ys):
    """(psi, [Rx, Ry] psi) on the kept interior of the plane grid xs x ys,
    one block of at most _BLOCK_ROWS x-rows at a time, in order. Every value is
    the one the full-grid evaluation gives there, bit for bit."""
    # the spacings of the whole grid: first differences of the rounded
    # coordinates inside a block can be an ulp off them
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]

    def op(name, g, bx):
        return apply_fd_operator(name, g, bx, ys, hx, hy, cfg)

    n = len(xs)
    keep = (slice(_HALO, -_HALO), slice(_MARGIN, -_MARGIN))
    for r0 in range(_MARGIN, n - _MARGIN, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, n - _MARGIN)
        bx = xs[r0 - _HALO : r1 + _HALO]
        values = sample_plane(amp, bx, ys)
        rx_ry = op("Rx", op("Ry", values, bx), bx)
        ry_rx = op("Ry", op("Rx", values, bx), bx)
        yield values[keep], rx_ry[keep] - ry_rx[keep]


def _heisenberg_residual(cfg) -> float:
    """|<[Rx, Ry]> - i/(M w)| in units of l_B^2 = 1/(M w), on the square
    plane grid of the resolution rule reaching 9 l_B from the origin."""
    mw = cfg.mass_omega
    h = grid_spacing(cfg)
    m = int(math.ceil(9.0 / math.sqrt(mw) / h))
    xs = h * np.arange(-m, m + 1)
    ys = h * np.arange(-m, m + 1)
    amp = coherent_amplitude(cfg, CoherentLabel(0.3 + 0.2j, -0.1 + 0.4j))
    num = den = 0.0
    for fw, w in _commutator_blocks(cfg, amp, xs, ys):
        num += np.vdot(fw, w)
        den += np.vdot(fw, fw)
    return float(abs(num / den - 1j / mw) * mw)


def run_verification(cfg: TorusConfig, nphi_override: float | None = None, seed: int = 0):
    """All module invariants at the given config. Returns (checks, all_pass).

    nphi_override (possibly non-integer) recomputes the flux-consistency
    check with that flux instead of cfg.n_phi, which demonstrates how a
    non-quantized flux breaks the boundary-condition consistency.
    """
    rng = np.random.default_rng(seed)
    checks: list[Check] = []
    mark = time.perf_counter()

    def add(name, residual, tolerance):
        nonlocal mark
        now = time.perf_counter()
        checks.append(Check(name, residual, tolerance, now - mark))
        mark = now

    e = cfg.charge

    # flux quantization and boundary-shift consistency
    add(
        "flux_quantization_integer",
        abs(e * cfg.b_field * cfg.lx * cfg.ly / TWO_PI - cfg.n_phi),
        1.0e-12,
    )
    flux = cfg.n_phi if nphi_override is None else nphi_override
    b_used = TWO_PI * flux / (e * cfg.lx * cfg.ly)
    add(
        "boundary_shift_consistency",
        flux_consistency_defect(e, b_used, cfg.lx, cfg.ly),
        1.0e-12,
    )

    # cocycle condition, constant in (x, y)
    tf = standard_transition_functions(cfg)
    target = TWO_PI * cfg.n_phi / e
    pts = rng.uniform(-2.0, 2.0, size=(10, 2))
    cdef = max(abs(cocycle_defect(tf, cfg, x, y) - target) for x, y in pts)
    add("cocycle_defect_constant", cdef, 1.0e-9 * max(1.0, target))

    # Polyakov phases periodic under elementary steps
    ys = rng.uniform(0.0, cfg.ly, size=8)
    xs = rng.uniform(0.0, cfg.lx, size=8)
    p = max(
        np.max(np.abs(polyakov_phase_x(cfg, ys + cfg.ay) - polyakov_phase_x(cfg, ys))),
        np.max(np.abs(polyakov_phase_y(cfg, xs + cfg.ax) - polyakov_phase_y(cfg, xs))),
    )
    add("polyakov_step_periodicity", float(p), 1.0e-12)

    # group axioms and representation
    n = cfg.n_phi
    els = maggroup.elements(min(n, 4)) if n > 1 else maggroup.elements(2)
    nn = els[0].n_phi
    worst = 0.0
    for _ in range(200):
        g, h, k = (els[rng.integers(len(els))] for _ in range(3))
        lhs = maggroup.multiply(maggroup.multiply(g, h), k)
        rhs = maggroup.multiply(g, maggroup.multiply(h, k))
        worst = max(worst, 0.0 if lhs == rhs else 1.0)
    for g in els:
        ok = maggroup.multiply(g, maggroup.inverse(g)) == maggroup.identity(nn)
        worst = max(worst, 0.0 if ok else 1.0)
    worst = max(worst, 0.0 if maggroup.center(nn) == maggroup.center_brute_force(nn) else 1.0)
    add("group_axioms", worst, 0.5)

    rep = maggroup.clock_and_shift(max(n, 2))
    add("weyl_matrix_relation", maggroup.weyl_deviation(rep), 1.0e-14)
    hom = 0.0
    rep_n = maggroup.clock_and_shift(nn)
    for _ in range(100):
        g, h = (els[rng.integers(len(els))] for _ in range(2))
        lhs = maggroup.represent(rep_n, maggroup.multiply(g, h))
        rhs = maggroup.represent(rep_n, g) @ maggroup.represent(rep_n, h)
        hom = max(hom, float(np.max(np.abs(lhs - rhs))))
    add("representation_homomorphism", hom, 1.0e-12)

    # torus states: boundary condition, orthonormality, translation actions
    nx, ny = default_grid(cfg)
    states = {
        (lev, l): torus_eigenstate(cfg, TorusLabel(lev, l), nx=nx, ny=ny)
        for lev in range(3)
        for l in range(n)
    }
    add(
        "torus_boundary_residual",
        max(s.boundary_residual() for s in states.values()),
        1.0e-8,
    )
    gram_dev = max(
        float(np.max(np.abs(gram_matrix([states[(lev, l)] for l in range(n)]) - np.eye(n))))
        for lev in range(3)
    )
    add("degenerate_basis_orthonormality", gram_dev, 1.0e-8)

    st = states[(1, 0)]
    add(
        "hamiltonian_eigen_residual",
        eigenvalue_residual("H", st, cfg.omega * 1.5),
        1.0e-3,
    )

    s0 = states[(0, 0)]
    weyl_states = apply_ty(apply_tx(s0)).values - np.exp(TWO_PI * 1j / n) * apply_tx(apply_ty(s0)).values
    add(
        "weyl_relation_on_states",
        float(np.max(np.abs(weyl_states)) / np.max(np.abs(s0.values))),
        1.0e-10,
    )
    ladder = abs(abs(torus_inner(states[(0, 1 % n)], apply_tx(s0))) - 1.0)
    add("tx_ladder_overlap", ladder, 1.0e-8)
    ty_eig = abs(torus_inner(s0, apply_ty(s0)) - 1.0)
    add("ty_eigenvalue", ty_eig, 1.0e-8)

    # the two degeneracy bases span the same subspace
    set_ly = [states[(0, l)] for l in range(n)]
    set_lx = [torus_eigenstate(cfg, TorusLabel(0, l, "lx"), nx=nx, ny=ny) for l in range(n)]
    add("basis_projector_distance", projector_distance(set_ly, set_lx), 1.0e-8)

    # coherent states on the torus
    lab = CoherentLabel(0.35 + 0.2j, 0.3 - 0.4j)
    coh = torus_coherent(cfg, lab, nx=nx, ny=ny)
    add("coherent_boundary_residual", coh.boundary_residual(), 1.0e-8)
    e_target = cfg.omega * (abs(lab.lam) ** 2 + 0.5)
    add(
        "coherent_energy_expectation",
        abs(expectation("H", coh) - e_target) / e_target,
        1.0e-3,
    )
    series = coherent_translation_series(cfg, lab, lx=1)
    quad = translation_expectation(coh, "x", 1)
    add("translation_expectation_series", abs(series - quad), 1.0e-8)

    # ladder algebra on Fock maps and plane-state operator identities
    add("fock_commutators", _fock_commutator_residual(rng), 1.0e-12)
    add("heisenberg_center_commutator", _heisenberg_residual(cfg), 1.0e-6)

    # discrete spectrum: multiplicities n_phi, means near omega*(n+1/2)
    report = spectral.low_spectrum(cfg, nx, ny, 2 * n)
    dev = 0.0
    for cluster in report.clusters:
        if cluster.multiplicity != n:
            dev = 1.0
        dev = max(dev, abs(cluster.relative_deviation))
    add("spectrum_clusters", dev, 0.05)

    return checks, all(c.passed for c in checks)
