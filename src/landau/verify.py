"""Invariant suite behind the `verify` command: one measured residual per
module-level property, with the tolerance it is held to. Residuals are
reported as numbers, not just booleans, so regressions show up as drift.
Every residual is unit-free; energies are in units of hbar*omega."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import maggroup, spectral
from .config import TWO_PI, TorusConfig, check_work, grid_spacing
from .finitediff import apply_fd_operator
from .gauge import (
    boundary_residual,
    cocycle_defect,
    flux_consistency_defect,
    polyakov_phase_x,
    polyakov_phase_y,
)
from .plane import CoherentLabel
from .torus import (
    TorusLabel,
    apply_operator,
    coherent_translation_series,
    default_grid,
    eigenvalue_residual,
    gram_matrix,
    grid_vdot,
    projector_distance,
    torus_coherent,
    torus_eigenstates,
    torus_inner,
    translate,
    work_elements,
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


# The two plane checks, ladder_algebra and heisenberg_center_commutator, share
# one pass (`_commutator_blocks`). It samples the unnormalised coherent packet
# _PACKET row by row (`_packet_rows`) on the square plane grid x = h*i,
# y = h*j, |i|, |j| <= m, of the resolution rule (`_plane_grid`). It keeps the
# grid interior [MARGIN, N - MARGIN) in both axes, clear of the values the
# stencils wrap around the grid's edges, and walks its rows (x) in blocks of
# BLOCK_ROWS, which bounds the memory it holds at once. Each block is sampled
# with HALO extra rows per side: the reach of the one x-stencil (Ry) in each
# product. At 32 rows a block of the 381-point grid is 36 x 381 complex
# values, 219 KB, so the few block-sized arrays each operator application
# holds stay in a 2 MB L2 cache; with 64-row blocks the check took about 25%
# longer on a 2-CPU Xeon.
_MARGIN = 6
_BLOCK_ROWS = 32
_HALO = 2
_PACKET = CoherentLabel(0.3 + 0.2j, -0.1 + 0.4j)


def _plane_grid(cfg) -> tuple[float, int]:
    """(h, m): the spacing of the resolution rule and the half-width in cells
    of the plane checks' grid, which reaches 6 l_B from the origin (381^2
    points, 12 blocks). The packet's weight is gone by then: against a 9 l_B
    grid the residual moves by under 2e-6 relative at 6 l_B and by 1.4e-4 at
    5 l_B, where the full-grid oracle's rel 1e-5 in the tests fails it."""
    h = grid_spacing(cfg)
    return h, int(math.ceil(6.0 / math.sqrt(cfg.mass_omega) / h))


def heisenberg_grid(cfg) -> dict:
    """The plane checks' grid, for the run manifest."""
    h, m = _plane_grid(cfg)
    n = 2 * m + 1
    return {
        "points_per_side": n,
        "h_over_lB": h * math.sqrt(cfg.mass_omega),
        "margin": _MARGIN,
        "block_rows": _BLOCK_ROWS,
        "blocks": len(range(_MARGIN, n - _MARGIN, _BLOCK_ROWS)),
    }


def _packet_rows(cfg, c: CoherentLabel, h: float, m: int):
    """rows(i0, i1): the unnormalised coherent packet (`coherent_raw` in
    tests/oracles.py) on the x-rows i0..i1 - 1 of the grid x = h*i, y = h*j,
    i and j in -m..m, as (i1 - i0, 2m + 1).

    On that grid the exponent k (x^2 + 2i x y + y^2) + pre (x s + i y d)
    splits into a row part k x^2 + pre x s, a column part k y^2 + i pre y d
    and the cross phase 2i k x y = i theta (i j), theta = 2 k h^2. So the
    packet is row[i] * col[j] * T[|i j|], T[p] = exp(i theta p), with T
    conjugated where i j < 0: two exponentials per axis, one table over
    p = 0..m^2, and a gather and two multiplies per point. The table is the
    outer product of exp(i theta (m + 1) q) and exp(i theta r) at
    p = (m + 1) q + r: 2m + 1 exponentials in place of m^2 + 1."""
    mw = cfg.mass_omega
    pre = math.sqrt(mw / 2.0)
    k = -0.25 * mw
    s, d = c.lam + c.lam_prime, c.lam - c.lam_prime
    idx = np.arange(-m, m + 1)
    x = h * idx
    row = np.exp(k * x * x + pre * s * x)
    col = np.exp(k * x * x + 1j * pre * d * x)
    theta = 2.0 * k * h * h
    q = np.arange(m + 1)
    table = np.multiply.outer(np.exp(1j * (theta * (m + 1)) * q[:m]), np.exp(1j * theta * q)).ravel()
    mag = np.abs(idx)

    def rows(i0, i1):
        out = table[mag[i0:i1, None] * mag[None, :]]
        # the rows with i < 0 come first; i j < 0 on their columns j > 0 and
        # on the columns j < 0 of the rest
        neg = max(m - i0, 0)
        for part in (out[:neg, m + 1 :], out[neg:, :m]):
            np.conjugate(part, out=part)
        out *= row[i0:i1, None]
        out *= col
        return out

    return rows


def _commutator_blocks(cfg, rows, xs, ys):
    """(x, psi, Rx psi, Ry psi, [Rx, Ry] psi) on the kept interior of the
    plane grid xs x ys, one block of at most _BLOCK_ROWS x-rows at a time, in
    order; x holds the block's x-coordinates. rows(i0, i1) samples psi on the
    x-rows i0..i1 - 1. Every value is the one the full-grid evaluation of the
    same samples gives there, bit for bit."""
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
        values = rows(r0 - _HALO, r1 + _HALO)
        rx = op("Rx", values, bx)
        ry = op("Ry", values, bx)
        rx_ry = op("Rx", ry, bx)
        ry_rx = op("Ry", rx, bx)
        yield xs[r0:r1], values[keep], rx[keep], ry[keep], rx_ry[keep] - ry_rx[keep]


def _plane_residuals(cfg) -> tuple[float, float]:
    """(ladder, heisenberg): the residuals of the two plane checks, in units
    of l_B^2 = 1/(M w), from one pass over the plane grid of `_plane_grid`.
    Every <.> is a ratio of two sums over the same samples, so the packet
    needs no normalisation constant.

    heisenberg is |<[Rx, Ry]> - i/(M w)|, with [Rx, Ry] psi applied as the
    product of two operators. ladder is the worst of |<[rho_x, Ry]>|,
    |<[rho_y, Rx]>| and |<[rho_x, rho_y]> + i/(M w)|, rho = r - R the radius
    vector, each from the first applications alone: for Hermitian A and B,
    <[A, B]> = 2i Im<A psi, B psi> / <psi, psi>."""
    mw = cfg.mass_omega
    h, m = _plane_grid(cfg)
    xs = h * np.arange(-m, m + 1)
    ys = xs[_MARGIN:-_MARGIN]
    num = den = x_ry = y_rx = rx_ry = 0.0
    for x, fw, rx, ry, w in _commutator_blocks(cfg, _packet_rows(cfg, _PACKET, h, m), xs, xs):
        num += grid_vdot(fw, w)
        den += grid_vdot(fw, fw)
        # <x psi, Ry psi> and <y psi, Rx psi> as row and column sums weighted
        # by the coordinate
        conj = np.conjugate(fw)
        x_ry += np.add.reduce(x * np.add.reduce(conj * ry, axis=1))
        y_rx += np.add.reduce(ys * np.add.reduce(conj * rx, axis=0))
        rx_ry += grid_vdot(rx, ry)

    def comm(s):
        # <[A, B]> / i for <A psi, B psi> summed in s
        return 2.0 * s.imag / den.real

    # [x, Ry] = [Rx, Ry] = [Rx, y] = i/eB, and by linearity
    # [rho_x, Ry] = [x, Ry] - [Rx, Ry] = 0, [rho_y, Rx] = [y, Rx] + [Rx, Ry] = 0,
    # [rho_x, rho_y] = [Rx, Ry] - [x, Ry] + [y, Rx] = -i/eB
    ladder = max(
        abs(comm(x_ry - rx_ry)),
        abs(comm(y_rx + rx_ry)),
        abs(comm(rx_ry - x_ry + y_rx) + 1.0 / mw),
    )
    return float(ladder * mw), float(abs(num / den - 1j / mw) * mw)


# The coherent state of the torus checks.
_COHERENT = CoherentLabel(0.35 + 0.2j, 0.3 - 0.4j)


def _torus_labels(n: int):
    """The 'ly' labels of the torus checks, levels 0-2 in order, and the
    'lx' labels of level 0."""
    return [TorusLabel(lev, l) for lev in range(3) for l in range(n)], [TorusLabel(0, l, "lx") for l in range(n)]


def torus_work(cfg: TorusConfig) -> int:
    """Complex values the torus checks hold at most (`work_elements`),
    counted without building anything."""
    n = cfg.n_phi
    nx, ny = default_grid(cfg)
    ly_labels, lx_labels = _torus_labels(n)
    # the peak (tracemalloc, in closed grids): the projector check holds the
    # 'ly' level 0, the 'lx' family and the residuals, 3n, and two working
    # grids (3n + 2.1 at n_phi = 2, 4 and 6); the Weyl check holds level 0 and
    # its translated states (n + 6.2, and n + 6.3 at n_phi = 1 on 80^2, where
    # fixed-size arrays weigh more)
    return work_elements(cfg, nx, ny, [*ly_labels, *lx_labels, _COHERENT], max(3 * n + 2.5, n + 7))


def run_verification(cfg: TorusConfig, nphi_override: float | None = None, seed: int = 0):
    """All module invariants at the given config. Returns (checks, all_pass).

    nphi_override (possibly non-integer) recomputes the flux-consistency
    check with that flux instead of cfg.n_phi, which demonstrates how a
    non-quantized flux breaks the boundary-condition consistency; ValueError
    if the field of that flux is not finite. The torus checks' work is sized
    before anything is built: ValueError above config.WORK_BUDGET.
    """
    e = cfg.charge
    flux = cfg.n_phi if nphi_override is None else nphi_override
    b_used = TWO_PI * flux / (e * cfg.lx * cfg.ly)
    if not math.isfinite(b_used):
        raise ValueError(f"--nphi-override {nphi_override} gives a field B that is not finite")
    n = cfg.n_phi
    nx, ny = default_grid(cfg)
    ly_labels, lx_labels = _torus_labels(n)
    check_work(
        torus_work(cfg),
        f"verify's torus checks on the {nx}x{ny} grid",
        "choose a torus closer to square or a smaller n_phi",
    )
    rng = np.random.default_rng(seed)
    checks: list[Check] = []
    mark = time.perf_counter()

    def add(name, residual, tolerance):
        nonlocal mark
        now = time.perf_counter()
        checks.append(Check(name, residual, tolerance, now - mark))
        mark = now

    # flux quantization and boundary-shift consistency
    add(
        "flux_quantization_integer",
        abs(e * cfg.b_field * cfg.lx * cfg.ly / TWO_PI - cfg.n_phi),
        1.0e-12,
    )
    add(
        "boundary_shift_consistency",
        flux_consistency_defect(e, b_used, cfg.lx, cfg.ly),
        1.0e-12,
    )

    # cocycle condition, constant in (x, y), relative to 2 pi n_phi / e
    target = TWO_PI * cfg.n_phi / e
    pts = rng.uniform(-2.0, 2.0, size=(10, 2)) * (cfg.lx, cfg.ly)
    cdef = max(abs(cocycle_defect(cfg, x, y) / target - 1.0) for x, y in pts)
    add("cocycle_defect_constant", cdef, 1.0e-9)

    # Polyakov phases periodic under elementary steps
    ys = rng.uniform(0.0, cfg.ly, size=8)
    xs = rng.uniform(0.0, cfg.lx, size=8)
    p = max(
        np.max(np.abs(polyakov_phase_x(cfg, ys + cfg.ay) - polyakov_phase_x(cfg, ys))),
        np.max(np.abs(polyakov_phase_y(cfg, xs + cfg.ax) - polyakov_phase_y(cfg, xs))),
    )
    add("polyakov_step_periodicity", float(p), 1.0e-12)

    # group axioms on the table `landau group` writes, t[i, j] the index of
    # the product of elements i and j, and the representation of that group law
    nn = min(max(n, 2), 4)
    t = maggroup.multiplication_indices(nn)
    g, h, k = rng.integers(len(t), size=(200, 3)).T
    ids = np.arange(len(t))
    unit = t == 0
    central = np.flatnonzero((t == t.T).all(axis=1))
    ok = (
        np.array_equal(t[t[g, h], k], t[g, t[h, k]])
        and np.array_equal(t[0], ids) and np.array_equal(t[:, 0], ids)
        and (unit.sum(axis=1) == 1).all() and np.array_equal(unit, unit.T)
        and central.tolist() == maggroup.center(nn)
    )
    add("group_axioms", 0.0 if ok else 1.0, 0.5)

    rep = maggroup.clock_and_shift(max(n, 2))
    add("weyl_matrix_relation", maggroup.weyl_deviation(rep), 1.0e-14)
    pairs = rng.integers(len(t), size=(100, 2)).tolist()
    hom = maggroup.homomorphism_defect(maggroup.clock_and_shift(nn), t, pairs)
    add("representation_homomorphism", hom, 1.0e-12)

    # torus states: boundary condition, orthonormality, translation actions;
    # the 'ly' family is built one level at a time, level 0 last since the
    # translation checks reuse it, and each family is released after its last
    # reader, as the budget assumes
    boundary, gram_dev = [], []
    for lev in (1, 2, 0):
        set_ly = None  # the previous level goes before the next is built
        set_ly = torus_eigenstates(cfg, ly_labels[lev * n : (lev + 1) * n], nx, ny)
        boundary += [boundary_residual(s) for s in set_ly]
        gram_dev.append(float(np.max(np.abs(gram_matrix(set_ly) - np.eye(n)))))
        if lev == 1:
            h_residual = eigenvalue_residual("H", set_ly[0], 1.5)
    add("torus_boundary_residual", max(boundary), 1.0e-8)
    add("degenerate_basis_orthonormality", max(gram_dev), 1.0e-8)
    add("hamiltonian_eigen_residual", h_residual, 1.0e-5)

    s0 = set_ly[0]
    tx0, ty0 = translate(s0, "x"), translate(s0, "y")
    weyl_states = translate(tx0, "y").values - np.exp(TWO_PI * 1j / n) * translate(ty0, "x").values
    add(
        "weyl_relation_on_states",
        float(np.max(np.abs(weyl_states)) / np.max(np.abs(s0.values))),
        1.0e-10,
    )
    ladder = abs(abs(torus_inner(set_ly[1 % n], tx0)) - 1.0)
    add("tx_ladder_overlap", ladder, 1.0e-8)
    ty_eig = abs(torus_inner(s0, ty0) - 1.0)
    add("ty_eigenvalue", ty_eig, 1.0e-8)
    del tx0, ty0, weyl_states

    # the two degeneracy bases span the same subspace
    set_lx = torus_eigenstates(cfg, lx_labels, nx, ny)
    add("basis_projector_distance", projector_distance(set_ly, set_lx), 1.0e-8)
    del s0, set_ly, set_lx

    # coherent states on the torus
    coh = torus_coherent(cfg, _COHERENT, nx=nx, ny=ny)
    add("coherent_boundary_residual", boundary_residual(coh), 1.0e-8)
    e_target = abs(_COHERENT.lam) ** 2 + 0.5
    add(
        "coherent_energy_expectation",
        abs(torus_inner(coh, apply_operator("H", coh)) - e_target) / e_target,
        1.0e-3,
    )
    series = coherent_translation_series(cfg, _COHERENT, lx=1)
    quad = torus_inner(coh, translate(coh, "x"))
    add("translation_expectation_series", abs(series - quad), 1.0e-8)
    del coh

    # the ladder algebra and [Rx, Ry] on the plane, from one pass whose time
    # the first check carries
    ladder, heisenberg = _plane_residuals(cfg)
    add("ladder_algebra", ladder, 1.0e-5)
    add("heisenberg_center_commutator", heisenberg, 1.0e-6)

    # discrete spectrum: multiplicities n_phi, means near omega*(n+1/2)
    report = spectral.low_spectrum(cfg, nx, ny, 2 * n)
    dev = 0.0
    for cluster in report.clusters:
        if cluster.multiplicity != n:
            dev = 1.0
        dev = max(dev, abs(cluster.relative_deviation))
    add("spectrum_clusters", dev, 0.05)

    return checks, all(c.passed for c in checks)
