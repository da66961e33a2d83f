"""Analytic torus eigenstates and coherent states via truncated lattice sums,
grid-level magnetic translation operators, and the degeneracy / overlap
machinery built on them.

All states are carried as SampledState grids over the closed fundamental
domain [0, Lx] x [0, Ly] including both boundary lines, so the twisted
boundary condition can be checked rather than imposed. Grid dimensions are
multiples of n_phi in both directions, which makes the elementary steps
(a_x, a_y) exact grid shifts: apply_tx / apply_ty involve no interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import GRID_POINTS_PER_FLUX, TWO_PI, TorusConfig, commensurate, grid_spacing
from .finitediff import apply_fd_operator
from .gauge import boundary_residual, x_boundary_twist, y_boundary_twist
from .oscillator import hermite_eigenfunction
from .plane import CoherentLabel, coherent_center

# projector_distance rejects input families whose Gram matrix is further
# than this from the identity.
ORTHONORMAL_TOL = 1.0e-6
# The image sums keep every term whose Gaussian factor anywhere on the domain
# exceeds this, relative to its peak.
IMAGE_TOL = 1.0e-16


@dataclass(frozen=True)
class TorusLabel:
    """Torus eigenstate |n l> in either the Ty-diagonal basis ('ly') or the
    Tx-diagonal basis ('lx'); the energy depends only on n and the index l
    matters mod n_phi."""

    n: int
    l: int
    basis: str = "ly"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"level must be >= 0, got {self.n}")
        if self.basis not in ("ly", "lx"):
            raise ValueError(f"basis must be 'ly' or 'lx', got {self.basis!r}")


def _reach(decay: float) -> float:
    """Distance d at which the amplitude exp(-decay * d^2) falls to IMAGE_TOL."""
    return math.sqrt(math.log(1.0 / IMAGE_TOL) / decay)


def _image_indices(c0: float, step: float, lo: float, hi: float, width: float) -> np.ndarray:
    """Image indices k, as floats, whose Gaussian center c0 + k*step lies in
    [lo - width, hi + width]."""
    a = (lo - width - c0) / step
    b = (hi + width - c0) / step
    if step < 0:
        a, b = b, a
    return np.arange(math.ceil(a), math.floor(b) + 1, dtype=float)


class SampledState:
    """Complex amplitudes on the closed grid of the fundamental domain.

    values[ix, iy] with ix = 0..nx, iy = 0..ny covering x = ix*Lx/nx,
    y = iy*Ly/ny. Immutable once built; the duplicated boundary lines are
    excluded from inner products.
    """

    def __init__(self, config: TorusConfig, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 2:
            raise ValueError("values must be 2-d")
        nx, ny = values.shape[0] - 1, values.shape[1] - 1
        if nx % config.n_phi or ny % config.n_phi:
            raise ValueError(
                f"grid {nx}x{ny} not commensurate with n_phi={config.n_phi}"
            )
        values.setflags(write=False)
        self.config = config
        self.values = values

    @property
    def nx(self) -> int:
        return self.values.shape[0] - 1

    @property
    def ny(self) -> int:
        return self.values.shape[1] - 1

    @property
    def hx(self) -> float:
        return self.config.lx / self.nx

    @property
    def hy(self) -> float:
        return self.config.ly / self.ny

    @property
    def xs(self) -> np.ndarray:
        return grid_axes(self.config, self.nx, self.ny)[0]

    @property
    def ys(self) -> np.ndarray:
        return grid_axes(self.config, self.nx, self.ny)[1]

    @property
    def core(self) -> np.ndarray:
        """Half-open grid without the duplicated boundary lines."""
        return self.values[:-1, :-1]

    def boundary_residual(self) -> float:
        return boundary_residual(self)


def default_grid(cfg: TorusConfig) -> tuple[int, int]:
    """Grid dimensions: multiples of n_phi whose spacing keeps the
    resolution rule of `config.grid_spacing` on each axis."""
    h = grid_spacing(cfg)

    def round_up(n_target):
        return commensurate(max(n_target, GRID_POINTS_PER_FLUX * cfg.n_phi, 32), cfg.n_phi)

    return round_up(math.ceil(cfg.lx / h)), round_up(math.ceil(cfg.ly / h))


def grid_axes(cfg: TorusConfig, nx: int, ny: int):
    xs = np.linspace(0.0, cfg.lx, nx + 1)
    ys = np.linspace(0.0, cfg.ly, ny + 1)
    return xs, ys


def sample_on_torus(cfg: TorusConfig, func, nx: int, ny: int) -> SampledState:
    """Sample an arbitrary amplitude callable on the closed grid. No boundary
    condition is imposed; use gauge.boundary_residual to test it."""
    xs, ys = grid_axes(cfg, nx, ny)
    return SampledState(cfg, np.asarray(func(xs[:, None], ys[None, :]), dtype=complex))


def torus_inner(a: SampledState, b: SampledState) -> complex:
    """Trapezoid inner product <a|b> over the fundamental domain (the
    duplicated boundary lines are excluded, i.e. periodic trapezoid)."""
    if a.values.shape != b.values.shape:
        raise ValueError(f"grid mismatch: {a.values.shape} vs {b.values.shape}")
    return complex(np.vdot(a.core, b.core) * a.hx * a.hy)


def gram_matrix(states) -> np.ndarray:
    """All inner products G[i, j] = <states[i]|states[j]> of states on one
    grid, as one matrix product (torus_inner's quadrature for every pair)."""
    v = np.stack([s.core.ravel() for s in states], axis=1)
    return (v.conj().T @ v) * (states[0].hx * states[0].hy)


def torus_norm(a: SampledState) -> float:
    return math.sqrt(max(torus_inner(a, a).real, 0.0))


def normalized(state: SampledState) -> SampledState:
    n = torus_norm(state)
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    return SampledState(state.config, state.values / n)


# ---------------------------------------------------------------------------
# analytic state construction


def torus_eigenstate(cfg: TorusConfig, label: TorusLabel, nx: int, ny: int) -> SampledState:
    """Simultaneous eigenstate of H (energy omega*(n+1/2)) and of Ty
    (basis 'ly', eigenvalue exp(2 pi i l / n_phi)) or Tx (basis 'lx').

    In the 'ly' basis the amplitude is the image sum over k of

        psi_n(x + (n_phi k + l + theta_y/2pi) Lx/n_phi)
        * exp(2 pi i y (n_phi k + l + theta_y/2pi) / Ly - i theta_x k)

    and the 'lx' basis is the analogous sum along y with the extra gauge
    factor exp(-2 pi i n_phi x y / (Lx Ly)). The overall constant is made
    positive real by unit normalization; term phases stay as written.

    Every image term is a product of a function of x and a function of y,
    so the sum is one matrix product over the image index k:

        'ly':  P @ W^T,            P[x, k] = psi_n(x + kval_k a_x),
                                   W[y, k] = exp(2 pi i y kval_k / Ly - i theta_x k)
        'lx':  cross * (W @ P^T),  W[x, k] = exp(2 pi i x qval_k / Lx + i theta_y k),
                                   P[y, k] = psi_n(y - qval_k a_y)

    with kval_k = n_phi k + l + theta_y/2pi, qval_k = n_phi k + l + theta_x/2pi
    and cross = exp(-2 pi i n_phi x y / (Lx Ly)).
    """
    xs, ys = grid_axes(cfg, nx, ny)
    mw = cfg.mass_omega
    # oscillator amplitude ~ exp(-M w u^2 / 2) beyond the turning point
    width = math.sqrt(2.0 * label.n + 1.0) / math.sqrt(mw) + _reach(mw / 2.0)

    if label.basis == "ly":
        # Gaussian centers in x at -(l + theta_y/2pi) a_x - k Lx
        c0 = -(label.l + cfg.theta_y / TWO_PI) * cfg.ax
        k = _image_indices(c0, -cfg.lx, 0.0, cfg.lx, width)
        kval = cfg.n_phi * k + label.l + cfg.theta_y / TWO_PI
        profile = hermite_eigenfunction(mw, label.n, xs[:, None] + kval * cfg.ax)
        wave = np.exp(TWO_PI * 1j * ys[:, None] * kval / cfg.ly - 1j * cfg.theta_x * k)
        values = profile @ wave.T
    else:
        # Gaussian centers in y at (l + theta_x/2pi) a_y + k Ly
        c0 = (label.l + cfg.theta_x / TWO_PI) * cfg.ay
        cross = np.exp(-TWO_PI * 1j * cfg.n_phi * xs[:, None] * ys[None, :] / (cfg.lx * cfg.ly))
        k = _image_indices(c0, cfg.ly, 0.0, cfg.ly, width)
        qval = cfg.n_phi * k + label.l + cfg.theta_x / TWO_PI
        profile = hermite_eigenfunction(mw, label.n, ys[:, None] - qval * cfg.ay)
        wave = np.exp(TWO_PI * 1j * xs[:, None] * qval / cfg.lx + 1j * cfg.theta_y * k)
        values = cross * (wave @ profile.T)

    return normalized(SampledState(cfg, values))


def torus_coherent(cfg: TorusConfig, c: CoherentLabel, nx: int, ny: int) -> SampledState:
    """Torus coherent state: the image sum over full-period magnetic
    translations of the infinite-volume coherent amplitude f,

        sum_{kx, ky} exp(2 pi i n_phi kx y / Ly - i kx theta_x - i ky theta_y)
                     f(x + kx Lx, y + ky Ly),

    normalized on the grid (the normalization constant is not assumed).

    With f(u, v) = exp[-(Mw/4)(u^2 + v^2) - i (Mw/2) u v
    + sqrt(Mw/2)(u (lam + lam') + i v (lam - lam'))], u = x + kx Lx and
    v = y + ky Ly, the cross term splits as

        uv = xy + x ky Ly + kx Lx y + kx ky Lx Ly,

    so each image term j = (kx, ky) is exp(-i Mw xy / 2) F[x, j] G[y, j] with

        F[x, j] = exp[-(Mw/4) u^2 + sqrt(Mw/2) u (lam + lam') - i (Mw/2) x ky Ly]
        G[y, j] = exp[-(Mw/4) v^2 + i sqrt(Mw/2) v (lam - lam')
                      - i (Mw/2)(kx Lx y + kx ky Lx Ly)
                      + 2 pi i n_phi kx y / Ly - i kx theta_x - i ky theta_y],

    and the whole sum is exp(-i Mw xy / 2) * (F @ G^T): one grid-sized
    exponential and one matrix product instead of one per image term."""
    xs, ys = grid_axes(cfg, nx, ny)
    mw = cfg.mass_omega
    pre = math.sqrt(mw / 2.0)
    s2 = math.sqrt(2.0 / mw)
    cx = s2 * (c.lam + c.lam_prime).real
    cy = s2 * (c.lam_prime.imag - c.lam.imag)
    # coherent amplitude ~ exp(-M w d^2 / 4) around the packet center
    width = _reach(mw / 4.0)

    kxs = _image_indices(cx, -cfg.lx, 0.0, cfg.lx, width)
    kys = _image_indices(cy, -cfg.ly, 0.0, cfg.ly, width)
    kx, ky = (k.ravel() for k in np.meshgrid(kxs, kys, indexing="ij"))
    u = xs[:, None] + kx * cfg.lx
    v = ys[:, None] + ky * cfg.ly
    f = np.exp(
        -0.25 * mw * u * u
        + pre * u * (c.lam + c.lam_prime)
        - 0.5j * mw * xs[:, None] * (ky * cfg.ly)
    )
    g = np.exp(
        -0.25 * mw * v * v
        + 1j * pre * v * (c.lam - c.lam_prime)
        - 0.5j * mw * (kx * cfg.lx) * v
        + 1j * (TWO_PI * cfg.n_phi / cfg.ly) * kx * ys[:, None]
        - 1j * (kx * cfg.theta_x + ky * cfg.theta_y)
    )
    common = np.exp(-0.5j * mw * xs[:, None] * ys[None, :])
    return normalized(SampledState(cfg, common * (f @ g.T)))


# ---------------------------------------------------------------------------
# grid translation operators


def _close_grid(core: np.ndarray, cfg: TorusConfig, ys_core: np.ndarray) -> np.ndarray:
    """Attach the x = Lx and y = Ly boundary lines via the twist relation."""
    nx, ny = core.shape
    full = np.empty((nx + 1, ny + 1), dtype=complex)
    full[:nx, :ny] = core
    full[nx, :ny] = x_boundary_twist(cfg, ys_core) * core[0, :]
    ty = y_boundary_twist(cfg)
    full[:nx, ny] = ty * core[:, 0]
    full[nx, ny] = x_boundary_twist(cfg, np.array(0.0)) * ty * core[0, 0]
    return full


def apply_tx(state: SampledState) -> SampledState:
    """Elementary magnetic translation along x:

    (Tx Psi)(x, y) = exp(2 pi i y / Ly - i theta_x / n_phi) Psi(x + a_x, y),

    with the x-wrap supplied by the boundary twist. Implemented as an exact
    roll of the half-open core (a permutation times unit phases), so it is
    unitary on the grid inner product for any input; the duplicated boundary
    lines of the result are rebuilt from the twist relation."""
    cfg = state.config
    core = np.array(state.values[:-1, :-1])
    nx = state.nx
    s = nx // cfg.n_phi
    ys_core = state.ys[:-1]
    shifted = np.roll(core, -s, axis=0)
    if s > 0:
        shifted[nx - s :, :] *= x_boundary_twist(cfg, ys_core)[None, :]
    gauge = np.exp(TWO_PI * 1j * ys_core / cfg.ly - 1j * cfg.theta_x / cfg.n_phi)
    return SampledState(cfg, _close_grid(gauge[None, :] * shifted, cfg, ys_core))


def apply_ty(state: SampledState) -> SampledState:
    """Elementary magnetic translation along y:

    (Ty Psi)(x, y) = exp(-i theta_y / n_phi) Psi(x, y + a_y),

    an exact roll of the core with the y-twist on the wrapped block."""
    cfg = state.config
    core = np.array(state.values[:-1, :-1])
    ny = state.ny
    s = ny // cfg.n_phi
    ys_core = state.ys[:-1]
    shifted = np.roll(core, -s, axis=1)
    if s > 0:
        shifted[:, ny - s :] *= y_boundary_twist(cfg)
    out = np.exp(-1j * cfg.theta_y / cfg.n_phi) * shifted
    return SampledState(cfg, _close_grid(out, cfg, ys_core))


def apply_translation_power(state: SampledState, direction: str, power: int) -> SampledState:
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    op = apply_tx if direction == "x" else apply_ty if direction == "y" else None
    if op is None:
        raise ValueError(f"direction must be 'x' or 'y', got {direction!r}")
    for _ in range(power):
        state = op(state)
    return state


# ---------------------------------------------------------------------------
# finite-difference operators on torus states


def apply_operator(op: str, state: SampledState) -> SampledState:
    """Apply H, Rx or Ry (`finitediff.OPERATORS`) by 4th-order finite
    differences.

    Derivative stencils reaching across the domain edges use the twisted
    periodic extension, which is exact for boundary-compliant states. Rx and
    Ry do not commute with the full-period magnetic translations, so the
    cells within 2 of an edge inherit the extension mismatch on second
    applications; compare on an interior margin in that case. The closed
    boundary lines of the result are rebuilt from the twist relation.
    """
    cfg = state.config
    core = state.values[:-1, :-1]
    xs = state.xs[:-1]
    ys = state.ys[:-1]
    out = apply_fd_operator(
        op,
        core,
        xs,
        ys,
        state.hx,
        state.hy,
        cfg,
        twist_x=x_boundary_twist(cfg, ys),
        twist_y=y_boundary_twist(cfg),
    )
    return SampledState(cfg, _close_grid(out, cfg, ys))


def expectation(op: str, state: SampledState) -> complex:
    """Quadrature expectation <Psi|O Psi> (state assumed unit-normalized)."""
    return torus_inner(state, apply_operator(op, state))


def eigenvalue_residual(op: str, state: SampledState, value: complex) -> float:
    """Relative L2 residual |(O - value) Psi| / |Psi| over the core grid."""
    applied = apply_operator(op, state).core
    base = state.core
    num = np.linalg.norm(applied - value * base)
    den = np.linalg.norm(base)
    return float(num / den)


def translation_expectation(state: SampledState, direction: str, power: int) -> complex:
    """<Psi| T_direction^power |Psi> by grid quadrature."""
    return torus_inner(state, apply_translation_power(state, direction, power))


# ---------------------------------------------------------------------------
# closed-form overlap series for torus coherent states


def _coherent_overlap_term(cfg: TorusConfig, c: CoherentLabel, lx: int, ly: int) -> complex:
    """<lam lam'| Tx^lx Ty^ly |lam lam'> in the infinite volume (closed form
    from the Gaussian overlap integral):

        exp[-(pi^2/Mw)(lx^2/Ly^2 + ly^2/Lx^2)] * exp[-i pi lx ly / n_phi]
        * exp[ i (2 pi <R_y>/Ly - theta_x/n_phi) lx]
        * exp[-i (2 pi <R_x>/Lx + theta_y/n_phi) ly]
    """
    mw = cfg.mass_omega
    rx, ry = coherent_center(cfg, c)
    gauss = math.exp(-(math.pi**2 / mw) * (lx**2 / cfg.ly**2 + ly**2 / cfg.lx**2))
    phase = (
        -math.pi * lx * ly / cfg.n_phi
        + (TWO_PI * ry / cfg.ly - cfg.theta_x / cfg.n_phi) * lx
        - (TWO_PI * rx / cfg.lx + cfg.theta_y / cfg.n_phi) * ly
    )
    return gauss * complex(math.cos(phase), math.sin(phase))


def _series_reach(cfg: TorusConfig) -> int:
    # image index m where the Gaussian factor drops below ~1e-22
    mw = cfg.mass_omega
    need = math.sqrt(50.0 * mw) * max(cfg.lx, cfg.ly) / (math.pi * cfg.n_phi)
    return max(3, math.ceil(need) + 2)


def coherent_translation_series(cfg: TorusConfig, c: CoherentLabel, lx: int = 0, ly: int = 0) -> complex:
    """Normalized closed-form expectation <Tx^lx Ty^ly> in the torus coherent
    state, as the image-sum ratio

        sum_m C(n_phi mx + lx, n_phi my + ly) / sum_m C(n_phi mx, n_phi my).

    This is the independent analytic route that the grid quadrature of
    translation_expectation is checked against."""
    mm = _series_reach(cfg)
    num = 0.0 + 0.0j
    den = 0.0 + 0.0j
    n = cfg.n_phi
    for mx in range(-mm, mm + 1):
        for my in range(-mm, mm + 1):
            num += _coherent_overlap_term(cfg, c, n * mx + lx, n * my + ly)
            den += _coherent_overlap_term(cfg, c, n * mx, n * my)
    return complex(num / den)


def coherent_prefactor(cfg: TorusConfig, c: CoherentLabel, l: int, direction: str) -> complex:
    """Lattice-sum prefactor B_l: the translation expectation with the
    center-and-angle phase stripped off,

        <Tx^l> = B_l exp[ i (2 pi <R_y>/Ly - theta_x/n_phi) l]
        <Ty^l> = B_l exp[-i (2 pi <R_x>/Lx + theta_y/n_phi) l].
    """
    rx, ry = coherent_center(cfg, c)
    if direction == "x":
        full = coherent_translation_series(cfg, c, lx=l)
        phase = (TWO_PI * ry / cfg.ly - cfg.theta_x / cfg.n_phi) * l
    elif direction == "y":
        full = coherent_translation_series(cfg, c, ly=l)
        phase = -(TWO_PI * rx / cfg.lx + cfg.theta_y / cfg.n_phi) * l
    else:
        raise ValueError(f"direction must be 'x' or 'y', got {direction!r}")
    return full * complex(math.cos(phase), -math.sin(phase))


# ---------------------------------------------------------------------------
# subspace comparison and densities


def projector_distance(set_a, set_b) -> float:
    """Operator norm of P_A - P_B for the projectors onto the spans of two
    orthonormal families of SampledStates (grid inner products)."""

    def stack(states):
        return np.array([s.core.ravel() * math.sqrt(s.hx * s.hy) for s in states]).T

    va = stack(set_a)
    vb = stack(set_b)
    for name, v in (("A", va), ("B", vb)):
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(v.shape[1]))) > ORTHONORMAL_TOL:
            raise ValueError(f"input set {name} is not orthonormal within {ORTHONORMAL_TOL}")
    w = np.hstack([va, vb])
    q, _ = np.linalg.qr(w)
    ma = q.conj().T @ va
    mb = q.conj().T @ vb
    diff = ma @ ma.conj().T - mb @ mb.conj().T
    eigs = np.linalg.eigvalsh(diff)
    return float(np.max(np.abs(eigs)))


@dataclass(frozen=True)
class DensityMap:
    xs: np.ndarray
    ys: np.ndarray
    density: np.ndarray
    argmax_x: float
    argmax_y: float


def density_map(state: SampledState) -> DensityMap:
    """|Psi|^2 normalized to unit torus integral, plus the argmax location.

    The argmax is not unique for every state: an eigenstate's density has
    n_phi copies of its peak that are equal in exact arithmetic ('ly' states
    repeat every a_y in y, 'lx' states every a_x in x), and `np.argmax` picks
    among them by rounding noise. Any reordering of the image sum may move
    the reported point to another copy; compare densities, not argmaxes.
    """
    d = np.abs(state.values) ** 2
    total = d[:-1, :-1].sum() * state.hx * state.hy
    d = d / total
    ix, iy = np.unravel_index(np.argmax(d[:-1, :-1]), d[:-1, :-1].shape)
    return DensityMap(
        xs=state.xs,
        ys=state.ys,
        density=d,
        argmax_x=float(state.xs[ix]),
        argmax_y=float(state.ys[iy]),
    )
