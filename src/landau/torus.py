"""Analytic torus eigenstates and coherent states via truncated lattice sums,
grid-level magnetic translation operators, and the degeneracy / overlap
machinery built on them.

All states are carried as SampledState grids over the closed fundamental
domain [0, Lx] x [0, Ly] including both boundary lines, so the twisted
boundary condition can be checked rather than imposed. Grid dimensions are
multiples of n_phi in both directions, which makes the elementary steps
(a_x, a_y) exact grid shifts: `translate` involves no interpolation.

No grid-sized BLAS or LAPACK call here or in `verify` (a test scans for
them). Inner products, Gram matrices and norms are numpy's pairwise
reductions of conj(a) * b (`grid_vdot`), the image sums are
`einsum(..., optimize=False)` over the image index, and only matrices of side
n_phi reach LAPACK. Two reasons. The order of a pairwise sum is fixed by the
array shape, so `verify.json` is the same at every BLAS thread count. And a
`verify` run then uses one OpenBLAS, scipy's, in the lattice eigensolver:
numpy and scipy ship separate OpenBLAS copies, and at two threads each
copy's spinning workers take the CPUs from the other. On a 2-CPU Xeon at
OPENBLAS_NUM_THREADS=2, one numpy `vdot` on a 160^2 grid just before each
n_phi = 4 lattice solve on that grid made the solve take 69 ms instead of
37 ms (median of 5); at one thread, 38 ms either way.

States are stored C-ordered (`SampledState`), so every sum over a grid runs
in one order whatever built the state. An 'ly' eigenstate's image sum has a
real x factor P[x, k] and a complex y factor W[k, y]; it runs as one real
contraction of P with the float view of W, whose last axis holds the real and
imaginary planes. That gives the complex einsum's values bit for bit: a
complex times a real is two real products (the cross terms multiply an exact
zero), and each plane's sum over k keeps its order. On a 2-CPU Xeon with
9 images it took 0.20 ms against 0.88 at 161^2, and 11 ms against 33 at
1025^2. W must be k-major: over a y-major W the same contraction ran 5x
slower than the complex einsum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import GRID_POINTS_PER_FLUX, TWO_PI, TorusConfig, commensurate, grid_spacing
from .finitediff import apply_fd_operator
from .gauge import x_boundary_twist, y_boundary_twist
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


def _image_bounds(c0: float, step: float, lo: float, hi: float, width: float) -> tuple[int, int]:
    """First and last image index k whose Gaussian center c0 + k*step lies in
    [lo - width, hi + width]; last < first when there is none."""
    a = (lo - width - c0) / step
    b = (hi + width - c0) / step
    if step < 0:
        a, b = b, a
    return math.ceil(a), math.floor(b)


def _image_indices(c0: float, step: float, lo: float, hi: float, width: float) -> np.ndarray:
    """Image indices k, as floats, whose Gaussian center c0 + k*step lies in
    [lo - width, hi + width]."""
    first, last = _image_bounds(c0, step, lo, hi, width)
    return np.arange(first, last + 1, dtype=float)


def _eigenstate_images(cfg: TorusConfig, label: TorusLabel) -> tuple:
    """The image sum of `torus_eigenstate`'s label as _image_bounds'
    arguments (c0, step, lo, hi, width)."""
    mw = cfg.mass_omega
    # oscillator amplitude ~ exp(-M w u^2 / 2) beyond the turning point
    width = math.sqrt(2.0 * label.n + 1.0) / math.sqrt(mw) + _reach(mw / 2.0)
    if label.basis == "ly":
        # Gaussian centers in x at -(l + theta_y/2pi) a_x - k Lx
        return -(label.l + cfg.theta_y / TWO_PI) * cfg.ax, -cfg.lx, 0.0, cfg.lx, width
    # Gaussian centers in y at (l + theta_x/2pi) a_y + k Ly
    return (label.l + cfg.theta_x / TWO_PI) * cfg.ay, cfg.ly, 0.0, cfg.ly, width


def _coherent_images(cfg: TorusConfig, c: CoherentLabel) -> tuple:
    """The x and y image sums of `torus_coherent`'s label, each as
    _image_bounds' arguments (c0, step, lo, hi, width)."""
    mw = cfg.mass_omega
    s2 = math.sqrt(2.0 / mw)
    cx = s2 * (c.lam + c.lam_prime).real
    cy = s2 * (c.lam_prime.imag - c.lam.imag)
    # coherent amplitude ~ exp(-M w d^2 / 4) around the packet center
    width = _reach(mw / 4.0)
    return (cx, -cfg.lx, 0.0, cfg.lx, width), (cy, -cfg.ly, 0.0, cfg.ly, width)


def image_count(cfg: TorusConfig, label) -> int:
    """Number of images summed for the state of `label`, a TorusLabel or a
    CoherentLabel, counted without building them: each image adds one column
    of nx + 1 and one of ny + 1 values to the sum's factor matrices."""
    sums = _coherent_images(cfg, label) if isinstance(label, CoherentLabel) else [_eigenstate_images(cfg, label)]
    return sum(max(0, last - first + 1) for first, last in (_image_bounds(*args) for args in sums))


def work_elements(cfg: TorusConfig, nx: int, ny: int, labels, grids: float) -> int:
    """Complex values held at most on the nx x ny grid while the caller holds
    `grids` closed grids of its own (a half grid is one of floats) and builds
    the states of `labels`, counted without building anything: the larger of
    `grids` and the costliest build's `_BUILD_GRIDS`, plus the largest image
    sum's factor matrices twice, since a build holds each factor and the
    exponent array it is evaluated from."""
    build = max(_BUILD_GRIDS["coherent" if isinstance(label, CoherentLabel) else label.basis] for label in labels)
    images = max(image_count(cfg, label) for label in labels)
    return math.ceil(max(grids, build) * (nx + 1) * (ny + 1)) + 2 * images * (nx + ny + 2)


class SampledState:
    """Complex amplitudes on the closed grid of the fundamental domain.

    values[ix, iy] with ix = 0..nx, iy = 0..ny covering x = ix*Lx/nx,
    y = iy*Ly/ny. Immutable once built, and C-ordered, which fixes the order
    of every sum over it; the duplicated boundary lines are excluded from
    inner products.
    """

    def __init__(self, config: TorusConfig, values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=complex)
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

    @functools.cached_property
    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        axes = grid_axes(self.config, self.nx, self.ny)
        for a in axes:
            a.setflags(write=False)
        return axes

    @property
    def xs(self) -> np.ndarray:
        return self._axes[0]

    @property
    def ys(self) -> np.ndarray:
        return self._axes[1]

    @property
    def core(self) -> np.ndarray:
        """Half-open grid without the duplicated boundary lines."""
        return self.values[:-1, :-1]


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


def grid_vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """np.vdot(a, b) for arrays of one shape, as numpy's pairwise sum of
    conj(a) * b, whose order is fixed by the shape alone (module docstring).
    One temporary the size of a, where np.vdot copies both strided inputs."""
    p = np.conjugate(a, dtype=complex)
    p *= b
    return complex(np.add.reduce(p.ravel()))


def torus_inner(a: SampledState, b: SampledState) -> complex:
    """Trapezoid inner product <a|b> over the fundamental domain (the
    duplicated boundary lines are excluded, i.e. periodic trapezoid)."""
    if a.values.shape != b.values.shape:
        raise ValueError(f"grid mismatch: {a.values.shape} vs {b.values.shape}")
    return grid_vdot(a.core, b.core) * (a.hx * a.hy)


def _gram(rows, cols=None) -> np.ndarray:
    """G[i, j] = grid_vdot(rows[i], cols[j]) for arrays of one shape, each
    row conjugated once. Without cols, G = grid_vdot(rows[i], rows[j]) is
    Hermitian, and its lower triangle is filled with the conjugate of the
    upper one. Summed directly, a lower entry can differ from that in the
    last bit of its imaginary part: numpy's complex multiply may fuse a
    multiply and an add, so conj(b) * a is conj(conj(a) * b) only up to
    rounding."""
    hermitian = cols is None
    cols = rows if hermitian else cols
    g = np.empty((len(rows), len(cols)), dtype=complex)
    for i, a in enumerate(rows):
        conj_a = np.conjugate(a, dtype=complex)
        for j in range(i if hermitian else 0, len(cols)):
            value = np.add.reduce((conj_a * cols[j]).ravel())
            if hermitian:
                # overwritten by the line below on the diagonal, j == i
                g[j, i] = value.conjugate()
            g[i, j] = value
    return g


def gram_matrix(states) -> np.ndarray:
    """All inner products G[i, j] = <states[i]|states[j]> of states on one
    grid."""
    shapes = {s.values.shape for s in states}
    if len(shapes) > 1:
        raise ValueError(f"grid mismatch: {sorted(shapes)}")
    return _gram([s.core for s in states]) * (states[0].hx * states[0].hy)


def torus_norm(a: SampledState) -> float:
    return math.sqrt(max(torus_inner(a, a).real, 0.0))


def normalized(state: SampledState) -> SampledState:
    n = torus_norm(state)
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    return SampledState(state.config, state.values / n)


# ---------------------------------------------------------------------------
# analytic state construction

# Closed grids one state build holds at its peak (`work_elements`): the
# highest tracemalloc peak of a build at 512^2 over n_phi = 1-4 and levels
# 0-3, its few image factors included, which is above every peak at 1025^2
# (the fixed-size arrays weigh less there). A coherent state holds its image
# sums and their products (5.14, at odd n_phi), an 'lx' state the cross
# phase, the sum and their product (3.07), an 'ly' state the sum and its
# normalised copy (2.05).
_BUILD_GRIDS = {"coherent": 5.14, "lx": 3.07, "ly": 2.05}


def torus_eigenstate(cfg: TorusConfig, label: TorusLabel, nx: int, ny: int) -> SampledState:
    """Simultaneous eigenstate of H (energy (n + 1/2) hbar*omega) and of Ty
    (basis 'ly', eigenvalue exp(2 pi i l / n_phi)) or Tx (basis 'lx').

    In the 'ly' basis the amplitude is the image sum over k of

        psi_n(x + (n_phi k + l + theta_y/2pi) Lx/n_phi)
        * exp(2 pi i y (n_phi k + l + theta_y/2pi) / Ly - i theta_x k)

    and the 'lx' basis is the analogous sum along y with the extra gauge
    factor exp(-2 pi i n_phi x y / (Lx Ly)). The overall constant is made
    positive real by unit normalization; term phases stay as written.

    Every image term is a product of a function of x and a function of y,
    so the sum is one contraction over the image index k:

        'ly':  sum_k P[x, k] W[k, y],          P[x, k] = psi_n(x + kval_k a_x),
                                               W[k, y] = exp(2 pi i y kval_k / Ly - i theta_x k)
        'lx':  cross * sum_k W[x, k] P[y, k],  W[x, k] = exp(2 pi i x qval_k / Lx + i theta_y k),
                                               P[y, k] = psi_n(y - qval_k a_y)

    with kval_k = n_phi k + l + theta_y/2pi, qval_k = n_phi k + l + theta_x/2pi
    and cross = exp(-2 pi i n_phi x y / (Lx Ly)).
    """
    return torus_eigenstates(cfg, [label], nx, ny)[0]


def torus_eigenstates(cfg: TorusConfig, labels, nx: int, ny: int) -> list[SampledState]:
    """`torus_eigenstate` of each of `labels` on one nx x ny grid, with the
    grid axes and the 'lx' cross phase computed once for all of them.

    The 'ly' sum runs over the real and imaginary planes of W as one real
    contraction (module docstring). The 'lx' sum stays complex: its complex
    factor is the x one, and einsum lays a real contraction over that out
    x-fastest, not C-ordered."""
    xs, ys = grid_axes(cfg, nx, ny)
    mw = cfg.mass_omega
    cross = None
    states = []
    for label in labels:
        k = _image_indices(*_eigenstate_images(cfg, label))
        if label.basis == "ly":
            kval = cfg.n_phi * k + label.l + cfg.theta_y / TWO_PI
            profile = hermite_eigenfunction(mw, label.n, xs[:, None] + kval * cfg.ax)
            wave = np.exp(TWO_PI * 1j * ys * kval[:, None] / cfg.ly - 1j * cfg.theta_x * k[:, None])
            planes = wave.view(float).reshape(len(k), ny + 1, 2)
            values = np.einsum("xk,kyc->xyc", profile, planes, optimize=False).view(complex)[..., 0]
        else:
            if cross is None:
                cross = np.exp(-TWO_PI * 1j * cfg.n_phi * xs[:, None] * ys[None, :] / (cfg.lx * cfg.ly))
            qval = cfg.n_phi * k + label.l + cfg.theta_x / TWO_PI
            profile = hermite_eigenfunction(mw, label.n, ys[:, None] - qval * cfg.ay)
            wave = np.exp(TWO_PI * 1j * xs[:, None] * qval / cfg.lx + 1j * cfg.theta_y * k)
            # cross stays the left operand as written: on grids of 256 KiB and
            # more numpy reuses the einsum temporary and multiplies it by
            # cross instead, and complex multiply is not bitwise commutative
            values = cross * np.einsum("xk,yk->xy", wave, profile, optimize=False)
        states.append(normalized(SampledState(cfg, values)))
    return states


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

    and since eB Lx Ly = 2 pi n_phi the last term is exp(-i pi n_phi kx ky) =
    (-1)^(n_phi kx ky). Each image term is then exp(-i Mw xy / 2) times

        X[x, kx] D[y, kx] B[x, ky] Y[y, ky] (-1)^(n_phi kx ky),

        X[x, kx] = exp[-(Mw/4) u^2 + sqrt(Mw/2) u (lam + lam')]
        D[y, kx] = exp[-i (Mw/2) kx Lx y + 2 pi i n_phi kx y / Ly - i kx theta_x]
        B[x, ky] = exp[-i (Mw/2) x ky Ly]
        Y[y, ky] = exp[-(Mw/4) v^2 + i sqrt(Mw/2) v (lam - lam') - i ky theta_y].

    The sign is -1 only where n_phi kx and ky are both odd. With E and O the
    sums of X D over the kx where n_phi kx is even and odd, and S_e and S_o
    the sums of B Y over even and odd ky, the double sum separates:

        (E + O) * S_e + (E - O) * S_o,

    Kx + Ky rank-1 passes over the grid in place of Kx Ky."""
    xs, ys = grid_axes(cfg, nx, ny)
    mw = cfg.mass_omega
    pre = math.sqrt(mw / 2.0)
    kx, ky = (_image_indices(*args) for args in _coherent_images(cfg, c))
    u = xs[:, None] + kx * cfg.lx
    v = ys[:, None] + ky * cfg.ly
    x_part = np.exp(-0.25 * mw * u * u + pre * u * (c.lam + c.lam_prime))
    d_part = np.exp(
        1j * (TWO_PI * cfg.n_phi / cfg.ly - 0.5 * mw * cfg.lx) * kx * ys[:, None]
        - 1j * kx * cfg.theta_x
    )
    b_part = np.exp(-0.5j * mw * cfg.ly * xs[:, None] * ky)
    y_part = np.exp(-0.25 * mw * v * v + 1j * pre * v * (c.lam - c.lam_prime) - 1j * ky * cfg.theta_y)

    def image_sum(p, q):
        return np.einsum("xk,yk->xy", p, q, optimize=False)

    odd_kx = (kx % 2 == 1) & (cfg.n_phi % 2 == 1)
    if odd_kx.any():
        odd_ky = ky % 2 == 1
        e = image_sum(x_part[:, ~odd_kx], d_part[:, ~odd_kx])
        o = image_sum(x_part[:, odd_kx], d_part[:, odd_kx])
        values = (e + o) * image_sum(b_part[:, ~odd_ky], y_part[:, ~odd_ky])
        values += (e - o) * image_sum(b_part[:, odd_ky], y_part[:, odd_ky])
    else:
        values = image_sum(x_part, d_part) * image_sum(b_part, y_part)
    values *= np.exp(-0.5j * mw * xs[:, None] * ys[None, :])
    return normalized(SampledState(cfg, values))


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


def translate(state: SampledState, direction: str, power: int = 1) -> SampledState:
    """Magnetic translation T_direction^power, built from the elementary steps

    (Tx Psi)(x, y) = exp(2 pi i y / Ly - i theta_x / n_phi) Psi(x + a_x, y),
    (Ty Psi)(x, y) = exp(-i theta_y / n_phi) Psi(x, y + a_y),

    with the wrap supplied by the boundary twist. Each step is an exact roll
    of the half-open core by n/n_phi cells (a permutation times unit phases),
    so it is unitary on the grid inner product for any input; the duplicated
    boundary lines are rebuilt from the twist relation once, after the last
    step. Power 0 returns the state itself."""
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    if direction not in ("x", "y"):
        raise ValueError(f"direction must be 'x' or 'y', got {direction!r}")
    if power == 0:
        return state
    cfg = state.config
    ys_core = state.ys[:-1]
    if direction == "x":
        axis, twist = 0, x_boundary_twist(cfg, ys_core)[None, :]
        gauge = np.exp(TWO_PI * 1j * ys_core / cfg.ly - 1j * cfg.theta_x / cfg.n_phi)[None, :]
    else:
        axis, twist = 1, y_boundary_twist(cfg)
        gauge = np.exp(-1j * cfg.theta_y / cfg.n_phi)
    n = state.values.shape[axis] - 1
    s = n // cfg.n_phi
    wrapped = (slice(None),) * axis + (slice(n - s, None),)
    core = state.core
    for _ in range(power):
        shifted = np.roll(core, -s, axis=axis)
        shifted[wrapped] *= twist
        # the gauge phase stays the left operand: complex multiply is not
        # bitwise commutative
        core = gauge * shifted
    return SampledState(cfg, _close_grid(core, cfg, ys_core))


# ---------------------------------------------------------------------------
# finite-difference operators on torus states


def apply_operator(op: str, state: SampledState) -> SampledState:
    """Apply H, Rx or Ry (`finitediff.OPERATORS`) by 4th-order finite
    differences, H in units of hbar*omega.

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
    """Quadrature expectation <Psi|O Psi> (state assumed unit-normalized),
    in units of hbar*omega for H."""
    return torus_inner(state, apply_operator(op, state))


def _l2_norm(z: np.ndarray) -> float:
    """Euclidean norm of z, scaled by max|z| before the pairwise sum of
    squares so that no square overflows or underflows."""
    scale = float(np.max(np.abs(z)))
    if scale == 0.0:
        return 0.0
    z = z / scale
    return scale * math.sqrt(float(np.add.reduce((z.real * z.real + z.imag * z.imag).ravel())))


def eigenvalue_residual(op: str, state: SampledState, value: complex) -> float:
    """Relative L2 residual |(O - value) Psi| / |Psi| over the core grid;
    for H, value and residual are in units of hbar*omega."""
    applied = apply_operator(op, state).core
    base = state.core
    return _l2_norm(applied - value * base) / _l2_norm(base)


def translation_expectation(state: SampledState, direction: str, power: int) -> complex:
    """<Psi| T_direction^power |Psi> by grid quadrature."""
    return torus_inner(state, translate(state, direction, power))


# ---------------------------------------------------------------------------
# closed-form overlap series for torus coherent states


def _coherent_overlap(cfg: TorusConfig, c: CoherentLabel):
    """term(lx, ly) = <lam lam'| Tx^lx Ty^ly |lam lam'> in the infinite volume
    (closed form from the Gaussian overlap integral):

        exp[-(pi^2/Mw)(lx^2/Ly^2 + ly^2/Lx^2)] * exp[-i pi lx ly / n_phi]
        * exp[ i (2 pi <R_y>/Ly - theta_x/n_phi) lx]
        * exp[-i (2 pi <R_x>/Lx + theta_y/n_phi) ly]

    with everything that does not depend on (lx, ly) computed once."""
    rx, ry = coherent_center(cfg, c)
    n = cfg.n_phi
    decay = math.pi**2 / cfg.mass_omega
    lx2, ly2 = cfg.lx**2, cfg.ly**2
    rate_x = TWO_PI * ry / cfg.ly - cfg.theta_x / n
    rate_y = TWO_PI * rx / cfg.lx + cfg.theta_y / n

    def term(lx: int, ly: int) -> complex:
        gauss = math.exp(-decay * (lx**2 / ly2 + ly**2 / lx2))
        phase = -math.pi * lx * ly / n + rate_x * lx - rate_y * ly
        return gauss * complex(math.cos(phase), math.sin(phase))

    return term


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
    term = _coherent_overlap(cfg, c)
    num = 0.0 + 0.0j
    den = 0.0 + 0.0j
    n = cfg.n_phi
    for mx in range(-mm, mm + 1):
        for my in range(-mm, mm + 1):
            num += term(n * mx + lx, n * my + ly)
            den += term(n * mx, n * my)
    return complex(num / den)


# ---------------------------------------------------------------------------
# subspace comparison and densities


def projector_distance(set_a, set_b) -> float:
    """Operator norm of P_A - P_B for the projectors onto the spans of two
    orthonormal families of SampledStates on one grid (grid inner products).

    That norm is max(|(I - P_A) V_B|, |(I - P_B) V_A|) for orthonormal
    columns V_A, V_B, and one side always attains it: for families of one
    size the two sides are equal (both are the sine of the largest principal
    angle), and for families of different sizes the norm is 1, which the
    smaller family's side reaches, since the larger span holds a unit vector
    orthogonal to the smaller one. So only R = V - U (U^H V) is built, with U
    the smaller family (set_a at equal sizes) and V the other. R is built on
    the grid, since forming I - M^H M instead would lose every digit below
    1e-8 to cancellation, and |R|^2 is the top eigenvalue of the small matrix
    R^H R. The grid vectors are the cores themselves, and the quadrature
    weight hx*hy scales the small matrices instead."""
    weight = set_a[0].hx * set_a[0].hy
    cores_a = [s.core for s in set_a]
    cores_b = [s.core for s in set_b]
    for name, cores in (("A", cores_a), ("B", cores_b)):
        if np.max(np.abs(_gram(cores) * weight - np.eye(len(cores)))) > ORTHONORMAL_TOL:
            raise ValueError(f"input set {name} is not orthonormal within {ORTHONORMAL_TOL}")

    u, v = sorted((cores_a, cores_b), key=len)
    m = _gram(u, v) * weight
    r = []
    # an axpy over one core per term; with no stacked, scaled copies of the
    # families this took 3.5-5 ms against 7.5 ms for one einsum over such
    # copies, at n_phi = 4 on 160^2 (2-CPU Xeon)
    for j, vj in enumerate(v):
        rj = vj - m[0, j] * u[0]
        for i in range(1, len(u)):
            rj -= m[i, j] * u[i]
        r.append(rj)
    return math.sqrt(max(float(np.max(np.linalg.eigvalsh(_gram(r) * weight))), 0.0))


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
