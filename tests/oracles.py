"""Independent numerical routes used as test oracles.

Nothing here may call the code under test, and this module imports nothing
from `landau`. Oscillator eigenfunctions come from numpy's Hermite
polynomials with explicit normalization constants (safe for n <= 12), and
expectation values come from finite-difference operator applications plus
quadrature on plane grids. The finite differences are this module's own: the
np.roll stencils and complex operator expressions that `landau.finitediff`
replaced with ghost cells, kept as the reference that module is checked
against bit for bit (its covariant H against `covariant_fd_operator`, Rx and
Ry against `reference_fd_operator`). The other operators (L, Px, Py and the
ladders a, adag, b, bdag) live only here, for the tests that apply them; the
plain Landau-gauge H, a and adag of `reference_fd_operator` stay as the
independent operators the covariant ones must converge to.

The references the package is compared against live here too:
- the magnetic translation group's law on plain (nx, ny, m) tuples, its
  table on element indices, the conjugacy classes and the centre found by
  brute force and the quotient by the centre by coset enumeration, against
  `landau.maggroup`;
- the plane states the plane tests sample (`sample_plane`, the Px eigenstate
  on `independent_psi_n`, the coherent amplitude in closed form, and its
  unnormalised exponential `coherent_raw`, which `verify`'s factorised
  packet rows must reproduce);
- the torus coherent state's lattice-sum prefactor B_l, stripped from the
  translation series by its centre-and-angle phase;
- the ladder algebra a, adag, b, bdag on Fock labels |n n'> (`FockLabel`,
  `ladder_apply`), the number-basis form of the operators `verify`'s
  `ladder_algebra` check measures on the plane grid.

The lattice spectrum has its own route too: the assembled nx*ny Peierls
matrix, solved whole, which the Bloch-chain solver of `landau.spectral` must
reproduce."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial.hermite import hermval


def interior(values, margin: int):
    """View with `margin` cells stripped from every edge."""
    if margin == 0:
        return values
    return values[margin:-margin, margin:-margin]


def independent_psi_n(mass_omega, n, u):
    """Oscillator eigenfunction via raw Hermite polynomials (n <= 12)."""
    u = np.asarray(u, dtype=float)
    xi = math.sqrt(mass_omega) * u
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    norm = (mass_omega / math.pi) ** 0.25 / math.sqrt(2.0**n * math.factorial(n))
    return norm * hermval(xi, coeffs) * np.exp(-0.5 * xi * xi)


def group_law(g, h, n_phi):
    """Product of the magnetic translation group elements g = (nx, ny, m) and
    h as plain integer tuples: (nx + nx', ny + ny', m + m' - nx ny') mod n_phi."""
    return ((g[0] + h[0]) % n_phi, (g[1] + h[1]) % n_phi, (g[2] + h[2] - g[0] * h[1]) % n_phi)


def element_index(g, n_phi):
    """Index i = (nx*n + ny)*n + m of g = (nx, ny, m): its position in
    `itertools.product(range(n), repeat=3)`."""
    return (g[0] * n_phi + g[1]) * n_phi + g[2]


def group_table(n_phi):
    """table[i, j] = index of the product of elements i and j under
    `group_law`. The law is plain integer arithmetic, so it is evaluated on
    every pair at once."""
    g = np.array(list(itertools.product(range(n_phi), repeat=3))).T
    return element_index(group_law(g[:, :, None], g[:, None, :], n_phi), n_phi)


def conjugacy_classes_brute_force(n_phi):
    """Every conjugacy class as a sorted list of element indices, the classes
    ordered by their smallest index: each element g conjugated by every
    element h, h g h^-1, on `group_table`, with each inverse found by search."""
    t = group_table(n_phi)
    inv = np.argmax(t == element_index((0, 0, 0), n_phi), axis=1)
    conj = t[t, inv[:, None]]  # conj[h, g] = (h g) h^-1
    classes = {}
    for g in range(len(t)):
        classes.setdefault(tuple(np.unique(conj[:, g]).tolist()), None)
    return [list(c) for c in classes]


def center_brute_force(n_phi):
    """The centre as (nx, ny, m) tuples, by commuting every element against
    every element under `group_law`."""
    els = list(itertools.product(range(n_phi), repeat=3))
    return frozenset(
        g for g in els if all(group_law(g, h, n_phi) == group_law(h, g, n_phi) for h in els)
    )


def quotient_by_center_table(n_phi):
    """Multiplication table of G / Z(n_phi) by coset enumeration under
    `group_law`: cosets are labelled by (nx, ny), and the table maps a pair of
    labels to the label of the product of their m = 0 representatives. The
    group is a central extension, not a direct or semidirect product, so the
    abelian quotient is found here, not assumed."""
    table = {}
    for nx, ny, nxp, nyp in itertools.product(range(n_phi), repeat=4):
        prod = group_law((nx, ny, 0), (nxp, nyp, 0), n_phi)
        table[(nx, ny), (nxp, nyp)] = prod[:2]
    return table


def sample_plane(state, xs, ys):
    """Sample a callable state on the tensor grid xs x ys; values[ix, iy]."""
    return np.asarray(state(xs[:, None], ys[None, :]), dtype=complex)


def eigenstate_px(cfg, n, p_x):
    """Landau level n as an eigenstate of the gauge-covariant generator
    Px = -i dx + e B y of x-translations (n <= 12, `independent_psi_n`):

        amplitude(x, y) = psi_n(y - p_x/(M w)) * exp(i p_x x) * exp(-i e B x y).
    """
    eb = cfg.mass_omega
    shift = p_x / eb

    def amplitude(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return independent_psi_n(eb, n, y - shift) * np.exp(1j * p_x * x) * np.exp(-1j * eb * x * y)

    return amplitude


def coherent_raw(cfg, c):
    """The coherent state |lam lam'> of label c without its constant:
    raw(x, y) = exp(k (x^2 + 2i x y + y^2) + pre (x s + i y d)) with
    k = -Mw/4, pre = sqrt(Mw/2), s = lam + lam' and d = lam - lam'."""
    mw = cfg.mass_omega
    pre = math.sqrt(mw / 2.0)
    k = -0.25 * mw
    s, d = c.lam + c.lam_prime, c.lam - c.lam_prime

    def raw(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.exp(k * (x * x + 2j * x * y + y * y) + pre * (x * s + 1j * y * d))

    return raw


def coherent_amplitude(cfg, c):
    """Unit-norm coherent-state amplitude with a positive real constant:

    A exp[-(Mw/4)(x^2 + 2ixy + y^2)
          + sqrt(Mw/2) (x (lam + lam') + i y (lam - lam'))]

    |amplitude / A|^2 = exp[-(Mw/2)(x^2 + y^2) + sqrt(2 Mw)(x Re s - y Im d)]
    with s = lam + lam' and d = lam - lam', which integrates, as two
    Gaussian integrals, to (2 pi / Mw) exp((Re s)^2 + (Im d)^2), so

        A = sqrt(Mw / 2 pi) exp(-((Re s)^2 + (Im d)^2) / 2).
    """
    s, d = c.lam + c.lam_prime, c.lam - c.lam_prime
    a = math.sqrt(cfg.mass_omega / (2.0 * math.pi)) * math.exp(-0.5 * (s.real**2 + d.imag**2))
    raw = coherent_raw(cfg, c)

    def amplitude(x, y):
        out = raw(x, y)
        out *= a
        return out

    return amplitude


def coherent_prefactor(cfg, c, l, direction, series):
    """Lattice-sum prefactor B_l of the torus coherent state |lam lam'>: its
    translation expectation `series` = <T_direction^l> with the
    centre-and-angle phase stripped off,

        <Tx^l> = B_l exp[ i (2 pi <R_y>/Ly - theta_x/n_phi) l]
        <Ty^l> = B_l exp[-i (2 pi <R_x>/Lx + theta_y/n_phi) l],

    with the centre (<R_x>, <R_y>) = sqrt(2/(M w)) (Re lam', Im lam')."""
    s2 = math.sqrt(2.0 / cfg.mass_omega)
    rx, ry = s2 * c.lam_prime.real, s2 * c.lam_prime.imag
    if direction == "x":
        phase = (2.0 * math.pi * ry / cfg.ly - cfg.theta_x / cfg.n_phi) * l
    elif direction == "y":
        phase = -(2.0 * math.pi * rx / cfg.lx + cfg.theta_y / cfg.n_phi) * l
    else:
        raise ValueError(f"direction must be 'x' or 'y', got {direction!r}")
    return series * complex(math.cos(phase), -math.sin(phase))


def plane_box(cfg, center_x, center_y, half_width_units=8.5, budget=2.5e-4, half_width_units_y=None):
    """Uniform grid around a packet center; spacing from the h^2*Mw rule.

    half_width_units are in oscillator lengths 1/sqrt(Mw); pass a separate
    y half-width for states localized in only one direction."""
    mw = cfg.mass_omega
    h = math.sqrt(budget / mw)
    if half_width_units_y is None:
        half_width_units_y = half_width_units
    mx = int(math.ceil(half_width_units / math.sqrt(mw) / h))
    my = int(math.ceil(half_width_units_y / math.sqrt(mw) / h))
    xs = center_x + h * np.arange(-mx, mx + 1)
    ys = center_y + h * np.arange(-my, my + 1)
    return xs, ys


def _rolled(values, s, axis, twist):
    """values advanced by s along axis: result[j] = values[j+s], wrapped.

    twist: factor relating f(coord + period) to f(coord), i.e. a complex
    array broadcastable over the other axis (or None for a plain roll).
    """
    g = np.roll(values, -s, axis=axis)
    if twist is None or s == 0:
        return g
    g = np.asarray(g, dtype=complex)
    t = twist if s > 0 else 1.0 / twist
    if axis == 0:
        if s > 0:
            g[-s:, :] *= t
        else:
            g[:-s, :] *= t
    else:
        if s > 0:
            g[:, -s:] *= t
        else:
            g[:, : -s] *= t
    return g


def reference_d1(values, h, axis, twist=None):
    """First derivative, 4th-order central stencil, from np.roll copies."""
    return (
        -_rolled(values, 2, axis, twist)
        + 8.0 * _rolled(values, 1, axis, twist)
        - 8.0 * _rolled(values, -1, axis, twist)
        + _rolled(values, -2, axis, twist)
    ) / (12.0 * h)


def reference_d2(values, h, axis, twist=None):
    """Second derivative, 4th-order central stencil, from np.roll copies."""
    return (
        -_rolled(values, 2, axis, twist)
        + 16.0 * _rolled(values, 1, axis, twist)
        - 30.0 * values
        + 16.0 * _rolled(values, -1, axis, twist)
        - _rolled(values, -2, axis, twist)
    ) / (12.0 * h * h)


def reference_fd_operator(op, values, xs, ys, cfg, twist_x=None, twist_y=None):
    """The magnetic operators in Landau gauge as complex numpy expressions:

        Px = -i dx + e B y        Py = -i dy
        Rx =  i dy / (e B)        Ry = y - i dx / (e B)
        H  = ((-i dx)^2 + (-i dy + e B x)^2) / (2 M)
        L  = x (-i dy + e B x / 2) - y (-i dx + e B y / 2)
        a    = sqrt(M w / 2) [ x + (dx - i dy)/(e B) ]
        adag = sqrt(M w / 2) [ x - (dx + i dy)/(e B) ]
        b    = sqrt(M w / 2) [ i y + (dx + i dy)/(e B) ]
        bdag = sqrt(M w / 2) [ -i y - (dx - i dy)/(e B) ]
    """
    values = np.asarray(values, dtype=complex)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    x = xs[:, None]
    y = ys[None, :]
    eb = cfg.mass_omega
    mass = cfg.mass
    d1 = reference_d1
    d2 = reference_d2

    if op == "Py":
        return -1j * d1(values, hy, 1, twist_y)
    if op == "Px":
        return -1j * d1(values, hx, 0, twist_x) + eb * y * values
    if op == "Rx":
        return 1j * d1(values, hy, 1, twist_y) / eb
    if op == "Ry":
        return y * values - 1j * d1(values, hx, 0, twist_x) / eb
    if op == "H":
        dxx = d2(values, hx, 0, twist_x)
        dyy = d2(values, hy, 1, twist_y)
        dy = d1(values, hy, 1, twist_y)
        return (-dxx - dyy - 2j * eb * x * dy + (eb * x) ** 2 * values) / (2.0 * mass)
    if op == "L":
        dx = d1(values, hx, 0, twist_x)
        dy = d1(values, hy, 1, twist_y)
        return x * (-1j * dy + 0.5 * eb * x * values) - y * (-1j * dx + 0.5 * eb * y * values)
    if op in ("a", "adag", "b", "bdag"):
        scale = np.sqrt(eb / 2.0)
        dx = d1(values, hx, 0, twist_x)
        dy = d1(values, hy, 1, twist_y)
        if op == "a":
            return scale * (x * values + (dx - 1j * dy) / eb)
        if op == "adag":
            return scale * (x * values - (dx + 1j * dy) / eb)
        if op == "b":
            return scale * (1j * y * values + (dx + 1j * dy) / eb)
        return scale * (-1j * y * values - (dx - 1j * dy) / eb)
    raise ValueError(f"unknown operator {op!r}")


def _linked(values, s, x, eb, hy, twist):
    """values advanced by s along y, times the Peierls link exp(i eB x s hy)
    that carries them back to the point they are differenced at."""
    return _rolled(values, s, 1, twist) * np.exp(1j * (s * eb * hy) * x)


def covariant_fd_operator(op, values, xs, ys, cfg, twist_x=None, twist_y=None):
    """H, a and adag with the gauge-covariant y-difference: the 4th-order
    stencils of g psi, divided by g, for g = exp(i eB x y). With
    D = that first difference and Dyy the second, and H in units of hbar*w,

        H    = (-dxx - Dyy) / (2 e B)
        a    = ( dx - i D) / sqrt(2 e B)
        adag = (-dx - i D) / sqrt(2 e B)

    which equal the Landau-gauge forms of reference_fd_operator in the
    continuum, that H divided by w."""
    values = np.asarray(values, dtype=complex)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    x = xs[:, None]
    eb = cfg.mass_omega

    def r(s):
        return _linked(values, s, x, eb, hy, twist_y)

    if op == "H":
        dxx = reference_d2(values, hx, 0, twist_x)
        dyy = (-r(2) + 16.0 * r(1) - 30.0 * values + 16.0 * r(-1) - r(-2)) / (12.0 * hy * hy)
        return (-dxx - dyy) * (1.0 / (2.0 * eb))
    if op in ("a", "adag"):
        dx = reference_d1(values, hx, 0, twist_x)
        dy = (-r(2) + 8.0 * r(1) - 8.0 * r(-1) + r(-2)) / (12.0 * hy)
        return ((dx if op == "a" else -dx) - 1j * dy) / np.sqrt(2.0 * eb)
    raise ValueError(f"no covariant form of {op!r}")


def covariant_eigen_residual(op, state, value, twist_x, twist_y):
    """|(O - value) psi| / |psi| on the half-open grid of a sampled torus
    state, O the covariant `op` with the state's boundary twists (evaluated
    on state.ys[:-1] for twist_x)."""
    xs, ys = state.xs[:-1], state.ys[:-1]
    applied = covariant_fd_operator(op, state.core, xs, ys, state.config, twist_x, twist_y)
    return float(np.linalg.norm(applied - value * state.core) / np.linalg.norm(state.core))


class PlaneOperators:
    """Single-application finite-difference operators on one plane grid."""

    def __init__(self, cfg, xs, ys, margin=4):
        self.cfg = cfg
        self.xs = xs
        self.ys = ys
        self.hx = xs[1] - xs[0]
        self.hy = ys[1] - ys[0]
        self.margin = margin

    def named(self, name, values):
        return reference_fd_operator(name, values, self.xs, self.ys, self.cfg)

    def apply(self, which, values):
        eb = self.cfg.mass_omega
        x = self.xs[:, None]
        y = self.ys[None, :]
        if which in ("H", "Rx", "Ry", "Px", "Py", "L", "a", "adag", "b", "bdag"):
            return self.named(which, values)
        if which == "x_rel":  # x - Rx
            return x * values - self.named("Rx", values)
        if which == "y_rel":  # y - Ry
            return y * values - self.named("Ry", values)
        if which == "mvx":  # M v_x = -i dx
            return -1j * reference_d1(values, self.hx, 0)
        if which == "mvy":  # M v_y = -i dy + e B x
            return -1j * reference_d1(values, self.hy, 1) + eb * x * values
        raise ValueError(which)

    def mean_and_spread(self, which, values):
        """(<O>, Delta O) by quadrature, for Hermitian O (single application:
        <O^2> = |O psi|^2)."""
        applied = self.apply(which, values)
        f = interior(values, self.margin)
        of = interior(applied, self.margin)
        norm = np.vdot(f, f).real
        mean = np.vdot(f, of).real / norm
        second = np.vdot(of, of).real / norm
        return mean, math.sqrt(max(second - mean * mean, 0.0))


def coherent_moments_by_quadrature(cfg, amplitude, label_center):
    """All fourteen first/second moments of the sampled coherent amplitude.

    label_center: packet center (<x>, <y>) used only to place the box.
    Returns a dict keyed like plane.CoherentExpectations.
    """
    xs, ys = plane_box(cfg, *label_center)
    values = sample_plane(amplitude, xs, ys)
    ops = PlaneOperators(cfg, xs, ys)
    pairs = {
        "center_x": "Rx",
        "center_y": "Ry",
        "rel_x": "x_rel",
        "rel_y": "y_rel",
        "kinetic_momentum_x": "mvx",
        "kinetic_momentum_y": "mvy",
        "energy": "H",
    }
    out = {}
    for mean_key, op in pairs.items():
        mean, spread = ops.mean_and_spread(op, values)
        out[mean_key] = mean
        out["spread_" + mean_key] = spread
    return out


# ---------------------------------------------------------------------------
# the ladder algebra on Fock labels


@dataclass(frozen=True)
class FockLabel:
    """State |n n'> built by raising n times with adag and n' times with bdag
    from the vacuum; m = n - n' is the angular momentum."""

    n: int
    n_prime: int

    def __post_init__(self):
        if self.n < 0 or self.n_prime < 0:
            raise ValueError(f"Fock labels must be >= 0, got {self}")

    @property
    def angular_momentum(self) -> int:
        return self.n - self.n_prime


def ladder_apply(which: str, coeffs: dict) -> dict:
    """Apply a, adag, b or bdag to a finitely supported coefficient map.

    a |n n'> = sqrt(n) |n-1 n'>           adag |n n'> = sqrt(n+1) |n+1 n'>
    b |n n'> = sqrt(n') |n n'-1>          bdag |n n'> = sqrt(n'+1) |n n'+1>

    Annihilating the vacuum drops the term; an empty map is returned for the
    zero vector.
    """
    out: dict = {}
    for label, amp in coeffs.items():
        n, np_ = label.n, label.n_prime
        if which == "a":
            if n == 0:
                continue
            new, factor = FockLabel(n - 1, np_), math.sqrt(n)
        elif which == "adag":
            new, factor = FockLabel(n + 1, np_), math.sqrt(n + 1)
        elif which == "b":
            if np_ == 0:
                continue
            new, factor = FockLabel(n, np_ - 1), math.sqrt(np_)
        elif which == "bdag":
            new, factor = FockLabel(n, np_ + 1), math.sqrt(np_ + 1)
        else:
            raise ValueError(f"unknown ladder operator {which!r}")
        out[new] = out.get(new, 0.0) + factor * amp
    return {k: v for k, v in out.items() if v != 0.0}


# ---------------------------------------------------------------------------
# the full Peierls lattice Hamiltonian on the twisted torus


@dataclass
class DiscreteHamiltonian:
    config: object
    nx: int
    ny: int
    matrix: sp.csr_matrix

    @property
    def dimension(self) -> int:
        return self.nx * self.ny

    def hermiticity_defect(self) -> float:
        diff = self.matrix - self.matrix.getH()
        return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0


def build_hamiltonian(cfg, nx: int, ny: int, include_flux: bool = True) -> DiscreteHamiltonian:
    """Assemble the sparse Hermitian matrix on the half-open nx x ny grid:
    the 5-point Laplacian with Peierls phases exp(i e B x hy) on forward
    y-links and the boundary twists exp(i theta_x - 2 pi i n_phi y/Ly) on the
    x-wrap and exp(i theta_y) on the y-wrap.

    include_flux=False drops the magnetic link and wrap phases (keeping the
    theta twists), which gives the free twisted-torus Laplacian used as a
    code-path check against the closed-form free spectrum.
    """
    if nx < 8 * cfg.n_phi or ny < 8 * cfg.n_phi:
        raise ValueError(
            f"grid {nx}x{ny} too small; need at least {8 * cfg.n_phi} per direction"
        )
    hx = cfg.lx / nx
    hy = cfg.ly / ny
    xs = hx * np.arange(nx)
    ys = hy * np.arange(ny)
    kx = 1.0 / (2.0 * cfg.mass * hx * hx)
    ky = 1.0 / (2.0 * cfg.mass * hy * hy)
    eb = cfg.mass_omega if include_flux else 0.0
    dim = nx * ny
    site = np.arange(dim).reshape(nx, ny)  # site (j, k) -> row j * ny + k

    # x-hop (j,k) -> (j+1,k); wraparound picks up the x twist
    xhop = np.full((nx, ny), -kx, dtype=complex)
    flux_phase = 2.0 * math.pi * cfg.n_phi * ys / cfg.ly if include_flux else 0.0
    xhop[-1] = -kx * np.exp(1j * (cfg.theta_x - flux_phase))
    # y-hop (j,k) -> (j,k+1) with Peierls phase exp(+i e B x hy):
    # the transporter for D_y = d_y + i e A_y satisfies
    # exp(+ieA_y hy) Psi(y+hy) -> gauge-covariant forward difference
    yhop = np.repeat((-ky * np.exp(1j * eb * xs * hy))[:, None], ny, axis=1)
    # scalar products on purpose: the vectorised complex multiply may fuse
    # operations and move the y-wrap entries by an ulp
    twist = np.exp(1j * cfg.theta_y)
    yhop[:, -1] = [hop * twist for hop in yhop[:, -1]]

    rows = np.tile(site.ravel(), 2)
    cols = np.concatenate([np.roll(site, -1, axis=0).ravel(), np.roll(site, -1, axis=1).ravel()])
    vals = np.concatenate([xhop.ravel(), yhop.ravel()])
    fwd = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    diag = sp.identity(dim, format="csr") * (2.0 * kx + 2.0 * ky)
    # backward hops are the conjugate transpose: exactly Hermitian by construction
    mat = fwd + fwd.getH() + diag
    return DiscreteHamiltonian(config=cfg, nx=nx, ny=ny, matrix=mat)


def lowest_eigenpairs(ham: DiscreteHamiltonian, k: int):
    """k smallest eigenpairs, sorted ascending, by ARPACK in shift-invert mode
    around zero (H is positive definite), from a fixed start vector so that
    repeated solves are bit-identical. Eigenvectors are re-orthonormalized by
    QR since ARPACK may return a skewed basis inside exactly degenerate
    clusters."""
    if not 1 <= k <= ham.dimension // 4:
        raise ValueError(f"k={k} outside [1, {ham.dimension // 4}] for dimension {ham.dimension}")
    start = np.random.default_rng(0).standard_normal(ham.dimension)
    ev, vec = spla.eigsh(ham.matrix.tocsc(), k=k, sigma=0.0, which="LM", v0=start)
    order = np.argsort(ev)
    q, _ = np.linalg.qr(vec[:, order])
    return ev[order], q


def free_twisted_spectrum(cfg, nx: int, ny: int, count: int) -> np.ndarray:
    """Closed-form eigenvalues of the flux-free twisted discrete Laplacian:

        E(m, n) = (1 - cos(kx hx)) / (M hx^2) + (1 - cos(ky hy)) / (M hy^2)

    with kx = (2 pi m + theta_x)/Lx, ky = (2 pi n + theta_y)/Ly."""
    hx = cfg.lx / nx
    hy = cfg.ly / ny
    ms = np.arange(-(nx // 2), nx - nx // 2)
    ns = np.arange(-(ny // 2), ny - ny // 2)
    kx = (2.0 * math.pi * ms + cfg.theta_x) / cfg.lx
    ky = (2.0 * math.pi * ns + cfg.theta_y) / cfg.ly
    ex = (1.0 - np.cos(kx * hx)) / (cfg.mass * hx * hx)
    ey = (1.0 - np.cos(ky * hy)) / (cfg.mass * hy * hy)
    total = ex[:, None] + ey[None, :]
    return np.sort(total.ravel())[:count]
