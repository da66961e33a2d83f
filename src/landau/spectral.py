"""Independent verification route: the Peierls finite-difference magnetic
Hamiltonian on the twisted torus. Its low spectrum must reproduce the Landau
levels omega*(n + 1/2), each with exact n_phi-fold degeneracy.

The kinetic stencil is the standard 5-point Laplacian with Peierls link
phases exp(i e A_y(x) hy) on forward y-links (Landau gauge A_y = B x);
wraparound links carry the boundary twist exp(i theta_x - 2 pi i n_phi y/Ly)
in x and exp(i theta_y) in y. Peierls phases keep the discrete magnetic
translations exact symmetries, so the Landau degeneracy survives
discretization exactly. `build_hamiltonian` assembles this nx*ny matrix; it
is the oracle the tests compare the block solver against, and the route to
eigenvectors (`lowest_eigenpairs`).

`low_spectrum` never assembles it. Away from the x-wrap the stencil is
invariant under y-translations, so a Fourier transform in y with momenta
q_m = (2 pi m + theta_y)/ny (m = 0..ny-1) diagonalizes the y-hops into the
on-site term -2 ky cos(e B x_j hy + q_m). The x-wrap twist
exp(-2 pi i n_phi y/Ly) shifts the momentum m -> m + n_phi (mod ny), so
stepping forward in x through the wrap moves onto the next momentum of an
orbit. There are g = gcd(n_phi, ny) such orbits, each of ny/g momenta, and
each is one cyclic chain of nx*ny/g sites with hops -kx, every nx-th of which
carries exp(i theta_x) (Harper 1955; Hofstadter, PRB 14, 2239, 1976). The
full matrix is unitarily equivalent to the direct sum of the g chains.

When n_phi divides nx and ny, g = n_phi and the chains are labelled by the
eigenvalue of the magnetic translation by Ly/n_phi, the paper's degeneracy
label; the translation by Lx/n_phi permutes them, so all chains have the
same spectrum and each Landau level holds one state per chain. Each chain is
solved on its own, so that equality stays a check. A grid with ny not a
multiple of n_phi stays accepted: its chains close after ny/g steps, and
each holds n_phi/g near-degenerate copies of every level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import TWO_PI


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


def _check_grid(cfg, nx: int, ny: int) -> None:
    if nx < 8 * cfg.n_phi or ny < 8 * cfg.n_phi:
        raise ValueError(
            f"grid {nx}x{ny} too small; need at least {8 * cfg.n_phi} per direction"
        )


def build_hamiltonian(cfg, nx: int, ny: int, include_flux: bool = True) -> DiscreteHamiltonian:
    """Assemble the sparse Hermitian matrix on the half-open nx x ny grid.

    include_flux=False drops the magnetic link and wrap phases (keeping the
    theta twists), which gives the free twisted-torus Laplacian used as a
    code-path check against the closed-form free spectrum.
    """
    _check_grid(cfg, nx, ny)
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
    flux_phase = TWO_PI * cfg.n_phi * ys / cfg.ly if include_flux else 0.0
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


def bloch_chain(cfg, nx: int, ny: int, m0: int) -> sp.csc_matrix:
    """Cyclic chain of the y-momentum orbit m0, m0 + n_phi, ... (mod ny),
    0 <= m0 < gcd(n_phi, ny). Site s*nx + j is column x_j at the s-th
    momentum of the orbit; the hop from j = nx-1 onto the next momentum
    carries the x twist exp(i theta_x)."""
    hx = cfg.lx / nx
    hy = cfg.ly / ny
    kx = 1.0 / (2.0 * cfg.mass * hx * hx)
    ky = 1.0 / (2.0 * cfg.mass * hy * hy)
    ms = (m0 + cfg.n_phi * np.arange(ny // math.gcd(cfg.n_phi, ny))) % ny
    qs = (TWO_PI * ms + cfg.theta_y) / ny
    xs = hx * np.arange(nx)
    diag = 2.0 * kx + 2.0 * ky - 2.0 * ky * np.cos(cfg.mass_omega * xs[None, :] * hy + qs[:, None])
    dim = diag.size
    hop = np.full(dim, -kx, dtype=complex)
    hop[nx - 1 :: nx] *= np.exp(1j * cfg.theta_x)
    sites = np.arange(dim)
    fwd = sp.csc_matrix((hop, (sites, (sites + 1) % dim)), shape=(dim, dim))
    return (fwd + fwd.getH() + sp.diags(diag.ravel())).tocsc()


def free_twisted_spectrum(cfg, nx: int, ny: int, count: int) -> np.ndarray:
    """Closed-form eigenvalues of the flux-free twisted discrete Laplacian:

        E(m, n) = (1 - cos(kx hx)) / (M hx^2) + (1 - cos(ky hy)) / (M hy^2)

    with kx = (2 pi m + theta_x)/Lx, ky = (2 pi n + theta_y)/Ly."""
    hx = cfg.lx / nx
    hy = cfg.ly / ny
    ms = np.arange(-(nx // 2), nx - nx // 2)
    ns = np.arange(-(ny // 2), ny - ny // 2)
    kx = (TWO_PI * ms + cfg.theta_x) / cfg.lx
    ky = (TWO_PI * ns + cfg.theta_y) / cfg.ly
    ex = (1.0 - np.cos(kx * hx)) / (cfg.mass * hx * hx)
    ey = (1.0 - np.cos(ky * hy)) / (cfg.mass * hy * hy)
    total = ex[:, None] + ey[None, :]
    return np.sort(total.ravel())[:count]


@dataclass
class Cluster:
    mean: float
    spread: float
    multiplicity: int
    target: float
    relative_deviation: float


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    clusters: list = field(default_factory=list)
    omega: float = 0.0
    well_separated: bool = True
    # how the eigenvalues were computed: run telemetry for the manifest,
    # left out of as_dict so spectrum.json stays byte-stable
    solver: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "eigenvalues": [float(e) for e in self.eigenvalues],
            "omega": self.omega,
            "clusters": [
                {
                    "mean": c.mean,
                    "spread": c.spread,
                    "multiplicity": c.multiplicity,
                    "target": c.target,
                    "relative_deviation": c.relative_deviation,
                }
                for c in self.clusters
            ],
            "well_separated": self.well_separated,
        }


def cluster_eigenvalues(eigenvalues: np.ndarray, degeneracy_tol: float = 1.0e-9) -> list:
    """Group sorted eigenvalues into numerically degenerate clusters.

    Gaps below degeneracy_tol relative to the eigenvalue scale count as
    solver noise and stay inside a cluster; larger gaps split.
    """
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    if len(ev) <= 1:
        return [list(ev)]
    scale = float(np.max(np.abs(ev)))
    noise = degeneracy_tol * (scale if scale > 0 else 1.0)
    clusters = [[ev[0]]]
    for value, gap in zip(ev[1:], np.diff(ev)):
        if gap > noise:
            clusters.append([value])
        else:
            clusters[-1].append(value)
    return clusters


def clusters_well_separated(clusters, ratio: float = 10.0) -> bool:
    """Every inter-cluster gap at least `ratio` times the max intra spread."""
    max_spread = max((max(c) - min(c) for c in clusters), default=0.0)
    for left, right in zip(clusters, clusters[1:]):
        if min(right) - max(left) < ratio * max_spread:
            return False
    return True


def _start_vector(dim: int) -> np.ndarray:
    # fixed ARPACK start so repeated solves are bit-identical
    return np.random.default_rng(0).standard_normal(dim)


def lowest_eigenpairs(ham: DiscreteHamiltonian, k: int):
    """k smallest eigenpairs, sorted ascending, by ARPACK in shift-invert mode
    around zero (H is positive definite). Eigenvectors are re-orthonormalized
    by QR since ARPACK may return a skewed basis inside exactly degenerate
    clusters."""
    if not 1 <= k <= ham.dimension // 4:
        raise ValueError(f"k={k} outside [1, {ham.dimension // 4}] for dimension {ham.dimension}")
    ev, vec = spla.eigsh(
        ham.matrix.tocsc(), k=k, sigma=0.0, which="LM", v0=_start_vector(ham.dimension)
    )
    order = np.argsort(ev)
    q, _ = np.linalg.qr(vec[:, order])
    return ev[order], q


def chain_spectra(cfg, nx: int, ny: int, k: int) -> np.ndarray:
    """The k smallest eigenvalues of each Bloch chain, one sorted row per
    chain m0 = 0..gcd(n_phi, ny)-1, by ARPACK in shift-invert mode around 0."""
    _check_grid(cfg, nx, ny)
    rows = []
    for m0 in range(math.gcd(cfg.n_phi, ny)):
        chain = bloch_chain(cfg, nx, ny, m0)
        ev = spla.eigsh(
            chain, k=k, sigma=0.0, which="LM", v0=_start_vector(chain.shape[0]),
            return_eigenvectors=False,
        )
        rows.append(np.sort(ev))
    return np.array(rows)


def low_spectrum(cfg, nx: int, ny: int, k: int) -> SpectrumReport:
    """SpectrumReport for the k smallest eigenvalues of the nx x ny lattice,
    clustered and compared against the Landau targets omega*(n + 1/2).

    Each of the g Bloch chains gives its ceil(k/g) lowest values; the merged
    k lowest are those of the full matrix as long as no chain holds more than
    ceil(k/g) of them, which holds when the chains share the Landau cluster
    structure (each level n_phi/g times per chain)."""
    if not 1 <= k <= nx * ny // 4:
        raise ValueError(f"k={k} outside [1, {nx * ny // 4}] for dimension {nx * ny}")
    blocks = math.gcd(cfg.n_phi, ny)
    per_block = -(-k // blocks)
    ev = np.sort(chain_spectra(cfg, nx, ny, per_block).ravel())[:k]
    omega = cfg.omega
    groups = cluster_eigenvalues(ev)
    clusters = []
    for i, group in enumerate(groups):
        mean = float(np.mean(group))
        spread = float(np.max(group) - np.min(group))
        target = omega * (i + 0.5)
        clusters.append(
            Cluster(
                mean=mean,
                spread=spread,
                multiplicity=len(group),
                target=target,
                relative_deviation=(mean - target) / target,
            )
        )
    return SpectrumReport(
        eigenvalues=ev,
        clusters=clusters,
        omega=omega,
        well_separated=clusters_well_separated(groups),
        solver={
            "method": "bloch_chains_shift_invert",
            "blocks": blocks,
            "block_dimension": nx * ny // blocks,
            "k_per_block": per_block,
            "shift": 0.0,
            "kept": k,
        },
    )
