"""Independent verification route: the Peierls finite-difference magnetic
Hamiltonian on the twisted torus. Its low spectrum must reproduce the Landau
levels omega*(n + 1/2), each with exact n_phi-fold degeneracy.

The kinetic stencil is the standard 5-point Laplacian with Peierls link
phases exp(i e A_y(x) hy) on forward y-links (Landau gauge A_y = B x);
wraparound links carry the boundary twist exp(i theta_x - 2 pi i n_phi y/Ly)
in x and exp(i theta_y) in y. Peierls phases keep the discrete magnetic
translations exact symmetries, so the Landau degeneracy survives
discretization exactly. The assembled nx*ny matrix lives in the test oracle
(tests/oracles.py), which the block solver is compared against.

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

# Gaps below this, relative to the eigenvalue scale, are solver noise inside
# one cluster.
DEGENERACY_TOL = 1.0e-9
# Clusters count as well separated when every gap between them is at least
# this many times the widest cluster.
SEPARATION_RATIO = 10.0


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


def cluster_eigenvalues(eigenvalues: np.ndarray) -> list:
    """Group sorted eigenvalues into numerically degenerate clusters.

    Gaps below DEGENERACY_TOL relative to the eigenvalue scale count as
    solver noise and stay inside a cluster; larger gaps split.
    """
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    if len(ev) <= 1:
        return [list(ev)]
    scale = float(np.max(np.abs(ev)))
    noise = DEGENERACY_TOL * (scale if scale > 0 else 1.0)
    clusters = [[ev[0]]]
    for value, gap in zip(ev[1:], np.diff(ev)):
        if gap > noise:
            clusters.append([value])
        else:
            clusters[-1].append(value)
    return clusters


def clusters_well_separated(clusters) -> bool:
    """Every inter-cluster gap at least SEPARATION_RATIO times the max intra
    spread."""
    max_spread = max((max(c) - min(c) for c in clusters), default=0.0)
    for left, right in zip(clusters, clusters[1:]):
        if min(right) - max(left) < SEPARATION_RATIO * max_spread:
            return False
    return True


def chain_spectra(cfg, nx: int, ny: int, k: int) -> np.ndarray:
    """The k smallest eigenvalues of each Bloch chain, one sorted row per
    chain m0 = 0..gcd(n_phi, ny)-1, by ARPACK in shift-invert mode around 0."""
    if nx < 8 * cfg.n_phi or ny < 8 * cfg.n_phi:
        raise ValueError(
            f"grid {nx}x{ny} too small; need at least {8 * cfg.n_phi} per direction"
        )
    rows = []
    for m0 in range(math.gcd(cfg.n_phi, ny)):
        chain = bloch_chain(cfg, nx, ny, m0)
        # fixed ARPACK start so repeated solves are bit-identical
        start = np.random.default_rng(0).standard_normal(chain.shape[0])
        ev = spla.eigsh(chain, k=k, sigma=0.0, which="LM", v0=start, return_eigenvectors=False)
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
