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

Each chain is a ring of D sites, so it is folded before the solve: site t
goes to position 2t and site D-1-t to 2t+1. Every link, the closing one
included, then spans at most two positions, and `bloch_chain` returns the
chain as a Hermitian band of half-bandwidth 2 in LAPACK upper band storage.
The chain is positive definite. The lattice Hamiltonian is a sum over links
of kx |psi_a - U_ab psi_b|^2 (and ky alike), so a zero mode would need
psi_a = U_ab psi_b on every link, hence a trivial phase around every
plaquette; the plaquette flux is 2 pi n_phi/(nx ny), and the grid's floor of
8 n_phi sites per side keeps it strictly between 0 and 2 pi. So each chain
is factored once by a banded Cholesky (zpbtrf), and ARPACK runs in regular
mode on H^-1 applied through that factor, which is shift-invert at 0: the
eigenvalues are 1/mu for the largest Ritz values mu. ARPACK stops at a
relative residual of ARPACK_TOL = 1e-12 rather than machine epsilon: a
Hermitian Ritz value is off by at most its residual, which keeps the
eigenvalues 1000x inside DEGENERACY_TOL, and the restarts machine epsilon
asks for come after the values have stopped moving. Where the grid does
not resolve the magnetic length the chain is singular in doubles, and the
failed factorisation is reported as a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

from .config import GRID_POINTS_PER_FLUX, TWO_PI

# Gaps below this, relative to the eigenvalue scale, are solver noise inside
# one cluster.
DEGENERACY_TOL = 1.0e-9
# Clusters count as well separated when every gap between them is at least
# this many times the widest cluster.
SEPARATION_RATIO = 10.0
# ARPACK stops once each Ritz residual is below this fraction of its Ritz
# value. A Hermitian Ritz value is off by at most its residual, so the
# eigenvalues stay 1000x inside DEGENERACY_TOL; tol=0 (machine epsilon) only
# adds restarts after they have stopped moving.
ARPACK_TOL = 1.0e-12


def bloch_chain(cfg, nx: int, ny: int, m0: int) -> np.ndarray:
    """Cyclic chain of the y-momentum orbit m0, m0 + n_phi, ... (mod ny),
    0 <= m0 < gcd(n_phi, ny), folded into LAPACK upper band storage of shape
    (3, D). Site s*nx + j is column x_j at the s-th momentum of the orbit; the
    hop from j = nx-1 onto the next momentum carries the x twist
    exp(i theta_x). Site t sits at position 2t and site D-1-t at 2t+1, and
    entry (i, j), i <= j, of the folded matrix is stored at [2 - (j - i), j]."""
    hx = cfg.lx / nx
    hy = cfg.ly / ny
    two_m_h2 = (2.0 * cfg.mass * hx * hx, 2.0 * cfg.mass * hy * hy)
    # the largest band entry, 2 kx + 4 ky, is at most 6 / min(two_m_h2)
    if not min(two_m_h2) > 6.0 / np.finfo(float).max:
        raise ValueError(
            f"the hop amplitudes 1/(2 M h^2) of grid {nx}x{ny} (hx={hx:.3g}, hy={hy:.3g}) "
            "are not finite doubles; the spacing or the mass is too small"
        )
    kx, ky = 1.0 / two_m_h2[0], 1.0 / two_m_h2[1]
    ms = (m0 + cfg.n_phi * np.arange(ny // math.gcd(cfg.n_phi, ny))) % ny
    qs = (TWO_PI * ms + cfg.theta_y) / ny
    xs = hx * np.arange(nx)
    diag = 2.0 * kx + 2.0 * ky - 2.0 * ky * np.cos(cfg.mass_omega * xs[None, :] * hy + qs[:, None])
    dim = diag.size
    # hop[s] is the entry (s, s + 1 mod D), the last one closing the ring
    hop = np.full(dim, -kx, dtype=complex)
    hop[nx - 1 :: nx] *= np.exp(1j * cfg.theta_x)
    half = (dim + 1) // 2
    pos = np.concatenate([2 * np.arange(half), 2 * np.arange(dim // 2)[::-1] + 1])
    row, col = pos, np.roll(pos, -1)
    band = np.zeros((3, dim), dtype=complex)
    band[2, pos] = diag.ravel()
    band[2 - np.abs(col - row), np.maximum(row, col)] = np.where(row < col, hop, hop.conj())
    return band


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
            "clusters": [asdict(c) for c in self.clusters],
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


def chain_spectra(cfg, nx: int, ny: int, k: int) -> tuple[np.ndarray, list]:
    """The k smallest eigenvalues of each Bloch chain, one sorted row per
    chain m0 = 0..gcd(n_phi, ny)-1, and the number of times ARPACK applied
    each chain's inverse. ARPACK runs in regular mode on H^-1 (shift-invert
    at 0), applied through one banded Cholesky factor per chain."""
    floor = GRID_POINTS_PER_FLUX * cfg.n_phi
    if nx < floor or ny < floor:
        raise ValueError(f"grid {nx}x{ny} too small; need at least {floor} per direction")
    rows, applications = [], []
    for m0 in range(math.gcd(cfg.n_phi, ny)):
        band = bloch_chain(cfg, nx, ny, m0)
        # scale by an exact power of four so the largest diagonal entry lies
        # in [1/2, 2): the factor scales by an exact power of two, and
        # nothing the solve touches nears underflow or overflow, whatever
        # the units
        exponent = 2 * (math.frexp(band[2].real.max())[1] // 2)
        try:
            factor = cholesky_banded(band * math.ldexp(1.0, -exponent), check_finite=False)
        except LinAlgError as exc:
            hx, hy = cfg.lx / nx, cfg.ly / ny
            raise ValueError(
                f"the lattice chain of grid {nx}x{ny} (hx={hx:.3g}, hy={hy:.3g}) is not "
                f"numerically positive definite ({exc}); the grid must resolve the "
                f"magnetic length 1/sqrt(eB) = {1.0 / math.sqrt(cfg.mass_omega):.3g}"
            ) from None
        dim = band.shape[1]
        count = [0]

        def solve(v):
            count[0] += 1
            return cho_solve_banded((factor, False), v, check_finite=False)

        inverse = spla.LinearOperator((dim, dim), matvec=solve, dtype=complex)
        # fixed ARPACK start so repeated solves are bit-identical
        start = np.random.default_rng(0).standard_normal(dim)
        mu = spla.eigsh(inverse, k=k, which="LM", v0=start, tol=ARPACK_TOL, return_eigenvectors=False)
        rows.append(np.ldexp(np.sort(1.0 / mu), exponent))
        applications.append(count[0])
    return np.array(rows), applications


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
    spectra, applications = chain_spectra(cfg, nx, ny, per_block)
    ev = np.sort(spectra.ravel())[:k]
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
            "method": "bloch_chains_banded_cholesky",
            "blocks": blocks,
            "block_dimension": nx * ny // blocks,
            "bandwidth": 2,
            "k_per_block": per_block,
            "shift": 0.0,
            "tol": ARPACK_TOL,
            "operator_applications": applications,
            "kept": k,
        },
    )
