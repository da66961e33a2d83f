"""Independent verification route: the Peierls finite-difference magnetic
Hamiltonian on the twisted torus. Its low spectrum must reproduce the Landau
levels omega*(n + 1/2), each with exact n_phi-fold degeneracy.

The kinetic stencil is the standard 5-point Laplacian with Peierls link
phases exp(i e A_y(x) hy) on forward y-links (Landau gauge A_y = B x);
wraparound links carry the boundary twist exp(i theta_x - 2 pi i n_phi y/Ly)
in x and exp(i theta_y) in y. Peierls phases keep the discrete magnetic
translations exact symmetries, so the Landau degeneracy survives
discretization exactly. The assembled nx*ny matrix lives in the test oracle
(tests/oracles.py), which the block solver is compared against. Energies are
in units of hbar*omega: the hops are 1/(2 eB h^2), and the mass enters only
through the omega that `low_spectrum` multiplies the eigenvalues by before
it clusters them.

`low_spectrum` never assembles that matrix. Away from the x-wrap the stencil is
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

Each chain is a ring of D = nx*ny/g sites, and its on-site term depends on
the ring position t = s*nx + j alone: 2kx + 2ky(1 - cos(2 pi n_phi t/(nx ny)
+ c)), with c = (2 pi m0 + theta_y)/ny. That is the lattice form of the
harmonic well (eB/2)(x - X0)^2 around a cyclotron centre X0, the paper's
conserved centre (its Runge-Lenz analogue). The ring holds n_phi/g periods of
it, so n_phi/g wells, one per centre position, and neighbouring wells meet at
barriers of 4 ky = 2/(eB hy^2) hbar*omega. A level n state lives near the
bottom of its well and decays like exp(-V) (V in hbar*omega) past its turning
point, so `chain_spectra` cuts each ring at the maxima of its diagonal into
its wells and solves every well on its own:

- the well is cropped to the sites whose potential lies at most WELL_MARGIN
  hbar*omega above the top Landau level it must resolve (a few hundred sites
  where the ring has thousands);
- an open segment's hop phases gauge away (a diagonal unitary removes every
  phase of an open chain), so the segment is the real symmetric tridiagonal
  matrix (diag, -kx), and LAPACK bisection gives its lowest eigenpairs
  (`scipy.linalg.eigh_tridiagonal`, stebz and stein);
- theta_x sits on hops, so it enters only through the hops that were cut:
  through tunnelling between wells, or around the ring when n_phi/g = 1.
  The edge bound below caps that, which is why the spectrum does not depend
  on theta_x to within it.

The edge bound. Padding a segment eigenvector v (eigenvalue lambda) with
zeros to the whole ring leaves a residual under the ring matrix only on the
two sites just past the segment's ends, of norm r = kx |(v_first, v_last)|,
and a Hermitian matrix has an eigenvalue within r of lambda. The cut hops
reach the segment only through those two components, so the eigenvalue
itself moves at second order, about r^2 over the hbar*omega level spacing.
Every eigenpair `low_spectrum` keeps must have r/lambda <= EDGE_TOL = 1e-6,
which holds that move near 1e-12 relative, 1000x inside DEGENERACY_TOL
(measured: at r/lambda = 6e-5 the eigenvalues sit 6e-10 from the full
matrix's). A crop whose kept pair fails is widened to its whole
barrier-to-barrier segment; if that fails too, the wells overlap and
`chain_spectra` raises ValueError naming hy*sqrt(eB). Measured, that happens
from hy*sqrt(eB) = 0.44 at three levels (0.47 at two, 0.50 at one) up to the
grid rule's 1, barriers of 10 hbar*omega and less. On those grids the ARPACK
ring solve this replaced put the clusters 1.6% (one level at 0.50) to 18%
(three levels at 0.91) off the Landau targets. `chain_spectra` takes only
grids that pass `config.check_grid`, the package's one grid rule: they
resolve the magnetic length, max(hx, hy) <= l_B = 1/sqrt(eB), and there
every hop is at least 1/2 and finite, whatever the units.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg

from .config import TWO_PI, check_grid, check_work

# Gaps below this, relative to the eigenvalue scale, are solver noise inside
# one cluster.
DEGENERACY_TOL = 1.0e-9
# Clusters count as well separated when every gap between them is at least
# this many times the widest cluster.
SEPARATION_RATIO = 10.0
# A well is cropped to the sites whose potential is at most this many
# hbar*omega above the top Landau level it must resolve. Measured on the
# benchmark grids and up to 1000^2 at three levels, the kept pairs' edge
# bound is 1e-11 to 4e-11 here (1e-7 at 20, 1e-15 at 40), 10^5 inside EDGE_TOL.
WELL_MARGIN = 30.0
# Every kept eigenpair's padded residual r = kx |(v_first, v_last)| is at most
# this fraction of its eigenvalue; the eigenvalue moves at second order in r.
EDGE_TOL = 1.0e-6
# LAPACK's most accurate bisection setting, twice the safe minimum: each
# eigenvalue converges to a few ulps of its own size.
BISECTION_TOL = 2.0 * np.finfo(float).tiny


def bloch_chain(cfg, nx: int, ny: int, m0: int) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic chain of the y-momentum orbit m0, m0 + n_phi, ... (mod ny),
    0 <= m0 < gcd(n_phi, ny), as (diag, hop) over its D sites. Site
    t = s*nx + j is column x_j at the s-th momentum of the orbit; diag[t] is
    its on-site term and hop[t] the entry (t, t+1 mod D), -kx, times the x
    twist exp(i theta_x) on each hop from j = nx-1 onto the next momentum
    (the last of them closes the ring)."""
    eb = cfg.mass_omega
    hx = cfg.lx / nx
    hy = cfg.ly / ny
    kx, ky = 1.0 / (2.0 * eb * hx * hx), 1.0 / (2.0 * eb * hy * hy)
    ms = (m0 + cfg.n_phi * np.arange(ny // math.gcd(cfg.n_phi, ny))) % ny
    qs = (TWO_PI * ms + cfg.theta_y) / ny
    xs = hx * np.arange(nx)
    diag = 2.0 * kx + 2.0 * ky - 2.0 * ky * np.cos(eb * xs[None, :] * hy + qs[:, None])
    hop = np.full(diag.size, -kx, dtype=complex)
    hop[nx - 1 :: nx] *= np.exp(1j * cfg.theta_x)
    return diag.ravel(), hop


def _well_pairs(diag, links, lo: int, hi: int, k: int):
    """The lowest k eigenvalues of the open segment lo..hi-1 of a ring, with
    diagonal diag and hop moduli links (links[t] joins t and t+1, links[-1]
    closes the ring), and the edge bound r/lambda of each eigenpair."""
    k = min(k, hi - lo)
    values, vectors = scipy.linalg.eigh_tridiagonal(
        diag[lo:hi], -links[lo : hi - 1], select="i", select_range=(0, k - 1),
        check_finite=False, tol=BISECTION_TOL,
    )
    edge = np.hypot(links[lo - 1] * vectors[0], links[hi - 1] * vectors[-1])
    return values, edge / values


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
    # how the eigenvalues were computed and the complex values the chains
    # held (`config.check_work`): run telemetry for the manifest, left out of
    # as_dict so spectrum.json stays byte-stable
    solver: dict = field(default_factory=dict)
    work_elements: int = 0

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


def chain_spectra(cfg, nx: int, ny: int, k: int) -> tuple[np.ndarray, dict]:
    """The k smallest eigenvalues of each Bloch chain in units of hbar*omega,
    one sorted row per chain m0 = 0..gcd(n_phi, ny)-1, and the solve's
    telemetry: wells per chain, each well's size as solved, the eigenpairs
    taken per well, the largest edge bound of a kept pair and the work the
    chains were sized at (`work_elements`). Each ring is
    cut at the maxima of its diagonal into its n_phi/g centre wells, and
    each well, cropped, gives its k lowest eigenpairs; a well whose kept
    pair fails EDGE_TOL is solved again whole, and if it fails whole the
    wells overlap (ValueError). The grid must pass `config.check_grid`, and
    the chains must fit `config.WORK_BUDGET`."""
    check_grid(cfg, nx, ny)
    blocks = math.gcd(cfg.n_phi, ny)
    # a chain's diagonal, hops and their rolled copies: three complex values per site
    work = 3 * (nx * ny // blocks)
    check_work(work, f"the lattice spectrum on the {nx}x{ny} grid", "choose a coarser grid")
    wells = cfg.n_phi // blocks
    # the potential cut, WELL_MARGIN above the ceil(k/wells)-th Landau level,
    # the top one each well holds when the wells share the cluster structure
    cut = -(-k // wells) + WELL_MARGIN
    rows, sizes, worst = [], [], 0.0
    for m0 in range(blocks):
        diag, hop = bloch_chain(cfg, nx, ny, m0)
        start = int(np.argmax(diag))
        diag, links = np.roll(diag, -start), np.roll(np.abs(hop), -start)
        bounds = (np.arange(wells + 1) * diag.size) // wells
        segments = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        spans = []
        for lo, hi in segments:
            inside = np.flatnonzero(diag[lo:hi] <= diag[lo:hi].min() + cut)
            crop = (lo + int(inside[0]), lo + int(inside[-1]) + 1)
            spans.append(crop if crop[1] - crop[0] >= k else (lo, hi))
        pairs = [_well_pairs(diag, links, lo, hi, k) for lo, hi in spans]
        while True:
            values = np.concatenate([v for v, _ in pairs])
            edges = np.concatenate([e for _, e in pairs])
            owner = np.repeat(np.arange(wells), [v.size for v, _ in pairs])
            kept = np.argsort(values, kind="stable")[:k]
            failing = np.unique(owner[kept[edges[kept] > EDGE_TOL]]).tolist()
            if not failing:
                break
            if any(spans[w] == segments[w] for w in failing):
                root = cfg.ly / ny * math.sqrt(cfg.mass_omega)
                raise ValueError(
                    f"the Landau wells of grid {nx}x{ny} overlap: hy*sqrt(eB) = {root:.3g} leaves "
                    f"barriers of {2.0 / root**2:.3g} hbar*omega between cyclotron centres, and a kept "
                    f"level's edge bound is {edges[kept].max():.1e} > {EDGE_TOL:g}; refine the grid in y"
                )
            for w in failing:
                spans[w] = segments[w]
                pairs[w] = _well_pairs(diag, links, *segments[w], k)
        rows.append(values[kept])
        sizes.extend(hi - lo for lo, hi in spans)
        worst = max(worst, float(edges[kept].max()))
    telemetry = {
        "wells_per_block": wells,
        "well_sizes": sizes,
        "k_per_well": k,
        "edge_bound": worst,
        "work_elements": work,
    }
    return np.array(rows), telemetry


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
    spectra, telemetry = chain_spectra(cfg, nx, ny, per_block)
    work = telemetry.pop("work_elements")
    omega = cfg.omega
    ev = omega * np.sort(spectra.ravel())[:k]
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
            "method": "centre_wells_tridiagonal",
            "blocks": blocks,
            **telemetry,
            "edge_tol": EDGE_TOL,
            "kept": k,
        },
        work_elements=work,
    )
