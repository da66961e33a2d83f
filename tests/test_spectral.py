import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landau import spectral
from landau.config import TorusConfig
from landau.gauge import x_boundary_twist, y_boundary_twist
from landau.spectral import (
    bloch_chain,
    chain_spectra,
    cluster_eigenvalues,
    clusters_well_separated,
    low_spectrum,
)
from landau.torus import SampledState, TorusLabel, normalized, projector_distance, torus_eigenstate
from oracles import (
    build_hamiltonian,
    density_map,
    free_twisted_spectrum,
    lowest_eigenpairs,
    tridiagonal_eigenvalues,
)


def make_cfg(n_phi, theta_x=0.7, theta_y=1.9, lx=1.0, ly=1.0):
    return TorusConfig(1.0, 1.0, lx=lx, ly=ly, n_phi=n_phi, theta_x=theta_x, theta_y=theta_y)


def eigenvector_states(cfg, vec, nx, ny):
    """Wrap discrete eigenvectors as SampledStates on the closed grid."""
    ys_core = (cfg.ly / ny) * np.arange(ny)
    out = []
    for i in range(vec.shape[1]):
        core = vec[:, i].reshape(nx, ny)
        full = np.empty((nx + 1, ny + 1), dtype=complex)
        full[:nx, :ny] = core
        full[nx, :ny] = x_boundary_twist(cfg, ys_core) * core[0, :]
        full[:nx, ny] = y_boundary_twist(cfg) * core[:, 0]
        full[nx, ny] = x_boundary_twist(cfg, np.array(0.0)) * y_boundary_twist(cfg) * core[0, 0]
        out.append(normalized(SampledState(cfg, full)))
    return out


def loop_hamiltonian(cfg, nx, ny, include_flux=True):
    """Per-site assembly of the same stencil, entry by entry."""
    hx, hy = cfg.lx / nx, cfg.ly / ny
    kx, ky = 1.0 / (2.0 * cfg.mass * hx * hx), 1.0 / (2.0 * cfg.mass * hy * hy)
    eb = cfg.mass_omega if include_flux else 0.0
    entries = {}
    for j in range(nx):
        for k in range(ny):
            entries[j * ny + k, j * ny + k] = 2.0 * kx + 2.0 * ky
            hop = -kx
            if j == nx - 1:
                flux_phase = 2.0 * np.pi * cfg.n_phi * (hy * k) / cfg.ly if include_flux else 0.0
                hop = hop * np.exp(1j * (cfg.theta_x - flux_phase))
            entries[j * ny + k, (j + 1) % nx * ny + k] = hop
            entries[(j + 1) % nx * ny + k, j * ny + k] = np.conj(hop)
            hop = -ky * np.exp(1j * eb * (hx * j) * hy)
            if k == ny - 1:
                hop = hop * np.exp(1j * cfg.theta_y)
            entries[j * ny + k, j * ny + (k + 1) % ny] = hop
            entries[j * ny + (k + 1) % ny, j * ny + k] = np.conj(hop)
    dense = np.zeros((nx * ny, nx * ny), dtype=complex)
    for (row, col), value in entries.items():
        dense[row, col] = value
    return dense


@pytest.mark.parametrize("include_flux", [True, False])
def test_assembly_matches_per_site_loop(include_flux):
    cfg = make_cfg(2, lx=1.1, ly=0.9)
    ham = build_hamiltonian(cfg, 20, 18, include_flux=include_flux)
    assert np.array_equal(ham.matrix.toarray(), loop_hamiltonian(cfg, 20, 18, include_flux))


def test_hamiltonian_is_exactly_hermitian():
    cfg = make_cfg(2)
    ham = build_hamiltonian(cfg, 24, 32)
    assert ham.hermiticity_defect() == 0.0


def test_grid_too_small_rejected():
    cfg = make_cfg(3)
    with pytest.raises(ValueError):
        build_hamiltonian(cfg, 16, 32)
    with pytest.raises(ValueError):
        low_spectrum(cfg, 32, 16, 3)


def test_too_many_eigenvalues_rejected():
    cfg = make_cfg(1)
    with pytest.raises(ValueError):
        low_spectrum(cfg, 12, 12, 100)
    with pytest.raises(ValueError):
        low_spectrum(cfg, 12, 12, 0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(build_hamiltonian(cfg, 12, 12), 0)


def test_shift_invert_matches_dense_oracle():
    # dense LAPACK on a grid small enough to diagonalize fully
    cfg = make_cfg(2)
    ham = build_hamiltonian(cfg, 24, 32)
    ev, vec = lowest_eigenpairs(ham, 6)
    dense = np.linalg.eigvalsh(ham.matrix.toarray())[:6]
    assert np.max(np.abs(ev - dense) / dense) < 1e-9
    sizes = [[len(c) for c in cluster_eigenvalues(values)] for values in (ev, dense)]
    assert sizes == [[2, 2, 2], [2, 2, 2]]
    assert np.allclose(vec.conj().T @ vec, np.eye(6), atol=1e-12)


def ring_matrix(chain):
    """Dense chain in site order from bloch_chain's (diag, hop): hop[t] is the
    entry (t, t+1 mod D), the last one closing the ring."""
    diag, hop = chain
    dim = diag.size
    ring = np.diag(diag).astype(complex)
    sites = np.arange(dim)
    ring[sites, (sites + 1) % dim] = hop
    ring[(sites + 1) % dim, sites] = hop.conj()
    return ring


def fourier_chain(cfg, full, nx, ny, m0):
    """The oracle matrix on the chain's basis: site s*nx + j is column x_j
    times the plane wave exp(i q_m k)/sqrt(ny) of the s-th orbit momentum."""
    ms = (m0 + cfg.n_phi * np.arange(ny // math.gcd(cfg.n_phi, ny))) % ny
    waves = np.exp(1j * np.outer(np.arange(ny), 2.0 * np.pi * ms + cfg.theta_y) / ny) / np.sqrt(ny)
    basis = np.einsum("jJ,ks->jksJ", np.eye(nx), waves).reshape(nx * ny, nx * len(ms))
    return basis.conj().T @ full @ basis


@pytest.mark.parametrize(
    "n_phi, nx, ny, lx, ly",
    [(2, 20, 18, 1.1, 0.9), (3, 27, 25, 1.0, 1.0)],
)
def test_bloch_chains_are_unitarily_equivalent_to_full_matrix(n_phi, nx, ny, lx, ly):
    # entry by entry, each ring is the oracle matrix on that chain's
    # Fourier basis, and together the chains hold every eigenvalue of it;
    # 20x18 gives two rings, and 27x25 at n_phi = 3 (ny not a multiple of
    # n_phi) one ring holding the whole spectrum.
    # The chains are in units of hbar*omega, the oracle matrix in energy
    cfg = make_cfg(n_phi, lx=lx, ly=ly)
    full = build_hamiltonian(cfg, nx, ny).matrix.toarray() / cfg.omega
    chains = [ring_matrix(bloch_chain(cfg, nx, ny, m0)) for m0 in range(math.gcd(n_phi, ny))]
    for m0, chain in enumerate(chains):
        assert np.max(np.abs(chain - fourier_chain(cfg, full, nx, ny, m0))) < 1e-13 * np.max(np.abs(full))
    stacked = np.sort(np.concatenate([np.linalg.eigvalsh(chain) for chain in chains]))
    exact = np.linalg.eigvalsh(full)
    assert np.max(np.abs(stacked - exact) / exact) < 1e-10


@pytest.mark.parametrize(
    "n_phi, ny",
    [pytest.param(n_phi, 96, id=str(n_phi)) for n_phi in (1, 2, 3, 4)]
    # ny = 90 is not a multiple of n_phi = 4: g = 2 chains, each holding two
    # copies of every level, so the merge takes ceil(k/g) values per chain
    + [pytest.param(4, 90, id="4-ny90")],
)
def test_block_solve_matches_full_matrix_solve(n_phi, ny):
    cfg = make_cfg(n_phi)
    k = 3 * n_phi
    blocks = low_spectrum(cfg, 96, ny, k).eigenvalues
    full, _ = lowest_eigenpairs(build_hamiltonian(cfg, 96, ny), k)
    assert np.max(np.abs(blocks - full) / full) < 1e-10


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n_phi=st.integers(1, 4),
    log_aspect=st.floats(-math.log(4.0), math.log(4.0)),
    theta=st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi)),
    extra=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    levels=st.integers(1, 3),
)
@example(n_phi=3, log_aspect=0.0, theta=(0.7, 1.9), extra=(1, 1), levels=3)
@example(n_phi=1, log_aspect=-math.log(4.0), theta=(0.7, 2.1), extra=(0, 0), levels=3)  # overlapping wells
def test_well_solver_matches_full_matrix(n_phi, log_aspect, theta, extra, levels):
    # from the 8 n_phi floor up, ny often not a multiple of n_phi; whenever
    # low_spectrum returns, its values are the full matrix's lowest
    lx = math.exp(0.5 * log_aspect)
    cfg = make_cfg(n_phi, theta_x=theta[0], theta_y=theta[1], lx=lx, ly=1.0 / lx)
    nx, ny = (8 * n_phi + e for e in extra)
    k = levels * n_phi
    try:
        report = low_spectrum(cfg, nx, ny, k)
    except ValueError as exc:
        # the grid rule, or wells that overlap, measured from hy*sqrt(eB) = 0.44
        overlap = "Landau wells" in str(exc)
        assert not overlap or cfg.ly / ny * math.sqrt(cfg.mass_omega) > 0.4, exc
        return
    assert report.solver["edge_bound"] <= report.solver["edge_tol"]
    full = np.linalg.eigvalsh(build_hamiltonian(cfg, nx, ny).matrix.toarray())[:k]
    assert np.max(np.abs(report.eigenvalues - full) / full) < 1e-10


def test_failed_crop_widens_to_the_whole_well(monkeypatch):
    # with no margin the crop ends at 2 hbar*omega, inside the level-1 state's
    # tail, so its edge bound fails and each well is solved from barrier to
    # barrier: 48 * 50 / 3 sites
    cfg = make_cfg(3)
    reference = low_spectrum(cfg, 48, 50, 6)
    monkeypatch.setattr(spectral, "WELL_MARGIN", 0.0)
    widened = low_spectrum(cfg, 48, 50, 6)
    assert reference.solver["well_sizes"] == [181, 181, 181]
    assert widened.solver["well_sizes"] == [800, 800, 800]
    assert widened.solver["edge_bound"] <= spectral.EDGE_TOL
    assert np.max(np.abs(widened.eigenvalues - reference.eigenvalues) / reference.eigenvalues) < 1e-12


def record_wells(monkeypatch):
    """Patch `spectral._well_pairs` to record each well it solves as
    (diagonal, hop moduli, k, returned values); returns the record list."""
    wells = []
    solve = spectral._well_pairs

    def spy(diag, links, lo, hi, k):
        values, edges = solve(diag, links, lo, hi, k)
        wells.append((diag[lo:hi].copy(), links[lo : hi - 1].copy(), values.size, values))
        return values, edges

    monkeypatch.setattr(spectral, "_well_pairs", spy)
    return wells


def fully_bisected_quotient(diag, links, k):
    """The cancellation-free Rayleigh quotient of the k lowest eigenvectors
    that LAPACK bisection to full precision gives."""
    _, v = scipy.linalg.eigh_tridiagonal(
        diag, -links, select="i", select_range=(0, k - 1), tol=2.0 * np.finfo(float).tiny
    )
    v = v.T
    well = diag - np.concatenate(([0.0], links)) - np.concatenate((links, [0.0]))
    return (np.sum(well * v**2, axis=1) + np.sum(links * np.diff(v, axis=1) ** 2, axis=1)) / np.sum(v**2, axis=1)


@pytest.mark.parametrize("n_phi, grid", [(2, 48), (3, 96), (1, 64)])
def test_well_values_match_a_40_digit_sturm_count(monkeypatch, n_phi, grid):
    # the first well low_spectrum solves (223, 361 and 416 sites), against
    # the oracle's 40-digit bisection of the same stored matrix: within 4
    # ulps (read: 1-2). Bisection to full precision, the solver before the
    # quotient, read 2.4e-14, 1.2e-14 and 3.6e-14 relative here
    wells = record_wells(monkeypatch)
    low_spectrum(make_cfg(n_phi, theta_y=2.1), grid, grid, 3 * n_phi)
    diag, links, k, values = wells[0]
    assert diag.size <= 420
    reference = np.array([float(v) for v in tridiagonal_eigenvalues(diag, -links, k)])
    assert np.all(np.abs(values - reference) <= 4 * np.spacing(reference))


def test_well_values_match_the_quotient_of_fully_bisected_vectors(monkeypatch):
    # a seeded sweep of 50 wells: n_phi 1-8, grids 16-384, aspect 1/4-4,
    # mass and charge 0.5-2, 1-6 levels, random twists. Bisecting only until
    # each value is isolated loses nothing: read 1.8e-15 at most over 411
    # such wells, where BISECTION_TOL = 1e-2 left 1.3e-10
    wells = record_wells(monkeypatch)
    rng = np.random.default_rng(45)
    while len(wells) < 50:
        n_phi, grid, levels = int(rng.integers(1, 9)), int(rng.integers(16, 385)), int(rng.integers(1, 7))
        aspect = math.exp(rng.uniform(-math.log(4.0), math.log(4.0)))
        mass, charge = rng.uniform(0.5, 2.0, 2)
        theta_x, theta_y = rng.uniform(0.0, 2.0 * np.pi, 2)
        cfg = TorusConfig(
            mass, charge, lx=math.sqrt(aspect), ly=1.0 / math.sqrt(aspect), n_phi=n_phi, theta_x=theta_x, theta_y=theta_y
        )
        try:
            low_spectrum(cfg, grid, grid, levels * n_phi)
        except ValueError:
            # the grid rule, or wells that overlap
            continue
    worst = max(np.max(np.abs(values / fully_bisected_quotient(d, l, k) - 1)) for d, l, k, values in wells)
    assert worst < 1e-14


@pytest.mark.parametrize("n_phi, grid", [(2, 64), (3, 96), (4, 96)])
def test_degeneracy_as_identical_chains(n_phi, grid):
    # n_phi divides both sides: one chain per Ty label, all with one spectrum
    cfg = make_cfg(n_phi)
    spectra, telemetry = chain_spectra(cfg, grid, grid, 3)
    assert spectra.shape == (n_phi, 3)
    assert telemetry["wells_per_block"] == 1
    assert len(telemetry["well_sizes"]) == n_phi
    assert np.max(np.ptp(spectra, axis=0)) < 1e-10


def test_free_twisted_torus_matches_closed_form():
    # flux removed: the twisted lattice Laplacian has an exact dispersion
    cfg = make_cfg(1, theta_x=0.3, theta_y=0.5, ly=1.4)
    ham = build_hamiltonian(cfg, 32, 32, include_flux=False)
    solver = lowest_eigenpairs(ham, 5)[0]
    closed = free_twisted_spectrum(cfg, 32, 32, 5)
    assert np.max(np.abs(solver - closed)) < 1e-10
    continuum = cfg.theta_x**2 / (2 * cfg.mass * cfg.lx**2) + cfg.theta_y**2 / (
        2 * cfg.mass * cfg.ly**2
    )
    assert solver[0] == pytest.approx(continuum, rel=1e-4)


@pytest.mark.parametrize("n_phi", [1, 2, 3])
def test_landau_clusters_with_exact_degeneracy(n_phi):
    cfg = make_cfg(n_phi)
    report = low_spectrum(cfg, 96, 96, 3 * n_phi)
    assert len(report.clusters) == 3
    assert report.well_separated
    for cluster in report.clusters:
        assert cluster.multiplicity == n_phi
        assert abs(cluster.relative_deviation) < 0.05
        assert cluster.spread < 1e-6 * cluster.mean


def test_deviation_shrinks_under_refinement():
    cfg = make_cfg(2)
    devs = {}
    for grid in (48, 96):
        report = low_spectrum(cfg, grid, grid, 4)
        devs[grid] = max(abs(c.relative_deviation) for c in report.clusters)
    assert devs[96] < devs[48]


def test_second_order_convergence_of_cluster_means():
    # O(h^2) stencil: error ratio between 64^2 and 128^2 grids near 4
    cfg = make_cfg(1)
    errors = {}
    for grid in (64, 128):
        report = low_spectrum(cfg, grid, grid, 3)
        errors[grid] = [abs(c.mean - c.target) for c in report.clusters]
    for e64, e128 in zip(errors[64], errors[128]):
        assert 3.5 < e64 / e128 < 4.5


def test_spectrum_independent_of_units():
    # the chains are in units of hbar*omega and hold no mass, so masses near
    # the ends of the double range give the mass-1 deviations
    def deviations(mass):
        cfg = TorusConfig(mass, 1.0, lx=1.0, ly=1.0, n_phi=1)
        return np.array([c.relative_deviation for c in low_spectrum(cfg, 32, 32, 2).clusters])

    reference = deviations(1.0)
    for mass in (1e-300, 1e300):
        assert np.max(np.abs(deviations(mass) - reference)) < 1e-12


def test_spectrum_independent_of_theta():
    cfg_pairs = [(0.0, 0.0), (0.7, 1.9), (np.pi, np.pi)]
    means = []
    spreads = []
    for tx, ty in cfg_pairs:
        cfg = make_cfg(2, theta_x=tx, theta_y=ty)
        report = low_spectrum(cfg, 96, 96, 4)
        means.append([c.mean for c in report.clusters])
        spreads.append(max(c.spread for c in report.clusters))
    omega = make_cfg(2).omega
    allowance = max(10 * max(spreads), 1e-8 * omega)
    for other in means[1:]:
        for a, b in zip(means[0], other):
            assert abs(a - b) < allowance


def test_ground_cluster_spans_analytic_level():
    # lowest-cluster eigenvectors against {|0 l>}: same subspace up to
    # discretization error
    cfg = make_cfg(3)
    grid = 126
    ham = build_hamiltonian(cfg, grid, grid)
    _, vec = lowest_eigenpairs(ham, 3)
    discrete = eigenvector_states(cfg, vec, grid, grid)
    analytic = [torus_eigenstate(cfg, TorusLabel(0, l), nx=grid, ny=grid) for l in range(3)]
    assert projector_distance(discrete, analytic) < 1e-2


def test_discrete_ground_density_matches_analytic_peak():
    cfg = make_cfg(1, theta_x=np.pi, theta_y=np.pi)
    grid = 96
    ham = build_hamiltonian(cfg, grid, grid)
    _, vec = lowest_eigenpairs(ham, 1)
    state = eigenvector_states(cfg, vec, grid, grid)[0]
    dm = density_map(state)
    assert dm.argmax_x == pytest.approx(0.5, abs=1.5 / grid)
    assert dm.argmax_y == pytest.approx(0.5, abs=1.5 / grid)


def test_cluster_helper_edge_cases():
    assert cluster_eigenvalues(np.array([1.0])) == [[1.0]]
    triple = np.array([5.0, 5.0 + 1e-12, 5.0 + 2e-12])
    assert len(cluster_eigenvalues(triple)) == 1
    spaced = np.array([1.0, 2.0, 3.0])
    assert cluster_eigenvalues(spaced) == [[1.0], [2.0], [3.0]]
    assert clusters_well_separated([[1.0, 1.0 + 1e-12], [2.0]])
    assert not clusters_well_separated([[1.0, 1.4], [2.0]])


def test_oracles_import_nothing_from_landau():
    # an oracle that imports the code it checks is no longer an independent route
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert [name for name in imported if name.split(".")[0] == "landau"] == []
