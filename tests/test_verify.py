import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import landau
from landau import verify
from landau.config import GRID_BUDGET, TorusConfig, grid_spacing
from landau.finitediff import apply_fd_operator
from landau.plane import CoherentLabel
from landau.torus import TorusLabel, default_grid, eigenvalue_residual, torus_eigenstate
from landau.verify import (
    _BLOCK_ROWS,
    _HALO,
    _MARGIN,
    _PACKET,
    _commutator_blocks,
    _packet_rows,
    _plane_grid,
    _plane_residuals,
    run_verification,
)
from oracles import coherent_amplitude, coherent_raw, interior, sample_plane


def test_all_invariants_pass_at_two_flux_quanta():
    cfg = TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=2, theta_x=0.6, theta_y=1.2)
    checks, ok = run_verification(cfg)
    failing = [c.name for c in checks if not c.passed]
    assert ok, failing
    names = {c.name for c in checks}
    for expected in (
        "flux_quantization_integer",
        "boundary_shift_consistency",
        "cocycle_defect_constant",
        "weyl_matrix_relation",
        "torus_boundary_residual",
        "basis_projector_distance",
        "spectrum_clusters",
        "ladder_algebra",
        "heisenberg_center_commutator",
    ):
        assert expected in names


def test_non_integer_flux_fails_only_consistency():
    cfg = TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=2, theta_x=0.6, theta_y=1.2)
    checks, ok = run_verification(cfg, nphi_override=2.5)
    assert not ok
    failing = [c.name for c in checks if not c.passed]
    assert failing == ["boundary_shift_consistency"]


def test_checks_serialize():
    cfg = TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=1)
    checks, ok = run_verification(cfg)
    assert ok
    payload = checks[0].as_dict()
    assert set(payload) == {"name", "residual", "tolerance", "passed"}
    assert isinstance(payload["residual"], float)


# ---------------------------------------------------------------------------
# the group checks read the table `landau group` writes: a wrong table fails
# them, whichever route it breaks


def group_law(cocycle):
    """maggroup.multiplication_indices with the cocycle term -nx ny' of the
    group law scaled by `cocycle`."""

    def table(n):
        nx, ny, m = (a.ravel() for a in np.indices((n, n, n)))
        gx, gy, gm = nx[:, None], ny[:, None], m[:, None]
        return ((gx + nx) % n * n + (gy + ny) % n) * n + (gm + m - cocycle * gx * ny) % n

    return table


def permuted_identity_row(n):
    t = group_law(1)(n)
    t[0, [1, 2]] = t[0, [2, 1]]
    return t


@pytest.mark.parametrize(
    "table, failing",
    [
        (group_law(1), set()),
        # without the cocycle the law is still associative, with identity and
        # inverses, but every element is central
        (group_law(0), {"group_axioms", "representation_homomorphism"}),
        # g(nx, ny, m) -> g(nx, ny, -m) maps this law onto the true one, so
        # the axioms hold, but clock-and-shift does not represent it
        (group_law(-1), {"representation_homomorphism"}),
        (permuted_identity_row, {"group_axioms"}),
    ],
    ids=["true", "abelian", "flipped-cocycle", "permuted-identity-row"],
)
def test_group_checks_read_the_table(table, failing, monkeypatch):
    monkeypatch.setattr(verify.maggroup, "multiplication_indices", table)
    checks, _ = run_verification(TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=3))
    assert {c.name for c in checks if not c.passed} == failing


# ---------------------------------------------------------------------------
# the torus checks hold no more than the work they are budgeted


@pytest.mark.parametrize(
    "cfg",
    [TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=n) for n in (1, 2, 4)]
    + [TorusConfig(1.0, 1.0, lx=30.0, ly=0.1, n_phi=2), TorusConfig(1.0, 1.0, lx=60.0, ly=0.05, n_phi=2)],
    ids=["nphi1", "nphi2", "nphi4", "30x0.1-nphi2", "60x0.05-nphi2"],
)
def test_torus_checks_stay_within_their_work_budget(cfg, monkeypatch):
    # the torus section ends where the plane pass begins; its complex values
    # are 16 bytes each
    budget, peak = [], []
    blocks = verify._commutator_blocks

    def probe(*args):
        peak.append(tracemalloc.get_traced_memory()[1])
        return blocks(*args)

    monkeypatch.setattr(verify, "check_work", lambda work, what, remedy: budget.append(work))
    monkeypatch.setattr(verify, "_commutator_blocks", probe)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_verification(cfg)
    finally:
        tracemalloc.stop()
    assert peak[0] - start <= 16 * budget[0]


@pytest.mark.parametrize(
    "cfg",
    [
        TorusConfig(1.0, 1.0, lx=1.3, ly=0.77, n_phi=3),
        TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=4),
        TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=6, theta_x=0.7, theta_y=2.1),
    ],
    ids=["nphi3-1.3x0.77", "nphi4", "nphi6-twisted"],
)
def test_verify_holds_no_more_than_its_work_budget(cfg):
    # the whole run's tracemalloc peak, plane pass included, against
    # torus_work, whose grids hold each state build with no term of its own:
    # budget over peak read 1.06, 1.05 and 1.03. A first run builds what a
    # process builds once. n_phi 1-2 are left out: there the plane pass's
    # fixed 381^2 grid sets the peak, about 3.5 MB or 2-4x torus_work, far
    # below config.WORK_BUDGET
    run_verification(cfg)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_verification(cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 16 * verify.torus_work(cfg)


# ---------------------------------------------------------------------------
# the two plane checks, streamed in row blocks


def plane_axes(cfg):
    mw = cfg.mass_omega
    h = math.sqrt(GRID_BUDGET / mw)
    m = int(math.ceil(9.0 / math.sqrt(mw) / h))
    return h * np.arange(-m, m + 1), h * np.arange(-m, m + 1)


def full_commutator(cfg, amp, xs, ys):
    """(psi, Rx psi, Ry psi, [Rx, Ry] psi) on the whole grid at once."""
    values = sample_plane(amp, xs, ys)

    def op(name, g):
        return apply_fd_operator(name, g, xs, ys, xs[1] - xs[0], ys[1] - ys[0], cfg)

    rx, ry = op("Rx", values), op("Ry", values)
    return values, rx, ry, op("Rx", ry) - op("Ry", rx)


def reference_heisenberg(cfg):
    """The full-grid check that the row blocks replaced: the whole plane
    grid sampled and differentiated at once, interior margin 6, in units of
    l_B^2 = 1/(M w)."""
    xs, ys = plane_axes(cfg)
    amp = coherent_amplitude(cfg, CoherentLabel(0.3 + 0.2j, -0.1 + 0.4j))
    values, _, _, comm = full_commutator(cfg, amp, xs, ys)
    fw = interior(values, 6)
    val = np.vdot(fw, interior(comm, 6)) / np.vdot(fw, fw)
    return float(abs(val - 1j / cfg.mass_omega) * cfg.mass_omega)


@pytest.mark.parametrize(
    "cfg",
    [TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=n) for n in (1, 2, 3, 4)]
    + [TorusConfig(2.0, 0.7, lx=1.3, ly=0.8, n_phi=2, theta_x=0.6, theta_y=1.2)],
    ids=["nphi1", "nphi2", "nphi3", "nphi4", "mass2-charge0.7"],
)
def test_heisenberg_blocks_match_full_grid(cfg):
    want = reference_heisenberg(cfg)
    assert _plane_residuals(cfg)[1] == pytest.approx(want, rel=1e-5)
    assert want < 1e-6


def test_full_grid_guard_fails_a_plane_grid_reaching_5_lB(monkeypatch):
    # the check's grid reaches 6 l_B; at 5 l_B the packet's cut-off tail moves
    # the residual by 1.4e-4 relative, which the guard above must catch
    cfg = TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=1)
    want = reference_heisenberg(cfg)
    assert _plane_residuals(cfg)[1] == pytest.approx(want, rel=1e-5)
    h = grid_spacing(cfg)
    monkeypatch.setattr(verify, "_plane_grid", lambda cfg: (h, int(math.ceil(5.0 / math.sqrt(cfg.mass_omega) / h))))
    assert _plane_residuals(cfg)[1] != pytest.approx(want, rel=1e-5)


def test_commutator_blocks_equal_full_grid_bit_for_bit():
    # 151 x-rows keep 139 interior rows: full blocks and one partial block
    cfg = TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=2)
    xs = 0.035 * np.arange(-75, 76) + 0.1
    ys = 0.04 * np.arange(-60, 61)
    amp = coherent_amplitude(cfg, CoherentLabel(0.3 + 0.2j, -0.1 + 0.4j))
    full = full_commutator(cfg, amp, xs, ys)
    blocks = list(_commutator_blocks(cfg, lambda i0, i1: sample_plane(amp, xs[i0:i1], ys), xs, ys))
    whole, rest = divmod(139, _BLOCK_ROWS)
    assert rest > 0
    assert [len(b[0]) for b in blocks] == [_BLOCK_ROWS] * whole + [rest]
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), xs[6:-6])
    for k, want in enumerate(full, start=1):
        got = np.concatenate([b[k] for b in blocks])
        assert got.shape == (139, 121 - 12)
        assert np.array_equal(got, interior(want, 6))


def reference_ladder(cfg):
    """The ladder residual of `_plane_residuals` from the whole plane grid of
    `_plane_grid` at once: the three commutators by np.vdot over the interior,
    <[A, B]> = 2i Im<A psi, B psi> / <psi, psi>, in units of l_B^2."""
    h, m = _plane_grid(cfg)
    xs = h * np.arange(-m, m + 1)
    values, rx, ry, _ = full_commutator(cfg, coherent_raw(cfg, _PACKET), xs, xs)
    f, rx, ry = (interior(a, 6) for a in (values, rx, ry))
    x, y = xs[6:-6, None], xs[None, 6:-6]
    mw = cfg.mass_omega

    def comm(a, b):
        return 2.0 * np.vdot(a, b).imag / np.vdot(f, f).real

    rho_x, rho_y = x * f - rx, y * f - ry
    return mw * max(abs(comm(rho_x, ry)), abs(comm(rho_y, rx)), abs(comm(rho_x, rho_y) + 1.0 / mw))


@pytest.mark.parametrize(
    "cfg",
    [TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=n) for n in (1, 4)]
    + [TorusConfig(2.0, 0.7, lx=1.3, ly=0.8, n_phi=2, theta_x=0.6, theta_y=1.2)],
    ids=["nphi1", "nphi4", "mass2-charge0.7"],
)
def test_ladder_blocks_match_full_grid(cfg):
    want = reference_ladder(cfg)
    assert _plane_residuals(cfg)[0] == pytest.approx(want, rel=1e-8)
    assert want < 1e-6


def sampler_error(cfg, mutate=None):
    """max |rows - coherent_raw| / max |raw| over the x-row ranges the
    check requests and over the whole grid at once; mutate(values, x, y)
    stands in for a wrong sampler built from the right one."""
    h, m = _plane_grid(cfg)
    xs = h * np.arange(-m, m + 1)
    rows = _packet_rows(cfg, _PACKET, h, m)
    raw = coherent_raw(cfg, _PACKET)
    n = 2 * m + 1
    spans = [(r0 - _HALO, min(r0 + _BLOCK_ROWS, n - _MARGIN) + _HALO) for r0 in range(_MARGIN, n - _MARGIN, _BLOCK_ROWS)]
    spans.append((0, n))
    worst = scale = 0.0
    for i0, i1 in spans:
        got = rows(i0, i1)
        if mutate is not None:
            got = mutate(got, xs[i0:i1, None], xs[None, :])
        want = raw(xs[i0:i1, None], xs[None, :])
        worst = max(worst, float(np.max(np.abs(got - want))))
        scale = max(scale, float(np.max(np.abs(want))))
    return worst / scale


SAMPLER_CONFIGS = {
    "eB-2pi": TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=1),
    "eB-8pi": TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=4),
    "mass2-charge0.7": TorusConfig(2.0, 0.7, lx=1.3, ly=0.8, n_phi=2, theta_x=0.6, theta_y=1.2),
    "mass1e-300": TorusConfig(1e-300, 1.0, lx=1.0, ly=1.0, n_phi=1),
}


@pytest.mark.parametrize("cfg", SAMPLER_CONFIGS.values(), ids=SAMPLER_CONFIGS.keys())
def test_packet_rows_match_coherent_raw(cfg):
    # [Rx, Ry] = i/eB holds for any smooth state, so the check passes on a
    # wrong sampler too; this pins the factorised rows to the closed form
    assert sampler_error(cfg) <= 2e-15


@pytest.mark.parametrize("where", ["everywhere", "where-ij-negative"])
def test_packet_rows_check_sees_a_wrong_cross_phase(where):
    # a flipped cross-phase sign, everywhere or (a missing conjugation) only
    # where i j < 0: row * col * exp(-2i k x y) in place of exp(2i k x y)
    cfg = SAMPLER_CONFIGS["eB-2pi"]
    k = -0.25 * cfg.mass_omega

    def mutate(values, x, y):
        flipped = values * np.exp(-4j * k * x * y)
        return flipped if where == "everywhere" else np.where(x * y < 0, flipped, values)

    assert sampler_error(cfg, mutate) > 1e-2


def test_hamiltonian_eigen_residual_passes_on_a_seeded_two_flux_torus():
    # `landau verify --nphi 2` at these flags (benchmark verify seed 932, op 1),
    # where the plain y-difference of the Landau-gauge phase read 1.029e-3
    cfg = TorusConfig(
        1.0, 1.0, lx=1.113314977482712, ly=0.8982184020025262, n_phi=2,
        theta_x=2.360440378967398, theta_y=5.803988116644421,
    )
    checks, _ = run_verification(cfg, seed=973363690)
    check = {c.name: c for c in checks}["hamiltonian_eigen_residual"]
    assert check.passed, check.residual


# ---------------------------------------------------------------------------
# every check passes on tori of any shape and flux, and the Hamiltonian check
# still tells a wrong level from the right one

PASS_MATRIX = {f"nphi{n}": TorusConfig(1.0, 1.0, lx=1.0, ly=1.0, n_phi=n) for n in range(1, 9)} | {
    "30x0.1-nphi2": TorusConfig(1.0, 1.0, lx=30.0, ly=0.1, n_phi=2),
    "5x0.2-nphi3": TorusConfig(1.0, 1.0, lx=5.0, ly=0.2, n_phi=3),
    "20x20-nphi1": TorusConfig(1.0, 1.0, lx=20.0, ly=20.0, n_phi=1),
}
# the tolerance of run_verification's hamiltonian_eigen_residual check, in
# units of hbar*omega
H_TOL = 1.0e-5


@pytest.mark.parametrize("cfg", PASS_MATRIX.values(), ids=PASS_MATRIX.keys())
def test_every_check_passes(cfg):
    checks, ok = run_verification(cfg)
    assert ok, [(c.name, c.residual, c.tolerance) for c in checks if not c.passed]
    assert {c.name: c.tolerance for c in checks}["hamiltonian_eigen_residual"] == H_TOL


@pytest.mark.parametrize("name", ("nphi1", "nphi8", "30x0.1-nphi2", "5x0.2-nphi3"))
def test_hamiltonian_check_fails_a_wrong_level(name):
    cfg = PASS_MATRIX[name]
    nx, ny = default_grid(cfg)
    level0, level1 = (torus_eigenstate(cfg, TorusLabel(n, 0), nx=nx, ny=ny) for n in (0, 1))
    assert eigenvalue_residual("H", level1, 1.5) <= H_TOL
    assert eigenvalue_residual("H", level1, 2.5) > H_TOL
    assert eigenvalue_residual("H", level0, 1.5) > H_TOL


@pytest.mark.parametrize("n_phi", (1, 2))
def test_verify_is_independent_of_units(n_phi):
    # energies are in units of hbar*omega, so mass and charge leave the H
    # check bit for bit; a 1e-3 x 1e-3 torus is the unit torus in l_B, on a
    # grid that differs from it by rounding
    def h_residual(mass=1.0, charge=1.0, side=1.0):
        checks, ok = run_verification(TorusConfig(mass, charge, lx=side, ly=side, n_phi=n_phi))
        assert ok, [(c.name, c.residual, c.tolerance) for c in checks if not c.passed]
        return {c.name: c.residual for c in checks}["hamiltonian_eigen_residual"]

    reference = h_residual()
    for kwargs in (dict(mass=1e-300), dict(mass=1e-3), dict(mass=1e300), dict(charge=4.0)):
        assert h_residual(**kwargs) == reference, kwargs
    assert h_residual(side=1e-3) == pytest.approx(reference, rel=1e-8)


# ---------------------------------------------------------------------------
# no grid-sized BLAS or LAPACK call on the analytic side (torus.py docstring)

ANALYTIC_MODULES = ("torus.py", "verify.py", "finitediff.py", "plane.py")
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot"}
LINALG_NAMES = {"norm", "qr", "svd"}


def blas_calls(source):
    """Line and text of every BLAS route in source: the @ operator, the
    products in BLAS_NAMES, np.linalg's norm, qr and svd, and einsum without
    optimize=False (which may hand the contraction to tensordot)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        bad = False
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            bad = isinstance(node.op, ast.MatMult)
        elif isinstance(node, ast.Attribute):
            bad = node.attr in BLAS_NAMES or (
                node.attr in LINALG_NAMES and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
            )
        elif isinstance(node, ast.Name):
            bad = node.id in BLAS_NAMES
        elif isinstance(node, ast.ImportFrom):
            bad = any(a.name in BLAS_NAMES | LINALG_NAMES for a in node.names)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum":
            bad = not any(
                k.arg == "optimize" and isinstance(k.value, ast.Constant) and k.value.value is False
                for k in node.keywords
            )
        if bad:
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_blas_guard_flags_every_route():
    routes = [
        "a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.vdot(a, b)", "np.inner(a, b)",
        "np.matmul(a, b)", "np.tensordot(a, b)", "np.linalg.norm(a)", "np.linalg.qr(a)",
        "np.linalg.svd(a)", "from numpy import vdot", "np.einsum('ij,jk', a, b)",
        "np.einsum('ij,jk', a, b, optimize=True)",
    ]
    for line in routes:
        assert blas_calls(line), line
    allowed = "np.einsum('ij,jk', a, b, optimize=False)\nnp.linalg.eigvalsh(a)\ntorus_inner(a, b)"
    assert blas_calls(allowed) == []


@pytest.mark.parametrize("module", ANALYTIC_MODULES)
def test_analytic_modules_call_no_blas(module):
    source = (Path(landau.__file__).parent / module).read_text(encoding="utf-8")
    assert blas_calls(source) == []
