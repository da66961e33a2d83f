"""Output checks, one function per op kind.

Each returns a dict:
  problems  list of strings; empty when every output is correct
  ratios    {name: residual / tolerance} for accuracy.worst_ratio, using the
            tolerances the repository already holds those residuals to
  residuals extra values worth keeping in the results file

Exact-by-construction outputs are compared by digest: the integer part of
group.json against reference.json, orbit.csv against the closed-form trace
evaluated here with the same float operations. Floating outputs are checked
by tolerance against independent evaluations (density: the image sums below,
over every grid point; coherent.csv: the closed-form moments). Every CSV field
must be the `.17g` round trip of its value, so a writer that changes bytes
fails while a change in the last bits of a value does not.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
REFERENCE = Path(__file__).parent / "reference.json"

SPECTRUM_DEVIATION_TOL = 0.05  # tests/test_acceptance.py, criterion 1
SPECTRUM_SPREAD_TOL = 1.0e-6
DENSITY_INTEGRAL_TOL = 1.0e-8  # tests/test_cli.py, tests/test_torus.py
WEYL_TOL = 1.0e-14  # verify: weyl_matrix_relation
ORBIT_CLOSURE_TOL = 1.0e-9  # cli: "closes"
ORACLE_TOL = 1.0e-9  # density vs the independent image sum, relative to the peak
MOMENT_TOL = 1.0e-12  # coherent.csv vs the closed-form moments


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _mass_omega(e) -> float:
    return TWO_PI * e["nphi"] / (e["lx"] * e["ly"])


def _csv_columns(path: Path, header: str, ncols: int, problems: list):
    """Parse a CSV, check that every field is the .17g round trip of its
    value; returns an (nrows, ncols) array or None."""
    text = path.read_text(encoding="utf-8")
    head, sep, body = text.partition("\n")
    if head != header or not sep or not body.endswith("\n"):
        problems.append(f"{path.name}: bad header or line ends")
        return None
    lines = body[:-1].split("\n")
    fields = ",".join(lines).split(",")
    if len(fields) != ncols * len(lines):
        problems.append(f"{path.name}: rows do not all have {ncols} fields")
        return None
    try:
        values = np.array(fields, dtype=float)
    except ValueError:
        problems.append(f"{path.name}: non-numeric field")
        return None
    if list(map(_fmt, values.tolist())) != fields:
        problems.append(f"{path.name}: a field is not the .17g round trip of its value")
        return None
    if not np.all(np.isfinite(values)):
        problems.append(f"{path.name}: non-finite value")
        return None
    return values.reshape(len(lines), ncols)


# ---------------------------------------------------------------------------


def check_spectrum(op, out: Path) -> dict:
    e = op["expect"]
    problems, ratios = [], {}
    p = _json(out / "spectrum.json")
    n, levels = e["nphi"], e["levels"]
    omega = _mass_omega(e)
    ev = p.get("eigenvalues", [])
    if len(ev) != n * levels or not _finite(*ev) or ev != sorted(ev):
        problems.append("eigenvalues: wrong count, non-finite or unsorted")
    clusters = p.get("clusters", [])
    if len(clusters) != levels:
        problems.append(f"{len(clusters)} clusters, expected {levels}")
    dev = spread = 0.0
    for i, c in enumerate(clusters):
        if c["multiplicity"] != n:
            problems.append(f"cluster {i}: multiplicity {c['multiplicity']} != n_phi {n}")
        if not _finite(c["mean"], c["spread"], c["relative_deviation"]):
            problems.append(f"cluster {i}: non-finite")
            continue
        if abs(c["target"] - omega * (i + 0.5)) > 1e-12 * omega * (i + 0.5):
            problems.append(f"cluster {i}: target is not omega*(n+1/2)")
        dev = max(dev, abs(c["relative_deviation"]))
        spread = max(spread, c["spread"])
    if dev > SPECTRUM_DEVIATION_TOL or spread > SPECTRUM_SPREAD_TOL or not p.get("well_separated"):
        problems.append(f"clusters off: deviation {dev:.3e}, spread {spread:.3e}")
    if p.get("grid") != e["grid"]:
        problems.append("grid field differs from the request")
    ratios["spectrum_deviation"] = dev / SPECTRUM_DEVIATION_TOL
    ratios["spectrum_spread"] = spread / SPECTRUM_SPREAD_TOL
    return {"problems": problems, "ratios": ratios, "residuals": {"deviation": dev, "spread": spread}}


def check_verify(op, out: Path, rc) -> dict:
    problems, ratios, residuals = [], {}, {}
    p = _json(out / "verify.json")
    checks = p.get("checks", [])
    if not checks:
        problems.append("verify.json has no checks")
    for c in checks:
        name, res, tol = c.get("name"), c.get("residual"), c.get("tolerance")
        if not _finite(res, tol) or tol <= 0:
            problems.append(f"{name}: non-finite residual or tolerance")
            continue
        if c.get("passed") != (res <= tol):
            problems.append(f"{name}: 'passed' disagrees with residual <= tolerance")
        residuals[name] = res
        ratios[name] = res / tol
    all_passed = all(c.get("passed") for c in checks)
    if p.get("all_passed") != all_passed:
        problems.append("all_passed disagrees with the checks")
    if rc != (0 if all_passed else 1):
        problems.append(f"exit code {rc} disagrees with all_passed={all_passed}")
    return {"problems": problems, "ratios": ratios, "residuals": residuals}


# -- density ----------------------------------------------------------------


def _hermite_profile(n: int, xi: np.ndarray) -> np.ndarray:
    """H_n(xi) exp(-xi^2/2), unnormalized (the density is renormalized)."""
    poly = {0: 1.0, 1: 2.0 * xi, 2: 4.0 * xi**2 - 2.0, 3: 8.0 * xi**3 - 12.0 * xi}[n]
    return poly * np.exp(-0.5 * xi * xi)


def _image_range(c0: float, step: float, length: float, reach: float) -> range:
    """Integers k with c0 + k*step inside [-reach, length + reach]."""
    a, b = (-reach - c0) / step, (length + reach - c0) / step
    lo, hi = min(a, b), max(a, b)
    return range(math.floor(lo) - 1, math.ceil(hi) + 2)


def oracle_amplitude(e: dict, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Torus state on the closed grid, up to a factor of unit modulus and
    the normalization, summed here from the closed forms (torus eigenstates
    and coherent states as image sums). Every image term factors into a
    function of x times a function of y, so the sum is one matrix product."""
    n, lx, ly, tx, ty = e["nphi"], e["lx"], e["ly"], e["theta_x"], e["theta_y"]
    mw = _mass_omega(e)
    s = math.sqrt(mw)
    fx, fy = [], []
    if e["basis"] == "coherent":
        # exp(-(Mw/4)(u^2 + 2iuv + v^2) + sqrt(Mw/2)(u (lam + lam') + i v (lam - lam')))
        # at u = x + kx Lx, v = y + ky Ly; the common exp(-i (Mw/2) x y) is dropped
        lam, lamp = complex(*e["lam"]), complex(*e["lam_prime"])
        pre = math.sqrt(mw / 2.0)
        s2 = math.sqrt(2.0 / mw)
        cx, cy = s2 * (lam + lamp).real, s2 * (lamp.imag - lam.imag)
        reach = math.sqrt(200.0 / mw)
        for kx in _image_range(cx, -lx, lx, reach):
            for ky in _image_range(cy, -ly, ly, reach):
                u, v = xs + kx * lx, ys + ky * ly
                const = -0.5j * mw * kx * ky * lx * ly - 1j * (kx * tx + ky * ty)
                fx.append(np.exp(-0.25 * mw * u * u + pre * u * (lam + lamp) - 0.5j * mw * xs * ky * ly + const))
                fy.append(np.exp(-0.25 * mw * v * v + 1j * pre * v * (lam - lamp) - 0.5j * mw * kx * lx * ys + TWO_PI * 1j * n * kx * ys / ly))
    else:
        level, l = e["n"], e["l"]
        reach = (math.sqrt(2 * level + 1) + 10.0) / s
        if e["basis"] == "ly":
            ax = lx / n
            shift = l + ty / TWO_PI
            for k in _image_range(-shift * ax, -n * ax, lx, reach):
                kval = n * k + shift
                fx.append(_hermite_profile(level, s * (xs + kval * ax)).astype(complex))
                fy.append(np.exp(TWO_PI * 1j * ys * kval / ly - 1j * tx * k))
        else:
            # the common factor exp(-2 pi i n x y / (Lx Ly)) is dropped
            ay = ly / n
            shift = l + tx / TWO_PI
            for k in _image_range(shift * ay, n * ay, ly, reach):
                qval = n * k + shift
                fx.append(np.exp(TWO_PI * 1j * xs * qval / lx + 1j * ty * k))
                fy.append(_hermite_profile(level, s * (ys - qval * ay)).astype(complex))
    return np.array(fx).T @ np.array(fy)


def _density_csv(path: Path, g: int, e: dict, problems: list):
    """density.csv as a (g+1, g+1) array. The file must equal, byte for
    byte, the text rebuilt from its own coordinate strings and the .17g
    round trip of every parsed density: rows in x-major grid order, every
    field its own round trip. Parsing only the density column keeps this
    fast on 10^6 rows."""
    head, _, body = path.read_text(encoding="utf-8").partition("\n")
    lines = body.split("\n")
    if head != "x,y,density" or lines[-1] != "" or len(lines) - 1 != (g + 1) ** 2:
        problems.append(f"density.csv: bad header, line ends or row count (expected {(g + 1) ** 2} rows)")
        return None
    lines.pop()
    xs_s = [lines[i * (g + 1)].split(",")[0] for i in range(g + 1)]
    ys_s = [lines[j].split(",")[1] for j in range(g + 1)]
    try:
        xs, ys = np.array(xs_s, dtype=float), np.array(ys_s, dtype=float)
        d = np.array([ln[ln.rfind(",") + 1 :] for ln in lines], dtype=float)
    except ValueError:
        problems.append("density.csv: non-numeric field")
        return None
    if list(map(_fmt, xs.tolist())) != xs_s or list(map(_fmt, ys.tolist())) != ys_s:
        problems.append("density.csv: a coordinate is not the .17g round trip of its value")
        return None
    if np.max(np.abs(xs - np.linspace(0.0, e["lx"], g + 1))) > 1e-12 or np.max(np.abs(ys - np.linspace(0.0, e["ly"], g + 1))) > 1e-12:
        problems.append("density.csv: coordinates are not the closed grid")
        return None
    prefixes = [f"{a},{b}," for a in xs_s for b in ys_s]
    if "".join(map("{}{}\n".format, prefixes, map(_fmt, d.tolist()))) != body:
        problems.append("density.csv: a row is out of grid order or a density is not the .17g round trip of its value")
        return None
    if not np.all(np.isfinite(d)):
        problems.append("density.csv: non-finite value")
        return None
    return xs, ys, d.reshape(g + 1, g + 1)


def check_density(op, out: Path) -> dict:
    e = op["expect"]
    problems, ratios = [], {}
    n = e["nphi"]
    g = -(-e["grid"] // n) * n
    parsed = _density_csv(out / "density.csv", g, e, problems)
    if parsed is None:
        return {"problems": problems, "ratios": ratios, "residuals": {}}
    xs, ys, d = parsed
    if np.min(d) < 0.0:
        problems.append("negative density")
    hx, hy = e["lx"] / g, e["ly"] / g
    core = d[:-1, :-1]
    integral = float(core.sum() * hx * hy)
    ratios["density_integral"] = abs(integral - 1.0) / DENSITY_INTEGRAL_TOL
    if abs(integral - 1.0) > DENSITY_INTEGRAL_TOL:
        problems.append(f"density integral {integral!r}")

    ix, iy = np.unravel_index(np.argmax(core), core.shape)
    info = _json(out / "argmax.json")
    if info.get("argmax_x") != float(xs[ix]) or info.get("argmax_y") != float(ys[iy]) or info.get("grid") != [g + 1, g + 1]:
        problems.append("argmax.json disagrees with density.csv")
    if not _finite(info.get("integral")) or abs(info["integral"] - 1.0) > DENSITY_INTEGRAL_TOL:
        problems.append("argmax.json integral off")

    ref = np.abs(oracle_amplitude(e, xs, ys)) ** 2
    ref /= ref[:-1, :-1].sum() * hx * hy
    peak = float(ref.max())
    mismatch = float(np.max(np.abs(d - ref))) / peak
    if mismatch > ORACLE_TOL:
        problems.append(f"density differs from the independent image sum by {mismatch:.2e} of the peak")
    if ref[ix, iy] < ref[:-1, :-1].max() * (1.0 - ORACLE_TOL):
        problems.append("argmax is not a maximum of the independent image sum")

    pgm = (out / "density.pgm").read_text(encoding="utf-8").split("\n", 3)
    scaled = np.rint(d / d.max() * 255).astype(int)
    if pgm[:3] != ["P2", f"{g + 1} {g + 1}", "255"]:
        problems.append("density.pgm header")
    else:
        pixels = np.array(pgm[3].split(), dtype=int)
        if pixels.size != (g + 1) ** 2 or not np.array_equal(pixels.reshape(g + 1, g + 1), scaled.T[::-1]):
            problems.append("density.pgm pixels differ from density.csv")
    return {"problems": problems, "ratios": ratios, "residuals": {"integral": integral, "oracle_mismatch": mismatch}}


# -- exact outputs --------------------------------------------------------------

GROUP_EXACT_KEYS = ("n_phi", "order", "elements", "multiplication_table", "conjugacy_classes", "center", "tx")


def group_digest(payload: dict) -> str:
    exact = {k: payload.get(k) for k in GROUP_EXACT_KEYS}
    return hashlib.sha256(json.dumps(exact, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def check_group(op, out: Path) -> dict:
    n = op["expect"]["nphi"]
    problems, ratios = [], {}
    p = _json(out / "group.json")
    want = _json(REFERENCE)["group_digest"].get(str(n))
    if want is None or group_digest(p) != want:
        problems.append(f"group.json (n_phi={n}) digest differs from reference.json")
    ty = p.get("ty", [])
    for l in range(n):
        phase = cmath.exp(2j * math.pi * l / n)
        for m in range(n):
            want_v = phase if l == m else 0.0
            got = complex(*ty[l][m]) if l < len(ty) and m < len(ty[l]) else complex("nan")
            if not abs(got - want_v) <= 1e-15:
                problems.append("ty is not the clock matrix")
                break
    weyl = p.get("weyl_deviation")
    if not _finite(weyl) or weyl > WEYL_TOL:
        problems.append(f"weyl deviation {weyl}")
    else:
        ratios["weyl_deviation"] = weyl / WEYL_TOL
    return {"problems": problems, "ratios": ratios, "residuals": {"weyl_deviation": weyl}}


def expected_orbit_csv(e: dict) -> str:
    """orbit.csv from the closed-form trace x = c + r (cos, sin)(w t + phase0),
    folded into the domain, with the float operations the CLI uses."""
    omega = 1.0 * (TWO_PI * e["nphi"] / (1.0 * e["lx"] * e["ly"])) / 1.0
    period = 2.0 * math.pi / omega
    times = np.linspace(0.0, e["periods"] * period, e["periods"] * e["samples"] + 1)
    phase = omega * times + e["phase0"]
    x = np.mod(e["center_x"] + e["radius"] * np.cos(phase), e["lx"])
    y = np.mod(e["center_y"] + e["radius"] * np.sin(phase), e["ly"])
    rows = (f"{_fmt(t)},{_fmt(a)},{_fmt(b)}\n" for t, a, b in zip(times.tolist(), x.tolist(), y.tolist()))
    return "t,x,y\n" + "".join(rows)


def check_orbit(op, out: Path) -> dict:
    e = op["expect"]
    problems, ratios = [], {}
    got = hashlib.sha256((out / "orbit.csv").read_bytes()).hexdigest()
    want = hashlib.sha256(expected_orbit_csv(e).encode()).hexdigest()
    if got != want:
        problems.append("orbit.csv digest differs from the closed-form trace")
    info = _json(out / "orbit.json")
    closure = info.get("closure_residual")
    if not _finite(closure) or closure >= ORBIT_CLOSURE_TOL or info.get("closes") is not True:
        problems.append(f"orbit does not close: {closure}")
    else:
        ratios["orbit_closure"] = closure / ORBIT_CLOSURE_TOL
    return {"problems": problems, "ratios": ratios, "residuals": {"closure": closure}}


def check_coherent(op, out: Path) -> dict:
    e = op["expect"]
    problems = []
    cols = _csv_columns(out / "coherent.csv", "t,x,y,energy,delta_x,delta_y,delta_energy", 7, problems)
    if cols is None:
        return {"problems": problems, "ratios": {}, "residuals": {}}
    mw = _mass_omega(e)
    omega = mw  # mass = charge = 1
    s2 = math.sqrt(2.0 / mw)
    lam, lamp = complex(*e["lam"]), complex(*e["lam_prime"])
    t = np.linspace(0.0, e["periods"] * TWO_PI / omega, e["periods"] * e["samples"] + 1)
    lam_t = lam * np.exp(-1j * omega * t)
    sigma = 1.0 / math.sqrt(2.0 * mw)
    want = np.stack(
        [
            t,
            s2 * lamp.real + s2 * lam_t.real,
            s2 * lamp.imag - s2 * lam_t.imag,
            np.full_like(t, omega * (abs(lam) ** 2 + 0.5)),
            np.full_like(t, math.hypot(sigma, sigma)),
            np.full_like(t, math.hypot(sigma, sigma)),
            np.full_like(t, omega * abs(lam)),
        ],
        axis=1,
    )
    if cols.shape != want.shape:
        problems.append(f"coherent.csv has {cols.shape[0]} rows, expected {want.shape[0]}")
    else:
        err = float(np.max(np.abs(cols - want) / (1.0 + np.abs(want))))
        if err > MOMENT_TOL:
            problems.append(f"coherent.csv differs from the closed-form moments by {err:.2e}")
    return {"problems": problems, "ratios": {}, "residuals": {}}


def check(op, out: Path, rc) -> dict:
    """Dispatch on the op kind; a non-zero exit is only legitimate for verify."""
    kind = op["kind"]
    if kind == "verify":
        return check_verify(op, out, rc)
    if rc != 0:
        return {"problems": [f"exit code {rc}"], "ratios": {}, "residuals": {}}
    return {
        "spectrum": check_spectrum,
        "density": check_density,
        "group": check_group,
        "orbit": check_orbit,
        "coherent": check_coherent,
    }[kind](op, out)
