import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau.config import InfiniteConfig, TorusConfig, parse_config_text, torus_config_from_mapping

TWO_PI = 2.0 * math.pi


def test_cyclotron_frequency_unit_inputs():
    assert InfiniteConfig(mass=1, charge=1, b_field=1).omega == 1.0


def test_cyclotron_frequency_linear():
    assert InfiniteConfig(mass=2, charge=1, b_field=6).omega == 3.0


def test_torus_flux_fixes_field():
    cfg = TorusConfig(mass=1, charge=1, lx=1, ly=1, n_phi=2)
    assert cfg.b_field == pytest.approx(4 * math.pi, abs=1e-14)
    assert cfg.omega == pytest.approx(12.566370614359172, abs=1e-12)


def test_elementary_steps_basic():
    assert TorusConfig(1, 1, lx=1, ly=1, n_phi=2).ax == 0.5
    assert TorusConfig(1, 1, lx=3, ly=1, n_phi=1).ax == 3.0


def test_elementary_steps_both_identities():
    # a_x = Lx/n_phi must equal 2 pi / (e B Ly), evaluated independently
    cfg = TorusConfig(mass=1, charge=1, lx=1, ly=2, n_phi=4)
    ax, ay = cfg.ax, cfg.ay
    assert ax == pytest.approx(0.25, abs=1e-15)
    assert ax == pytest.approx(TWO_PI / (cfg.charge * cfg.b_field * cfg.ly), rel=1e-14)
    assert ay == pytest.approx(TWO_PI / (cfg.charge * cfg.b_field * cfg.lx), rel=1e-14)


def test_flux_quantization_invariant_random_configs():
    rng = np.random.default_rng(7)
    for _ in range(25):
        cfg = TorusConfig(
            mass=float(rng.uniform(0.2, 3.0)),
            charge=float(rng.uniform(0.2, 3.0)),
            lx=float(rng.uniform(0.3, 4.0)),
            ly=float(rng.uniform(0.3, 4.0)),
            n_phi=int(rng.integers(1, 9)),
        )
        flux_quanta = cfg.charge * cfg.b_field * cfg.lx * cfg.ly / TWO_PI
        assert flux_quanta == pytest.approx(cfg.n_phi, abs=1e-12)
        assert cfg.ax * cfg.n_phi == pytest.approx(cfg.lx, rel=1e-15)
        assert cfg.ay * cfg.n_phi == pytest.approx(cfg.ly, rel=1e-15)


def test_theta_normalized_mod_two_pi():
    cfg = TorusConfig(1, 1, 1, 1, 1, theta_x=2 * TWO_PI + 0.5, theta_y=-0.5)
    assert cfg.theta_x == pytest.approx(0.5, abs=1e-12)
    assert cfg.theta_y == pytest.approx(TWO_PI - 0.5, abs=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mass=-1, charge=1, b_field=1),
        dict(mass=1, charge=0, b_field=1),
        dict(mass=1, charge=1, b_field=-2),
        dict(mass=1, charge=math.inf, b_field=1),
    ],
)
def test_infinite_config_validation(kwargs):
    with pytest.raises(ValueError):
        InfiniteConfig(**kwargs)


def test_torus_config_validation():
    with pytest.raises(ValueError):
        TorusConfig(1, 1, lx=0, ly=1, n_phi=1)
    with pytest.raises(ValueError):
        TorusConfig(1, 1, lx=1, ly=1, n_phi=0)
    with pytest.raises(ValueError):
        TorusConfig(1, 1, lx=math.nan, ly=1, n_phi=1)
    with pytest.raises(ValueError):
        TorusConfig(1, 1, lx=1, ly=1, n_phi=1, theta_x=math.inf)


@pytest.mark.parametrize(
    "kwargs",
    [
        # e Lx Ly underflows to 0
        dict(mass=1, charge=1, lx=1e-200, ly=1e-200),
        # B = 2 pi / 1e-320 overflows
        dict(mass=1, charge=1e-320, lx=1, ly=1),
        # B = 2 pi / 1e-10 is finite, eB = 1e300 B overflows
        dict(mass=1, charge=1e300, lx=1e-155, ly=1e-155),
        # omega = eB / M overflows, then underflows
        dict(mass=1e-320, charge=1, lx=1, ly=1),
        dict(mass=1e300, charge=1, lx=1e100, ly=1e100),
    ],
)
def test_torus_config_rejects_derived_values_outside_doubles(kwargs):
    with pytest.raises(ValueError):
        TorusConfig(n_phi=1, **kwargs)


def test_config_file_parsing():
    text = "# comment\nmass = 1.5\ncharge=2\nlx=1\nly=2\nnphi=3\ntheta_x=0.25\n"
    values = parse_config_text(text)
    cfg = torus_config_from_mapping(values)
    assert cfg.mass == 1.5
    assert cfg.n_phi == 3
    assert cfg.theta_y == 0.0
    with pytest.raises(ValueError):
        parse_config_text("unknown_key=1\n")
    with pytest.raises(ValueError):
        parse_config_text("just a line\n")


def test_config_from_file(tmp_path):
    path = tmp_path / "torus.cfg"
    path.write_text("mass=2.0\ncharge=0.5\nlx=1.5\nly=1.0\nnphi=4\ntheta_y=1.25\n")
    cfg = torus_config_from_mapping(parse_config_text(path.read_text(encoding="utf-8")))
    assert cfg.mass == 2.0
    assert cfg.charge == 0.5
    assert cfg.n_phi == 4
    assert cfg.theta_y == 1.25
    assert cfg.b_field == pytest.approx(2 * math.pi * 4 / (0.5 * 1.5))


positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
angle = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    values=st.fixed_dictionaries(
        {"mass": positive, "charge": positive, "lx": positive, "ly": positive, "nphi": st.integers(1, 64)},
        optional={"theta_x": angle, "theta_y": angle},
    ),
    spelling=st.sampled_from(["nphi", "n_phi", "N-PHI", "Nphi"]),
    comment=st.booleans(),
)
def test_config_text_round_trip(values, spelling, comment):
    lines = ["# torus", ""] if comment else []
    for key, value in values.items():
        name = spelling if key == "nphi" else key
        lines.append(f"  {name} = {value!r}  ")
    parsed = parse_config_text("\n".join(lines) + "\n")
    assert parsed == values
    assert all(type(parsed[k]) is type(values[k]) for k in values)
    cfg = torus_config_from_mapping(parsed)
    assert (cfg.mass, cfg.charge, cfg.lx, cfg.ly, cfg.n_phi) == tuple(
        values[k] for k in ("mass", "charge", "lx", "ly", "nphi")
    )
    assert cfg.theta_x == values.get("theta_x", 0.0) % TWO_PI
    assert cfg.theta_y == values.get("theta_y", 0.0) % TWO_PI
