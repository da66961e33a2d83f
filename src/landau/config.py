"""Physical configurations in natural units (hbar = c = 1).

Two settings: the infinite plane, where the magnetic field B is a free
parameter, and a rectangular torus, where flux quantization fixes
B = 2*pi*n_phi / (e*Lx*Ly) once the number of flux quanta n_phi is chosen.
The grid rules live here too: `check_grid` for a grid the caller gives,
`grid_spacing` for the grids the package picks itself, and `check_work`,
which sizes a command's arrays against one memory budget before it builds
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def _check_values(positive: dict, finite: dict | None = None) -> None:
    """Raise ValueError unless every value is a finite number and each value
    in `positive` is greater than zero."""
    for name, value in {**positive, **(finite or {})}.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name, value in positive.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class InfiniteConfig:
    """Charged particle of mass `mass` and charge magnitude `charge` in a
    uniform field `b_field` filling the whole plane."""

    mass: float
    charge: float
    b_field: float

    def __post_init__(self):
        _check_values({"mass": self.mass, "charge": self.charge, "b_field": self.b_field})

    @property
    def omega(self) -> float:
        return self.charge * self.b_field / self.mass

    @property
    def mass_omega(self) -> float:
        # M*omega = e*B, the inverse square of the magnetic length
        return self.charge * self.b_field


@dataclass(frozen=True)
class TorusConfig:
    """Torus of periods (lx, ly) threaded by n_phi flux quanta.

    theta_x, theta_y are the self-adjoint extension angles entering the
    twisted boundary condition; only their values mod 2*pi matter, so they
    are normalized into [0, 2*pi) on construction.
    """

    mass: float
    charge: float
    lx: float
    ly: float
    n_phi: int
    theta_x: float = 0.0
    theta_y: float = 0.0

    def __post_init__(self):
        _check_values(
            {"mass": self.mass, "charge": self.charge, "lx": self.lx, "ly": self.ly, "n_phi": self.n_phi},
            {"theta_x": self.theta_x, "theta_y": self.theta_y},
        )
        if int(self.n_phi) != self.n_phi:
            raise ValueError(f"n_phi must be a positive integer, got {self.n_phi}")
        object.__setattr__(self, "n_phi", int(self.n_phi))
        if self.charge * self.lx * self.ly == 0.0:
            raise ValueError("charge * lx * ly underflows to 0, so B = 2 pi n_phi / (e Lx Ly) is not finite")
        _check_values({"B": self.b_field, "eB": self.mass_omega, "omega": self.omega})
        object.__setattr__(self, "theta_x", self.theta_x % TWO_PI)
        object.__setattr__(self, "theta_y", self.theta_y % TWO_PI)

    @property
    def b_field(self) -> float:
        return TWO_PI * self.n_phi / (self.charge * self.lx * self.ly)

    @property
    def omega(self) -> float:
        return self.charge * self.b_field / self.mass

    @property
    def mass_omega(self) -> float:
        return self.charge * self.b_field

    @property
    def ax(self) -> float:
        return self.lx / self.n_phi

    @property
    def ay(self) -> float:
        return self.ly / self.n_phi


# Grids have at least this many points per flux quantum along each axis.
GRID_POINTS_PER_FLUX = 8
# The finite-difference resolution rule: every grid the package picks for
# itself keeps h^2 * M*w at or below this on each axis, i.e. a spacing of
# about l_B / 32 in magnetic lengths l_B = 1/sqrt(M*w).
GRID_BUDGET = 1.0e-3


def grid_spacing(cfg) -> float:
    """The largest spacing the resolution rule allows at cfg's M*w."""
    return math.sqrt(GRID_BUDGET / cfg.mass_omega)


def check_grid(cfg, nx: int, ny: int) -> None:
    """The one validity rule of a given grid, for the lattice spectrum and
    `density --grid` alike: raise ValueError unless the nx x ny grid has
    GRID_POINTS_PER_FLUX * n_phi points per side and resolves the magnetic
    length, max(hx, hy) <= l_B = 1/sqrt(eB)."""
    floor = GRID_POINTS_PER_FLUX * cfg.n_phi
    if nx < floor or ny < floor:
        raise ValueError(f"grid {nx}x{ny} too small; need at least {floor} per direction")
    hx, hy = cfg.lx / nx, cfg.ly / ny
    if not max(hx, hy) * math.sqrt(cfg.mass_omega) <= 1.0:
        raise ValueError(
            f"grid {nx}x{ny} (hx={hx:.3g}, hy={hy:.3g}) does not resolve the magnetic length "
            f"l_B = 1/sqrt(eB) = {1.0 / math.sqrt(cfg.mass_omega):.3g}; need max(hx, hy) <= l_B"
        )


# The most complex values one command may hold at once: 64 times the largest
# benchmark op, the 1026^2 density grid, or about 1 GiB of complex128.
WORK_BUDGET = 64 * 1026 * 1026


def check_work(work: int, what: str, remedy: str) -> None:
    """Raise ValueError naming WORK_BUDGET when `what` would hold more than it:
    `work` complex values, counted before anything is allocated."""
    if work > WORK_BUDGET:
        # capped: on an absurdly thin torus the count exceeds the largest float
        times = min(work, 10**300) / WORK_BUDGET
        raise ValueError(
            f"{what} would hold {times:.3g} times the work budget of {WORK_BUDGET} complex values "
            f"(64 times the 1026^2 density grid); {remedy}"
        )


def work_report(work: int) -> dict:
    """The run manifest's `work` field: `work` complex values against
    WORK_BUDGET."""
    return {"work_elements": work, "budget": WORK_BUDGET, "fraction": work / WORK_BUDGET}


def commensurate(n: int, n_phi: int) -> int:
    """The least multiple of n_phi that is >= n: grids whose elementary
    translations are whole grid shifts."""
    return -(-n // n_phi) * n_phi


# The keys of a torus configuration, in flags and config files alike, with
# the type each parses to, and the default of every key but nphi, which a
# configuration must always give.
TORUS_KEYS = {
    "mass": float,
    "charge": float,
    "lx": float,
    "ly": float,
    "nphi": int,
    "theta_x": float,
    "theta_y": float,
}
TORUS_DEFAULTS = {"mass": 1.0, "charge": 1.0, "lx": 1.0, "ly": 1.0, "theta_x": 0.0, "theta_y": 0.0}


def parse_config_text(text: str) -> dict:
    """Parse plain key=value lines into a dict of typed config values.

    Blank lines and lines starting with '#' are ignored. Unknown keys raise.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key == "n_phi":
            key = "nphi"
        if key not in TORUS_KEYS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        out[key] = TORUS_KEYS[key](value.strip())
    return out


def torus_config_from_mapping(values: dict) -> TorusConfig:
    """TorusConfig from config keys; every key but nphi may be left out."""
    v = {**TORUS_DEFAULTS, **values}
    return TorusConfig(
        mass=v["mass"],
        charge=v["charge"],
        lx=v["lx"],
        ly=v["ly"],
        n_phi=v["nphi"],
        theta_x=v["theta_x"],
        theta_y=v["theta_y"],
    )
