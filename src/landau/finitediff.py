"""Fourth-order finite-difference realizations of the magnetic operators that
`verify` applies: the Hamiltonian H and the cyclotron-center coordinates Rx,
Ry, in numpy complex arithmetic.

Grids are uniform, values[ix, iy]. In Landau gauge a state carries the phase
exp(i eB x y), whose y-wavenumber eB x reaches 2 pi n_phi / Ly on a torus, so
H, which holds Pi_y = -i dy + eB x, differences y covariantly: the value s
cells along y is multiplied by the link exp(i eB x s hy) before the stencil
sums it. That is the stencil of g psi divided by g, g = exp(i eB x y), and
the continuum form of the Peierls links of `spectral.bloch_chain`; the
stencil then sees only the smooth envelope of the state.

Ghost cells. Each stencil pads its axis once with 2 ghost cells per side and
reads its five points as shifted slices of the padded array. The ghost cells
hold the periodic wrap of the array, times `twist` past the high edge and
times 1/twist before the low edge: the torus boundary condition (twist_x is a
function of y, twist_y a constant phase). With twist None the wrap values are
meaningless and callers must discard a margin of 2 cells per application. An
axis needs length >= 2; at length 1 the stencil would wrap twice, and it
raises ValueError.
"""

from __future__ import annotations

import numpy as np

OPERATORS = ("H", "Rx", "Ry")


def _along(axis, sl):
    """Index applying slice `sl` along `axis` and taking every other axis."""
    return (slice(None),) * axis + (sl,)


def _taps(values, axis, twist, links=None):
    """f(s): values s cells along axis (s = -2..2), read from one ghosted
    copy (module docstring), times the link links[s] of that shift when
    links are given."""
    n = values.shape[axis]
    if n < 2:
        raise ValueError(f"a stencil axis needs length >= 2, got {n}")
    low = values[_along(axis, slice(n - 2, n))]
    high = values[_along(axis, slice(0, 2))]
    if twist is not None:
        low = low * (1.0 / twist)
        high = high * twist
    g = np.concatenate((low, values, high), axis=axis)

    def f(s):
        v = g[_along(axis, slice(s + 2, s + 2 + n))]
        return v if links is None or s == 0 else v * links[s]

    return f


def _d1(values, h, axis, twist):
    """First derivative: (-f(2) + 8f(1) - 8f(-1) + f(-2)) / 12h."""
    f = _taps(values, axis, twist)
    out = 8.0 * f(1)
    out -= f(2)
    out -= 8.0 * f(-1)
    out += f(-2)
    out *= 1.0 / (12.0 * h)
    return out


def _d2(values, h, axis, twist, links=None):
    """Second derivative: (-f(2) + 16f(1) - 30f(0) + 16f(-1) - f(-2)) / 12h^2."""
    f = _taps(values, axis, twist, links)
    out = 16.0 * f(1)
    out -= f(2)
    out -= 30.0 * f(0)
    out += 16.0 * f(-1)
    out -= f(-2)
    out *= 1.0 / (12.0 * h * h)
    return out


def apply_fd_operator(op, values, xs, ys, hx, hy, cfg, twist_x=None, twist_y=None):
    """Apply H, Rx or Ry to the sampled values, returning a complex array.

    xs, ys are the 1-D coordinate arrays of the uniform grid and hx, hy its
    spacings; cfg supplies mass, charge and b_field. Landau gauge
    A = (0, B x, 0) throughout, with Dyy the covariant second y-difference
    (module docstring):

        H  = -(dx^2 + Dyy) / (2 M)
        Rx =  i dy / (e B)        Ry = y - i dx / (e B)
    """
    if op not in OPERATORS:
        raise ValueError(f"unknown operator {op!r}; expected one of {OPERATORS}")
    values = np.asarray(values, dtype=complex)
    eb = cfg.mass_omega
    if op == "H":
        links = {s: np.exp(1j * (s * eb * hy) * xs[:, None]) for s in (-2, -1, 1, 2)}
        out = _d2(values, hx, 0, twist_x)
        out += _d2(values, hy, 1, twist_y, links)
        out *= -1.0 / (2.0 * cfg.mass)
        return out
    if op == "Rx":
        out = _d1(values, hy, 1, twist_y)
        out *= 1j / eb
        return out
    out = _d1(values, hx, 0, twist_x)
    out *= -1j / eb
    out += ys[None, :] * values
    return out
