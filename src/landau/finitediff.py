"""Fourth-order finite-difference realizations of the magnetic operators.

Grids are uniform, values[ix, iy]. Stencils reach across array edges with
np.roll; the `twist_x` / `twist_y` factors implement the torus boundary
condition on the wrapped entries (twist_x is a function of y, twist_y a
constant phase). With twists set to None the wrap values are meaningless and
callers must discard a margin of 2 cells per application.
"""

from __future__ import annotations

import numpy as np


def _rolled(values, s, axis, twist):
    """values advanced by s along axis: result[j] = values[j+s], wrapped.

    twist: factor relating f(coord + period) to f(coord), i.e. a complex
    array broadcastable over the other axis (or None for a plain roll).
    """
    g = np.roll(values, -s, axis=axis)
    if twist is None or s == 0:
        return g
    g = np.asarray(g, dtype=complex)
    t = twist if s > 0 else 1.0 / twist
    if axis == 0:
        if s > 0:
            g[-s:, :] *= t
        else:
            g[:-s, :] *= t
    else:
        if s > 0:
            g[:, -s:] *= t
        else:
            g[:, : -s] *= t
    return g


def d1(values, h, axis, twist=None):
    """First derivative, 4th-order central stencil."""
    return (
        -_rolled(values, 2, axis, twist)
        + 8.0 * _rolled(values, 1, axis, twist)
        - 8.0 * _rolled(values, -1, axis, twist)
        + _rolled(values, -2, axis, twist)
    ) / (12.0 * h)


def d2(values, h, axis, twist=None):
    """Second derivative, 4th-order central stencil."""
    return (
        -_rolled(values, 2, axis, twist)
        + 16.0 * _rolled(values, 1, axis, twist)
        - 30.0 * values
        + 16.0 * _rolled(values, -1, axis, twist)
        - _rolled(values, -2, axis, twist)
    ) / (12.0 * h * h)


OPERATORS = ("H", "L", "Px", "Py", "Rx", "Ry", "a", "adag", "b", "bdag")


def apply_fd_operator(op, values, xs, ys, cfg, twist_x=None, twist_y=None):
    """Apply one of the magnetic operators to sampled values.

    xs, ys are the 1-D coordinate arrays of the (uniform) grid; cfg supplies
    mass, charge and b_field. Landau gauge A = (0, B x, 0) throughout:

        Px = -i dx + e B y        Py = -i dy
        Rx =  i dy / (e B)        Ry = y - i dx / (e B)
        H  = (-dx^2 - dy^2 - 2 i e B x dy + (e B x)^2) / (2 M)
        L  = x (-i dy + e B x / 2) - y (-i dx + e B y / 2)
        a    = sqrt(M w / 2) [ x + (dx - i dy)/(e B) ]
        adag = sqrt(M w / 2) [ x - (dx + i dy)/(e B) ]
        b    = sqrt(M w / 2) [ i y + (dx + i dy)/(e B) ]
        bdag = sqrt(M w / 2) [ -i y - (dx - i dy)/(e B) ]
    """
    values = np.asarray(values, dtype=complex)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    x = xs[:, None]
    y = ys[None, :]
    eb = cfg.mass_omega
    mass = cfg.mass

    if op == "Py":
        return -1j * d1(values, hy, 1, twist_y)
    if op == "Px":
        return -1j * d1(values, hx, 0, twist_x) + eb * y * values
    if op == "Rx":
        return 1j * d1(values, hy, 1, twist_y) / eb
    if op == "Ry":
        return y * values - 1j * d1(values, hx, 0, twist_x) / eb
    if op == "H":
        dxx = d2(values, hx, 0, twist_x)
        dyy = d2(values, hy, 1, twist_y)
        dy = d1(values, hy, 1, twist_y)
        return (-dxx - dyy - 2j * eb * x * dy + (eb * x) ** 2 * values) / (2.0 * mass)
    if op == "L":
        dx = d1(values, hx, 0, twist_x)
        dy = d1(values, hy, 1, twist_y)
        return x * (-1j * dy + 0.5 * eb * x * values) - y * (-1j * dx + 0.5 * eb * y * values)
    if op in ("a", "adag", "b", "bdag"):
        scale = np.sqrt(eb / 2.0)
        dx = d1(values, hx, 0, twist_x)
        dy = d1(values, hy, 1, twist_y)
        if op == "a":
            return scale * (x * values + (dx - 1j * dy) / eb)
        if op == "adag":
            return scale * (x * values - (dx + 1j * dy) / eb)
        if op == "b":
            return scale * (1j * y * values + (dx + 1j * dy) / eb)
        return scale * (-1j * y * values - (dx - 1j * dy) / eb)
    raise ValueError(f"unknown operator {op!r}; expected one of {OPERATORS}")


def interior(values, margin: int):
    """View with `margin` cells stripped from every edge."""
    if margin == 0:
        return values
    return values[margin:-margin, margin:-margin]
