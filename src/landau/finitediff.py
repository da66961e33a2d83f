"""Fourth-order finite-difference realizations of the magnetic operators.

Grids are uniform, values[ix, iy]. In Landau gauge a state carries the phase
exp(i eB x y), whose y-wavenumber eB x reaches 2 pi n_phi / Ly on a torus, so
H, a and adag, which hold Pi_y = -i dy + eB x, difference y covariantly: the
value s cells along y is multiplied by the link exp(i eB x s hy) before the
stencil sums it. That is the stencil of g psi divided by g, g = exp(i eB x y),
and the continuum form of the Peierls links of `spectral.bloch_chain`; the
stencil then sees only the smooth envelope of the state.

Ghost cells. Each stencil pads its axis once with 2 ghost cells per side and
reads its five points as shifted slices of the padded array. The ghost cells
hold the periodic wrap of the array, times `twist` past the high edge and
times 1/twist before the low edge: the torus boundary condition (twist_x is a
function of y, twist_y a constant phase). With twist None the wrap values are
meaningless and callers must discard a margin of 2 cells per application. An
axis needs length >= 2; at length 1 the stencil would wrap twice, and it
raises ValueError.

Real arithmetic. A complex array is worked on as two real planes (re, im),
and every step whose factor is real or +-i runs per plane. These steps give
numpy's complex results bit for bit (up to the sign of an exact zero), and
they skip its costly complex loops (division by a real runs Smith's
algorithm, and negation is a full complex pass):

    c * z  = (c re, c im)          for real c, scalar or array
    z / c  = (re * (1/c), im * (1/c))   Smith's algorithm at zero imaginary
                                        part is a multiply by 1/c
    1j * z = (-im, re)      -1j * z = (im, -re)

Products with a complex factor (the ghost-cell twists, the links, +-1j y in
b and bdag) stay numpy complex multiplies, whose rounding may differ from any
hand-written form (a product of two complex scalars can differ from the same
product done elementwise in an array by an ulp).
"""

from __future__ import annotations

import numpy as np

OPERATORS = ("H", "L", "Px", "Py", "Rx", "Ry", "a", "adag", "b", "bdag")


def _along(axis, sl):
    """Index applying slice `sl` along `axis` and taking every other axis."""
    return (slice(None),) * axis + (sl,)


def _merged(re, im):
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _ghosted(planes, axis, twist):
    """Yield each plane padded with 2 ghost cells per side along axis, so
    that padded[k + 2 + s] is the value s cells past k, wrapped as described
    in the module docstring. With a twist, `planes` is (re, im). One padded
    plane at a time: fewer large temporaries alive at once is measurably
    faster than padding both planes up front."""
    n = planes[0].shape[axis]
    if n < 2:
        raise ValueError(f"a stencil axis needs length >= 2, got {n}")
    head, tail = _along(axis, slice(0, 2)), _along(axis, slice(n - 2, n))
    if twist is None:
        low = [p[tail] for p in planes]
        high = [p[head] for p in planes]
    else:
        low = _merged(*(p[tail] for p in planes)) * (1.0 / twist)
        high = _merged(*(p[head] for p in planes)) * twist
        low, high = (low.real, low.imag), (high.real, high.imag)
    for p, lo, hi in zip(planes, low, high):
        shape = list(p.shape)
        shape[axis] += 4
        g = np.empty(shape, dtype=p.dtype)
        g[_along(axis, slice(0, 2))] = lo
        g[_along(axis, slice(2, n + 2))] = p
        g[_along(axis, slice(n + 2, n + 4))] = hi
        yield g


def _shifted(g, axis, links):
    """f(k): the ghosted array g read k - 2 cells ahead along axis, times the
    link links[k - 2] of that shift when links are given."""
    n = g.shape[axis] - 4
    f = lambda k: g[_along(axis, slice(k, k + n))]  # noqa: E731
    return f if links is None else lambda k: f(k) if k == 2 else f(k) * links[k - 2]


def _d1_sum(g, axis, links=None):
    """12h * first derivative on a ghosted plane: -f(+2) + 8f(+1) - 8f(-1) + f(-2)."""
    f = _shifted(g, axis, links)
    out = 8.0 * f(3)
    out -= f(4)
    out -= 8.0 * f(1)
    out += f(0)
    return out


def _d2_sum(g, axis, links=None):
    """12h^2 * second derivative: -f(+2) + 16f(+1) - 30f + 16f(-1) - f(-2)."""
    f = _shifted(g, axis, links)
    out = 16.0 * f(3)
    out -= f(4)
    out -= 30.0 * f(2)
    out += 16.0 * f(1)
    out -= f(0)
    return out


def _derivative(stencil, scale, planes, axis, twist):
    """Stencil / scale on (re, im) planes, as numpy's complex z / scale."""
    inv = 1.0 / scale
    out = []
    for g in _ghosted(planes, axis, twist):
        s = stencil(g, axis)
        s *= inv
        out.append(s)
    return tuple(out)


def apply_fd_operator(op, values, xs, ys, hx, hy, cfg, twist_x=None, twist_y=None):
    """Apply one of the magnetic operators to sampled values.

    values is a complex array, or a (re, im) pair of real planes; the result
    takes the same form. xs, ys are the 1-D coordinate arrays of the
    uniform grid and hx, hy its spacings; cfg supplies mass, charge and
    b_field. Landau gauge A = (0, B x, 0) throughout, with D = dy + i e B x
    differenced covariantly (module docstring):

        Px = -i dx + e B y        Py = -i dy
        Rx =  i dy / (e B)        Ry = y - i dx / (e B)
        H  = -(dx^2 + D^2) / (2 M)
        L  = x (-i dy + e B x / 2) - y (-i dx + e B y / 2)
        a    = ( dx - i D) / sqrt(2 e B)
        adag = (-dx - i D) / sqrt(2 e B)
        b    = sqrt(M w / 2) [ i y + (dx + i dy)/(e B) ]
        bdag = sqrt(M w / 2) [ -i y - (dx - i dy)/(e B) ]
    """
    if op not in OPERATORS:
        raise ValueError(f"unknown operator {op!r}; expected one of {OPERATORS}")
    if isinstance(values, tuple):
        return _operator_planes(op, *values, xs, ys, hx, hy, cfg, twist_x, twist_y)
    values = np.asarray(values, dtype=complex)
    return _merged(*_operator_planes(op, values.real, values.imag, xs, ys, hx, hy, cfg, twist_x, twist_y))


def _operator_planes(op, re, im, xs, ys, hx, hy, cfg, twist_x, twist_y):
    """apply_fd_operator on (re, im) planes. Each branch notes the complex
    expression it reproduces; numpy evaluates those left to right."""
    x = xs[:, None]
    y = ys[None, :]
    eb = cfg.mass_omega
    inv_eb = 1.0 / eb  # z / eb = z * (1/eb)

    def dx():
        return _derivative(_d1_sum, 12.0 * hx, (re, im), 0, twist_x)

    def dy():
        return _derivative(_d1_sum, 12.0 * hy, (re, im), 1, twist_y)

    def covariant_dy(stencil, scale):
        # complex arithmetic throughout, returned as (re, im) views
        links = {k: np.exp(1j * (k * eb * hy) * x) for k in (-2, -1, 1, 2)}
        out = stencil(_merged(*_ghosted((re, im), 1, twist_y)), 1, links)
        out *= 1.0 / scale
        return out.real, out.imag

    if op == "Py":  # -1j dy
        dr, di = dy()
        return di, np.negative(dr, out=dr)
    if op == "Px":  # -1j dx + eb y psi
        dr, di = dx()
        eby = eb * y
        di += eby * re
        out_im = eby * im
        out_im -= dr
        return di, out_im
    if op == "Rx":  # 1j dy / eb
        dr, di = dy()
        di *= -inv_eb
        dr *= inv_eb
        return di, dr
    if op == "Ry":  # y psi - 1j dx / eb
        dr, di = dx()
        di *= inv_eb
        di += y * re
        dr *= inv_eb
        out_im = y * im
        out_im -= dr
        return di, out_im
    if op == "H":  # (-dxx - Dyy) / (2 M)
        dxx = _derivative(_d2_sum, 12.0 * hx * hx, (re, im), 0, twist_x)
        dyy = covariant_dy(_d2_sum, 12.0 * hy * hy)
        inv_2m = 1.0 / (2.0 * cfg.mass)
        for a, b in zip(dxx, dyy):
            np.negative(a, out=a)
            a -= b
            a *= inv_2m
        return dxx
    dx_r, dx_i = dx()
    if op in ("a", "adag"):  # (dx - 1j Dy) / sqrt(2 eb), adag with -dx
        if op == "adag":
            dx_r, dx_i = -dx_r, -dx_i
        dy_r, dy_i = covariant_dy(_d1_sum, 12.0 * hy)
        inv_norm = 1.0 / np.sqrt(2.0 * eb)
        return (dx_r + dy_i) * inv_norm, (dx_i - dy_r) * inv_norm
    dy_r, dy_i = dy()
    if op == "L":  # x (-1j dy + eb x psi / 2) - y (-1j dx + eb y psi / 2)
        ax = 0.5 * eb * x
        ay = 0.5 * eb * y
        out_re = x * (dy_i + ax * re) - y * (dx_i + ay * re)
        out_im = x * (ax * im - dy_r) - y * (ay * im - dx_r)
        return out_re, out_im
    scale = np.sqrt(eb / 2.0)
    if op == "b":  # scale (1j y psi + (dx + 1j dy) / eb)
        c = 1j * y * _merged(re, im)
        out_re = c.real + (dx_r - dy_i) * inv_eb
        out_im = c.imag + (dx_i + dy_r) * inv_eb
    else:  # bdag: scale (-1j y psi - (dx - 1j dy) / eb)
        c = -1j * y * _merged(re, im)
        out_re = c.real - (dx_r + dy_i) * inv_eb
        out_im = c.imag - (dx_i - dy_r) * inv_eb
    out_re *= scale
    out_im *= scale
    return out_re, out_im
