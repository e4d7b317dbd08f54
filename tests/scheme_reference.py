"""The explicit scheme written out once more in plain numpy, as the
reference that the step kernel and `run` are checked against bit for bit:
the nodal gradient, one forward Euler step and the step-size bound."""
import math

import numpy as np


def _along(dim, axis, part, rest=slice(None)):
    idx = [rest] * dim
    idx[axis] = part
    return tuple(idx)


def reference_gradient(u, grid, eps):
    """(gradient, |grad u|, W, |grad u|^2 + eps) written out in numpy:
    central differences inside, one-sided second-order stencils on the faces."""
    dim, grads = grid.dimension, []
    for a, h in enumerate(grid.spacing):
        g = np.empty(u.shape)
        g[_along(dim, a, slice(1, -1))] = (
            u[_along(dim, a, slice(2, None))] - u[_along(dim, a, slice(0, -2))]) / (2.0 * h)
        f0, f1, f2, l0, l1, l2 = (_along(dim, a, i) for i in (0, 1, 2, -1, -2, -3))
        g[f0] = (-3.0 * u[f0] + 4.0 * u[f1] - u[f2]) / (2.0 * h)
        g[l0] = (3.0 * u[l0] - 4.0 * u[l1] + u[l2]) / (2.0 * h)
        grads.append(g)
    if dim == 1:
        mag = np.abs(grads[0])
    else:
        mag = np.sqrt(grads[0] * grads[0] + grads[1] * grads[1])
    return grads, mag, np.max(mag), mag * mag + eps


def reference_step(u, spec, dt):
    """(u + dt * rhs with g on the boundary, rhs, (|grad u|^2+eps)^(q/2))
    written out in numpy, in the order of the operators module's scheme:
    face differences / h, squared (plus the 2D tangential part), + eps, to
    the power (p-2)/2, times the differences, differenced / h; the source
    mu * ((|grad u|^2+eps)^(q/2) - eps^(q/2)); rhs = div + source."""
    grid, eps = spec.grid, spec.epsilon
    dim, inner = grid.dimension, grid.interior_slice()
    div = None
    for a, h in enumerate(grid.spacing):
        dn = (u[_along(dim, a, slice(1, None))] - u[_along(dim, a, slice(0, -1))]) / h
        fsq = dn * dn
        if dim == 2:
            o = 1 - a
            cd = u[_along(2, o, slice(2, None))] - u[_along(2, o, slice(0, -2))]
            tang = (cd[_along(2, a, slice(0, -1))] + cd[_along(2, a, slice(1, None))]) / (
                4.0 * grid.spacing[o])
            fsq[_along(2, o, slice(1, -1))] += tang * tang
        flux = (fsq + eps) ** ((spec.p - 2.0) / 2.0) * dn
        div_a = (flux[_along(dim, a, slice(1, None), slice(1, -1))]
                 - flux[_along(dim, a, slice(0, -1), slice(1, -1))]) / h
        div = div_a if div is None else div + div_a
    s_half = reference_gradient(u, grid, eps)[3] ** (spec.q / 2.0)
    src = spec.mu * (s_half - eps ** (spec.q / 2.0))
    rhs = div + src[inner]
    new = spec.boundary_values.copy()
    new[inner] = u[inner] + dt * rhs
    return new, rhs, s_half


def reference_dt(u, spec, theta):
    """theta h^2 / (2 d (p-1) (W^2+eps)^((p-2)/2) + h q (W^2+eps)^((q-1)/2))
    in Python floats, with W the largest |grad u| over all nodes and h the
    smallest spacing; infinite when the denominator is 0, and 0 when a power
    leaves the float range."""
    grid, p, q = spec.grid, spec.p, spec.q
    w, h = float(reference_gradient(u, grid, 0.0)[2]), grid.h_min
    s = w * w + spec.epsilon
    try:
        denom = (2.0 * grid.dimension * (p - 1.0) * s ** ((p - 2.0) / 2.0)
                 + h * q * s ** ((q - 1.0) / 2.0))
    except OverflowError:
        return 0.0
    return math.inf if denom == 0.0 else theta * h * h / denom
