"""Discrete spatial operators: the nodal gradient, flux-form regularized
diffusion and the gradient source, with trapezoid quadrature.

The diffusion term is discretized in conservative flux form: face fluxes
F = (|grad u|^2 + eps)^((p-2)/2) * (normal derivative), with the face
gradient built from a two-point normal difference and (in 2D) a tangential
component averaged from the two node-centred central differences across the
face. The divergence is the difference of face fluxes. Nodal gradients use
central differences at interior nodes and one-sided second-order stencils on
the faces.

`StepKernel` computes all of these into buffers it allocates once, and
after each step the stable size of the next one,

    theta h^2 / (2 d (p-1) (W^2+eps)^((p-2)/2) + h q (W^2+eps)^((q-1)/2)),

with W the largest nodal |grad u| of the field it just wrote, h the smallest
spacing and d the dimension. W is taken over all nodes, so it includes the
one-sided second-order stencil at boundary nodes. Near blow-up that value
exceeds the largest interior central gradient, the one the update applies,
by a factor of 2 and more.
`regularized_diffusion` and `gradient_source` build a kernel per call;
`gradient_magnitude` reuses one gradient kernel per grid.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .grid import Grid
from .problem import ProblemSpec, SolutionState


def _power(e: float, x: np.ndarray, out: np.ndarray) -> tuple:
    """The call writing x**e into `out`: sqrt for 1/2 and a multiply for 2,
    which give np.power's correctly rounded bits, np.power for any other e."""
    if e == 0.5:
        return np.sqrt, (x, out)
    if e == 2.0:
        return np.multiply, (x, x, out)
    return np.power, (x, np.array(e), out)


def _along(dim: int, axis: int, part, rest=slice(None)) -> tuple:
    """Index selecting `part` along `axis` and `rest` along every other axis."""
    idx = [rest] * dim
    idx[axis] = part
    return tuple(idx)


def _shrunk(shape: tuple, axis: int, by: int) -> tuple:
    return tuple(n - by if k == axis else n for k, n in enumerate(shape))


class StepKernel:
    """The explicit update u <- u + dt * (diffusion + source) for one problem.

    Parameters are checked once, here, and every buffer is allocated here.
    The field buffers form a ring of `slots`: 2 by default given boundary
    values, 1 without them. Every slot's boundary nodes hold
    `boundary_values` from the start, `load` pins the field it copies in,
    and the update writes interior nodes only. Each slot also holds the rhs
    and the (|grad u|^2+eps)^(q/2) values that the step which wrote its field
    computed (`fields`, `rhs_slots` and `s_half_slots`, one row per slot).

    `load` copies a field into the last slot and computes its gradient, W
    and, for a kernel of p and q, the stable step `bound` (see the module
    docstring; theta and the other factors without W are fixed here).
    `step` writes the updated field into the next slot (slot 0 after a
    `load`), makes it current and returns its `bound`, so a step computes the
    gradient once; `rebase` moves the current field to slot 0.
    p (diffusion) or q (source) may be None to build only the other term.

    Every slot has a prebuilt tuple of (ufunc, operands) calls on views of
    these buffers. In a kernel of p and q it computes the diffusion of the
    slot's field, its source and the rhs, writes the update into the next
    slot and takes the central differences of that new field; `step` runs
    it, then the one-sided stencils, |grad u|, W and the bound. A kernel
    without p or q has one slot, and its one tuple computes the diffusion
    (`diffusion`) or the source (`source`) of the loaded field. So the
    arithmetic is written once, for 1D and 2D alike, and a step runs it
    without Python in between.

    Along each axis the nodal gradient is central where both neighbours
    exist and one-sided on the two faces across that axis (scalars in 1D).
    The face values enter only W = max |grad u| over all nodes and the
    source at boundary nodes; the update reads interior nodes only.
    """

    def __init__(self, grid: Grid, p=None, q=None, eps=0.0, mu=1.0, boundary_values=None,
                 slots=None, theta=0.5):
        if p is not None and not p > 2:
            raise ValueError(f"requires p > 2, got {p}")
        if not eps >= 0:
            raise ValueError("requires eps >= 0")
        if not mu >= 0:
            raise ValueError("requires mu >= 0")
        if slots is None:
            slots = 1 if boundary_values is None else 2
        if boundary_values is not None and slots < 2:
            raise ValueError("advancing a field needs at least 2 slots")
        dim, shape = grid.dimension, grid.shape
        inner, ishape = grid.interior_slice(), tuple(n - 2 for n in shape)
        self.grid, self._boundary = grid, boundary_values
        self._pins = [_along(dim, a, end) for a in range(dim) for end in (0, -1)]
        self.fields = np.empty((slots,) + shape)
        if boundary_values is not None:
            for f in self.fields:
                self._pin(f)
        self._last = self._cur = slots - 1
        self._two_h = [2.0 * h for h in grid.spacing]  # floats for the 1D one-sided stencils
        self.grad = [np.empty(shape) for _ in range(dim)]
        # 1D reads its one-sided stencils as floats, from views of each
        # slot's first three and last three nodes (the last ones reversed)
        self._rims = [(f[:3], f[:-4:-1]) for f in self.fields] if dim == 1 else None
        self._ends = None if dim == 1 else [
            [_along(dim, a, i) for i in (0, 1, 2, -1, -2, -3)] for a in range(dim)]
        self.mag, sq = np.empty(shape), np.empty(shape)
        self.w = self.bound = math.nan
        # the step bound's factors that do not depend on W, in its own order
        self._eps, self._e_p, self._e_q = eps, None, None
        if p is not None and q is not None:
            self._e_p, self._e_q = (p - 2.0) / 2.0, (q - 1.0) / 2.0
            h_min = grid.h_min
            self._c_p, self._c_q = 2.0 * dim * (p - 1.0), h_min * q
            self._num = theta * h_min * h_min

        # scalar operands of the calls are 0-d arrays: a call converts a
        # Python float operand every time, which costs about as much as the
        # arithmetic on a few hundred values
        eps_op = np.array(eps) if eps else None
        h = [np.array(s) for s in grid.spacing]
        two_h = [np.array(s) for s in self._two_h]
        # undivided node-centred differences: the nodal gradient and the 2D
        # tangential face gradients are both built from them
        cdiff = [np.empty(_shrunk(shape, a, 2)) for a in range(dim)]
        grad_mid = [g[_along(dim, a, slice(1, -1))] for a, g in enumerate(self.grad)]
        # |grad u| and sq = |grad u|^2 + eps from the finished gradient
        mag = self.mag
        if dim == 1:
            tail = [(np.absolute, (self.grad[0], mag))]
        else:
            gx, gy = self.grad
            tail = [(np.multiply, (gx, gx, mag)), (np.multiply, (gy, gy, sq)),
                    (np.add, (mag, sq, mag)), (np.sqrt, (mag, mag))]
        tail.append((np.multiply, (mag, mag, sq)))
        if eps_op is not None:
            tail.append((np.add, (sq, eps_op, sq)))
        self._tail = tuple(tail)

        # the diffusion's calls after the face differences read no field slot
        dn, fsq, flux_div = (), (), []
        if p is not None:
            fshapes = [_shrunk(shape, a, 1) for a in range(dim)]
            dn, fsq = [np.empty(s) for s in fshapes], [np.empty(s) for s in fshapes]
            # 2D tangential component: the mean of the two node-centred
            # differences across the face
            for a, s in enumerate(fshapes if dim == 2 else ()):
                o, cd = 1 - a, cdiff[1 - a]
                tang = np.empty(_shrunk(s, o, 2))
                fsq_mid = fsq[a][_along(2, o, slice(1, -1))]
                flux_div += [
                    (np.add, (cd[_along(2, a, slice(0, -1))], cd[_along(2, a, slice(1, None))],
                              tang)),
                    (np.divide, (tang, np.array(4.0 * grid.spacing[o]), tang)),
                    (np.multiply, (tang, tang, tang)),
                    (np.add, (fsq_mid, tang, fsq_mid)),
                ]
            self.flux = [np.empty(s) for s in fshapes]
            self.div, div_axis = np.empty(ishape), np.empty(ishape)
            pow_p = (p - 2.0) / 2.0
            for a, flux in enumerate(self.flux):
                if eps_op is not None:
                    flux_div.append((np.add, (fsq[a], eps_op, fsq[a])))
                out = div_axis if a else self.div
                hi = flux[_along(dim, a, slice(1, None), slice(1, -1))]
                lo = flux[_along(dim, a, slice(0, -1), slice(1, -1))]
                flux_div += [
                    _power(pow_p, fsq[a], fsq[a]),
                    (np.multiply, (fsq[a], dn[a], flux)),
                    (np.subtract, (hi, lo, out)),
                    (np.divide, (out, h[a], out)),
                ]
                if a:
                    flux_div.append((np.add, (self.div, out, self.div)))

        # per slot: the source and rhs that the step from the previous slot
        # writes, next to the field it writes there
        self._src = [None] * slots
        if q is not None:
            shift = eps ** (q / 2.0)
            shift_op, mu_op = np.array(shift), np.array(mu)
            self.s_half_slots = np.empty((slots,) + shape)
            # the source is s_half itself when mu = 1 and eps = 0
            own_src = None if mu == 1.0 and shift == 0.0 else np.empty(shape)
            self._src = [s if own_src is None else own_src for s in self.s_half_slots]
            if p is not None:
                self.rhs_slots, incr = np.empty((slots,) + ishape), np.empty(ishape)
                self._dt = np.array(0.0)

        # per axis: the views of a field that its face differences and its
        # central differences subtract
        faces = [(_along(dim, a, slice(1, None)), _along(dim, a, slice(0, -1)))
                 for a in range(dim)]
        centres = [(_along(dim, a, slice(2, None)), _along(dim, a, slice(0, -2)))
                   for a in range(dim)]
        self._grad_calls, self._calls = [], []
        for f in self.fields:
            grad = []
            for (hi, lo), cd, two_h_a, g in zip(centres, cdiff, two_h, grad_mid):
                grad += [(np.subtract, (f[hi], f[lo], cd)), (np.divide, (cd, two_h_a, g))]
            self._grad_calls.append(tuple(grad))
        for cur, f in enumerate(self.fields):
            nxt = 0 if cur == self._last else cur + 1
            calls = []
            for (hi, lo), dn_a, fsq_a, h_a in zip(faces, dn, fsq, h):
                calls += [(np.subtract, (f[hi], f[lo], dn_a)), (np.divide, (dn_a, h_a, dn_a)),
                          (np.multiply, (dn_a, dn_a, fsq_a))]
            calls += flux_div
            if q is not None:
                s_half, src = self.s_half_slots[nxt], self._src[nxt]
                calls.append(_power(q / 2.0, sq, s_half))
                # x - 0.0 and 1.0 * x are exact, so those calls are left out
                if shift != 0.0:
                    calls.append((np.subtract, (s_half, shift_op, src)))
                if mu != 1.0:
                    calls.append((np.multiply, (mu_op, s_half if shift == 0.0 else src, src)))
            if p is not None and q is not None:
                rhs = self.rhs_slots[nxt]
                calls += [(np.add, (self.div, src[inner], rhs)),
                          (np.multiply, (self._dt, rhs, incr)),
                          (np.add, (f[inner], incr, self.fields[nxt][inner])),
                          *self._grad_calls[nxt]]
            self._calls.append(tuple(calls))

    @classmethod
    def of(cls, spec: ProblemSpec, slots=None, theta=0.5) -> "StepKernel":
        return cls(spec.grid, spec.p, spec.q, spec.epsilon, spec.mu, spec.boundary_values,
                   slots, theta)

    def _pin(self, f: np.ndarray) -> None:
        for idx in self._pins:
            f[idx] = self._boundary[idx]

    @property
    def u(self) -> np.ndarray:
        """The current field (a kernel buffer: copy it to keep it)."""
        return self.fields[self._cur]

    def load(self, u: np.ndarray) -> "StepKernel":
        """Copy u into the last slot, with the boundary values on its faces
        if the kernel has them, and make it current."""
        self._cur = self._last
        f = self.fields[self._cur]
        np.copyto(f, u)
        if self._boundary is not None:
            self._pin(f)
        for ufunc, operands in self._grad_calls[self._cur]:
            ufunc(*operands)
        self._finish()
        return self

    def step(self, dt: float) -> float:
        """Write u + dt * (diffusion + source) into the next slot, with the
        rhs and s_half it was computed from, and make it current; returns
        the stable step after it."""
        cur = self._cur
        self._dt[()] = dt
        for ufunc, operands in self._calls[cur]:
            ufunc(*operands)
        self._cur = 0 if cur == self._last else cur + 1
        self._finish()
        return self.bound

    def _finish(self) -> None:
        """The current field's gradient after its central differences: the
        one-sided stencils, |grad u|, |grad u|^2+eps, W and the step bound,
        0 when a power of W^2 + eps leaves the float range."""
        if self._rims is not None:
            first, last = self._rims[self._cur]
            f0, f1, f2 = first.tolist()
            l0, l1, l2 = last.tolist()
            g, two_h = self.grad[0], self._two_h[0]
            g[0] = (-3.0 * f0 + 4.0 * f1 - f2) / two_h
            g[-1] = (3.0 * l0 - 4.0 * l1 + l2) / two_h
        else:
            u = self.fields[self._cur]
            for a, (f0, f1, f2, l0, l1, l2) in enumerate(self._ends):
                two_h, g = self._two_h[a], self.grad[a]
                g[f0] = (-3.0 * u[f0] + 4.0 * u[f1] - u[f2]) / two_h
                g[l0] = (3.0 * u[l0] - 4.0 * u[l1] + u[l2]) / two_h
        for ufunc, operands in self._tail:
            ufunc(*operands)
        # argmax finds the first NaN, as a max reduction returns NaN
        mag = self.mag
        self.w = w = mag.item(mag.argmax())
        if self._e_p is None:
            return
        s = w * w + self._eps
        try:
            denom = self._c_p * s**self._e_p + self._c_q * s**self._e_q
        except OverflowError:
            self.bound = 0.0
            return
        self.bound = math.inf if denom == 0.0 else self._num / denom

    def diffusion(self) -> np.ndarray:
        """div((|grad u|^2+eps)^((p-2)/2) grad u) on interior nodes, from a
        kernel built without q."""
        for ufunc, operands in self._calls[0]:
            ufunc(*operands)
        return self.div

    def source(self) -> np.ndarray:
        """mu * ((|grad u|^2+eps)^(q/2) - eps^(q/2)) at every node, from a
        kernel built without p."""
        for ufunc, operands in self._calls[0]:
            ufunc(*operands)
        return self._src[0]

    def rebase(self) -> None:
        """Copy the current field into slot 0 and make that slot current;
        the gradient of the field is the same, so it is not computed again."""
        np.copyto(self.fields[0], self.fields[self._cur])
        self._cur = 0


@functools.lru_cache(maxsize=4)
def _gradient_kernel(grid: Grid) -> StepKernel:
    return StepKernel(grid)


def gradient_magnitude(state: SolutionState) -> np.ndarray:
    """|grad u| at every node: |g| in 1D, sqrt(gx*gx + gy*gy) in 2D. One
    gradient kernel per grid serves every call on it, so a call must not
    overlap another one in a second thread (gbulab runs parallel jobs in
    processes)."""
    return _gradient_kernel(state.grid).load(state.u).mag.copy()


def regularized_diffusion(state: SolutionState, p: float, eps: float) -> np.ndarray:
    """div((|grad u|^2+eps)^((p-2)/2) grad u) at interior nodes; 0 on faces."""
    kernel = StepKernel(state.grid, p=p, eps=eps).load(state.u)
    out = np.zeros(state.grid.shape)
    out[state.grid.interior_slice()] = kernel.diffusion()
    return out


def gradient_source(
    state: SolutionState, q: float, eps: float, mu: float = 1.0
) -> np.ndarray:
    """mu * ((|grad u|^2+eps)^(q/2) - eps^(q/2)) from the nodal gradient.

    Nonnegative at every node; vanishes identically on constants for every
    eps because of the eps^(q/2) subtraction.
    """
    return StepKernel(state.grid, q=q, eps=eps, mu=mu).load(state.u).source()


def quadrature_weights(grid: Grid) -> np.ndarray:
    """Trapezoid weights over the grid (tensor product in 2D)."""
    ws = []
    for axis in range(grid.dimension):
        n = grid.points_per_axis[axis]
        h = grid.spacing[axis]
        w = np.full(n, h)
        w[0] = w[-1] = h / 2.0
        ws.append(w)
    if grid.dimension == 1:
        return ws[0]
    return np.outer(ws[0], ws[1])


def integrate(grid: Grid, f: np.ndarray) -> float:
    return float(np.sum(quadrature_weights(grid) * f))
