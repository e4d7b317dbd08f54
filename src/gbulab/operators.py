"""Discrete spatial operators: gradient, flux-form regularized diffusion,
gradient source, and strong/weak residuals.

The diffusion term is discretized in conservative flux form: face fluxes
F = (|grad u|^2 + eps)^((p-2)/2) * (normal derivative), with the face
gradient built from a two-point normal difference and (in 2D) a tangential
component averaged from the two node-centred central differences across the
face. The divergence is the difference of face fluxes. Nodal gradients use
central differences at interior nodes and one-sided second-order stencils on
the faces.

`StepKernel` computes all of these into buffers it allocates once; the
public functions below are thin wrappers that build a kernel per call,
except `gradient`, which reuses one kernel per grid.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .grid import Grid
from .problem import ProblemSpec, SolutionState


def _power(e: float):
    """x -> x**e written into `out`: sqrt for 1/2 and a multiply for 2, which
    give np.power's correctly rounded bits, np.power for any other e."""
    if e == 0.5:
        return np.sqrt
    if e == 2.0:
        return lambda x, out: np.multiply(x, x, out)
    e = np.array(e)
    return lambda x, out: np.power(x, e, out)


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
    values, 1 without them. Every slot's boundary nodes are pinned to
    `boundary_values` when it is allocated and, after a `load`, when
    `advance` first writes it; the update writes interior nodes only. Each
    slot also holds the rhs and the (|grad u|^2+eps)^(q/2) values that
    `advance` computed for the field it wrote there (`fields`, `rhs_slots`
    and `s_half_slots`, one row per slot).

    `load` copies a field into the last slot and computes its gradient;
    `advance` writes the updated field into the next slot (slot 0 after a
    `load`) and returns it; `commit` makes it current and computes its
    gradient, so a step computes the gradient once; `revert` makes the
    previous slot current again. p (diffusion) or q (source) may be None to
    build only the other term.

    Along each axis the nodal gradient is central where both neighbours
    exist and one-sided on the two faces across that axis (scalars in 1D).
    The face values enter only W = max |grad u| over all nodes and the
    source at boundary nodes; the update reads interior nodes only.
    """

    def __init__(self, grid: Grid, p=None, q=None, eps=0.0, mu=1.0, boundary_values=None,
                 slots=None):
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
        # scalar operands of the per-step ufunc calls are 0-d arrays: a call
        # converts a Python float operand every time, which costs about as
        # much as the arithmetic on a few hundred values
        self._eps = np.array(eps) if eps else None
        self._h = [np.array(h) for h in grid.spacing]
        self._pins = [_along(dim, a, end) for a in range(dim) for end in (0, -1)]
        self.fields = np.empty((slots,) + shape)
        if boundary_values is not None:
            for f in self.fields:
                self._pin(f)
        self._last = slots - 1
        self._cur, self._unpinned = self._last, None
        self._inner = [f[inner] for f in self.fields]
        # per slot and axis: the views that the central differences and the
        # face differences subtract
        self._pairs = [
            [tuple(f[_along(dim, a, s)] for s in (
                slice(2, None), slice(0, -2), slice(1, None), slice(0, -1))) for a in range(dim)]
            for f in self.fields
        ]
        self._two_h = [2.0 * h for h in grid.spacing]  # a float for the 1D one-sided stencils
        self._two_h_op = [np.array(h) for h in self._two_h]
        self.grad = [np.empty(shape) for _ in range(dim)]
        self._grad_mid = [g[_along(dim, a, slice(1, -1))] for a, g in enumerate(self.grad)]
        # 1D reads its one-sided stencils as floats
        self._ends = None if dim == 1 else [
            [_along(dim, a, i) for i in (0, 1, 2, -1, -2, -3)] for a in range(dim)]
        # undivided node-centred differences: the nodal gradient and the 2D
        # tangential face gradients are both built from them
        self._cdiff = [np.empty(_shrunk(shape, a, 2)) for a in range(dim)]
        self.mag, self._sq = np.empty(shape), np.empty(shape)
        self.w = math.nan
        if p is not None:
            self._pow_p = _power((p - 2.0) / 2.0)
            fshapes = [_shrunk(shape, a, 1) for a in range(dim)]
            self._dn = [np.empty(s) for s in fshapes]
            self._fsq = [np.empty(s) for s in fshapes]
            self.flux = [np.empty(s) for s in fshapes]
            self._flux_ends = [
                (f[_along(dim, a, slice(1, None), slice(1, -1))],
                 f[_along(dim, a, slice(0, -1), slice(1, -1))])
                for a, f in enumerate(self.flux)
            ]
            self._tang = [] if dim == 1 else [
                np.empty(_shrunk(s, 1 - a, 2)) for a, s in enumerate(fshapes)]
            self.div, self._div_axis = np.empty(ishape), np.empty(ishape)
        # per slot: the s_half, src, src_inner and rhs that `advance` writes
        self._terms = [(None,) * 4] * slots
        if q is not None:
            self._pow_q = _power(q / 2.0)
            shift = eps ** (q / 2.0)
            self._mu, self._shift = np.array(mu), np.array(shift)
            self.s_half_slots = np.empty((slots,) + shape)
            # the source is s_half itself when mu = 1 and eps = 0
            own_src = None if mu == 1.0 and shift == 0.0 else np.empty(shape)
            rhss = [None] * slots
            if p is not None:
                self.rhs_slots, self._incr = np.empty((slots,) + ishape), np.empty(ishape)
                self._dt = np.array(0.0)
                rhss = self.rhs_slots
            self._terms = []
            for s_half, rhs in zip(self.s_half_slots, rhss):
                src = s_half if own_src is None else own_src
                self._terms.append((s_half, src, src[inner], rhs))

    @classmethod
    def of(cls, spec: ProblemSpec, slots=None) -> "StepKernel":
        return cls(spec.grid, spec.p, spec.q, spec.epsilon, spec.mu, spec.boundary_values,
                   slots)

    def _pin(self, f: np.ndarray) -> None:
        for idx in self._pins:
            f[idx] = self._boundary[idx]

    def _use_terms(self, slot: int) -> None:
        self.s_half, self.src, self.src_inner, self.rhs = self._terms[slot]

    @property
    def u(self) -> np.ndarray:
        """The current field (a kernel buffer: copy it to keep it)."""
        return self.fields[self._cur]

    def load(self, u: np.ndarray) -> "StepKernel":
        self._cur = self._unpinned = self._last
        self._use_terms(self._cur)
        np.copyto(self.fields[self._cur], u)
        self._gradient()
        return self

    def _gradient(self) -> None:
        u = self.fields[self._cur]
        for a, (c_hi, c_lo, _, _) in enumerate(self._pairs[self._cur]):
            two_h, g = self._two_h[a], self.grad[a]
            np.divide(np.subtract(c_hi, c_lo, self._cdiff[a]), self._two_h_op[a],
                      self._grad_mid[a])
            if self._ends is None:
                g[0] = (-3.0 * u.item(0) + 4.0 * u.item(1) - u.item(2)) / two_h
                g[-1] = (3.0 * u.item(-1) - 4.0 * u.item(-2) + u.item(-3)) / two_h
            else:
                f0, f1, f2, l0, l1, l2 = self._ends[a]
                g[f0] = (-3.0 * u[f0] + 4.0 * u[f1] - u[f2]) / two_h
                g[l0] = (3.0 * u[l0] - 4.0 * u[l1] + u[l2]) / two_h
        mag, sq = self.mag, self._sq
        if len(self.grad) == 1:
            np.abs(self.grad[0], mag)
        else:
            gx, gy = self.grad
            np.add(np.multiply(gx, gx, mag), np.multiply(gy, gy, sq), mag)
            np.sqrt(mag, mag)
        # argmax finds the first NaN, as a max reduction returns NaN
        self.w = mag.item(mag.argmax())
        np.multiply(mag, mag, sq)
        if self._eps is not None:
            np.add(sq, self._eps, sq)

    def diffusion(self) -> np.ndarray:
        """div((|grad u|^2+eps)^((p-2)/2) grad u) on interior nodes."""
        spacing, h = self.grid.spacing, self._h
        for a, (_, _, f_hi, f_lo) in enumerate(self._pairs[self._cur]):
            dn = np.divide(np.subtract(f_hi, f_lo, self._dn[a]), h[a], self._dn[a])
            np.multiply(dn, dn, self._fsq[a])
        # 2D tangential component: the mean of the two node-centred
        # differences across the face
        for a, tang in enumerate(self._tang):
            o, cd = 1 - a, self._cdiff[1 - a]
            np.add(cd[_along(2, a, slice(0, -1))], cd[_along(2, a, slice(1, None))], tang)
            np.divide(tang, 4.0 * spacing[o], tang)
            fsq_mid = self._fsq[a][_along(2, o, slice(1, -1))]
            np.add(fsq_mid, np.multiply(tang, tang, tang), fsq_mid)
        for a, (hi, lo) in enumerate(self._flux_ends):
            fsq = self._fsq[a]
            if self._eps is not None:
                np.add(fsq, self._eps, fsq)
            np.multiply(self._pow_p(fsq, fsq), self._dn[a], self.flux[a])
            out = self._div_axis if a else self.div
            np.divide(np.subtract(hi, lo, out), h[a], out)
            if a:
                np.add(self.div, out, self.div)
        return self.div

    def source(self) -> np.ndarray:
        """mu * ((|grad u|^2+eps)^(q/2) - eps^(q/2)) at every node."""
        self._pow_q(self._sq, self.s_half)
        if self.src is not self.s_half:
            np.multiply(self._mu, np.subtract(self.s_half, self._shift, self.src), self.src)
        return self.src

    def interior_rhs(self) -> np.ndarray:
        """diffusion + source on interior nodes."""
        self.diffusion()
        self.source()
        return np.add(self.div, self.src_inner, self.rhs)

    def advance(self, dt: float) -> np.ndarray:
        """Write u + dt * (diffusion + source) into the next slot, with the
        rhs and s_half it was computed from, and return it; `commit` makes it
        current."""
        cur = self._cur
        nxt = 0 if cur == self._last else cur + 1
        self._use_terms(nxt)
        self._dt[()] = dt
        np.multiply(self._dt, self.interior_rhs(), self._incr)
        np.add(self._inner[cur], self._incr, self._inner[nxt])
        new = self.fields[nxt]
        if nxt == self._unpinned:
            self._pin(new)
            self._unpinned = None
        return new

    def commit(self) -> None:
        self._cur = 0 if self._cur == self._last else self._cur + 1
        self._gradient()

    def revert(self) -> None:
        """Make the field before the last `commit` current again."""
        self._cur = self._last if self._cur == 0 else self._cur - 1
        self._gradient()


@functools.lru_cache(maxsize=4)
def _gradient_kernel(grid: Grid) -> StepKernel:
    return StepKernel(grid)


def gradient(state: SolutionState) -> tuple[np.ndarray, ...]:
    """Nodal gradient, one array per axis. One gradient kernel per grid
    serves every call on it, so a call must not overlap another one in a
    second thread (gbulab runs parallel jobs in processes)."""
    kernel = _gradient_kernel(state.grid).load(state.u)
    return tuple(g.copy() for g in kernel.grad)


def face_fluxes(u: np.ndarray, grid: Grid, p: float, eps: float) -> list[np.ndarray]:
    """Diffusive flux on the faces along each axis.

    Along axis k the returned array has one fewer node in direction k; entry
    i is the flux on the face between nodes i and i+1. Tangential gradient
    components on faces touching a tangential boundary row are never used by
    interior divergences and are left zero.
    """
    kernel = StepKernel(grid, p=p, eps=eps).load(u)
    kernel.diffusion()
    return kernel.flux


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


def interior_rhs(state: SolutionState, spec: ProblemSpec) -> np.ndarray:
    """diffusion + source; the explicit update direction. Zero on faces."""
    rhs = np.zeros(state.grid.shape)
    rhs[state.grid.interior_slice()] = StepKernel.of(spec).load(state.u).interior_rhs()
    return rhs


def strong_residual(
    state: SolutionState, spec: ProblemSpec, u_t_field: np.ndarray
) -> np.ndarray:
    """u_t - diffusion - source on interior nodes (0 on faces)."""
    grid = state.grid
    res = np.zeros(grid.shape)
    inner = grid.interior_slice()
    rhs = interior_rhs(state, spec)
    res[inner] = np.asarray(u_t_field)[inner] - rhs[inner]
    return res


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


def weak_residual(states, spec: ProblemSpec, psi) -> float:
    """Space-time weak-form residual against a test function.

    Accepts a list of states or a trajectory carrying `.states`.
    psi(points, t) -> field must be nonnegative and vanish on the lateral
    boundary. The u_t term integrates the piecewise-linear-in-time u against
    the interval-averaged test function; the flux and source terms use the
    trapezoid rule in time. Near zero for genuine solutions, O(h^2 + dt)
    under refinement. Uses the unregularized forms |grad u|^(p-2), |grad u|^q.
    """
    states = getattr(states, "states", states)
    if len(states) < 2:
        raise ValueError("need at least 2 time levels")
    grid = spec.grid
    coords = grid.coords()
    bd = grid.boundary_mask()
    w = quadrature_weights(grid)

    def eval_psi(t: float) -> np.ndarray:
        f = np.asarray(psi(coords, t), dtype=float)
        if f.shape != grid.shape:
            raise ValueError("test function must evaluate to a grid field")
        if np.any(f < 0):
            raise ValueError("test function must be nonnegative")
        # accept roundoff-level boundary values (e.g. sin(pi*1.0)) and pin them
        scale = float(np.max(f)) if f.size else 0.0
        if np.any(np.abs(f[bd]) > 1e-12 * (1.0 + scale)):
            raise ValueError("test function must vanish on the lateral boundary")
        f = f.copy()
        f[bd] = 0.0
        return f

    def level_term(state: SolutionState, psi_f: np.ndarray) -> float:
        gpsi = gradient(SolutionState(grid, psi_f, state.t))
        gu = state.grad
        mag = state.grad_mag
        coef = np.power(mag, spec.p - 2.0)
        flux_dot = sum(coef * gu[k] * gpsi[k] for k in range(grid.dimension))
        source = spec.mu * np.power(mag, spec.q) * psi_f
        return float(np.sum(w * (flux_dot - source)))

    total = 0.0
    psi_prev = eval_psi(states[0].t)
    term_prev = level_term(states[0], psi_prev)
    for k in range(len(states) - 1):
        s0, s1 = states[k], states[k + 1]
        dt = s1.t - s0.t
        if dt <= 0:
            raise ValueError("states must be strictly increasing in time")
        psi_next = eval_psi(s1.t)
        term_next = level_term(s1, psi_next)
        psi_bar = 0.5 * (psi_prev + psi_next)
        total += float(np.sum(w * (s1.u - s0.u) * psi_bar))
        total += 0.5 * dt * (term_prev + term_next)
        psi_prev, term_prev = psi_next, term_next
    return total
