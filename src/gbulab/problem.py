"""Problem data for the regularized degenerate diffusion equation.

The evolution solved on a grid is

    u_t - div((|grad u|^2 + eps)^((p-2)/2) grad u)
        = mu * ((|grad u|^2 + eps)^(q/2) - eps^(q/2)),

with u pinned to the boundary data g on the extent faces and u(., 0) = u0.
Constants are exact solutions for every eps because of the eps^(q/2)
subtraction in the source.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Exponents, regularization and data for one initial-boundary problem.

    p > 2 (diffusion exponent), q > p-1 (source exponent), eps >= 0
    (regularization), mu >= 0 (source coefficient; carries the scaling
    factor in transform experiments). boundary_values and initial are
    node fields; initial must equal boundary_values exactly on the faces.
    """

    grid: Grid
    p: float
    q: float
    epsilon: float = 0.0
    mu: float = 1.0
    boundary_values: np.ndarray = None
    initial: np.ndarray = None

    def __post_init__(self):
        if not self.p > 2:
            raise ValueError(f"requires p > 2, got p={self.p}")
        if not self.q > self.p - 1:
            raise ValueError(f"requires q > p - 1, got q={self.q}, p-1={self.p - 1}")
        if not self.epsilon >= 0:
            raise ValueError("requires eps >= 0")
        if not self.mu >= 0:
            raise ValueError("requires mu >= 0")
        if not np.isfinite([self.p, self.q, self.epsilon, self.mu]).all():
            raise ValueError("requires finite p, q, eps and mu")
        g = np.asarray(self.boundary_values, dtype=float)
        u0 = np.asarray(self.initial, dtype=float)
        if not self.grid.compatible_field(g) or not self.grid.compatible_field(u0):
            raise ValueError("boundary_values and initial must be full grid fields")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(u0))):
            raise ValueError("data must be finite (no NaN or inf in g or u0)")
        if np.any(g < 0) or np.any(u0 < 0):
            raise ValueError("data must be nonnegative (g >= 0, u0 >= 0)")
        bd = self.grid.boundary_mask()
        mismatch = np.max(np.abs(u0[bd] - g[bd])) if bd.any() else 0.0
        if mismatch != 0.0:
            raise ValueError(f"incompatible data: max |u0 - g| on boundary is {mismatch}")
        object.__setattr__(self, "boundary_values", g)
        object.__setattr__(self, "initial", u0)

    def scaled(self, lam: float) -> "ProblemSpec":
        """Transformed problem for the space-time scaling u -> lam^gamma u(x, lam t).

        gamma = 1/(p-2); data are multiplied by lam^gamma, the source
        coefficient by lam^(-(q-p+1)*gamma), and the regularization by
        lam^(2*gamma) (the transform is exact only with the scaled eps).
        """
        gamma = 1.0 / (self.p - 2.0)
        fac = lam**gamma
        return replace(
            self,
            boundary_values=fac * self.boundary_values,
            initial=fac * self.initial,
            mu=self.mu * lam ** (-(self.q - self.p + 1.0) * gamma),
            epsilon=self.epsilon * lam ** (2.0 * gamma),
        )

    def initial_state(self) -> "SolutionState":
        return SolutionState(grid=self.grid, u=self.initial.copy(), t=0.0)


def gamma_star(p: float, q: float) -> float:
    """The boundary exponent of |grad u| <= C1 delta^(-gamma*) + C2."""
    return 1.0 / (q - p + 1.0)


class SolutionState:
    """Grid field u at time t. It holds the field only: `grad_mag`
    computes a new array on every read, so a reader that needs it twice
    keeps the array it got (`operators.gradient_magnitude` computes it)."""

    __slots__ = ("grid", "u", "t")

    def __init__(self, grid: Grid, u: np.ndarray, t: float = 0.0):
        u = np.asarray(u, dtype=float)
        if not grid.compatible_field(u):
            raise ValueError("field shape does not match grid")
        self.grid = grid
        self.u = u
        self.t = float(t)

    @property
    def grad_mag(self) -> np.ndarray:
        from .operators import gradient_magnitude

        return gradient_magnitude(self)


# -- named data profiles -----------------------------------------------------
#
# Flat-text run configs cannot carry arbitrary functions; they name one of
# these. All profiles satisfy u0 >= 0, g >= 0 and exact boundary
# compatibility by construction.

def constant_data(grid: Grid, value: float) -> tuple[np.ndarray, np.ndarray]:
    if value < 0:
        raise ValueError("constant profile must be nonnegative")
    u0 = np.full(grid.shape, float(value))
    return u0.copy(), u0


def ramp_data(grid: Grid, amplitude: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """1D linear ramp A*(x-a)/(b-a) with matching boundary values."""
    if grid.dimension != 1:
        raise ValueError("ramp profile is 1D only")
    if amplitude < 0:
        raise ValueError("ramp amplitude must be nonnegative")
    a, b = grid.extents[0]
    u0 = amplitude * (grid.axis_coords(0) - a) / (b - a)
    u0 = np.maximum(u0, 0.0)
    return u0.copy(), u0


def sine_data(grid: Grid, amplitude: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """A * prod_axes sin(pi * (x-a)/(b-a)); vanishes on the faces, so g = 0."""
    if amplitude < 0:
        raise ValueError("sine amplitude must be nonnegative")
    u0 = np.ones(grid.shape)
    coords = grid.coords()
    for axis, (a, b) in enumerate(grid.extents):
        u0 = u0 * np.sin(np.pi * (coords[axis] - a) / (b - a))
    u0 = amplitude * np.maximum(u0, 0.0)
    bd = grid.boundary_mask()
    u0[bd] = 0.0
    return np.zeros(grid.shape), u0


PROFILES = {
    "constant": constant_data,
    "ramp": ramp_data,
    "sine": sine_data,
}


def make_spec(
    grid: Grid,
    p: float,
    q: float,
    epsilon: float = 0.0,
    mu: float = 1.0,
    profile: str = "sine",
    amplitude: float = 1.0,
) -> ProblemSpec:
    """Build a ProblemSpec from a named data profile."""
    try:
        builder = PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown data profile {profile!r}; known: {sorted(PROFILES)}") from None
    if not 0 <= amplitude < np.inf:
        raise ValueError(f"requires a finite amplitude >= 0, got {amplitude}")
    g, u0 = builder(grid, amplitude)
    return ProblemSpec(
        grid=grid, p=p, q=q, epsilon=epsilon, mu=mu, boundary_values=g, initial=u0
    )
