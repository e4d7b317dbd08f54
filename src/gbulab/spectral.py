"""Principal Dirichlet eigenpair of the (negative) grid Laplacian, the
weighted-mass functional y(t) = integral of u * phi1^alpha, admissible
alpha window, and the superlinear ODE-inequality fit used in the blow-up
criterion experiment.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .operators import quadrature_weights
from .problem import SolutionState, make_spec
from .stepping import COMPLETED, GBU_DETECTED, RunReport, StepControl, run


class EmptyAlphaWindow(ValueError):
    """The admissible-exponent interval is empty (hypothesis q > p > 2 fails)."""


class DegenerateSeriesError(ValueError):
    """The sampled functional is constant; nothing to fit."""


@dataclass(frozen=True)
class EigenData:
    """Smallest Dirichlet eigenpair: lambda1 > 0, phi1 >= 0, ||phi1||_inf = 1."""

    lambda1: float
    phi1: np.ndarray
    residual: float
    iterations: int = 0  # always 0: the pair is closed-form; callers still read it


def _neg_laplacian(v: np.ndarray, grid: Grid) -> np.ndarray:
    """-Delta_h on interior fields (Dirichlet zero extension)."""
    dim = grid.dimension
    out = np.zeros_like(v)
    for axis in range(dim):
        h2 = grid.spacing[axis] ** 2
        pad = [(0, 0)] * dim
        pad[axis] = (1, 1)
        vp = np.pad(v, pad)
        lo = [slice(None)] * dim
        hi = [slice(None)] * dim
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        out += (2.0 * v - vp[tuple(lo)] - vp[tuple(hi)]) / h2
    return out


def _axis_pair(n: int, h: float) -> tuple[float, np.ndarray]:
    """Principal pair of the 3-point Dirichlet Laplacian on n nodes of
    spacing h, in closed form: lambda = (4/h^2) sin^2(pi/(2(n-1))) and
    phi_i = sin(pi i/(n-1)), normalized to max 1.

    The sine is evaluated at min(i, n-1-i), an argument of at most pi/2: near
    pi the rounding of the argument would be a relative error of about
    eps * n in phi at the nodes next to the boundary. phi is then also
    exactly symmetric.
    """
    m = n - 1
    i = np.arange(n)
    phi = np.sin(np.pi * np.minimum(i, m - i) / m)
    phi /= np.max(phi)
    return 4.0 / h**2 * math.sin(math.pi / (2 * m)) ** 2, phi


def principal_eigenpair(grid: Grid) -> EigenData:
    """Principal Dirichlet eigenpair of the 3-point (1D) / 5-point (2D) Laplacian.

    The 5-point Laplacian on a rectangle is the Kronecker sum of the axes'
    3-point Laplacians, so its principal pair is the product of theirs:
    lambda1 is the sum of the axes' lambda, phi1 the outer product of the
    axes' phi (see `_axis_pair`).

    Returns phi1 positive at interior nodes, zero on the boundary,
    normalized to ||phi1||_inf = 1, and the eigen-residual
    ||(-Delta_h - lambda1) phi1||_inf on the full grid, which measures how
    far the closed form is from the operator's pair in floating point.
    """
    lams, phis = zip(*map(_axis_pair, grid.points_per_axis, grid.spacing))
    lam = sum(lams)
    phi = functools.reduce(np.multiply.outer, phis)
    av = _neg_laplacian(phi[grid.interior_slice()], grid)
    residual = float(np.max(np.abs(av - lam * phi[grid.interior_slice()])))
    return EigenData(lambda1=lam, phi1=phi, residual=residual)


@dataclass(frozen=True)
class AlphaWindow:
    lo: float
    hi: float
    lo_inclusive: bool

    def contains(self, alpha: float) -> bool:
        above = alpha >= self.lo if self.lo_inclusive else alpha > self.lo
        return above and alpha < self.hi

    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


def alpha_window(p: float, q: float) -> AlphaWindow:
    """Admissible exponents: ((p-1)/(q-p+1), q-1) intersected with [1, inf)."""
    lo_raw = (p - 1.0) / (q - p + 1.0)
    hi = q - 1.0
    if lo_raw >= hi or hi <= 1.0:
        raise EmptyAlphaWindow(
            f"empty exponent window for p={p}, q={q}: requires q > p > 2"
        )
    if lo_raw < 1.0:
        return AlphaWindow(lo=1.0, hi=hi, lo_inclusive=True)
    return AlphaWindow(lo=lo_raw, hi=hi, lo_inclusive=False)


def blowup_functional(state: SolutionState, phi1: np.ndarray, alpha: float) -> float:
    """Trapezoid quadrature of u * phi1^alpha over the grid."""
    w = quadrature_weights(state.grid)
    return float(np.sum(w * state.u * np.power(phi1, alpha)))


@dataclass(frozen=True)
class OdeFit:
    c1: float
    c2: float
    margin: float
    compliant: bool
    misfit: float


def blowup_ode_fit(t: np.ndarray, y: np.ndarray, q: float) -> OdeFit:
    """Largest C1 >= 0 with accompanying C2 >= 0 such that y' >= C1 y^q - C2
    at every sample (y' by backward differences).

    Anchored by an active-set nonnegative least-squares fit of
    y' ~ C1 y^q - C2; C2 is then lifted so the inequality holds everywhere,
    and the largest C1 whose misfit stays within 5% of the best candidate is
    kept. A fit is compliant when C1 > 0 and the net forcing C1 y^q - C2 is
    positive at the final sample.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or y.ndim != 1:
        raise ValueError("t and y must be 1D arrays of equal length")
    if len(y) < 10:
        raise ValueError("need at least 10 samples")
    scale = float(np.max(np.abs(y)))
    if scale == 0.0 or float(np.max(y) - np.min(y)) <= 1e-14 * (1.0 + scale):
        raise DegenerateSeriesError("functional series is constant")

    dts = np.diff(t)
    if np.any(dts <= 0):
        raise ValueError("times must be strictly increasing")
    yp = np.diff(y) / dts
    yq = np.power(y[1:], q)

    def lifted_c2(c1: float) -> float:
        return max(0.0, float(np.max(c1 * yq - yp)))

    def misfit(c1: float, c2: float) -> float:
        r = yp - (c1 * yq - c2)
        return float(np.sum(r * r))

    # active-set nonnegative least squares on the two-parameter model
    a11 = float(np.sum(yq * yq))
    a12 = -float(np.sum(yq))
    a22 = float(len(yq))
    b1 = float(np.sum(yq * yp))
    b2 = -float(np.sum(yp))
    det = a11 * a22 - a12 * a12
    if det > 0:
        c1_ls = (b1 * a22 - b2 * a12) / det
        c2_ls = (a11 * b2 - a12 * b1) / det
    else:
        c1_ls, c2_ls = 0.0, 0.0
    if c1_ls < 0 or c2_ls < 0:
        # clamp each active constraint in turn, keep the better feasible fit
        cands = []
        c1_only = max(0.0, b1 / a11) if a11 > 0 else 0.0
        cands.append((c1_only, 0.0))
        cands.append((0.0, max(0.0, b2 / a22)))
        c1_ls, c2_ls = min(cands, key=lambda c: misfit(*c))

    candidates = [c1_ls]
    if c1_ls > 0:
        candidates.extend(c1_ls * np.logspace(-0.5, 0.5, 41))
    else:
        base = float(np.max(np.abs(yp))) / max(float(np.max(yq)), 1e-300)
        candidates.extend(base * np.logspace(-3, 1, 41))
    scored = []
    for c1 in candidates:
        c1 = max(0.0, float(c1))
        c2 = lifted_c2(c1)
        scored.append((misfit(c1, c2), c1, c2))
    best = min(s[0] for s in scored)
    tol = best * 1.05 + 1e-300
    feasible = [s for s in scored if s[0] <= tol]
    _, c1, c2 = max(feasible, key=lambda s: s[1])

    margin = float(np.min(yp - c1 * yq + c2))
    compliant = c1 > 0 and (c1 * yq[-1] - c2) > 0
    return OdeFit(c1=c1, c2=c2, margin=margin, compliant=compliant, misfit=misfit(c1, c2))


@dataclass
class CriterionResult:
    """Empirical blow-up threshold for the family u0 = A * sine bump."""

    amplitude_low: float  # largest amplitude observed to complete
    amplitude_high: float  # smallest amplitude observed to blow up
    functional_low: float
    functional_high: float
    t_detect: float  # detection time at amplitude_high
    runs: int
    history: list

    @property
    def threshold_functional(self) -> float:
        return 0.5 * (self.functional_low + self.functional_high)


def criterion_bracket(amplitude_low: float, amplitude_high: float, bisect_iters: int) -> None:
    """Check the starting amplitude bracket of a bisection, finite
    0 <= amplitude_low < amplitude_high, and its count of halvings."""
    if not (0.0 <= amplitude_low < amplitude_high and math.isfinite(amplitude_high)):
        raise ValueError("requires finite 0 <= amplitude_low < amplitude_high")
    if not bisect_iters >= 0:
        raise ValueError(f"bisect_iters must be >= 0, got {bisect_iters}")


MAX_EXPAND = 8  # the most doublings of amplitude_high in search of a blow-up


def criterion_experiment(
    grid: Grid,
    p: float,
    q: float,
    alpha: float,
    control: StepControl,
    amplitude_low: float = 0.0,
    amplitude_high: float = 2.0,
    epsilon: float = 0.0,
    mu: float = 1.0,
    bisect_iters: int = 6,
) -> CriterionResult:
    """Bisect the sine-bump amplitude between a completed and a blown-up run.

    Reports the empirical threshold of the weighted mass of u0 and the
    detection time on the blow-up side.
    """
    if not q > p > 2:
        raise ValueError(f"requires q > p > 2, got p={p}, q={q}")
    window = alpha_window(p, q)
    if not window.contains(alpha):
        raise ValueError(f"alpha={alpha} outside admissible window {window}")
    criterion_bracket(amplitude_low, amplitude_high, bisect_iters)
    phi1 = principal_eigenpair(grid).phi1

    history = []
    runs = 0

    def probe(amp: float) -> tuple[str, float, RunReport]:
        nonlocal runs
        spec = make_spec(grid, p, q, epsilon=epsilon, mu=mu, profile="sine", amplitude=amp)
        y0 = blowup_functional(spec.initial_state(), phi1, alpha)
        _, report = run(spec, control)
        runs += 1
        if report.verdict not in (COMPLETED, GBU_DETECTED):
            raise RuntimeError(
                f"inconclusive probe at amplitude {amp}: verdict {report.verdict}"
            )
        history.append({"amplitude": amp, "verdict": report.verdict, "y0": y0,
                        "t_detect": report.t_detect})
        return report.verdict, y0, report

    verdict_lo, y_lo, _ = probe(amplitude_low)
    if verdict_lo != COMPLETED:
        raise RuntimeError(f"low amplitude {amplitude_low} already blows up")
    lo, hi = amplitude_low, amplitude_high
    verdict_hi, y_hi, rep_hi = probe(hi)
    expand = 0
    while verdict_hi != GBU_DETECTED:
        lo, y_lo = hi, y_hi
        hi *= 2.0
        expand += 1
        if expand > MAX_EXPAND:
            raise RuntimeError("no blow-up found while expanding the amplitude")
        verdict_hi, y_hi, rep_hi = probe(hi)

    t_detect = rep_hi.t_detect
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        verdict_mid, y_mid, rep_mid = probe(mid)
        if verdict_mid == GBU_DETECTED:
            hi, y_hi, t_detect = mid, y_mid, rep_mid.t_detect
        else:
            lo, y_lo = mid, y_mid

    return CriterionResult(
        amplitude_low=lo,
        amplitude_high=hi,
        functional_low=y_lo,
        functional_high=y_hi,
        t_detect=t_detect,
        runs=runs,
        history=history,
    )
