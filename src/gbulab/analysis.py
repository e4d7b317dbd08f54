"""Compliance checks on runs: extremum bounds, ordering of lockstep twins,
the vector monotonicity inequality, the time-derivative regularizing bound,
boundary gradient-profile fits, the space-time scaling identity, and the
L2-in-time energy bound.

Each check returns a ComplianceReport whose signed worst margin is "bound
minus observed"; it passes iff the margin is >= -tolerance. Checks are
deterministic functions of their inputs, and each reads the record its run
keeps, constants included: the extremum and regularizing checks the monitor
rows (sup|u0| from the first), the energy check the monitor rows and the
first kept state (u0), the ordering check a lockstep pair's margin after
every step, the profile and boundedness checks the snapshot states (C1 and
C2 from their shell maxima).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import problem
from .grid import Grid, boundary_distance
from .operators import integrate
from .problem import ProblemSpec, SolutionState
from .stepping import COMPLETED, PairReport, StepControl, Trajectory, run


class InsufficientCollar(ValueError):
    """Too few resolved distance shells near the boundary."""


@dataclass
class ComplianceReport:
    name: str
    passed: bool
    worst_margin: float
    tolerance: float
    location: str = ""
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst_margin": self.worst_margin,
            "tolerance": self.tolerance,
            "location": self.location,
            "details": self.details,
        }


def _report(name, margin, tol, location="", **details) -> ComplianceReport:
    return ComplianceReport(
        name=name,
        passed=bool(margin >= -tol),
        worst_margin=float(margin),
        tolerance=float(tol),
        location=location,
        details=details,
    )


# -- extremum bounds ----------------------------------------------------------

BOUND_TOL_H = 2.0  # extremum and ordering tolerance, in grid spacings h


def max_principle_check(traj: Trajectory) -> ComplianceReport:
    """min u0 - tol <= u <= max u0 + tol over all recorded steps, tol = BOUND_TOL_H*h."""
    mon = traj.monitors
    u0_min, u0_max = mon["min_u"][0], mon["max_u"][0]
    tol = BOUND_TOL_H * traj.grid.h_min
    low = mon["min_u"] - u0_min
    high = u0_max - mon["max_u"]
    k_low = int(np.argmin(low))
    k_high = int(np.argmin(high))
    if low[k_low] <= high[k_high]:
        margin, loc = low[k_low], f"lower bound at t={mon['t'][k_low]:.6g}"
    else:
        margin, loc = high[k_high], f"upper bound at t={mon['t'][k_high]:.6g}"
    return _report(
        "max_principle", margin, tol, loc,
        u0_min=float(u0_min), u0_max=float(u0_max),
        worst_min=float(np.min(mon["min_u"])), worst_max=float(np.max(mon["max_u"])),
    )


def comparison_check(pair: PairReport) -> ComplianceReport:
    """Ordered data must stay ordered: u <= v + BOUND_TOL_H*h after every
    step of a lockstep pair, scored on its ordering margins min(v - u), one
    per accepted step and one for the start, at `pair.times`. `run_pair`
    requires the ordered data on one grid."""
    margins = pair.ordering_margin
    k = int(np.argmin(margins))
    return _report(
        "comparison", margins[k], BOUND_TOL_H * pair.traj_low.grid.h_min,
        f"t={pair.times[k]:.6g}", steps=len(margins) - 1,
    )


# -- vector monotonicity inequality -------------------------------------------

def _power_vec(a: np.ndarray, expo: float) -> np.ndarray:
    # |a|^expo * a with the 0^0 = 1 convention so expo = 0 is the identity
    mag = np.sqrt(np.sum(a * a, axis=-1, keepdims=True))
    return np.power(mag, expo) * a


def monotonicity_margin(a, b, sigma) -> np.ndarray | float:
    """LHS - RHS of

        <|a|^(s-2) a - |b|^(s-2) b, a - b> >= (4/s^2) | |a|^((s-2)/2) a
                                                     - |b|^((s-2)/2) b |^2

    for sigma >= 2. Accepts single vectors (d,) or batches (k, d); sigma may
    be scalar or shape (k,)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    sig = np.asarray(sigma, dtype=float)
    if np.any(sig < 2.0):
        raise ValueError("requires sigma >= 2")
    sig_col = sig.reshape(-1, 1) if sig.ndim else sig
    lhs_vec = _power_vec(a, np.asarray(sig_col) - 2.0) - _power_vec(b, np.asarray(sig_col) - 2.0)
    lhs = np.sum(lhs_vec * (a - b), axis=-1)
    half = (np.asarray(sig_col) - 2.0) / 2.0
    rhs_vec = _power_vec(a, half) - _power_vec(b, half)
    rhs = (4.0 / sig**2) * np.sum(rhs_vec * rhs_vec, axis=-1)
    out = lhs - rhs
    return float(out[0]) if out.shape == (1,) else out


# the sweep draws sigma, the dimension d = 1..MONO_MAX_DIM (equal shares) and
# the components of a and b uniformly from these ranges
MONO_SIGMA_RANGE = (2.0, 10.0)
MONO_MAX_DIM = 4
MONO_COMPONENT_RANGE = 10.0


def monotonicity_samples(n_samples: int) -> None:
    """Check the sample count of a monotonicity sweep: every dimension
    1..MONO_MAX_DIM gets at least one sample."""
    if not n_samples >= MONO_MAX_DIM:
        raise ValueError(f"monotonicity_samples must be >= {MONO_MAX_DIM}, got {n_samples}")


def monotonicity_suite(n_samples: int = 100_000, seed: int = 0) -> ComplianceReport:
    """Seeded random sweep of the monotonicity inequality.

    Margins are scaled by |a|^sigma + |b|^sigma + 1; the worst scaled margin
    must stay above -1e-12. `monotonicity_samples` checks n_samples."""
    monotonicity_samples(n_samples)
    rng = np.random.default_rng(seed)
    worst = math.inf
    violations = 0
    per_dim = n_samples // MONO_MAX_DIM
    for d in range(1, MONO_MAX_DIM + 1):
        k = per_dim if d < MONO_MAX_DIM else n_samples - per_dim * (MONO_MAX_DIM - 1)
        a = rng.uniform(-MONO_COMPONENT_RANGE, MONO_COMPONENT_RANGE, size=(k, d))
        b = rng.uniform(-MONO_COMPONENT_RANGE, MONO_COMPONENT_RANGE, size=(k, d))
        sig = rng.uniform(*MONO_SIGMA_RANGE, size=k)
        margins = monotonicity_margin(a, b, sig)
        scale = (
            np.power(np.linalg.norm(a, axis=-1), sig)
            + np.power(np.linalg.norm(b, axis=-1), sig)
            + 1.0
        )
        scaled = margins / scale
        worst = min(worst, float(np.min(scaled)))
        violations += int(np.sum(scaled < -1e-12))
    return _report(
        "monotonicity_suite", worst, 1e-12, f"{n_samples} samples, seed {seed}",
        violations=violations, n_samples=n_samples,
    )


# -- regularizing effect -------------------------------------------------------

REG_WARMUP_STEPS = 5  # leading monitor rows the check skips
REG_REL_TOL = 0.1


def regularizing_effect_check(traj: Trajectory, p: float) -> ComplianceReport:
    """u_t <= u0_sup / ((p-2) t), with u0_sup = sup|u0| the larger of |min_u|
    and |max_u| on the first monitor row: after the first REG_WARMUP_STEPS
    rows, the per-step max of the normalized ratio u_t * t * (p-2) / u0_sup
    must stay <= 1 + REG_REL_TOL. On zero data the bound is 0 at every t > 0:
    u_t must vanish, with no warm-up. Only rows written by a step are scored;
    the first row, and a last one off the monitor stride, read max_ut nan."""
    mon = traj.monitors
    u0_sup = float(max(abs(mon["min_u"][0]), abs(mon["max_u"][0])))
    skip = REG_WARMUP_STEPS if u0_sup > 0 else 0
    t, max_ut = mon["t"][skip:], mon["max_ut"][skip:]
    stepped = ~np.isnan(max_ut)
    t, max_ut = t[stepped], max_ut[stepped]
    if len(t) == 0:
        raise ValueError("trajectory has no stepped monitor row after the warmup window")
    if u0_sup <= 0:
        sup_ut = float(np.max(np.abs(max_ut)))
        return _report("regularizing_effect", 0.0 - sup_ut, 0.0, "zero data")
    ratios = max_ut * t * (p - 2.0) / u0_sup
    k = int(np.argmax(ratios))
    ratio_max = float(ratios[k])
    return _report(
        "regularizing_effect", 1.0 - ratio_max, REG_REL_TOL, f"t={t[k]:.6g}",
        ratio_max=ratio_max, excess=max(0.0, ratio_max - 1.0),
    )


# -- gradient profile near the boundary ----------------------------------------

@dataclass
class ProfileFit:
    c1: float
    c2: float
    slope: float
    n_shells: int  # shells resolving the layer: hot shells + terminator
    n_hot: int
    t: float


@functools.lru_cache(maxsize=8)
def _shells(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distance shells off the boundary: (their delta values, ascending;
    the nodes off the boundary ordered by shell; where each shell starts in
    that order). A shell holds the nodes whose boundary distances agree to
    12 decimals. Computed once per grid and read-only."""
    keys = np.round(boundary_distance(grid), 12).ravel()
    uniq, shell = np.unique(keys, return_inverse=True)
    order = np.argsort(shell, kind="stable")
    starts = np.searchsorted(shell[order], np.arange(len(uniq)))
    first = int(np.searchsorted(uniq, 0.0, side="right"))  # the first shell with delta > 0
    out = uniq[first:], order[starts[first]:], starts[first:] - starts[first]
    for a in out:
        a.flags.writeable = False
    return out


def shell_maxima(grid: Grid, mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(delta values, max of the node field `mag` per delta shell),
    ascending, delta > 0; `mag` is a state's |grad u|."""
    deltas, order, starts = _shells(grid)
    with np.errstate(invalid="ignore"):  # a NaN node makes its shell's max NaN, as np.max does
        return deltas, np.maximum.reduceat(mag.ravel()[order], starts)


def _anchored_slope(deltas: np.ndarray, vals: np.ndarray) -> float:
    """Shallowest least-squares slope over windows anchored at the innermost
    shell.

    The profile estimate is a one-sided envelope, so outer shells that fall
    below it (an under-filled tail) must not count against the exponent; an
    exact power law returns its exponent up to rounding, and steepness
    persisting at the innermost resolved scales is never forgiven. Every
    window's slope comes from running sums of x, y, xy and x^2, with x and y
    taken relative to the innermost shell against cancellation."""
    x = np.log(deltas)
    y = np.log(vals)
    x -= x[0]
    y -= y[0]
    # the windows of m = 2, 3, ... shells
    m = np.arange(2.0, len(x) + 1.0)
    sx, sy = np.cumsum(x)[1:], np.cumsum(y)[1:]
    sxy, sxx = np.cumsum(x * y)[1:], np.cumsum(x * x)[1:]
    return float(np.max((sxy - sx * sy / m) / (sxx - sx * sx / m)))


INTERIOR_FRAC = 0.5  # C2 is read where delta >= INTERIOR_FRAC * max(delta)
MIN_SHELLS = 4  # fewest shells that resolve a boundary layer


def envelope(
    state: SolutionState, gamma_star: float
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(delta values, max |grad u| per shell, C1, C2) of a state, from one
    reduction of its |grad u| (`shell_maxima`): C2 the largest maximum over
    the shells with delta >= INTERIOR_FRAC * max(delta), and C1 minimal such
    that every shell's maximum is <= C1 delta^(-gamma*) + C2."""
    shells, maxima = shell_maxima(state.grid, state.grad_mag)
    # the shell farthest from the boundary is always interior
    c2 = float(np.max(maxima[shells >= INTERIOR_FRAC * shells[-1]]))
    c1 = float(np.max(np.maximum(maxima - c2, 0.0) * np.power(shells, gamma_star)))
    return shells, maxima, c1, c2


def write_shell_profile_csv(path, state: SolutionState, gamma_star: float) -> None:
    """Shell table (columns: delta_shell, max_grad, bound_value) with the
    envelope evaluated at the fitted constants."""
    shells, maxima, c1, c2 = envelope(state, gamma_star)
    with open(path, "w") as f:
        f.write("delta_shell,max_grad,bound_value\n")
        for d, m in zip(shells, maxima):
            bound = c1 * d ** (-gamma_star) + c2
            f.write(f"{float(d)!r},{float(m)!r},{float(bound)!r}\n")


def fit_profile(state: SolutionState, gamma_star: float) -> ProfileFit:
    """Fit |grad u| <= C1 delta^(-gamma*) + C2 with C2 the interior gradient
    bound, and the boundary-layer shell slope.

    The layer is the monotone run of shells above 1.5x the interior level
    (hot shells) plus the terminator shell where the profile merges back;
    fewer than MIN_SHELLS of those raise InsufficientCollar. A state with no
    shell above the interior threshold has no boundary layer and is
    trivially compliant (slope 0). The slope statistic is the shallowest
    inner-anchored window fit over the hot shells."""
    shells, maxima, c1, c2 = envelope(state, gamma_star)
    floor = max(1.5 * c2, 1e-300)
    if maxima[0] <= floor:
        return ProfileFit(c1=c1, c2=c2, slope=0.0, n_shells=0, n_hot=0, t=state.t)
    hot = 0
    for k in range(len(shells)):
        if maxima[k] <= floor:
            break
        if k > 0 and maxima[k] > 1.02 * maxima[k - 1]:
            break
        hot = k + 1
    resolved = hot + (1 if hot < len(shells) else 0)
    if resolved < MIN_SHELLS or hot < 2:
        raise InsufficientCollar(
            f"only {resolved} shells resolve the boundary layer (need >= {MIN_SHELLS})"
        )
    slope = _anchored_slope(shells[:hot], maxima[:hot])
    return ProfileFit(c1=c1, c2=c2, slope=slope, n_shells=resolved, n_hot=hot, t=state.t)


def gradient_profile_check(
    states: list[SolutionState],
    p: float,
    q: float,
    t_detect: float,
    slope_tol: float = 0.15,
    stability_tol: float = 0.2,
) -> ComplianceReport:
    """Profile compliance on late-time states of a blow-up-bound run.

    The decay exponent gamma* = 1/(q-p+1) is fixed; the check asserts the
    shell-max log-log slope is >= -gamma* - slope_tol on every given state
    and that the fitted C1 and slopes are stable (within stability_tol)
    across the last decade of times before t_detect."""
    if not states:
        raise ValueError("no states given")
    gamma_star = problem.gamma_star(p, q)
    fits = []
    skipped = 0
    for s in states:
        try:
            fits.append(fit_profile(s, gamma_star))
        except InsufficientCollar:
            skipped += 1
    if not fits:
        raise InsufficientCollar(
            f"none of the {len(states)} states resolves the boundary layer"
        )
    # the profile realizes its envelope only as t -> t_detect: the slope is
    # scored (and its stability judged) on the last decade of fitted times
    remaining = np.array([t_detect - f.t for f in fits])
    positive = remaining[remaining > 0]
    smallest = float(np.min(positive)) if positive.size else 0.0
    in_decade = (remaining >= 0) & (remaining <= 10.0 * max(smallest, 1e-300))
    decade_fits = [f for f, keep in zip(fits, in_decade) if keep] or [fits[-1]]

    slopes = np.array([f.slope for f in decade_fits])
    worst_slope = float(np.min(slopes))
    margin = worst_slope + gamma_star  # >= -slope_tol required

    stable = True
    c1_spread = slope_spread = 0.0
    if len(decade_fits) >= 2:
        c1s = np.array([f.c1 for f in decade_fits])
        sls = np.abs(slopes)
        c1_spread = float((np.max(c1s) - np.min(c1s)) / max(np.max(c1s), 1e-300))
        # slope drift is judged on the exponent's own scale: shallow slopes
        # would otherwise read tiny absolute drifts as large relative ones
        slope_scale = max(float(np.max(sls)), gamma_star)
        slope_spread = float((np.max(sls) - np.min(sls)) / slope_scale)
        stable = c1_spread <= stability_tol and slope_spread <= stability_tol
    report = _report(
        "gradient_profile", margin, slope_tol,
        f"worst decade slope {worst_slope:.4g} vs -gamma*={-gamma_star:.4g}",
        gamma_star=gamma_star,
        c1=[f.c1 for f in decade_fits],
        c2=[f.c2 for f in decade_fits],
        slopes=slopes.tolist(),
        all_slopes=[f.slope for f in fits],
        c1_spread=c1_spread,
        slope_spread=slope_spread,
        decade_states=len(decade_fits),
        fitted_states=len(fits),
        stable=stable,
        skipped_states=skipped,
    )
    report.passed = bool(report.passed and stable)
    return report


def interior_boundedness_check(
    states: list[SolutionState],
    d0: float,
    c1: float,
    c2: float,
    p: float,
    q: float,
) -> ComplianceReport:
    """sup over {delta >= d0} and over the states of |grad u| must stay
    below C1 d0^(-gamma*) + C2, gamma* = 1/(q-p+1)."""
    if not d0 > 0:
        raise ValueError("subregion must keep a positive distance to the boundary")
    grid = states[0].grid
    region = boundary_distance(grid) >= d0
    if not region.any():
        raise ValueError(f"no nodes at distance >= {d0}")
    gamma_star = problem.gamma_star(p, q)
    bound = c1 * d0 ** (-gamma_star) + c2
    # np.max, not max: a NaN in any state makes the sup NaN, which fails
    sup = float(np.max([np.max(s.grad_mag[region]) for s in states]))
    return _report(
        "interior_boundedness", bound - sup, 0.0,
        f"d0={d0}", bound=bound, sup=sup, nodes=int(region.sum()),
    )


# -- space-time scaling ---------------------------------------------------------

SCALING_TOL_COEF = 5.0


def scaling_transform_check(
    spec: ProblemSpec, lam: float, control: StepControl, n_checks: int = 5
) -> ComplianceReport:
    """Transform equivariance: v(x, t) = lam^gamma u(x, lam t) where v solves
    the problem with data lam^gamma (u0, g) and source coefficient
    mu lam^(-(q-p+1) gamma). Discrepancies at matched times must stay below
    SCALING_TOL_COEF * (h^2 + dt)."""
    if lam < 1.0:
        raise ValueError("requires lam >= 1")
    gamma = 1.0 / (spec.p - 2.0)
    t_checks = [control.t_end * (k + 1) / n_checks for k in range(n_checks)]

    base_control = StepControl(
        t_end=lam * control.t_end,
        theta=control.theta,
        dt_min=control.dt_min,
        gbu_threshold=control.gbu_threshold,
        t_marks=tuple(lam * t for t in t_checks),
    )
    traj_u, rep_u = run(spec, base_control)
    if rep_u.verdict != COMPLETED:
        raise RuntimeError(
            f"base run ended with {rep_u.verdict}; scaled times exceed its horizon"
        )
    scaled_control = StepControl(
        t_end=control.t_end,
        theta=control.theta,
        dt_min=control.dt_min,
        gbu_threshold=control.gbu_threshold,
        t_marks=tuple(t_checks),
    )
    traj_v, rep_v = run(spec.scaled(lam), scaled_control)
    if rep_v.verdict != COMPLETED:
        raise RuntimeError(f"transformed run ended with {rep_v.verdict}")

    dt_max = max(
        float(np.max(rep_u.monitors["dt"])), float(np.max(rep_v.monitors["dt"]))
    )
    h = spec.grid.h_min
    bound = SCALING_TOL_COEF * (h * h + dt_max)
    fac = lam**gamma
    discrepancies = []
    for t in t_checks:
        v_state = traj_v.state_at(t)
        u_state = traj_u.state_at(lam * t)
        discrepancies.append(float(np.max(np.abs(v_state.u - fac * u_state.u))))
    worst = max(discrepancies)
    k = discrepancies.index(worst)
    return _report(
        "scaling_transform", bound - worst, 0.0, f"t={t_checks[k]:.6g}",
        gamma=gamma, lam=lam, bound=bound, dt_max=dt_max,
        discrepancies=discrepancies, check_times=t_checks,
    )


# -- energy bound ----------------------------------------------------------------

ENERGY_REL_TOL = 0.05


def energy_estimate(traj: Trajectory, spec: ProblemSpec) -> ComplianceReport:
    """Quadrature of the squared time derivative against the a priori bound
    (2/p) * e0 + 2 mu^2 * int int (|grad u|^2+eps)^q, with the initial
    gradient energy e0 = int (|grad u0|^2+eps)^(p/2) computed from the
    run's first kept state, which must be at t = 0, and the rest read from
    its monitors."""
    first = traj.states[0]
    if first.t != 0.0:
        raise ValueError(f"the energy bound needs u0, and the first kept state is at "
                         f"t={first.t!r}")
    e0 = integrate(first.grid, np.power(first.grad_mag**2 + spec.epsilon, spec.p / 2.0))
    mon = traj.monitors
    lhs = float(mon["ut_l2_acc"][-1])
    bound = (2.0 / spec.p) * e0 + 2.0 * spec.mu**2 * float(mon["source_energy_acc"][-1])
    ratio = lhs / bound if bound > 0 else (0.0 if lhs == 0.0 else math.inf)
    return _report(
        "energy_estimate", bound - lhs, ENERGY_REL_TOL * bound,
        f"t in [0, {mon['t'][-1]:.6g}]",
        lhs=lhs, bound=bound, ratio=ratio, initial_gradient_energy=e0,
    )
