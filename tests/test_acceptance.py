"""Acceptance gate: every headline property at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line
per criterion. The gradient blow-up experiment (amplitude bisection plus
twin-grid detection runs) is shared by criteria 6, 7 and 10 and accounts
for most of the wall time.
"""
import time

import numpy as np
import pytest

from gbulab import (
    SolutionState,
    StepControl,
    build_grid,
    comparison_check,
    epsilon_continuation,
    gradient_source,
    make_spec,
    max_principle_check,
    monotonicity_margin,
    monotonicity_suite,
    principal_eigenpair,
    regularized_diffusion,
    regularizing_effect_check,
    run,
    run_pair,
    scaling_transform_check,
)
from gbulab.analysis import (
    fit_profile,
    gradient_profile_check,
    interior_boundedness_check,
)
from gbulab.barriers import (
    exp_barrier_residual,
    find_barrier_params,
    supersolution_residual,
)
from gbulab.problem import gamma_star
from gbulab.spectral import alpha_window, blowup_ode_fit, criterion_experiment
from gbulab.stepping import GBU_DETECTED, ThresholdCrossing, detect_gbu


def line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2} {name:<28} {status}  {detail}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: monotonicity inequality sweep
# ---------------------------------------------------------------------------

def test_criterion_01_monotonicity_suite():
    t0 = time.perf_counter()
    report = monotonicity_suite(100_000, seed=0)
    # sigma = 2 collapses the inequality to an identity
    rng = np.random.default_rng(1)
    a = rng.uniform(-10, 10, size=(20_000, 3))
    b = rng.uniform(-10, 10, size=(20_000, 3))
    eq_margins = monotonicity_margin(a, b, 2.0)
    eq_scale = np.sum(a * a, -1) + np.sum(b * b, -1) + 1.0
    eq_worst = float(np.max(np.abs(eq_margins) / eq_scale))
    elapsed = time.perf_counter() - t0

    ok = (
        report.details["violations"] == 0
        and report.worst_margin >= -1e-12
        and eq_worst <= 1e-14
        and elapsed < 10.0
    )
    assert line(1, "monotonicity suite", ok,
                f"violations={report.details['violations']} worst={report.worst_margin:.2e} "
                f"sigma2={eq_worst:.2e} {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: manufactured-solution operator convergence
# ---------------------------------------------------------------------------

def _diffusion_error_1d(n, p, eps):
    g = build_grid((0.0, 1.0), n)
    x = g.axis_coords(0)
    st = SolutionState(g, x * x)
    out = regularized_diffusion(st, p, eps)
    s = 4 * x * x + eps
    exact = (p - 2.0) * s ** ((p - 4.0) / 2.0) * 8 * x * x + 2.0 * s ** ((p - 2.0) / 2.0)
    inner = (x > 0.15) & (x < 0.85)  # points with |grad u| > 0, away from x=0
    return float(np.max(np.abs(out[inner] - exact[inner])))


def _diffusion_error_2d(n, p, eps):
    g = build_grid([(0, 1), (0, 1)], (n, n))
    x, y = g.coords()
    st = SolutionState(g, x * x + y * y)
    out = regularized_diffusion(st, p, eps)
    s = 4 * x * x + 4 * y * y + eps
    exact = 4.0 * s ** ((p - 2.0) / 2.0) + (p - 2.0) * s ** ((p - 4.0) / 2.0) * 8 * (
        x * x + y * y
    )
    inner = (
        (x > 0.15) & (x < 0.85) & (y > 0.15) & (y < 0.85)
        & (np.sqrt(x * x + y * y) > 0.2)
    )
    return float(np.max(np.abs(out[inner] - exact[inner])))


def _source_error(n, dim, q, eps, mu=1.0):
    if dim == 1:
        g = build_grid((0.0, 1.0), n)
        x = g.axis_coords(0)
        st = SolutionState(g, x * x)
        grad_sq = 4 * x * x
    else:
        g = build_grid([(0, 1), (0, 1)], (n, n))
        x, y = g.coords()
        st = SolutionState(g, x * x + y * y)
        grad_sq = 4 * x * x + 4 * y * y
    out = gradient_source(st, q, eps, mu)
    exact = mu * (np.power(grad_sq + eps, q / 2.0) - eps ** (q / 2.0))
    return float(np.max(np.abs(out - exact)))


def _order(errors):
    return float(np.log(errors[0] / errors[-1]) / np.log(4.0))


def test_criterion_02_operator_convergence():
    t0 = time.perf_counter()
    ns = (33, 65, 129)  # h = 1/32, 1/64, 1/128
    p, q, eps = 3.0, 2.5, 0.5

    e1 = [_diffusion_error_1d(n, p, eps) for n in ns]
    e2 = [_diffusion_error_2d(n, p, eps) for n in ns]
    o1, o2 = _order(e1), _order(e2)

    # the stencils are exact on quadratics, so the source error is machine
    # zero: stronger than any finite order (order fit would be degenerate)
    s1 = max(_source_error(n, 1, q, eps) for n in ns)
    s2 = max(_source_error(n, 2, q, eps) for n in ns)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(o1 - 2.0) <= 0.3
        and abs(o2 - 2.0) <= 0.3
        and s1 < 1e-12
        and s2 < 1e-12
        and elapsed < 30.0
    )
    assert line(2, "operator convergence", ok,
                f"diffusion orders 1D={o1:.2f} 2D={o2:.2f}; source exact "
                f"(err {max(s1, s2):.1e}) {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: maximum principle
# ---------------------------------------------------------------------------

def test_criterion_03_max_principle():
    t0 = time.perf_counter()
    g = build_grid((0.0, 1.0), 201)
    h = g.spacing[0]
    margins = {}
    for q in (2.5, 4.0):
        spec = make_spec(g, p=3.0, q=q, profile="sine", amplitude=1.0)
        traj, rep = run(spec, StepControl(t_end=0.1, dt_min=1e-13))
        report = max_principle_check(traj)
        overall = min(rep.min_u_overall - 0.0, 1.0 - rep.max_u_overall)
        margins[q] = min(report.worst_margin, overall)
    elapsed = time.perf_counter() - t0

    ok = all(m >= -2 * h for m in margins.values()) and elapsed < 120.0
    assert line(3, "maximum principle", ok,
                f"margins q=2.5: {margins[2.5]:.2e}, q=4: {margins[4.0]:.2e} "
                f"(tol {-2 * h:.2e}) {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: comparison principle (lockstep)
# ---------------------------------------------------------------------------

def test_criterion_04_comparison_principle():
    t0 = time.perf_counter()
    g = build_grid((0.0, 1.0), 201)
    lo = make_spec(g, p=3.0, q=2.5, profile="sine", amplitude=1.0)
    hi = make_spec(g, p=3.0, q=2.5, profile="sine", amplitude=2.0)
    pair = run_pair(lo, hi, StepControl(t_end=0.05, snapshot_every=1000))
    report = comparison_check(pair)
    elapsed = time.perf_counter() - t0

    ok = pair.report_low.verdict == "Completed" and report.passed and elapsed < 120.0
    assert line(4, "comparison principle", ok,
                f"worst ordering margin {report.worst_margin:.2e} (tol {-report.tolerance:.2e}) "
                f"over {len(pair.times)} steps {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: regularizing effect
# ---------------------------------------------------------------------------

def test_criterion_05_regularizing_effect():
    t0 = time.perf_counter()
    excesses = []
    ratios = []
    for n in (201, 401):
        g = build_grid((0.0, 1.0), n)
        spec = make_spec(g, p=3.0, q=2.5, profile="sine", amplitude=1.0)
        traj, _ = run(spec, StepControl(t_end=0.1))
        rep = regularizing_effect_check(traj, 3.0)
        ratios.append(rep.details["ratio_max"])
        excesses.append(rep.details["excess"])
    elapsed = time.perf_counter() - t0

    ok = (
        ratios[0] <= 1.1
        and ratios[1] <= 1.1
        and excesses[1] <= excesses[0] + 1e-12
        and elapsed < 180.0
    )
    assert line(5, "regularizing effect", ok,
                f"ratio_max n=201: {ratios[0]:.4f}, n=401: {ratios[1]:.4f}; "
                f"excess {excesses[0]:.2e} -> {excesses[1]:.2e} {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 6/7/10 share the GBU experiment
# ---------------------------------------------------------------------------

GBU_P, GBU_Q = 3.0, 4.0
GBU_THRESHOLDS = (100.0, 200.0, 400.0)


@pytest.fixture(scope="module")
def gbu_experiment():
    t0 = time.perf_counter()
    g201 = build_grid((0.0, 1.0), 201)
    window = alpha_window(GBU_P, GBU_Q)
    alpha = window.midpoint()  # = 2.0 for (3, 4)

    bisect = criterion_experiment(
        g201, GBU_P, GBU_Q, alpha,
        StepControl(t_end=0.35, gbu_threshold=100.0, dt_min=1e-13),
        amplitude_low=0.0, amplitude_high=2.0, bisect_iters=4,
    )
    amplitude = bisect.amplitude_high

    runs = {}
    for n in (201, 401):
        g = build_grid((0.0, 1.0), n)
        eig = principal_eigenpair(g)
        spec = make_spec(g, p=GBU_P, q=GBU_Q, profile="sine", amplitude=amplitude)
        traj, rep = run(
            spec,
            StepControl(
                t_end=0.35,
                gbu_threshold=GBU_THRESHOLDS[-1],
                report_thresholds=GBU_THRESHOLDS,
                snapshot_every=50,
                dt_min=1e-13,
                functional_weight=np.power(eig.phi1, alpha),
            ),
        )
        runs[n] = (traj, rep)
    return {
        "alpha": alpha,
        "bisect": bisect,
        "runs": runs,
        "wall": time.perf_counter() - t0,
    }


def test_criterion_06_gbu_detection_and_interior(gbu_experiment):
    t0 = time.perf_counter()
    runs = gbu_experiment["runs"]
    amplitude = gbu_experiment["bisect"].amplitude_high

    evidence = []
    for n in (201, 401):
        rep = runs[n][1]
        assert rep.verdict == GBU_DETECTED
        for thr in GBU_THRESHOLDS:
            evidence.append(ThresholdCrossing(n, thr, rep.threshold_crossings[thr]))
    times = [e.t_detect for e in evidence]
    spread = (max(times) - min(times)) / float(np.median(times))
    verdict = detect_gbu(evidence)

    # interior boundedness on the middle third with the fitted constants
    interior_ok = True
    for n in (201, 401):
        traj, rep = runs[n]
        fit = None
        for s in reversed(traj.states):
            try:
                fit = fit_profile(s, gamma_star(GBU_P, GBU_Q))
                break
            except Exception:
                continue
        ib = interior_boundedness_check(traj.states, 1.0 / 3.0, fit.c1, fit.c2, GBU_P, GBU_Q)
        interior_ok = interior_ok and ib.passed

    elapsed = gbu_experiment["wall"] + (time.perf_counter() - t0)
    ok = (
        spread <= 0.10
        and verdict.status == "GBU"
        and interior_ok
        and elapsed < 600.0
    )
    assert line(6, "GBU detection + interior", ok,
                f"A={amplitude} spread={spread * 100:.1f}% verdict={verdict.status} "
                f"t_max~{verdict.t_max_estimate:.4e} {elapsed:.0f}s")


def test_criterion_07_gradient_profile_slope(gbu_experiment):
    runs = gbu_experiment["runs"]
    ok = True
    details = []
    for n in (201, 401):
        traj, rep = runs[n]
        late = [s for s in traj.states if s.t > rep.t_detect * 0.98]
        report = gradient_profile_check(
            late, GBU_P, GBU_Q, rep.t_detect, slope_tol=0.15, stability_tol=0.2
        )
        slopes = report.details["slopes"]
        details.append(
            f"n={n}: worst slope {min(slopes):.3f} spread {report.details['slope_spread']:.2f}"
        )
        ok = ok and report.passed and min(slopes) >= -0.5 - 0.15
    assert line(7, "gradient profile slope", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: barrier certification
# ---------------------------------------------------------------------------

def test_criterion_08_barrier_certification():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for (p, q) in ((3.0, 4.0), (3.0, 3.5), (4.0, 5.0)):
        for n_dim in (1, 2):
            params = find_barrier_params(p, q, n_dim, 0.5)
            ok = ok and params.beta == 1.0 / (2.0 * (q - p + 2.0))
            for eps in (0.0, 1e-3, 1e-1, 1.0):
                sup = supersolution_residual(params, eps, n_radial=10000)
                exp = exp_barrier_residual(
                    params.C, params.K, params.rho, p, q, n_dim, eps, n_radial=10000
                )
                ok = ok and sup.min_residual >= 0.0 and exp.min_residual >= 0.0
                ok = ok and exp.k_condition_ok
                checked += 1
            inflated = supersolution_residual(params.scaled_delta(100.0), 0.0, 10000)
            ok = ok and inflated.min_residual < 0.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert line(8, "barrier certification", ok,
                f"{checked} (p,q,N,eps) certificates + 6 falsifications {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: eigen-solver
# ---------------------------------------------------------------------------

def test_criterion_09_eigen_solver():
    t0 = time.perf_counter()
    g1 = build_grid((0.0, 1.0), 401)
    eig1 = principal_eigenpair(g1)
    h = g1.spacing[0]
    discrete = 2.0 / h**2 * (1.0 - np.cos(np.pi * h))
    err_discrete = abs(eig1.lambda1 - discrete)
    err_pi2 = abs(eig1.lambda1 - np.pi**2)

    g2 = build_grid([(0, 1), (0, 1)], (101, 101))
    eig2 = principal_eigenpair(g2)
    err_2d = abs(eig2.lambda1 - 2 * np.pi**2)
    elapsed = time.perf_counter() - t0

    ok = err_discrete < 1e-10 and err_pi2 < 1e-3 and err_2d < 1e-2 and elapsed < 60.0
    assert line(9, "eigen-solver", ok,
                f"1D |lam-discrete|={err_discrete:.1e} |lam-pi^2|={err_pi2:.1e} "
                f"2D |lam-2pi^2|={err_2d:.1e} {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 10: blow-up inequality fit
# ---------------------------------------------------------------------------

def test_criterion_10_blowup_inequality_fit(gbu_experiment):
    t0 = time.perf_counter()
    traj, rep = gbu_experiment["runs"][201]
    t = rep.monitors["t"]
    y = rep.monitors["y"]
    half = t >= 0.5 * rep.t_detect
    fit = blowup_ode_fit(t[half], y[half], GBU_Q)
    elapsed = time.perf_counter() - t0

    ok = fit.c1 > 0.0 and fit.margin >= 0.0 and elapsed < 60.0
    assert line(10, "blow-up inequality fit", ok,
                f"C1={fit.c1:.3g} C2={fit.c2:.3g} margin={fit.margin:.2e} "
                f"samples={int(half.sum())} {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 11: scaling check
# ---------------------------------------------------------------------------

def test_criterion_11_scaling_check():
    t0 = time.perf_counter()
    g = build_grid((0.0, 1.0), 101)
    spec = make_spec(g, p=4.0, q=4.0, profile="sine", amplitude=0.5)
    assert spec.scaled(2.0).mu == pytest.approx(2.0 ** (-0.5), rel=1e-14)
    report = scaling_transform_check(spec, 2.0, StepControl(t_end=0.02), n_checks=5)
    elapsed = time.perf_counter() - t0

    ok = report.passed and len(report.details["discrepancies"]) == 5 and elapsed < 120.0
    assert line(11, "scaling check", ok,
                f"max discrepancy {max(report.details['discrepancies']):.2e} "
                f"vs bound {report.details['bound']:.2e} {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 12: eps continuation
# ---------------------------------------------------------------------------

def test_criterion_12_eps_continuation():
    t0 = time.perf_counter()
    g = build_grid((0.0, 1.0), 101)
    spec = make_spec(g, p=3.0, q=2.5, profile="sine", amplitude=1.0)
    report = epsilon_continuation(spec, [1e-2, 1e-3, 1e-4], StepControl(t_end=0.02))
    elapsed = time.perf_counter() - t0

    strictly_decreasing = all(
        d0 > d1 for d0, d1 in zip(report.sup_distances, report.sup_distances[1:])
    )
    ok = strictly_decreasing and elapsed < 180.0
    assert line(12, "eps continuation", ok,
                f"sup distances {['%.3e' % d for d in report.sup_distances]} {elapsed:.1f}s")
