import gc
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scheme_reference import reference_gradient

from gbulab.analysis import (
    InsufficientCollar,
    _anchored_slope,
    _shells,
    comparison_check,
    energy_estimate,
    fit_profile,
    gradient_profile_check,
    interior_boundedness_check,
    max_principle_check,
    monotonicity_margin,
    monotonicity_suite,
    regularizing_effect_check,
    scaling_transform_check,
    shell_maxima,
)
from gbulab.grid import boundary_distance, build_grid
from gbulab.problem import ProblemSpec, SolutionState, make_spec
from gbulab.stepping import StepControl, run, run_pair


def sine_run(n=101, p=3.0, q=2.5, amp=1.0, t_end=0.01, **ctl):
    g = build_grid((0.0, 1.0), n)
    spec = make_spec(g, p=p, q=q, profile="sine", amplitude=amp)
    traj, rep = run(spec, StepControl(t_end=t_end, **ctl))
    return spec, traj, rep


# -- max principle ---------------------------------------------------------------

def test_max_principle_stationary_margin_zero():
    g = build_grid((0.0, 1.0), 31)
    spec = make_spec(g, p=3.0, q=2.5, epsilon=1.0, profile="constant", amplitude=1.0)
    traj, _ = run(spec, StepControl(t_end=0.01))
    report = max_principle_check(traj)
    assert report.passed
    assert report.worst_margin == 0.0


def test_max_principle_on_sine_run():
    _, traj, _ = sine_run(n=201, q=2.5, t_end=0.02)
    report = max_principle_check(traj)
    assert report.passed
    assert report.worst_margin >= -2 * traj.grid.h_min


def test_max_principle_detects_corrupted_series():
    _, traj, _ = sine_run(n=51, t_end=0.004)
    traj.monitors["max_u"][len(traj.monitors["max_u"]) // 2] = 3.0  # inject a spike
    report = max_principle_check(traj)
    assert not report.passed


# -- comparison -------------------------------------------------------------------

def test_comparison_ordered_sines():
    g = build_grid((0.0, 1.0), 101)
    lo = make_spec(g, p=3.0, q=2.5, profile="sine", amplitude=1.0)
    hi = make_spec(g, p=3.0, q=2.5, profile="sine", amplitude=2.0)
    pair = run_pair(lo, hi, StepControl(t_end=0.01, snapshot_every=100))
    report = comparison_check(pair)
    assert report.passed
    assert report.worst_margin == np.min(pair.ordering_margin) >= -2 * g.spacing[0]
    assert report.details["steps"] == pair.report_low.steps


def test_comparison_fails_on_a_broken_order():
    # negative control: the crossing pair of
    # test_run_pair_ordering_margin_shows_a_broken_order (twice the source
    # below, none above) must fail, at its worst step
    g = build_grid((0.0, 1.0), 41)
    low = make_spec(g, 3.0, 2.5, mu=2.0, profile="sine", amplitude=1.0)
    high = make_spec(g, 3.0, 2.5, mu=0.0, profile="sine", amplitude=1.0)
    pair = run_pair(low, high, StepControl(t_end=0.01))
    report = comparison_check(pair)
    assert not report.passed
    assert report.worst_margin == min(pair.ordering_margin)
    k = int(np.argmin(pair.ordering_margin))
    assert report.location == f"t={pair.times[k]:.6g}"


# -- monotonicity inequality --------------------------------------------------------

def test_monotonicity_equal_vectors_zero():
    a = np.array([1.0, 2.0, -3.0])
    assert monotonicity_margin(a, a, 4.0) == 0.0


def test_monotonicity_sigma_two_identity():
    rng = np.random.default_rng(1)
    a = rng.uniform(-10, 10, size=(100, 3))
    b = rng.uniform(-10, 10, size=(100, 3))
    margins = monotonicity_margin(a, b, 2.0)
    scale = np.sum(a * a, -1) + np.sum(b * b, -1) + 1.0
    assert np.max(np.abs(margins) / scale) < 1e-14


def test_monotonicity_frozen_example():
    # a=(1,0), b=0, sigma=4: LHS = 1, RHS = 4/16, margin = 0.75
    margin = monotonicity_margin([1.0, 0.0], [0.0, 0.0], 4.0)
    assert margin == pytest.approx(0.75, rel=1e-14)


def test_monotonicity_suite_contract():
    report = monotonicity_suite(100_000, seed=0)
    assert report.passed
    assert report.details["violations"] == 0
    assert report.worst_margin >= -1e-12


def test_monotonicity_suite_deterministic():
    a = monotonicity_suite(5000, seed=42)
    b = monotonicity_suite(5000, seed=42)
    assert a.worst_margin == b.worst_margin


@pytest.mark.parametrize("n_samples", [3, 0])
def test_monotonicity_suite_rejects_fewer_samples_than_dimensions(n_samples):
    with pytest.raises(ValueError, match="monotonicity_samples must be >= 4"):
        monotonicity_suite(n_samples)


def test_monotonicity_rejects_sigma_below_two():
    with pytest.raises(ValueError):
        monotonicity_margin([1.0], [0.5], 1.5)


# -- regularizing effect ---------------------------------------------------------------

def test_regularizing_bound_value_example():
    # p=3, sup=1, t=0.5: bound is 1/((3-2)*0.5) = 2
    p, sup, t = 3.0, 1.0, 0.5
    assert sup / ((p - 2.0) * t) == pytest.approx(2.0)


def test_regularizing_stationary_passes():
    g = build_grid((0.0, 1.0), 31)
    spec = make_spec(g, p=3.0, q=2.5, epsilon=1.0, profile="constant", amplitude=1.0)
    traj, _ = run(spec, StepControl(t_end=0.02))
    report = regularizing_effect_check(traj, 3.0)
    assert report.passed
    assert report.details["ratio_max"] <= 0.0 + 1e-15


def test_regularizing_sine_run_ratio_bounded():
    spec, traj, _ = sine_run(n=201, q=2.5, t_end=0.05)
    report = regularizing_effect_check(traj, 3.0)
    assert report.passed
    assert report.details["ratio_max"] <= 1.1


README_CONTROL = StepControl(t_end=0.05, snapshot_every=500)


@pytest.fixture(scope="module")
def readme_spec():
    g = build_grid((0.0, 1.0), 201)
    return make_spec(g, p=3.0, q=2.5, epsilon=1e-3, profile="sine", amplitude=1.0)


@pytest.fixture(scope="module")
def readme_sine_run(readme_spec):
    # the README example, which keeps 71 snapshots
    traj, report = run(readme_spec, README_CONTROL)
    assert len(traj.states) == 71
    return traj, report


@pytest.fixture(scope="module")
def readme_sine_traj(readme_sine_run):
    return readme_sine_run[0]


@pytest.mark.parametrize(("target", "passes"), [(0.9, True), (1.2, False)])
def test_regularizing_bound_brackets_scaled_ut(readme_sine_traj, target, passes):
    # u_t scaled so that u_t t (p-2) / sup|u0| over rows 5 and on peaks at
    # target: the check's bound 1 + 0.1 lies between the two targets. The
    # check reads sup|u0| from the first row, which the last row undercuts.
    p, u0_sup = 3.0, 1.0
    mon = dict(readme_sine_traj.monitors)
    assert (mon["min_u"][0], mon["max_u"][0]) == (0.0, u0_sup)
    assert mon["max_u"][-1] < 0.9 * u0_sup
    ratio = float(np.max(mon["max_ut"][5:] * mon["t"][5:] * (p - 2.0) / u0_sup))
    assert ratio > 0
    mon["max_ut"] = mon["max_ut"] * (target / ratio)
    report = regularizing_effect_check(replace(readme_sine_traj, monitors=mon), p)
    assert report.passed is passes
    assert report.details["ratio_max"] == pytest.approx(target, rel=1e-12)


def test_regularizing_zero_data_requires_vanishing_ut():
    # zero data: the bound on u_t is 0. The step bound is infinite on flat
    # data, so the marks make the steps; the scheme keeps u_t exactly 0.
    g = build_grid((0.0, 1.0), 41)
    spec = make_spec(g, p=3.0, q=2.5, epsilon=1e-3, profile="sine", amplitude=0.0)
    traj, _ = run(spec, StepControl(t_end=0.002, t_marks=[2e-4 * k for k in range(1, 10)]))
    assert len(traj.monitors["t"]) == 11
    clean = regularizing_effect_check(traj, 3.0)
    assert clean.passed and clean.worst_margin == 0.0
    traj.monitors["max_ut"][1:] = 1e-12
    report = regularizing_effect_check(traj, 3.0)
    assert not report.passed
    assert report.worst_margin == -1e-12


def test_regularizing_scores_only_stepped_rows_off_the_stride(readme_spec, readme_sine_traj):
    # 34 846 steps at stride 3 end off the stride: the last row, like the
    # first, carries no step terms (max_ut nan) and is not scored
    traj, _ = run(readme_spec, replace(README_CONTROL, monitor_stride=3))
    assert np.isnan(traj.monitors["max_ut"][-1])
    report = regularizing_effect_check(traj, 3.0)
    assert report.passed
    # the same steps as the stride-1 run, of which it scores a subset
    full = regularizing_effect_check(readme_sine_traj, 3.0).details["ratio_max"]
    assert 0.0 < report.details["ratio_max"] <= full


def test_regularizing_zero_data_without_warmup():
    # flat data: the step bound is infinite, so the run takes one step and
    # writes two rows; the stepped one is scored at once
    g = build_grid((0.0, 1.0), 41)
    spec = make_spec(g, p=3.0, q=2.5, epsilon=1e-3, profile="sine", amplitude=0.0)
    traj, _ = run(spec, StepControl(t_end=0.002))
    assert len(traj.monitors["t"]) == 2
    report = regularizing_effect_check(traj, 3.0)
    assert report.passed and report.worst_margin == 0.0
    first_row_only = replace(traj, monitors={k: v[:1] for k, v in traj.monitors.items()})
    with pytest.raises(ValueError, match="no stepped monitor row"):
        regularizing_effect_check(first_row_only, 3.0)


def test_regularizing_excess_shrinks_under_refinement():
    excesses = []
    for n, theta in ((101, 0.5), (201, 0.25)):
        g = build_grid((0.0, 1.0), n)
        spec = make_spec(g, p=3.0, q=2.5, profile="sine")
        traj, _ = run(spec, StepControl(t_end=0.03, theta=theta))
        rep = regularizing_effect_check(traj, 3.0)
        excesses.append(rep.details["excess"])
    assert excesses[1] <= excesses[0] + 1e-12


# -- profile fit on synthetic layers ---------------------------------------------------

def synthetic_layer_state(n=401, expo=0.51):
    # u ~ x^expo near each boundary: |u'| ~ expo * delta^(expo-1), a slope of
    # expo-1 = -gamma* + 0.01 for gamma* = 0.5
    g = build_grid((0.0, 1.0), n)
    x = g.axis_coords(0)
    u = np.power(x, expo) + np.power(1 - x, expo)
    return SolutionState(g, u)


def test_fit_profile_synthetic_slope_passes_by_construction():
    st = synthetic_layer_state(expo=0.51)
    fit = fit_profile(st, gamma_star=0.5)
    assert fit.n_shells >= 4
    assert fit.slope >= -0.5 - 0.15
    assert -0.65 <= fit.slope <= -0.3


def test_fit_profile_exact_power_law_recovers_exponent():
    # a manufactured field whose nodal central differences are an exact power
    # law: integrate delta^(-0.4) so |u'| = delta^(-0.4); the anchored-window
    # slope then matches the exponent closely
    g = build_grid((0.0, 1.0), 401)
    x = g.axis_coords(0)
    prim = lambda s: np.power(s, 0.6) / 0.6
    u = prim(np.minimum(x, 1 - x))
    fit = fit_profile(SolutionState(g, u), gamma_star=0.5)
    assert fit.slope == pytest.approx(-0.4, abs=0.05)
    assert fit.slope >= -0.65


def test_fit_profile_steep_layer_fails_slope():
    st = synthetic_layer_state(expo=0.2)  # |u'| ~ delta^-0.8, steeper than -0.65
    fit = fit_profile(st, gamma_star=0.5)
    assert fit.slope < -0.65


def test_fit_profile_envelope_constants():
    st = synthetic_layer_state(expo=0.51)
    fit = fit_profile(st, gamma_star=0.5)
    delta = np.minimum(st.grid.axis_coords(0), 1 - st.grid.axis_coords(0))
    bound = fit.c1 * np.power(np.maximum(delta, 1e-300), -0.5) + fit.c2
    inner = delta > 0
    assert np.all(st.grad_mag[inner] <= bound[inner] + 1e-9)


def test_fit_profile_insufficient_collar_on_coarse_grid():
    st = synthetic_layer_state(n=9, expo=0.51)
    with pytest.raises(InsufficientCollar):
        fit_profile(st, gamma_star=0.5)


def test_shell_maxima_excludes_boundary():
    st = synthetic_layer_state(n=41)
    shells, mx = shell_maxima(st.grid, st.grad_mag)
    assert np.all(shells > 0)
    assert len(shells) == 20


@pytest.mark.parametrize("shape", [(41,), (17, 23)])
def test_shell_maxima_matches_per_shell_loop(shape):
    # the reference takes the max over each distance shell in turn; a NaN
    # node makes its neighbours' gradients NaN, and NaN wins a shell's max
    extents = [(0.0, 1.0), (0.0, 1.5)][: len(shape)]
    g = build_grid(extents, shape)
    rng = np.random.default_rng(3)
    u = rng.random(shape)
    u[(shape[0] // 3,) * len(shape)] = np.nan
    st = SolutionState(g, u)
    keys = np.round(boundary_distance(g), 12).ravel()
    vals = st.grad_mag.ravel()
    uniq = np.unique(keys)
    uniq = uniq[uniq > 0]
    expected = np.array([np.max(vals[keys == d]) for d in uniq])
    assert np.isnan(expected).any() and not np.isnan(expected).all()
    shells, maxima = shell_maxima(g, vals.reshape(shape))
    assert np.array_equal(shells, uniq)
    assert np.array_equal(maxima, expected, equal_nan=True)


def test_cached_grid_arrays_are_read_only():
    # the distance and the shell index are shared by every fit on a grid,
    # so a write into them must fail rather than skew later fits
    g = build_grid([(0.0, 1.0), (0.0, 1.5)], (17, 23))
    shells, _ = shell_maxima(g, np.zeros(g.shape))
    for cached in (boundary_distance(g), shells, *_shells(g)):
        with pytest.raises(ValueError, match="read-only"):
            cached[1] = 0


def _polyfit_slope(deltas, vals):
    # the reference: one least-squares line per inner-anchored window
    logs, logv = np.log(deltas), np.log(vals)
    return max(float(np.polyfit(logs[:m], logv[:m], 1)[0]) for m in range(2, len(vals) + 1))


@pytest.mark.parametrize("n", [2, 3, 17, 200])
def test_anchored_slope_matches_polyfit_windows(n):
    rng = np.random.default_rng(n)
    grid_shells = np.arange(1, n + 1) / (2.0 * n + 2.0)
    random_shells = np.sort(rng.uniform(1e-4, 0.5, n))
    for deltas in (grid_shells, random_shells):
        power_law = 3.0 * deltas**-0.4
        assert _anchored_slope(deltas, power_law) == pytest.approx(-0.4, abs=1e-12)
        for vals in (power_law, rng.uniform(0.1, 100.0, n)):
            assert abs(_anchored_slope(deltas, vals) - _polyfit_slope(deltas, vals)) <= 1e-12


def test_smooth_state_trivially_compliant():
    # a bounded-gradient state has no boundary layer: slope 0, small C1
    g = build_grid((0.0, 1.0), 201)
    x = g.axis_coords(0)
    st = SolutionState(g, np.sin(np.pi * x))
    fit = fit_profile(st, gamma_star=0.5)
    assert fit.c1 < 2.0
    assert fit.n_hot == 0
    assert fit.slope == 0.0


@pytest.mark.parametrize(("p", "q"), [(3.0, 4.0), (2.5, 4.0)], ids=["p3-q4", "p2.5-q4"])
@pytest.mark.parametrize(("amplitudes", "c1_spread", "passes"), [
    ((1.0, 1.05, 1.1), 0.091, True),
    ((1.0, 1.15, 1.35), 0.259, False),
], ids=["stable", "unstable"])
def test_profile_check_rejects_an_unstable_envelope(amplitudes, c1_spread, passes, p, q):
    # A delta^(1-gamma)/(1-gamma) has |u'| = A delta^-gamma: with gamma =
    # gamma* = 1/(q-p+1) (1/2 at p=3, q=4; 2/5 at p=2.5, q=4, where p-2 != 1)
    # every state has the exact slope -gamma*, so only the spread of C1 ~ A
    # across the last decade before t_detect decides
    gamma = 1.0 / (q - p + 1.0)
    g = build_grid((0.0, 1.0), 401)
    delta = boundary_distance(g)
    states = [SolutionState(g, a * delta ** (1.0 - gamma) / (1.0 - gamma), t)
              for a, t in zip(amplitudes, (0.9, 0.95, 0.99))]
    report = gradient_profile_check(states, p, q, t_detect=1.0)
    assert report.details["decade_states"] == 3
    assert report.details["c1_spread"] == pytest.approx(c1_spread, abs=1e-3)
    assert report.details["slope_spread"] < 1e-12
    assert report.worst_margin >= -report.tolerance  # the slope itself passes
    assert report.passed is passes


def test_profile_checks_leave_the_snapshots_their_fields_only():
    # the two checks read |grad u| of every snapshot; a snapshot that cached
    # it (or its gradient) would hold about 2.6x its field; without a cache
    # the run holds 1.01-1.03x, and the bound sits between the two.
    g = build_grid((0.0, 1.0), 201)
    spec = make_spec(g, p=3.0, q=4.0, profile="sine", amplitude=1.5)

    def checks(states):
        gradient_profile_check(states, 3.0, 4.0, states[-1].t)
        interior_boundedness_check(states, 1 / 3, 1.0, 1.0, 3.0, 4.0)

    # the first call on a grid builds its read-only caches; those stay
    checks(run(spec, StepControl(t_end=0.35, max_steps=5, snapshot_every=1))[0].states)
    gc.collect()
    tracemalloc.start()
    try:
        traj, _ = run(spec, StepControl(t_end=0.35, theta=1.0, max_steps=2000,
                                        snapshot_every=5))
        checks(traj.states)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    own = sum(sys.getsizeof(s) + sys.getsizeof(s.u) + sys.getsizeof(s.t) for s in traj.states)
    own += sum(sys.getsizeof(m) for m in traj.monitors.values())
    assert len(traj.states) == 401
    assert held <= 1.5 * own


# -- interior boundedness ----------------------------------------------------------------

def test_interior_boundedness_stationary():
    g = build_grid((0.0, 1.0), 51)
    spec = make_spec(g, p=3.0, q=2.5, epsilon=1.0, profile="constant", amplitude=1.0)
    traj, _ = run(spec, StepControl(t_end=0.01))
    report = interior_boundedness_check(traj.states, 1 / 3, 1.0, 1.0, 3.0, 2.5)
    assert report.passed


@pytest.mark.parametrize(("factor", "passes"), [(1.05, True), (0.95, False)])
def test_interior_boundedness_brackets_the_region_sup(readme_sine_traj, factor, passes):
    # C1 = 0, so the bound is C2: just above the sup of |grad u| over
    # {delta >= 1/3} and the states it passes, just below it fails
    states = readme_sine_traj.states
    region = boundary_distance(states[0].grid) >= 1 / 3
    sup = max(float(np.max(s.grad_mag[region])) for s in states)
    report = interior_boundedness_check(states, 1 / 3, 0.0, factor * sup, 3.0, 2.5)
    assert report.passed is passes


@pytest.mark.parametrize("nan_first", [False, True], ids=["nan_second", "nan_first"])
def test_interior_boundedness_fails_on_a_nan_state_in_any_place(nan_first):
    # a NaN node in the region makes that state's sup NaN, and the check
    # must fail whichever place the state has in the list
    g = build_grid((0.0, 1.0), 41)
    ok = SolutionState(g, np.sin(np.pi * g.axis_coords(0)))
    bad = ok.u.copy()
    bad[20] = np.nan
    states = [ok, SolutionState(g, bad, 0.1)]
    assert interior_boundedness_check(states[:1], 0.25, 1.0, 1.0, 3.0, 4.0).passed
    report = interior_boundedness_check(states[::-1] if nan_first else states,
                                        0.25, 1.0, 1.0, 3.0, 4.0)
    assert not report.passed
    assert np.isnan(report.details["sup"])


def test_interior_boundedness_rejects_touching_boundary():
    g = build_grid((0.0, 1.0), 51)
    st = SolutionState(g, np.zeros(51))
    with pytest.raises(ValueError):
        interior_boundedness_check([st], 0.0, 1.0, 1.0, 3.0, 4.0)


# -- scaling -----------------------------------------------------------------------------

def test_scaling_lambda_one_is_identity():
    g = build_grid((0.0, 1.0), 81)
    spec = make_spec(g, p=4.0, q=4.0, profile="sine", amplitude=0.5)
    report = scaling_transform_check(spec, 1.0, StepControl(t_end=0.004), n_checks=3)
    assert report.passed
    assert max(report.details["discrepancies"]) == 0.0


def test_scaling_gamma_value():
    # gamma = 1/(p-2): p=3 gives 1, so mu scales by lam^-(q-p+1);
    # for lam=2, p=4, q=4 the factor is 2^-0.5
    g = build_grid((0.0, 1.0), 41)
    spec = make_spec(g, p=3.0, q=2.5, profile="sine")
    assert spec.scaled(2.0).mu == pytest.approx(2.0 ** (-0.5), rel=1e-14)
    spec44 = make_spec(g, p=4.0, q=4.0, profile="sine")
    scaled = spec44.scaled(2.0)
    assert scaled.mu == pytest.approx(2.0 ** (-0.5), rel=1e-14)
    assert np.max(scaled.initial) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_scaling_transform_check_rejects_perturbed_data(monkeypatch):
    # transformed data 5% off lam^gamma (u0, g): the discrepancy is about 180
    # times the bound, where the exact transform reads about 0.01 of it
    g = build_grid((0.0, 1.0), 101)
    spec = make_spec(g, p=3.0, q=4.0, profile="sine", amplitude=1.0)
    control = StepControl(t_end=0.01)
    exact = scaling_transform_check(spec, 2.0, control)
    assert exact.passed and max(exact.details["discrepancies"]) < 0.05 * exact.details["bound"]
    scaled = ProblemSpec.scaled

    def perturbed(self, lam):
        s = scaled(self, lam)
        return replace(s, initial=1.05 * s.initial, boundary_values=1.05 * s.boundary_values)

    monkeypatch.setattr(ProblemSpec, "scaled", perturbed)
    report = scaling_transform_check(spec, 2.0, control)
    assert not report.passed
    assert max(report.details["discrepancies"]) > 150.0 * report.details["bound"]


def test_scaling_transform_check_p4_q4():
    g = build_grid((0.0, 1.0), 81)
    spec = make_spec(g, p=4.0, q=4.0, profile="sine", amplitude=0.5)
    report = scaling_transform_check(spec, 2.0, StepControl(t_end=0.01), n_checks=3)
    assert report.passed, report.details


# -- energy ------------------------------------------------------------------------------

def test_energy_estimate_stationary():
    g = build_grid((0.0, 1.0), 31)
    spec = make_spec(g, p=3.0, q=2.5, epsilon=1.0, profile="constant", amplitude=1.0)
    traj, _ = run(spec, StepControl(t_end=0.01))
    report = energy_estimate(traj, spec)
    assert report.passed
    assert report.details["lhs"] == 0.0


def test_energy_estimate_smooth_run_ratio_below_one():
    spec, traj, _ = sine_run(n=101, q=2.5, t_end=0.02)
    report = energy_estimate(traj, spec)
    assert report.passed
    assert report.details["ratio"] < 1.0


@pytest.mark.parametrize(("target", "passes"), [(0.9, True), (1.1, False)])
def test_energy_estimate_brackets_scaled_ut(readme_spec, readme_sine_run, target, passes):
    # int |u_t|^2 scaled to target times its bound, around the tolerance 0.05
    traj, _ = readme_sine_run
    mon = dict(traj.monitors)
    e0 = energy_estimate(traj, readme_spec).details["initial_gradient_energy"]
    bound = (2.0 / 3.0) * e0 + 2.0 * mon["source_energy_acc"][-1]
    assert mon["ut_l2_acc"][-1] > 0
    mon["ut_l2_acc"] = mon["ut_l2_acc"] * (target * bound / mon["ut_l2_acc"][-1])
    check = energy_estimate(replace(traj, monitors=mon), readme_spec)
    assert check.passed is passes
    assert check.details["ratio"] == pytest.approx(target, rel=1e-12)


def test_energy_estimate_ratio_stable_under_refinement():
    ratios = []
    for n in (101, 201):
        spec, traj, _ = sine_run(n=n, q=2.5, t_end=0.02)
        ratios.append(energy_estimate(traj, spec).details["ratio"])
    assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.1


def test_energy_e0_is_the_quadrature_of_u0(readme_spec, readme_sine_traj):
    # e0 = int (|grad u0|^2+eps)^(p/2) comes from the run's first kept state:
    # the trapezoid rule over the reference gradient of the spec's data gives
    # it, and the last state gives far less
    grid, eps = readme_spec.grid, readme_spec.epsilon
    weights = np.full(grid.shape, grid.h_min)
    weights[[0, -1]] = grid.h_min / 2.0

    def energy(u):
        return float(np.sum(weights * reference_gradient(u, grid, eps)[3] ** 1.5))

    e0 = energy_estimate(readme_sine_traj, readme_spec).details["initial_gradient_energy"]
    assert e0 == pytest.approx(energy(readme_spec.initial_state().u), rel=1e-13)
    assert energy(readme_sine_traj.states[-1].u) < 0.5 * e0


def test_energy_estimate_needs_the_state_at_t_0(readme_spec, readme_sine_traj):
    # a record whose first kept state is not u0 holds no initial gradient energy
    later = replace(readme_sine_traj, states=readme_sine_traj.states[1:])
    message = f"first kept state is at t={later.states[0].t!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        energy_estimate(later, readme_spec)
