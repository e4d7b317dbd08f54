import math
from dataclasses import replace

import numpy as np
import pytest

from scheme_reference import reference_dt, reference_gradient, reference_step

from gbulab import stepping
from gbulab.grid import build_grid
from gbulab.operators import (
    StepKernel,
    gradient_source,
    quadrature_weights,
    regularized_diffusion,
)
from gbulab.problem import ProblemSpec, SolutionState, make_spec
from gbulab.stepping import (
    COMPLETED,
    GBU_DETECTED,
    MONITOR_COLUMNS,
    STALLED,
    StepControl,
    ThresholdCrossing,
    detect_gbu,
    epsilon_continuation,
    read_monitors_csv,
    run,
    run_pair,
    write_monitors_csv,
)


def sine_spec(n=101, p=3.0, q=2.5, eps=0.0, amp=1.0):
    g = build_grid((0.0, 1.0), n)
    return make_spec(g, p=p, q=q, epsilon=eps, profile="sine", amplitude=amp)


# -- step bound ----------------------------------------------------------------

def first_dt(spec, **control):
    """The size of the first step that `run` takes (t_end 1 unless given)."""
    control.setdefault("t_end", 1.0)
    _, rep = run(spec, StepControl(max_steps=1, **control))
    return rep.monitors["dt"][1]


def test_stable_dt_contract_value():
    # W=0, eps=1, p=3, q=3, d=1, h=0.1, theta=1:
    # dt = 0.01 / (2*1*2*1 + 0.1*3*1) = 0.01/4.3
    g = build_grid((0.0, 1.0), 11)
    spec = make_spec(g, p=3.0, q=3.0, epsilon=1.0, profile="constant", amplitude=0.0)
    assert first_dt(spec, theta=1.0) == pytest.approx(0.01 / 4.3, rel=1e-14)


def test_stable_dt_h_squared_scaling_diffusion_limited():
    # with the gradient term negligible, doubling h quadruples dt
    spec_c = make_spec(build_grid((0.0, 1.0), 21), p=3.0, q=2.5,
                       epsilon=1.0, profile="constant", amplitude=0.0)
    spec_f = make_spec(build_grid((0.0, 1.0), 41), p=3.0, q=2.5,
                       epsilon=1.0, profile="constant", amplitude=0.0)
    dt_c = first_dt(spec_c, theta=1.0)
    dt_f = first_dt(spec_f, theta=1.0)
    ratio = dt_c / dt_f
    assert 3.5 < ratio < 4.5


def test_stable_dt_monotone_decreasing_in_gradient():
    prev = math.inf
    for amp in (0.5, 1.0, 2.0, 4.0):
        dt = first_dt(sine_spec(41, amp=amp))
        assert dt < prev
        prev = dt


def test_stable_dt_flat_state_is_unbounded_without_regularization():
    # no bound: the first step goes to t_end in one
    spec = make_spec(build_grid((0.0, 1.0), 11), p=3.0, q=2.5,
                     epsilon=0.0, profile="constant", amplitude=1.0)
    _, rep = run(spec, StepControl(t_end=0.3, max_steps=1))
    assert (rep.verdict, rep.reason, rep.steps) == (COMPLETED, "t_end", 1)
    assert rep.monitors["dt"][1] == 0.3


# -- step --------------------------------------------------------------------------

def kernel_step(spec, u, dt):
    """One step of `run`'s kernel from field u: (the new field, the kernel)."""
    kernel = StepKernel.of(spec).load(u)
    kernel.step(dt)
    return kernel.u.copy(), kernel


def test_step_stationary_constant():
    spec = make_spec(build_grid((0.0, 1.0), 21), p=3.0, q=2.5,
                     epsilon=0.5, profile="constant", amplitude=2.0)
    out, _ = kernel_step(spec, spec.initial, 0.01)
    assert np.array_equal(out, spec.initial)


def test_step_linear_profile_stationary_without_source():
    g = build_grid((0.0, 1.0), 21)
    spec = make_spec(g, p=3.0, q=2.5, epsilon=0.0, mu=0.0, profile="ramp")
    out, _ = kernel_step(spec, spec.initial, 1e-3)
    assert np.allclose(out, spec.initial, atol=1e-15)


def test_step_matches_manufactured_rhs():
    # the update is u + dt * (diffusion + source) of the public operators
    g = build_grid((0.0, 1.0), 65)
    x = g.axis_coords(0)
    spec = ProblemSpec(grid=g, p=3.0, q=2.5, epsilon=0.1, mu=1.0,
                       boundary_values=x * x, initial=x * x)
    st = spec.initial_state()
    dt = 1e-5
    out, _ = kernel_step(spec, st.u, dt)
    rhs = regularized_diffusion(st, spec.p, spec.epsilon) + gradient_source(
        st, spec.q, spec.epsilon, spec.mu)
    expected = st.u + dt * rhs
    expected[0], expected[-1] = x[0] ** 2, x[-1] ** 2
    assert np.array_equal(out, expected)


def test_step_repins_boundary_and_invalidates_cache():
    # after a step the kernel's gradient is the new field's
    spec = sine_spec(31, q=2.5)
    out, kernel = kernel_step(spec, spec.initial, 1e-5)
    bd = spec.grid.boundary_mask()
    assert np.array_equal(out[bd], spec.boundary_values[bd])
    assert np.array_equal(kernel.mag, SolutionState(spec.grid, out).grad_mag)
    fresh = np.abs(np.gradient(out, spec.grid.spacing[0]))
    assert np.max(np.abs(kernel.mag - fresh)) < 0.2


# -- run ----------------------------------------------------------------------------

def test_run_stationary_completes_with_constant_monitors():
    spec = make_spec(build_grid((0.0, 1.0), 21), p=3.0, q=2.5,
                     epsilon=0.5, profile="constant", amplitude=1.0)
    traj, rep = run(spec, StepControl(t_end=0.05))
    assert rep.verdict == COMPLETED
    assert np.all(rep.monitors["max_u"] == 1.0)
    assert np.all(rep.monitors["min_u"] == 1.0)
    assert rep.monitors["t"][-1] == 0.05
    assert traj.states[-1].t == 0.05


def test_run_first_step_bitwise_matches_step():
    spec = sine_spec(51)
    traj, rep = run(spec, StepControl(t_end=1.0, max_steps=1))
    dt = rep.monitors["dt"][1]
    assert dt == reference_dt(spec.initial, spec, 0.5)
    assert np.array_equal(traj.states[-1].u, reference_step(spec.initial, spec, dt)[0])


@pytest.mark.parametrize("dim", [1, 2])
def test_run_bitwise_matches_repeated_step(dim):
    # eps > 0 and mu != 1, so the source is not (|grad u|^2+eps)^(q/2); 700
    # steps fill at least two monitor blocks and end in a partial one (326
    # steps a block at n=201, 183 on 17x21), and the run ends off the
    # monitor stride
    if dim == 1:
        g = build_grid((0.0, 1.0), 201)
        spec = make_spec(g, p=3.0, q=2.7, epsilon=1e-3, mu=0.9, profile="sine", amplitude=1.0)
    else:
        g = build_grid([(0.0, 1.0), (0.0, 1.5)], (17, 21))
        spec = make_spec(g, p=3.4, q=3.0, epsilon=1e-3, mu=0.8, profile="sine", amplitude=2.0)
    weight = 1.0 + g.coords()[0]
    ctl = StepControl(t_end=1.0, max_steps=700, snapshot_every=1, monitor_stride=3,
                      functional_weight=weight)
    traj, rep = run(spec, ctl)
    assert rep.steps == 700
    block = stepping._BLOCK_VALUES // g.num_nodes()
    assert 2 * block < rep.steps and rep.steps % block
    qw, inner = quadrature_weights(g), g.interior_slice()

    def field_row(u, t):
        return {"t": t, "max_u": np.max(u), "min_u": np.min(u),
                "grad_inf": reference_gradient(u, g, 0.0)[2], "y": np.sum(qw * u * weight)}

    u, t = spec.initial, 0.0
    ut_l2 = src_energy = 0.0
    rows = [{**field_row(u, t), "ut_l2_acc": 0.0, "max_ut": math.nan, "source_energy_acc": 0.0,
             "dt": 0.0}]
    for k in range(700):
        dt = reference_dt(u, spec, ctl.theta)
        u, rhs, s_half = reference_step(u, spec, dt)
        t += dt
        ut_l2 += dt * np.sum(qw[inner] * rhs * rhs)
        src_energy += dt * np.sum(qw * (s_half * s_half))
        max_ut = np.max(rhs)
        assert np.array_equal(traj.states[k + 1].u, u)
        if (k + 1) % 3 == 0:
            rows.append({**field_row(u, t), "ut_l2_acc": ut_l2, "max_ut": max_ut,
                         "source_energy_acc": src_energy, "dt": dt})
    # the final off-stride row has no step terms; its dt is the last step's
    rows.append({**field_row(u, t), "ut_l2_acc": ut_l2, "max_ut": math.nan,
                 "source_energy_acc": src_energy, "dt": dt})
    for col in MONITOR_COLUMNS:
        assert np.array_equal(rep.monitors[col], [r[col] for r in rows], equal_nan=True), col
    assert (rep.min_u_overall, rep.max_u_overall) == (
        min(np.min(s.u) for s in traj.states), max(np.max(s.u) for s in traj.states))


def test_run_bitwise_matches_repeated_step_on_a_grid_larger_than_a_block():
    # 257 x 257 nodes are more values than a step block holds, so a block
    # gets 2 rows, the fewest the kernel's slots can cycle through: the state
    # it starts from and one step. The 5 steps fill 5 blocks
    g = build_grid([(0.0, 1.0), (0.0, 1.0)], (257, 257))
    assert g.num_nodes() > stepping._BLOCK_VALUES
    spec = make_spec(g, p=3.4, q=3.0, epsilon=1e-3, mu=0.8, profile="sine", amplitude=2.0)
    weight = 1.0 + g.coords()[0]
    ctl = StepControl(t_end=1.0, max_steps=5, snapshot_every=1, functional_weight=weight)
    traj, rep = run(spec, ctl)
    qw, inner = quadrature_weights(g), g.interior_slice()
    u, t, dt, max_ut = spec.initial, 0.0, 0.0, math.nan
    ut_l2 = src_energy = 0.0
    rows = []
    for k in range(6):
        rows.append({"t": t, "max_u": np.max(u), "min_u": np.min(u),
                     "grad_inf": reference_gradient(u, g, 0.0)[2], "y": np.sum(qw * u * weight),
                     "ut_l2_acc": ut_l2, "max_ut": max_ut, "source_energy_acc": src_energy,
                     "dt": dt})
        if k == 5:
            break
        dt = reference_dt(u, spec, ctl.theta)
        u, rhs, s_half = reference_step(u, spec, dt)
        t += dt
        ut_l2 += dt * np.sum(qw[inner] * rhs * rhs)
        src_energy += dt * np.sum(qw * (s_half * s_half))
        max_ut = np.max(rhs)
        assert np.array_equal(traj.states[k + 1].u, u)
    assert len(MONITOR_COLUMNS) == 9
    for col in MONITOR_COLUMNS:
        assert np.array_equal(rep.monitors[col], [r[col] for r in rows], equal_nan=True), col


def test_run_gbu_reference_step_count_and_detection_time():
    # pinned step count and detection time: any change to the arithmetic of
    # the update or of the step bound shows here
    spec = sine_spec(201, q=4.0, amp=1.5)
    ctl = StepControl(t_end=0.35, theta=1.0, dt_min=1e-13, gbu_threshold=400.0,
                      report_thresholds=(100.0, 200.0, 400.0))
    _, rep = run(spec, ctl)
    assert rep.verdict == GBU_DETECTED and rep.reason == "threshold"
    assert rep.steps == 49131
    assert rep.t_detect == 0.0012135032549389752


def test_run_determinism_bit_identical():
    spec = sine_spec(41, q=2.7, eps=1e-3)
    ctl = StepControl(t_end=0.01)
    _, r1 = run(spec, ctl)
    _, r2 = run(spec, ctl)
    for col in r1.monitors:
        assert np.array_equal(r1.monitors[col], r2.monitors[col], equal_nan=True)


def test_run_time_series_strictly_increasing():
    spec = sine_spec(41)
    _, rep = run(spec, StepControl(t_end=0.005))
    t = rep.monitors["t"]
    assert np.all(np.diff(t) > 0)


def test_run_gbu_detection_and_crossings():
    spec = sine_spec(101, q=4.0, amp=3.0)
    ctl = StepControl(t_end=0.25, gbu_threshold=60.0, report_thresholds=(15.0, 30.0, 60.0))
    traj, rep = run(spec, ctl)
    assert rep.verdict == GBU_DETECTED
    assert rep.reason == "threshold"
    assert rep.t_detect == rep.monitors["t"][-1]
    t15 = rep.threshold_crossings[15.0]
    t30 = rep.threshold_crossings[30.0]
    t60 = rep.threshold_crossings[60.0]
    assert 0 < t15 <= t30 <= t60 == rep.t_detect


@pytest.mark.parametrize(("key", "value", "message"), [
    ("t_end", 0.0, "t_end must be positive"),
    ("theta", 1.5, r"theta must be in \(0, 1\]"),
    ("dt_min", 0.0, "dt_min must be positive"),
    ("gbu_threshold", -1.0, "gbu_threshold must be positive"),
    ("snapshot_every", -1, "snapshot_every must be >= 0"),
    ("monitor_stride", 0, "monitor_stride must be >= 1"),
    ("max_steps", -1, "max_steps must be >= 0"),
    ("report_thresholds", (-5.0, 200.0), "report_thresholds must be positive"),
    ("report_thresholds", (math.nan,), "report_thresholds must be positive"),
])
def test_step_control_rejects_out_of_range_values(key, value, message):
    with pytest.raises(ValueError, match=message):
        StepControl(**{"t_end": 1.0, key: value})


def test_run_max_steps_stalls():
    spec = sine_spec(41)
    traj, rep = run(spec, StepControl(t_end=1.0, max_steps=10))
    assert rep.verdict == STALLED
    assert rep.reason == "max_steps"
    assert rep.steps == 10


def test_run_hits_marks_exactly():
    spec = sine_spec(41)
    marks = (0.001, 0.0025, 0.004)
    traj, rep = run(spec, StepControl(t_end=0.005, t_marks=marks))
    times = [s.t for s in traj.states]
    for m in marks:
        assert m in times
    assert traj.state_at(0.0025).t == 0.0025


def test_run_discrete_max_principle_per_step_convex_bound():
    # explicit update never exceeds the stencil max plus dt * source
    spec = sine_spec(41, q=2.5)
    traj, rep = run(spec, StepControl(t_end=1.0, max_steps=50, snapshot_every=1))
    assert len(traj.states) == 51
    for st, nxt, dt in zip(traj.states, traj.states[1:], rep.monitors["dt"][1:]):
        src = gradient_source(st, spec.q, spec.epsilon, spec.mu)
        u = st.u
        stencil_max = np.maximum(np.maximum(u[:-2], u[1:-1]), u[2:])
        assert np.all(nxt.u[1:-1] <= stencil_max + dt * src[1:-1] + 1e-14)


def test_run_monitor_stride_thins_series_but_tracks_overall():
    spec = sine_spec(41)
    _, r1 = run(spec, StepControl(t_end=0.005))
    _, r5 = run(spec, StepControl(t_end=0.005, monitor_stride=5))
    assert len(r5.monitors["t"]) < len(r1.monitors["t"])
    assert r5.min_u_overall == r1.min_u_overall
    assert r5.max_u_overall == r1.max_u_overall
    assert r5.monitors["t"][-1] == r1.monitors["t"][-1]


def test_run_functional_weight_records_y():
    g = build_grid((0.0, 1.0), 41)
    spec = make_spec(g, p=3.0, q=2.5, profile="sine")
    w = np.ones(41)
    _, rep = run(spec, StepControl(t_end=0.002, functional_weight=w))
    y = rep.monitors["y"]
    assert np.all(np.isfinite(y))
    # y(0) = integral of sin(pi x) ~ 2/pi with trapezoid accuracy
    assert y[0] == pytest.approx(2 / np.pi, abs=1e-3)


# -- lockstep pair ---------------------------------------------------------------

def test_run_pair_identical_dt_and_ordering():
    g = build_grid((0.0, 1.0), 81)
    lo = make_spec(g, p=3.0, q=2.5, profile="sine", amplitude=1.0)
    hi = make_spec(g, p=3.0, q=2.5, profile="sine", amplitude=2.0)
    pair = run_pair(lo, hi, StepControl(t_end=0.01))
    assert pair.report_low.verdict == COMPLETED
    assert np.array_equal(pair.report_low.monitors["dt"], pair.report_high.monitors["dt"])
    h = g.spacing[0]
    assert np.min(pair.ordering_margin) >= -2 * h


def test_run_pair_ordering_margin_shows_a_broken_order():
    # negative control: ordered data whose solutions cross. The low problem
    # has twice the source and the high one none, so the low field rises
    # above the high one, and the margin must go well below the -2h that
    # the comparison tests allow (about -0.076 against -0.05)
    g = build_grid((0.0, 1.0), 41)
    low = make_spec(g, 3.0, 2.5, mu=2.0, profile="sine", amplitude=1.0)
    high = make_spec(g, 3.0, 2.5, mu=0.0, profile="sine", amplitude=1.0)
    pair = run_pair(low, high, StepControl(t_end=0.01))
    assert np.min(pair.ordering_margin) < -2 * g.spacing[0]


def test_run_pair_translation_invariance_exact_ordering():
    # v = u + 1 solves the same equation; ordering is exact
    g = build_grid((0.0, 1.0), 41)
    x = g.axis_coords(0)
    u0 = np.sin(np.pi * x) ** 2
    u0[0] = u0[-1] = 0.0
    lo = ProblemSpec(grid=g, p=3.0, q=2.5, epsilon=0.01, mu=1.0,
                     boundary_values=np.zeros(41), initial=u0)
    hi = ProblemSpec(grid=g, p=3.0, q=2.5, epsilon=0.01, mu=1.0,
                     boundary_values=np.ones(41), initial=u0 + 1.0)
    pair = run_pair(lo, hi, StepControl(t_end=0.005))
    assert np.min(pair.ordering_margin) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "control",
    [
        StepControl(t_end=0.25, gbu_threshold=60.0),
        # the threshold is crossed and the step is below dt_min at once:
        # the threshold wins, as in run
        StepControl(t_end=0.25, gbu_threshold=5.0, dt_min=1.0),
        StepControl(t_end=0.25, dt_min=2e-8),
    ],
    ids=["threshold", "threshold-and-floor", "dt-floor"],
)
def test_run_pair_gives_run_verdict(control):
    spec = sine_spec(101, q=4.0, amp=3.0)
    _, rep = run(spec, control)
    pair = run_pair(spec, spec, control)
    assert rep.verdict == GBU_DETECTED
    for r in (pair.report_low, pair.report_high):
        assert (r.verdict, r.reason, r.steps, r.t_detect) == (
            rep.verdict, rep.reason, rep.steps, rep.t_detect)
    assert np.array_equal(pair.report_high.monitors["dt"], rep.monitors["dt"])


def test_run_pair_nonfinite_field_is_a_verdict():
    # |u'| ~ 3e98: the source (W^2)^(q/2) overflows to inf, so the first
    # update is not finite while the step bound is still positive
    spec = sine_spec(41, q=4.0, amp=1e98)
    ctl = StepControl(t_end=0.01, dt_min=1e-320, gbu_threshold=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        _, rep = run(spec, ctl)
        pair = run_pair(spec, spec, ctl)
    assert (rep.verdict, rep.reason) == (STALLED, "nonfinite")
    for r in (pair.report_low, pair.report_high):
        assert (r.verdict, r.reason, r.steps) == (STALLED, "nonfinite", rep.steps)


def test_nonfinite_stop_keeps_last_accepted_field():
    # after 87 106 steps the source next to the boundary overflows, and the
    # update is not finite
    spec = sine_spec(41, q=4.0, amp=2e73)
    ctl = StepControl(t_end=0.01, dt_min=1e-320, gbu_threshold=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        traj, rep = run(spec, ctl)
        final = traj.states[-1]
        assert (rep.verdict, rep.reason) == (STALLED, "nonfinite")
        assert np.all(np.isfinite(final.u))
        assert final.t == rep.monitors["t"][-1]
        assert (np.min(final.u), np.max(final.u)) == (
            rep.monitors["min_u"][-1], rep.monitors["max_u"][-1])
        # the step the run rejected
        rejected = reference_step(final.u, spec, reference_dt(final.u, spec, ctl.theta))[0]
        assert not np.all(np.isfinite(rejected))


def test_step_bound_overflow_ends_in_dt_floor_verdict():
    # |u'| ~ 3e130: (W^2)^((q-1)/2) leaves the float range inside the step bound
    spec = sine_spec(41, q=4.0, amp=1e130)
    ctl = StepControl(t_end=0.01, gbu_threshold=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        _, rep = run(spec, ctl)
        pair = run_pair(spec, spec, ctl)
    for r in (rep, pair.report_low, pair.report_high):
        assert (r.verdict, r.reason, r.steps) == (STALLED, "dt_floor", 0)


# -- stop rules ----------------------------------------------------------------------

def run_outputs(traj, rep):
    """Everything a run reports but its wall time, compared bit for bit."""
    return ({k: v.tobytes() for k, v in rep.monitors.items()},
            [(s.t, s.u.tobytes()) for s in traj.states],
            rep.threshold_crossings, rep.verdict, rep.reason, rep.steps, rep.t_detect,
            rep.min_u_overall, rep.max_u_overall)


GBU_SPEC = sine_spec(101, q=4.0, amp=3.0)
DECAY_SPEC = sine_spec(101, q=2.5)
# the first step after 40 makes the field non-finite
OVERFLOW_SPEC = sine_spec(41, q=4.0, amp=3e76)
OVERFLOW_CONTROL = StepControl(t_end=0.01, dt_min=1e-320, gbu_threshold=1e300,
                               report_thresholds=(2e77,), snapshot_every=3)


@pytest.mark.parametrize(("spec", "control", "verdict", "reason", "steps", "odd_rows"), [
    (GBU_SPEC, StepControl(t_end=0.25, gbu_threshold=60.0, snapshot_every=7, monitor_stride=3,
                           report_thresholds=(15.0, 30.0, 60.0), t_marks=(0.004,)),
     GBU_DETECTED, "threshold", 1286, 7),
    (DECAY_SPEC, StepControl(t_end=0.002, t_marks=(0.0005, 0.0013), snapshot_every=50,
                             monitor_stride=4, report_thresholds=(3.0, 3.2)),
     COMPLETED, "t_end", 517, 7),
    (DECAY_SPEC, StepControl(t_end=1.0, max_steps=300, snapshot_every=9), STALLED, "max_steps",
     300, 7),
    (GBU_SPEC, StepControl(t_end=0.25, dt_min=2e-8, snapshot_every=11), GBU_DETECTED, "dt_floor",
     314, 7),
    # the first state's step is below dt_min, and W has not grown
    (GBU_SPEC, StepControl(t_end=0.25, dt_min=1.0), STALLED, "dt_floor", 0, 7),
    (OVERFLOW_SPEC, OVERFLOW_CONTROL, STALLED, "nonfinite", 40, 7),
    # blocks of 41 rows hold 40 steps: the non-finite step is the first of
    # the second block, so the run stops on the state that block starts from
    (OVERFLOW_SPEC, OVERFLOW_CONTROL, STALLED, "nonfinite", 40, 41),
], ids=["threshold", "t_end", "max_steps", "dt_floor_gbu", "dt_floor_stalled", "nonfinite",
        "block_start"])
def test_stops_do_not_depend_on_the_block_size(spec, control, verdict, reason, steps, odd_rows,
                                               monkeypatch):
    # blocks of 2 rows (one step each), of an odd number of rows, and of the
    # default size: run and run_pair give one result, and a pair of
    # different fields gives the same margins at every size
    low = replace(spec, initial=0.5 * spec.initial)
    results = []
    for rows in (2, odd_rows, None):
        with monkeypatch.context() as m:
            if rows:
                m.setattr(stepping, "_BLOCK_VALUES", rows * spec.grid.num_nodes())
            with np.errstate(over="ignore", invalid="ignore"):
                traj, rep = run(spec, control)
                pair = run_pair(spec, spec, control)
                ordered = run_pair(low, spec, control)
        assert (rep.verdict, rep.reason, rep.steps) == (verdict, reason, steps)
        assert np.all(np.isfinite(traj.states[-1].u))
        out = run_outputs(traj, rep)
        assert run_outputs(pair.traj_low, pair.report_low) == out
        assert run_outputs(pair.traj_high, pair.report_high) == out
        assert np.array_equal(pair.times, ordered.times)
        assert np.all(pair.ordering_margin == 0.0) and len(pair.ordering_margin) == steps + 1
        results.append((out, run_outputs(ordered.traj_low, ordered.report_low),
                        ordered.ordering_margin.tobytes(), ordered.times.tobytes()))
    assert results[0] == results[1] == results[2]


def test_a_rule_appended_to_the_table_stops_at_its_first_flagged_row(monkeypatch):
    # a rule over a reduction of the block's fields: the run stops once max u
    # falls below a level, at the step a test after every step stops at
    level = 0.9
    rule = ("settled", COMPLETED, lambda rows, control: np.max(rows.fields[0], axis=1) < level)
    monkeypatch.setattr(stepping, "STOP_RULES", stepping.STOP_RULES + (rule,))
    monkeypatch.setattr(stepping, "_BLOCK_VALUES", 7 * 41)  # 6 steps a block
    spec, ctl = sine_spec(41), StepControl(t_end=1.0)
    u, t, steps = spec.initial, 0.0, 0
    while np.max(u) >= level:
        dt = reference_dt(u, spec, ctl.theta)
        u, t, steps = reference_step(u, spec, dt)[0], t + dt, steps + 1
    assert steps % 6  # the flagged row is inside a block
    traj, rep = run(spec, ctl)
    assert (rep.verdict, rep.reason, rep.steps) == (COMPLETED, "settled", steps)
    assert traj.states[-1].t == t == rep.monitors["t"][-1]
    assert np.array_equal(traj.states[-1].u, u)
    pair = run_pair(spec, spec, ctl)
    assert run_outputs(pair.traj_high, pair.report_high) == run_outputs(traj, rep)


def test_a_rule_on_a_monitor_column_stops_run_and_run_pair_at_the_reference_row(monkeypatch):
    # a rule over a monitor column instead of the fields, here a field's max
    # u below a level: run and run_pair stop at the step that a test after
    # every step stops at; in a pair the field that falls below first stops
    # both
    level = 0.9
    rule = ("extremum", STALLED, lambda rows, control: rows.max_u < level)
    monkeypatch.setattr(stepping, "STOP_RULES", stepping.STOP_RULES + (rule,))
    monkeypatch.setattr(stepping, "_BLOCK_VALUES", 7 * 41)  # 6 steps a block
    spec, ctl = sine_spec(41), StepControl(t_end=1.0)
    low = replace(spec, initial=0.95 * spec.initial)
    for specs in ([spec], [low, spec]):
        fields, t, steps = [s.initial for s in specs], 0.0, 0
        while min(np.max(u) for u in fields) >= level:
            dt = min(reference_dt(u, s, ctl.theta) for u, s in zip(fields, specs))
            fields = [reference_step(u, s, dt)[0] for u, s in zip(fields, specs)]
            t, steps = t + dt, steps + 1
        assert steps % 6  # the flagged row is inside a block
        if len(specs) == 1:
            traj, rep = run(spec, ctl)
            runs = [(traj, rep)]
        else:
            pair = run_pair(low, spec, ctl)
            runs = [(pair.traj_low, pair.report_low), (pair.traj_high, pair.report_high)]
            assert len(pair.ordering_margin) == len(pair.times) == steps + 1
        for (traj, rep), u in zip(runs, fields):
            assert (rep.verdict, rep.reason, rep.steps) == (STALLED, "extremum", steps)
            assert traj.states[-1].t == t == rep.monitors["t"][-1]
            assert np.array_equal(traj.states[-1].u, u)
            assert rep.monitors["max_u"][-1] == np.max(u)


def test_run_pair_rejects_crossing_data():
    g = build_grid((0.0, 1.0), 41)
    a = make_spec(g, p=3.0, q=2.5, profile="sine", amplitude=2.0)
    b = make_spec(g, p=3.0, q=2.5, profile="ramp", amplitude=1.0)
    with pytest.raises(ValueError):
        run_pair(a, b, StepControl(t_end=0.01))


# -- detect_gbu --------------------------------------------------------------------

def ev(res, g, t):
    return ThresholdCrossing(resolution=res, threshold=g, t_detect=t)


def test_detect_gbu_synthetic_cauchy():
    verdict = detect_gbu([ev(101, 1.0, 0.50), ev(101, 2.0, 0.52), ev(101, 4.0, 0.525)])
    assert verdict.status == "GBU"
    # geometric extrapolation: 0.525 + 0.005 * 0.25/0.75
    assert verdict.t_max_estimate == pytest.approx(0.5266666666666666, abs=1e-12)


def test_detect_gbu_two_thresholds_extrapolate_one_step():
    # no ratio to test: one step of INCREMENT_RATIO_MAX (0.75) times the
    # increment, 0.52 + 0.02 * 0.75
    verdict = detect_gbu([ev(101, 1.0, 0.50), ev(101, 2.0, 0.52)])
    assert verdict.status == "GBU"
    assert verdict.t_max_estimate == pytest.approx(0.535, abs=1e-12)


def test_detect_gbu_all_completed_is_nogbu():
    verdict = detect_gbu([ev(101, 1.0, None), ev(201, 1.0, None)])
    assert verdict.status == "NoGBU"


def test_detect_gbu_linear_in_log_threshold_inconclusive():
    verdict = detect_gbu([ev(101, 1.0, 0.1), ev(101, 2.0, 0.2), ev(101, 4.0, 0.3)])
    assert verdict.status == "Inconclusive"


def test_detect_gbu_disagreeing_resolutions_inconclusive():
    verdict = detect_gbu(
        [
            ev(101, 1.0, 0.50), ev(101, 2.0, 0.52), ev(101, 4.0, 0.525),
            ev(201, 1.0, None), ev(201, 2.0, None), ev(201, 4.0, None),
        ]
    )
    assert verdict.status == "Inconclusive"


def test_detect_gbu_needs_two_runs():
    with pytest.raises(ValueError):
        detect_gbu([ev(101, 1.0, 0.5)])


def test_detect_gbu_rejects_repeated_record():
    # a grid listed twice would pool two copies of one run's crossings
    recs = [ev(101, 1.0, 0.50), ev(101, 2.0, 0.52), ev(101, 4.0, 0.525)]
    with pytest.raises(ValueError, match="repeated"):
        detect_gbu(recs + recs)


# -- epsilon continuation ------------------------------------------------------------

def test_continuation_eps_independent_for_linear_data():
    g = build_grid((0.0, 1.0), 31)
    spec = make_spec(g, p=3.0, q=2.5, mu=0.0, profile="ramp")
    rep = epsilon_continuation(spec, [1e-1, 1e-2, 1e-3], StepControl(t_end=0.002))
    assert all(d == pytest.approx(0.0, abs=1e-13) for d in rep.sup_distances)


def test_continuation_monotone_on_smooth_run():
    spec = sine_spec(51, q=2.5)
    rep = epsilon_continuation(spec, [1e-2, 1e-3, 1e-4], StepControl(t_end=0.005))
    assert rep.sup_distances[0] > rep.sup_distances[1] > 0
    assert rep.monotone


def test_continuation_requires_three_entries():
    spec = sine_spec(31)
    with pytest.raises(ValueError):
        epsilon_continuation(spec, [1e-2], StepControl(t_end=0.001))
    with pytest.raises(ValueError):
        epsilon_continuation(spec, [1e-2, 1e-2, 1e-3], StepControl(t_end=0.001))


@pytest.mark.parametrize("epsilons", [[1e-2, math.nan, 0.0], [math.inf, 1e-2, 0.0]])
def test_continuation_rejects_nonfinite_epsilons_before_any_run(epsilons):
    with pytest.raises(ValueError, match="epsilons must be finite"):
        epsilon_continuation(sine_spec(31), epsilons, StepControl(t_end=0.001))


# -- monitor CSV ----------------------------------------------------------------------

def test_monitor_csv_roundtrip(tmp_path):
    spec = sine_spec(31)
    weight = np.sin(np.pi * spec.grid.axis_coords(0))  # so that y is recorded
    _, rep = run(spec, StepControl(t_end=0.002, functional_weight=weight))
    path = tmp_path / "monitors.csv"
    write_monitors_csv(path, rep.monitors)
    header = path.read_text().splitlines()[0]
    assert header == "t,max_u,min_u,grad_inf,y,ut_l2_acc,max_ut,source_energy_acc,dt"
    back = read_monitors_csv(path)
    assert list(back) == list(MONITOR_COLUMNS)
    for col in MONITOR_COLUMNS:
        a, b = rep.monitors[col], back[col]
        nan = np.isnan(a)
        assert np.array_equal(nan, np.isnan(b)), col
        assert a[~nan].tobytes() == b[~nan].tobytes(), col  # bit-exact, -0.0 included
    assert not np.all(np.isnan(back["y"]))


def test_monitor_csv_writes_each_value_as_its_repr(tmp_path):
    # the text is pinned to repr(float(v)) per value: nan, -0.0, a large and a
    # subnormal value included, and integer columns written as floats
    values = [math.nan, -0.0, 1e16, 5e-324, 0.1 + 0.2, -math.inf, 1.0, 2.5e-7, 3.0]
    monitors = {c: np.roll(values, -k) for k, c in enumerate(MONITOR_COLUMNS)}
    monitors["dt"] = np.arange(9)
    path = tmp_path / "monitors.csv"
    write_monitors_csv(path, monitors)
    cols = [monitors[c] for c in MONITOR_COLUMNS]
    expected = ",".join(MONITOR_COLUMNS) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*cols)
    )
    assert path.read_text() == expected
    first_row = "nan,-0.0,1e+16,5e-324,0.30000000000000004,-inf,1.0,2.5e-07,0.0"
    assert expected.splitlines()[1] == first_row


@pytest.mark.parametrize("chunk", [1, 4, 9, 10])
def test_monitor_csv_text_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch, chunk):
    # rows are formatted a chunk at a time: chunks that split the rows
    # unevenly, evenly, or hold them all give the text of one row at a time
    values = [math.nan, -0.0, 1e16, 5e-324, 0.1 + 0.2, -math.inf, math.inf, 2.5e-7, 3.0]
    monitors = {c: np.roll(values, k) for k, c in enumerate(MONITOR_COLUMNS)}
    path = tmp_path / "monitors.csv"
    monkeypatch.setattr(stepping, "_CSV_CHUNK_ROWS", chunk)
    write_monitors_csv(path, monitors)
    cols = [monitors[c] for c in MONITOR_COLUMNS]
    assert path.read_text() == ",".join(MONITOR_COLUMNS) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*cols))


def test_monitor_csv_rejects_rows_of_the_wrong_length(tmp_path):
    path = tmp_path / "monitors.csv"
    path.write_text(",".join(MONITOR_COLUMNS) + "\n0.0,1.0,0.0\n0.1,1.0,0.0\n")
    with pytest.raises(ValueError, match="monitor rows hold 3 values, not 9"):
        read_monitors_csv(path)
    path.write_text(",".join(MONITOR_COLUMNS) + "\n")
    with pytest.raises(ValueError, match="monitors.csv holds no monitor rows"):
        read_monitors_csv(path)


def test_monitor_csv_rejects_old_six_column_file(tmp_path):
    path = tmp_path / "monitors.csv"
    path.write_text("t,max_u,min_u,grad_inf,y,ut_l2_acc\n0.0,1.0,0.0,3.1,nan,0.0\n")
    with pytest.raises(ValueError, match="unexpected monitor columns"):
        read_monitors_csv(path)
