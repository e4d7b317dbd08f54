"""Explicit time integration with CFL step control, gradient blow-up
detection, eps-continuation, and the monitors.csv reader and writer.

Forward Euler on the interior; the boundary nodes hold g after every step.
The step size never exceeds the stable step that `operators.StepKernel`
computes from the field's W after each step (its module docstring gives
the formula), with theta from the run's `StepControl`.
A run ends at the first state that a rule of the table `STOP_RULES` flags.
In priority order: ||grad u||_inf at the configured threshold
(GBUDetected), t at t_end (Completed), the step count at max_steps, the
stable step below dt_min (GBUDetected if the gradient grew on the last
step, else StalledStep), and a field that goes non-finite (StalledStep, at
the last finite state). The loop steps a block of rows, and before any rule
runs each row holds every monitor column of every field (`StepRows`: t,
max and min u, W, y, the two accumulators, max u_t and dt), with the step
bound and the step count. A rule reads those columns for every row at
once, and the earliest flagged row ends the run. Snapshots, threshold
crossings, overall extrema, monitor rows and `run_pair`'s ordering margins
are read from the same rows up to that one: the run ends with the state, t
and monitors of a test after every step.

`run` and `run_pair` share that loop over `operators.StepKernel` and the
table, so a lockstep pair ends with the same verdicts as a single run.
Identical spec + control produce bit-identical monitor series.
"""
from __future__ import annotations

import bisect
import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .grid import Grid
from .operators import StepKernel, quadrature_weights
from .problem import ProblemSpec, SolutionState

COMPLETED = "Completed"
GBU_DETECTED = "GBUDetected"
STALLED = "StalledStep"


class StalledStepError(RuntimeError):
    """Non-finite field values or a rejected step."""


@dataclass(frozen=True)
class StepControl:
    """Run control: horizon, CFL safety, detection threshold, snapshots."""

    t_end: float
    theta: float = 0.5
    dt_min: float = 1e-14
    gbu_threshold: float = 1e6  # inf: no threshold stop
    snapshot_every: int = 0
    t_marks: tuple[float, ...] = ()
    report_thresholds: tuple[float, ...] = ()
    functional_weight: np.ndarray | None = None  # phi1^alpha field; records y(t)
    monitor_stride: int = 1
    max_steps: int = 0  # 0 = unlimited

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0 < self.theta <= 1:
            raise ValueError("theta must be in (0, 1]")
        if not 0 < self.dt_min < math.inf:
            raise ValueError("dt_min must be positive and finite")
        if not self.gbu_threshold > 0:
            raise ValueError("gbu_threshold must be positive")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.monitor_stride < 1:
            raise ValueError("monitor_stride must be >= 1")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if not all(0 < g < math.inf for g in self.report_thresholds):
            raise ValueError("report_thresholds must be positive and finite")
        object.__setattr__(self, "t_marks", tuple(sorted(float(t) for t in self.t_marks)))
        object.__setattr__(
            self, "report_thresholds", tuple(sorted(float(g) for g in self.report_thresholds))
        )


SNAPSHOT_RTOL = 1e-9  # relative time tolerance of Trajectory.state_at


@dataclass
class Trajectory:
    """Snapshot states (always including t=0 and the final time) and the
    monitor rows of a run on `grid`: the record the compliance checks read,
    their constants included. A check of a stored monitors.csv reads the
    states of the states.field beside it for the energy check, which alone
    reads a state (u0), and none otherwise."""

    grid: Grid
    states: list[SolutionState]
    monitors: dict[str, np.ndarray]

    def state_at(self, t: float) -> SolutionState:
        for s in self.states:
            if math.isclose(s.t, t, rel_tol=SNAPSHOT_RTOL, abs_tol=1e-300):
                return s
        raise KeyError(f"no snapshot at t={t}")


@dataclass
class RunReport:
    verdict: str
    t_detect: float | None
    monitors: dict[str, np.ndarray]
    wall_time: float
    reason: str
    steps: int
    threshold_crossings: dict[float, float]
    min_u_overall: float
    max_u_overall: float

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "t_detect": self.t_detect,
            "steps": self.steps,
            "wall_time": self.wall_time,
            "threshold_crossings": {
                repr(float(g)): t for g, t in sorted(self.threshold_crossings.items())
            },
            "min_u_overall": self.min_u_overall,
            "max_u_overall": self.max_u_overall,
        }


# what np.max, np.min and np.sum call, minus their per-call Python wrapper
_max, _min, _sum = np.maximum.reduce, np.minimum.reduce, np.add.reduce

# values held by each of a track's step-block buffers: 326 rows at n=201,
# the state a block starts from and 325 steps; a 2D grid of more nodes than
# this still gets 2 rows, because the kernel reads the current field while it
# writes the next
_BLOCK_VALUES = 65536


class StepRows(NamedTuple):
    """Rows 0..m of a step block, as the stop rules read them: row 0 is the
    state the block starts from, row j the state after its j-th step. The
    first nine are the monitor columns, each with one row per field; a rule
    reads them instead of reducing the fields again."""

    t: np.ndarray
    max_u: np.ndarray
    min_u: np.ndarray
    grad_inf: np.ndarray  # the field's W, its largest |grad u|
    y: np.ndarray
    ut_l2_acc: np.ndarray
    max_ut: np.ndarray  # max u_t of the step to the row; NaN on the run's first row
    source_energy_acc: np.ndarray
    dt: np.ndarray
    bound: np.ndarray  # the step size the row's fields allow
    steps: np.ndarray  # the run's count of steps
    fields: list[np.ndarray]  # each field's rows 0..m, views of its kernel's slots


# the columns of monitors.csv, in order; a run's monitor rows use the same order
MONITOR_COLUMNS = StepRows._fields[:9]


def _grew(rows: StepRows) -> np.ndarray:
    """W (the largest |grad u| over the fields) above the row before; never
    at row 0, which is the run's first state or a row that an earlier
    block's rules passed."""
    w = _max(rows.grad_inf, 0)
    return np.concatenate(([False], w[1:] > w[:-1]))


def _nonfinite(rows: StepRows, control: StepControl) -> np.ndarray:
    """A row whose fields have finite nodes but a W that is not finite (no
    step can follow it), and the row before one where a field has a
    non-finite node, which makes its min or max u non-finite. Every node
    enters some gradient stencil, so a non-finite node makes W non-finite,
    and the earliest of these rows is the run's last finite state."""
    bad_w = ~np.isfinite(rows.grad_inf).all(0)
    bad_u = ~np.isfinite((rows.min_u, rows.max_u)).all((0, 1))
    return (bad_w & ~bad_u) | np.append(bad_u[1:], False)


# The stop rules, in their priority: (reason, verdict, test), where a test
# maps a block's rows to one flag per row, or per field and row (a row is
# flagged when a field's is). A run stops at the earliest flagged row and, of
# the rules that flag it, takes the first; a GBU verdict is detected at that
# row's t.
STOP_RULES = (
    ("threshold", GBU_DETECTED, lambda rows, c: _max(rows.grad_inf, 0) >= c.gbu_threshold),
    ("t_end", COMPLETED, lambda rows, c: rows.t >= c.t_end),
    ("max_steps", STALLED, lambda rows, c: rows.steps >= (c.max_steps or math.inf)),
    ("dt_floor", GBU_DETECTED, lambda rows, c: (rows.bound < c.dt_min) & _grew(rows)),
    ("dt_floor", STALLED, lambda rows, c: (rows.bound < c.dt_min) & ~_grew(rows)),
    ("nonfinite", STALLED, _nonfinite),
)


class _Track:
    """One field of a run: its kernel, monitor rows, crossings and snapshots.

    The kernel's slots are the rows of a step block: slot 0 holds the state
    the block starts from, and slot j the field of the block's j-th step with
    the rhs and (|grad u|^2+eps)^(q/2) values it was computed from. The
    monitor columns are reduced a block at a time, with the same bits as one
    step at a time: a row-wise reduction sums each row as a reduction over
    that row alone does, and an accumulate adds in sequence."""

    def __init__(self, spec: ProblemSpec, control: StepControl, rows: int):
        grid = spec.grid
        self.spec = spec
        self.kernel = kernel = StepKernel.of(spec, slots=rows, theta=control.theta)
        kernel.load(spec.initial)
        self.weight = control.functional_weight
        if self.weight is not None and self.weight.shape != grid.shape:
            raise ValueError("functional_weight must be a grid field")
        self.qw = quadrature_weights(grid)
        self.qw_inner = self.qw[grid.interior_slice()]
        self._u, self._s_half, self._rhs = kernel.fields, kernel.s_half_slots, kernel.rhs_slots
        self._tmp, self._tmp_inner = np.empty_like(self._u), np.empty_like(self._rhs)
        self.blocks: list[np.ndarray] = []  # monitor rows, one MONITOR_COLUMNS row each
        self.snapshots: list[SolutionState] = []
        self.crossings: dict[float, float] = {}
        self.thresholds = control.report_thresholds
        self.min_overall, self.max_overall = math.inf, -math.inf

    def columns(self, c: np.ndarray) -> None:
        """Fill this field's monitor columns c (MONITOR_COLUMNS by rows 0..m)
        of a block from its slots. t, grad_inf and dt are written already,
        and row 0 holds the accumulators and max u_t of the row the block
        before ended on: zero sums and NaN on the run's first row."""
        m = c.shape[1] - 1
        u = self._u[: m + 1]
        axes = tuple(range(1, u.ndim))
        _max(u, axes, None, c[1])  # max_u
        _min(u, axes, None, c[2])  # min_u
        # a block's last row may hold a non-finite node; the rules stop the
        # run before such a row, so its other columns are not reduced
        m -= not np.isfinite(c[1:3, m]).all()
        _, _, _, _, y, ut, max_ut, src, dt = c[:, : m + 1]
        u, rhs, s_half = u[: m + 1], self._rhs[1 : m + 1], self._s_half[1 : m + 1]
        if self.weight is not None:
            tmp = np.multiply(self.qw, u, out=self._tmp[: m + 1])
            _sum(np.multiply(tmp, self.weight, out=tmp), axes, None, y)
        _max(rhs, axes, None, max_ut[1:])
        # the accumulators: row 0's sums, then dt * ut_l2 and dt * source energy per step
        tmp = np.multiply(self.qw_inner, rhs, out=self._tmp_inner[:m])
        _sum(np.multiply(tmp, rhs, out=tmp), axes, None, ut[1:])
        tmp = np.multiply(s_half, s_half, out=self._tmp[:m])
        _sum(np.multiply(self.qw, tmp, out=tmp), axes, None, src[1:])
        for acc in (ut, src):
            np.multiply(dt[1:], acc[1:], acc[1:])
            np.add.accumulate(acc, out=acc)

    def read(self, c: np.ndarray, on_stride: np.ndarray, last: np.ndarray,
             snapshots: np.ndarray) -> None:
        """Read this field's monitor columns c of the rows a block hands on:
        report-threshold crossings, overall extrema, the `snapshots` rows, and
        the monitor rows on the stride and at the run's `last` row, which
        records no max u_t off the stride."""
        t, mx, mn, w = c[:4]
        for g in self.thresholds:
            for j in np.flatnonzero(w >= g)[:1]:
                self.crossings.setdefault(g, t[j].item())
        self.min_overall = min(self.min_overall, _min(mn).item())
        self.max_overall = max(self.max_overall, _max(mx).item())
        for j in snapshots:
            self.snapshots.append(SolutionState(self.spec.grid, self._u[j].copy(), t[j].item()))
        keep = on_stride | last
        rows = c[:, keep]
        rows[MONITOR_COLUMNS.index("max_ut"), ~on_stride[keep]] = math.nan
        self.blocks.append(rows)

    def finish(self, outcome: dict):
        """The run's (trajectory, report), given its verdict, reason, steps,
        t_detect and wall time."""
        # one array per column: a single (rows, columns) array would need one
        # allocation of every row's size, which a heap fragmented by earlier
        # runs' snapshots fits less often
        monitors = {name: np.concatenate([b[k] for b in self.blocks])
                    for k, name in enumerate(MONITOR_COLUMNS)}
        report = RunReport(
            **outcome,
            monitors=monitors,
            threshold_crossings=self.crossings,
            min_u_overall=self.min_overall,
            max_u_overall=self.max_overall,
        )
        return Trajectory(self.spec.grid, self.snapshots, monitors), report


def _integrate(specs, control: StepControl):
    """Step each spec's field with one shared dt, the least of their stable
    steps, a block at a time, until a row of a block meets a stop rule.
    Returns each spec's (trajectory, report) and, for two specs, the t of
    the start and of every accepted step with min(u_1 - u_0) over the nodes.

    Per step the loop computes the target time, steps each kernel, which
    returns its next stable step, and writes t, dt, each field's W and the
    least of those bounds into the block's rows. It leaves a block early only when no further step
    may follow: t at t_end, the step count at max_steps, or a bound below
    dt_min (which includes a W that is not finite). Each field's monitor
    columns are then reduced into the block's table, the rules read it, and
    everything a run reports is read from it up to the stop row r. A block
    that does not stop hands on its rows 0..m-1, and the next block starts
    from its row m, every column included; the last block hands on rows
    0..r."""
    t_start = time.perf_counter()
    rows = max(2, _BLOCK_VALUES // specs[0].grid.num_nodes())
    tracks = [_Track(spec, control, rows) for spec in specs]
    t_end, dt_min, max_steps = control.t_end, control.dt_min, control.max_steps
    # the times a step ends at exactly: the marks, then t_end
    marks = [t for t in control.t_marks if 0.0 < t < t_end] + [t_end]
    every = control.snapshot_every or math.inf
    # the block's rows: t, dt, the bound and each field's W
    ts, dts, bs, *ws = [[0.0] * rows for _ in range(3 + len(tracks))]
    lanes = [(tr.kernel, w) for tr, w in zip(tracks, ws)]
    # each field's monitor columns: row 0 of the first block is the run's
    # first row, with no step and so no max u_t
    table = np.full((len(tracks), len(MONITOR_COLUMNS), rows), math.nan)
    t, dt, steps, r = 0.0, 0.0, 0, 0
    table[:, [MONITOR_COLUMNS.index(c) for c in ("ut_l2_acc", "source_energy_acc")], 0] = 0.0
    bound = min(k.bound for k, _ in lanes)
    times, margins = [], []
    while True:
        for k, w in lanes:
            k.rebase()  # row 0: the state the block starts from
            w[0] = k.w
        table[:, :, 0] = table[:, :, r]
        ts[0], dts[0], bs[0] = t, dt, bound
        target = marks[bisect.bisect_right(marks, t)]
        m = 0
        todo = min(rows - 1, max_steps - steps if max_steps else rows) if bound >= dt_min else 0
        for m in range(1, todo + 1):
            # t is assigned the target exactly, so marks and t_end are hit bit-exactly
            dt, t = (target - t, target) if bound >= target - t else (bound, t + bound)
            bound = math.inf
            for k, w in lanes:
                b = k.step(dt)
                w[m] = k.w
                if b < bound or b != b:  # the least bound, or NaN from a W that is not finite
                    bound = b
            ts[m], dts[m], bs[m] = t, dt, bound
            if t >= t_end or not bound >= dt_min:
                break
            if t >= target:
                target = marks[bisect.bisect_right(marks, t)]

        n = m + 1
        block = StepRows(*table[:, :, :n].transpose(1, 0, 2), np.array(bs[:n]),
                         steps + np.arange(n), [k.fields[:n] for k, _ in lanes])
        block.t[:], block.dt[:], block.grad_inf[:] = ts[:n], dts[:n], [w[:n] for w in ws]
        for tr, c in zip(tracks, table[:, :, :n]):
            tr.columns(c)
        # the earliest flagged row, and the first rule that flags it
        flags = np.array([np.atleast_2d(test(block, control)).any(0) for *_, test in STOP_RULES])
        stop = np.flatnonzero(flags.any(0))[:1]
        r = stop[0].item() if stop.size else m
        end = r + 1 if stop.size else r
        k_rows, last = block.steps[:end], np.arange(end) == (r if stop.size else -1)
        snaps = np.flatnonzero((k_rows % every == 0) | np.isin(block.t[0, :end], marks) | last)
        for tr, c in zip(tracks, table[:, :, :end]):
            tr.read(c, k_rows % control.monitor_stride == 0, last, snaps)
        if len(lanes) == 2:  # run_pair's times and ordering margins
            times.append(block.t[0, :end].copy())
            low, high = (f[:end] for f in block.fields)
            margins.append(_min(high - low, tuple(range(1, low.ndim))))
        steps += r
        if stop.size:
            break
    reason, verdict, _ = STOP_RULES[flags[:, r].argmax()]
    outcome = dict(verdict=verdict, reason=reason, steps=steps,
                   t_detect=ts[r] if verdict == GBU_DETECTED else None,
                   wall_time=time.perf_counter() - t_start)
    results = [tr.finish(outcome) for tr in tracks]
    return results, (np.concatenate(times), np.concatenate(margins)) if margins else None


def run(spec: ProblemSpec, control: StepControl) -> tuple[Trajectory, RunReport]:
    """Integrate until t_end, threshold crossing, or stall."""
    return _integrate([spec], control)[0][0]


@dataclass
class PairReport:
    """Lockstep twin run: identical dt sequence for both problems."""

    traj_low: Trajectory
    traj_high: Trajectory
    report_low: RunReport
    report_high: RunReport
    ordering_margin: np.ndarray  # per accepted step: min(v - u) over nodes
    times: np.ndarray


def run_pair(
    spec_low: ProblemSpec, spec_high: ProblemSpec, control: StepControl
) -> PairReport:
    """Run two ordered problems in lockstep (dt = min of both stability bounds).

    Same verdicts as `run`, with W the larger of the two fields' gradients.
    Preconditions: same grid, u0_low <= u0_high, g_low <= g_high.
    """
    if spec_low.grid is not spec_high.grid and spec_low.grid != spec_high.grid:
        raise ValueError("lockstep runs need a common grid")
    if np.any(spec_low.initial > spec_high.initial):
        raise ValueError("initial data must be ordered: u0_low <= u0_high")
    if np.any(spec_low.boundary_values > spec_high.boundary_values):
        raise ValueError("boundary data must be ordered: g_low <= g_high")
    ((traj_low, report_low), (traj_high, report_high)), (times, margins) = _integrate(
        [spec_low, spec_high], control)
    return PairReport(traj_low, traj_high, report_low, report_high, margins, times)


# -- GBU verdict over threshold/resolution families ---------------------------

@dataclass(frozen=True)
class ThresholdCrossing:
    resolution: int
    threshold: float
    t_detect: float | None


@dataclass(frozen=True)
class GbuVerdict:
    status: str  # "GBU" | "NoGBU" | "Inconclusive"
    t_max_estimate: float | None
    per_resolution: dict


INCREMENT_RATIO_MAX = 0.75  # largest ratio of consecutive crossing-time increments
RESOLUTION_TOL = 0.25  # relative spread of the T_max estimates across resolutions


def detect_gbu(evidence: list[ThresholdCrossing]) -> GbuVerdict:
    """Cauchy-style verdict from detection times at nested thresholds/grids.

    A resolution supports GBU when every threshold was crossed, detection
    times are nondecreasing, and increments shrink (ratio <=
    INCREMENT_RATIO_MAX); its T_max estimate is the geometric extrapolation
    of the crossing times. Resolutions must agree within RESOLUTION_TOL or
    the verdict is Inconclusive. Each (resolution, threshold) pair may appear once.
    """
    if len(evidence) < 2:
        raise ValueError("need at least 2 runs (nested thresholds or grids)")
    pairs = [(rec.resolution, rec.threshold) for rec in evidence]
    if len(set(pairs)) < len(pairs):
        raise ValueError("repeated (resolution, threshold) record in the evidence")
    groups: dict[int, list[ThresholdCrossing]] = {}
    for rec in evidence:
        groups.setdefault(rec.resolution, []).append(rec)

    per_res = {}
    statuses = []
    estimates = []
    for res in sorted(groups):
        recs = sorted(groups[res], key=lambda r: r.threshold)
        times = [r.t_detect for r in recs]
        if all(t is None for t in times):
            per_res[res] = {"status": "NoGBU", "t_detect": times}
            statuses.append("NoGBU")
            continue
        if any(t is None for t in times) or any(t1 < t0 for t0, t1 in zip(times, times[1:])):
            per_res[res] = {"status": "Inconclusive", "t_detect": times}
            statuses.append("Inconclusive")
            continue
        incs = [t1 - t0 for t0, t1 in zip(times, times[1:])]
        est = times[-1]
        ok = True
        if len(incs) >= 2:
            for d0, d1 in zip(incs, incs[1:]):
                if d0 == 0.0:
                    continue
                if d1 > INCREMENT_RATIO_MAX * d0:
                    ok = False
            if ok and incs[-2] > 0:
                r = min(incs[-1] / incs[-2], 0.9)
                est = times[-1] + incs[-1] * r / (1.0 - r)
        elif len(incs) == 1 and incs[0] > 0:
            # two thresholds only: no ratio information, extrapolate one step
            est = times[-1] + incs[0] * INCREMENT_RATIO_MAX
        status = "GBU" if ok else "Inconclusive"
        per_res[res] = {"status": status, "t_detect": times, "t_max_estimate": est}
        statuses.append(status)
        if status == "GBU":
            estimates.append(est)

    if all(s == "NoGBU" for s in statuses):
        return GbuVerdict(status="NoGBU", t_max_estimate=None, per_resolution=per_res)
    if all(s == "GBU" for s in statuses):
        mid = float(np.median(estimates))
        if mid > 0 and (max(estimates) - min(estimates)) <= RESOLUTION_TOL * mid:
            return GbuVerdict(
                status="GBU", t_max_estimate=estimates[-1], per_resolution=per_res
            )
    return GbuVerdict(status="Inconclusive", t_max_estimate=None, per_resolution=per_res)


# -- eps continuation ---------------------------------------------------------

@dataclass
class ContinuationReport:
    epsilons: list[float]
    sup_distances: list[float]  # consecutive pairs ||u_k - u_{k+1}||_inf
    rates: list[float]
    monotone: bool
    extrapolated: np.ndarray
    final_fields: list[np.ndarray]

    def to_dict(self) -> dict:
        return {
            "epsilons": self.epsilons,
            "sup_distances": self.sup_distances,
            "rates": self.rates,
            "monotone": self.monotone,
        }


def continuation_epsilons(epsilons) -> list[float]:
    """The eps of a continuation study as floats: at least 3 of them,
    finite, strictly decreasing and nonnegative."""
    eps = [float(e) for e in epsilons]
    if len(eps) < 3:
        raise ValueError("need at least 3 epsilon values")
    if not all(map(math.isfinite, eps)):
        raise ValueError(f"epsilons must be finite, got {eps}")
    if any(e1 >= e0 for e0, e1 in zip(eps, eps[1:])) or any(e < 0 for e in eps):
        raise ValueError("epsilons must be strictly decreasing and nonnegative")
    return eps


def epsilon_continuation(
    spec: ProblemSpec, epsilons, control: StepControl
) -> ContinuationReport:
    """Run the same problem for each eps (see `continuation_epsilons`) and
    study convergence of the final-time fields as eps -> 0."""
    eps = continuation_epsilons(epsilons)
    finals = []
    for e in eps:
        traj, report = run(replace(spec, epsilon=e), control)
        if report.verdict != COMPLETED:
            raise StalledStepError(
                f"continuation run at eps={e} ended with {report.verdict}"
            )
        finals.append(traj.states[-1].u.copy())

    dists = [
        float(np.max(np.abs(a - b))) for a, b in zip(finals, finals[1:])
    ]
    rates = []
    for k in range(len(dists) - 1):
        if dists[k + 1] > 0 and dists[k] > 0 and eps[k] > eps[k + 1] > 0:
            rates.append(
                math.log(dists[k] / dists[k + 1]) / math.log(eps[k] / eps[k + 1])
            )
        else:
            rates.append(math.nan)
    monotone = all(d0 > d1 for d0, d1 in zip(dists, dists[1:]))

    extrap = finals[-1].copy()
    if rates and math.isfinite(rates[-1]) and rates[-1] > 0 and eps[-1] > 0:
        r = rates[-1]
        denom = eps[-2] ** r - eps[-1] ** r
        if denom != 0:
            extrap = finals[-1] + (finals[-1] - finals[-2]) * (eps[-1] ** r / denom)
    return ContinuationReport(
        epsilons=eps,
        sup_distances=dists,
        rates=rates,
        monotone=monotone,
        extrapolated=extrap,
        final_fields=finals,
    )


# -- monitor CSV --------------------------------------------------------------

# monitor rows formatted per write: the text of a whole 35 000-row run at
# once would add its size to the peak memory of the writer
_CSV_CHUNK_ROWS = 4096


def write_monitors_csv(path, monitors: dict[str, np.ndarray]) -> None:
    """The MONITOR_COLUMNS of a run, one line per row, each value as its
    repr: the shortest text that reads back to the same float."""
    cols = [np.asarray(monitors[c], dtype=float) for c in MONITOR_COLUMNS]
    line = ",".join(["%r"] * len(cols)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(MONITOR_COLUMNS) + "\n")
        for start in range(0, len(cols[0]), _CSV_CHUNK_ROWS):
            chunk = [c[start : start + _CSV_CHUNK_ROWS].tolist() for c in cols]
            f.writelines(line % row for row in zip(*chunk))


def read_monitors_csv(path) -> dict[str, np.ndarray]:
    """The columns of a monitors.csv, bit for bit as written. numpy's text
    reader rounds each value correctly, as float() does, and builds the
    array without one Python float per value (13 MB for a 35 000-row run).
    A file without rows is an error: every run writes its first state."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        if tuple(header) != MONITOR_COLUMNS:
            raise ValueError(f"unexpected monitor columns {header}")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(f, delimiter=",", ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path} holds no monitor rows")
    if data.shape[1] != len(MONITOR_COLUMNS):
        raise ValueError(f"monitor rows hold {data.shape[1]} values, not {len(MONITOR_COLUMNS)}")
    return {name: data[:, k] for k, name in enumerate(MONITOR_COLUMNS)}
