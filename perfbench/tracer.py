"""Outside-in tracing of gbulab's layers, from the benchmark's own files.

`Tracer.install` replaces each traced public function, at every module
attribute its callers look it up by, with a wrapper that records a span:
name, start, end, parent span and iteration. Spans stay in memory and are
written when the benchmark ends. Per-step operator calls (HOT) are rolled up
into their nearest stored ancestor as (count, seconds), so a traced
iteration keeps hundreds of span records instead of millions; self time stays
exact because every open span sums the durations of its direct children.

`run()` inlines the source term and the monitor reductions, so their cost
shows only in `stepping.run.self_us_per_step`.
"""
from __future__ import annotations

import functools
import hashlib
import os
import time

# span name -> the gbulab modules whose attribute of that name callers use.
# Callers bind names at import time, so each binding is wrapped.
TARGETS = {
    "operators.gradient": ("operators",),  # SolutionState.grad imports it lazily
    "operators.face_fluxes": ("operators",),
    "operators.regularized_diffusion": ("operators", "stepping"),
    "stepping.stable_dt": ("stepping",),
    "stepping.run": ("stepping", "spectral", "analysis"),
    "stepping.write_monitors_csv": ("stepping",),
    "stepping.read_monitors_csv": ("stepping",),
    "spectral.principal_eigenpair": ("spectral",),
    "spectral.criterion_experiment": ("spectral",),
    "spectral.blowup_ode_fit": ("spectral",),
    "analysis.max_principle_check": ("analysis",),
    "analysis.gradient_profile_check": ("analysis",),
    "barriers.certify": ("barriers",),
    "fieldio.write_field": ("fieldio",),
    "schema.validate_output": ("cli",),  # the program's own calls only
    "cli.main": ("cli",),  # one span per verb, the parent of the artifact spans
    "cli.parse_config": ("cli",),
    "cli.write_json": ("cli",),
}
HOT = frozenset({
    "operators.gradient",
    "operators.face_fluxes",
    "operators.regularized_diffusion",
    "stepping.stable_dt",
})

# (name, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("stepping.run.us_per_step", "us/step", "lower"),
    ("stepping.run.self_us_per_step", "us/step", "lower"),
    ("stepping.stable_dt.us_per_call", "us/call", "lower"),
    ("operators.gradient.calls", "count/iter", "lower"),
    ("operators.gradient.us_per_call", "us/call", "lower"),
    ("operators.regularized_diffusion.calls", "count/iter", "lower"),
    ("operators.regularized_diffusion.us_per_call", "us/call", "lower"),
    ("operators.regularized_diffusion.computed_bytes_per_call", "bytes/call", "lower"),
    ("operators.face_fluxes.us_per_call", "us/call", "lower"),
    ("stepping.steps", "count/iter", "lower"),
    ("stepping.source_limited_frac", "frac", "lower"),
    ("stepping.duplicate_step_frac", "frac", "lower"),
    ("stepping.snapshots", "count/iter", "lower"),
    ("spectral.criterion_experiment.probes", "count/iter", "lower"),
    ("spectral.criterion_experiment.steps", "count/iter", "lower"),
    ("spectral.principal_eigenpair.ms_per_call", "ms/call", "lower"),
    ("spectral.principal_eigenpair.iterations", "count/call", "lower"),
    ("spectral.blowup_ode_fit.ms_per_call", "ms/call", "lower"),
    ("analysis.gradient_profile_check.ms_per_call", "ms/call", "lower"),
    ("analysis.max_principle_check.ms_per_call", "ms/call", "lower"),
    ("barriers.certify.ms_per_call", "ms/call", "lower"),
    ("cli.parse_config.ms_per_call", "ms/call", "lower"),
    ("cli.write_json.ms_per_call", "ms/call", "lower"),
    ("cli.write_json.bytes", "bytes/iter", "lower"),
    ("schema.validate_output.ms_per_call", "ms/call", "lower"),
    ("stepping.write_monitors_csv.ms_per_call", "ms/call", "lower"),
    ("stepping.read_monitors_csv.ms_per_call", "ms/call", "lower"),
    ("fieldio.write_field.calls", "count/iter", "lower"),
    ("fieldio.write_field.ms_per_call", "ms/call", "lower"),
    ("io.out_mb", "MB/iter", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


# An open span is a list: [child seconds, anchor, name] for a hot span and
# [child seconds, anchor, name, sid, rollup] for a stored one. The anchor is
# the nearest stored span, itself for a stored span, None at top level.
_CHILD, _ANCHOR, _NAME, _SID, _ROLLUP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []  # [sid, name, start, end, parent sid, iteration, self s, rollup]
        self.calls = {}  # name -> [calls, seconds, self seconds]
        self.counters = {}  # name -> summed value
        self.runs = []  # one summary per stepping.run call
        self.missing = []  # targets the program no longer has
        self.iteration = -1
        self._stack = []
        self._next_sid = 0
        self._saved = []

    def install(self, gb) -> None:
        for name, owners in TARGETS.items():
            attr = name.split(".")[1]
            modules = [getattr(gb, m) for m in owners]
            fn = getattr(modules[0], attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                if getattr(module, attr, None) is fn:
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def add(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def inside(self, name: str) -> bool:
        return any(f[_NAME] == name for f in self._stack)

    def _wrap(self, name, fn):
        hot = name in HOT
        hook = _HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter
        agg = self.calls.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot and parent is not None:
                frame = [0.0, parent[_ANCHOR], name]
            else:
                frame = [0.0, None, name, self._next_sid, {}]
                frame[_ANCHOR] = frame
                self._next_sid += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[_CHILD]
                if parent is not None:
                    parent[_CHILD] += dur
                anchor = frame[_ANCHOR]
                if anchor is not frame:
                    roll = anchor[_ROLLUP].get(name)
                    if roll is None:
                        anchor[_ROLLUP][name] = [1, dur]
                    else:
                        roll[0] += 1
                        roll[1] += dur
                else:
                    self.spans.append([
                        frame[_SID], name, start, end,
                        None if parent is None else parent[_ANCHOR][_SID],
                        self.iteration, dur - frame[_CHILD], frame[_ROLLUP] or None,
                    ])
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "calls": self.calls, "counters": self.counters,
                "runs": [{k: v for k, v in r.items() if k != "key"} for r in self.runs],
                "missing_targets": self.missing}

    def metrics(self, iterations: int, overhead_frac: float, out_mb: float) -> dict:
        """Per-layer values, with 0 for a layer this workload never calls."""

        def per_call(name, scale):
            calls, seconds, _ = self.calls.get(name, (0, 0.0, 0.0))
            return seconds / calls * scale if calls else 0.0

        def calls_per_iter(name):
            return self.calls.get(name, (0,))[0] / iterations

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        run_calls = self.calls.get("stepping.run", (0, 0.0, 0.0))
        steps = sum(r["steps"] for r in self.runs)
        by_key = {}
        for r in self.runs:
            by_key.setdefault((r["iteration"], r["key"]), []).append(r["steps"])
        duplicate = sum(sum(s) - max(s) for s in by_key.values())
        eig_calls = self.calls.get("spectral.principal_eigenpair", (0,))[0]
        rd_calls = self.calls.get("operators.regularized_diffusion", (0,))[0]
        values = {
            "stepping.run.us_per_step": ratio(run_calls[1], steps, 1e6),
            "stepping.run.self_us_per_step": ratio(run_calls[2], steps, 1e6),
            "stepping.stable_dt.us_per_call": per_call("stepping.stable_dt", 1e6),
            "operators.gradient.calls": calls_per_iter("operators.gradient"),
            "operators.gradient.us_per_call": per_call("operators.gradient", 1e6),
            "operators.regularized_diffusion.calls":
                calls_per_iter("operators.regularized_diffusion"),
            "operators.regularized_diffusion.us_per_call":
                per_call("operators.regularized_diffusion", 1e6),
            "operators.regularized_diffusion.computed_bytes_per_call":
                ratio(self.counters.get("regularized_diffusion.bytes", 0), rd_calls),
            "operators.face_fluxes.us_per_call": per_call("operators.face_fluxes", 1e6),
            "stepping.steps": steps / iterations,
            "stepping.source_limited_frac": ratio(sum(r["limited"] for r in self.runs),
                                                  sum(r["eligible"] for r in self.runs)),
            "stepping.duplicate_step_frac": ratio(duplicate, steps),
            "stepping.snapshots": sum(r["snapshots"] for r in self.runs) / iterations,
            "spectral.criterion_experiment.probes":
                self.counters.get("criterion_experiment.probes", 0) / iterations,
            "spectral.criterion_experiment.steps":
                sum(r["steps"] for r in self.runs if r["in_bisection"]) / iterations,
            "spectral.principal_eigenpair.ms_per_call":
                per_call("spectral.principal_eigenpair", 1e3),
            "spectral.principal_eigenpair.iterations":
                ratio(self.counters.get("principal_eigenpair.iterations", 0), eig_calls),
            "cli.write_json.bytes": self.counters.get("write_json.bytes", 0) / iterations,
            "fieldio.write_field.calls": calls_per_iter("fieldio.write_field"),
            "io.out_mb": out_mb,
            "trace.overhead_frac": overhead_frac,
        }
        for name, unit, _ in PER_LAYER:
            if name not in values and unit == "ms/call":
                values[name] = per_call(name.rsplit(".", 1)[0], 1e3)
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def source_limited(spec, control, monitors) -> tuple[int, int]:
    """(source-limited steps, steps counted) from a run's monitor rows.

    A step is source-limited when h q (W^2+eps)^((q-1)/2) exceeds
    2 d (p-1) (W^2+eps)^((p-2)/2), with W the previous row's grad_inf.
    Steps clipped to t_end or to a mark are not counted."""
    import numpy as np

    t, w = monitors.get("t"), monitors.get("grad_inf")
    if control.monitor_stride != 1 or t is None or w is None or len(t) < 2:
        return 0, 0
    grid = spec.grid
    s = w[:-1] * w[:-1] + spec.epsilon
    diffusion = 2.0 * grid.dimension * (spec.p - 1.0) * s ** ((spec.p - 2.0) / 2.0)
    source = grid.h_min * spec.q * s ** ((spec.q - 1.0) / 2.0)
    kept = ~((t[1:] == control.t_end) | np.isin(t[1:], control.t_marks))
    return int(np.count_nonzero((source > diffusion) & kept)), int(np.count_nonzero(kept))


def run_key(spec, control) -> tuple:
    """Runs with equal keys replay the same trajectory up to their stop."""
    grid = spec.grid
    data = hashlib.blake2b(spec.initial.tobytes() + spec.boundary_values.tobytes(),
                           digest_size=16).hexdigest()
    return (grid.extents, grid.points_per_axis, spec.p, spec.q, spec.epsilon, spec.mu,
            data, control.theta, control.dt_min, control.t_end)


def _on_run(tr, args, kwargs, result):
    spec, control = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "control")
    traj, report = result
    limited, eligible = source_limited(spec, control, report.monitors)
    tr.runs.append({"iteration": tr.iteration, "steps": report.steps,
                    "snapshots": len(traj.states), "key": run_key(spec, control),
                    "limited": limited, "eligible": eligible,
                    "in_bisection": tr.inside("spectral.criterion_experiment")})


@functools.cache
def _diffusion_bytes(shape: tuple) -> int:
    """Computed, not measured: u read, the result written, and each axis's
    face-flux array written and read back."""
    faces = 0
    for axis in range(len(shape)):
        count = 1
        for k, n in enumerate(shape):
            count *= n - 1 if k == axis else n
        faces += count
    nodes = 1
    for n in shape:
        nodes *= n
    return 8 * (2 * nodes + 2 * faces)


_HOOKS = {
    "stepping.run": _on_run,
    "spectral.principal_eigenpair":
        lambda tr, a, k, r: tr.add("principal_eigenpair.iterations", r.iterations),
    "spectral.criterion_experiment":
        lambda tr, a, k, r: tr.add("criterion_experiment.probes", r.runs),
    "cli.write_json":
        lambda tr, a, k, r: tr.add("write_json.bytes", os.path.getsize(_arg(a, k, 0, "path"))),
    "operators.regularized_diffusion":
        lambda tr, a, k, r: tr.add("regularized_diffusion.bytes", _diffusion_bytes(r.shape)),
}
