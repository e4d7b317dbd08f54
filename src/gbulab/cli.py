"""Batch CLI: parse flat key=value configs (fail-closed), dispatch runs,
sweeps and checks, and emit JSON/CSV artifacts and field files.

Verbs: simulate, continue-eps, detect-gbu, certify-barrier,
bisect-criterion, check, eig. Exit codes: 0 pass, 1 check failure,
2 config error, 3 runtime failure. GBULAB_OUT sets the default output root.

`_build` is the one place that turns parsed sections into the objects a
verb runs: the grid, a spec per grid, each spec's `StepControl` with its
[control] alpha weight phi1^alpha (alpha finite and >= 1), the criterion
exponent, and the certify-barrier `BarrierParams` that
`barriers.find_barrier_params` searches for (finite rho > 0, n in {1, 2,
3}, finite nonnegative norms and g_min, a search that stays in the float
range). It runs before the output root exists, so every value that one of
these objects rejects is exit 2 with no output. Non-finite t_end, dt_min,
[gbu] thresholds entries and grid extents are rejected; gbu_threshold = inf
is a run with no threshold stop. `--seed` replaces [experiment] seed before
any check, so one check covers the flag and the config value. An optional
section whose keys all have defaults ([compliance] of check) is parsed, and
written to config.canonical.cfg, as if its header stood alone. The handlers
then only run and write. A check of stored monitors runs every check, each
with the constants it reads from the record: energy_estimate alone also
reads the states.field beside the monitors.csv, for u0. Its [grid] and
[problem] p, q, epsilon and mu must be those of the config.canonical.cfg
beside the monitors.csv, when the run wrote one.

`_VERBS` declares each verb once: its experiment kind, its handler, the
sections its config requires and may add, and the keys of those sections
the kind does not read. Setting such a key is a config error.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, barriers, fieldio, problem, spectral, stepping
from .grid import Grid, build_grid
from .problem import ProblemSpec, SolutionState, make_spec
from .schema import validate_output
from .stepping import COMPLETED, GBU_DETECTED, StepControl

COMPLIANCE_CHECKS = ("max_principle", "regularizing_effect", "energy_estimate", "monotonicity")


class ConfigError(ValueError):
    pass


# -- typed config schema -------------------------------------------------------

_REQUIRED = object()


def _parse_float(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"not a number: {s!r}") from None


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"not an integer: {s!r}") from None


def _list(parse):
    """A parser of comma-separated values, each read by parse."""
    return lambda s: [parse(v.strip()) for v in s.split(",") if v.strip()]


def _parse_extents(s: str) -> list[list[float]]:
    axes = [a for a in s.split(";") if a.strip()]
    out = []
    for ax in axes:
        vals = _list(_parse_float)(ax)
        if len(vals) != 2:
            raise ConfigError(f"extent needs two numbers, got {ax!r}")
        out.append(vals)
    return out


def _fmt(value) -> str:
    """value as config text that parses back to it; str of a float is its repr."""
    if isinstance(value, list):
        sep = "; " if value and isinstance(value[0], list) else ", "
        return sep.join(map(_fmt, value))
    return str(value)


# section -> key -> (parser, default); _REQUIRED means the key must be present
_SCHEMA: dict[str, dict[str, tuple]] = {
    "experiment": {"kind": (str.strip, _REQUIRED), "seed": (_parse_int, 0)},
    "grid": {"extents": (_parse_extents, _REQUIRED), "points": (_list(_parse_int), _REQUIRED)},
    "problem": {
        "p": (_parse_float, _REQUIRED),
        "q": (_parse_float, _REQUIRED),
        "epsilon": (_parse_float, 0.0),
        "mu": (_parse_float, 1.0),
        "profile": (str.strip, "sine"),
        "amplitude": (_parse_float, 1.0),
    },
    "control": {
        "t_end": (_parse_float, _REQUIRED),
        "theta": (_parse_float, 0.5),
        "dt_min": (_parse_float, 1e-14),
        "gbu_threshold": (_parse_float, 1e6),
        "snapshot_every": (_parse_int, 0),
        "monitor_stride": (_parse_int, 1),
        "max_steps": (_parse_int, 0),
        "alpha": (_parse_float, None),
    },
    "continuation": {"epsilons": (_list(_parse_float), _REQUIRED)},
    "gbu": {
        "thresholds": (_list(_parse_float), _REQUIRED),
        "grids": (_list(_parse_int), _REQUIRED),
    },
    "barrier": {
        "rho": (_parse_float, _REQUIRED),
        "n": (_parse_int, _REQUIRED),
        "grad_g": (_parse_float, 0.0),
        "hess_g": (_parse_float, 0.0),
        "g_sup": (_parse_float, 0.0),
        "g_min": (_parse_float, 0.0),
        "data_sup": (_parse_float, 1.0),
        "eps_values": (_list(_parse_float), [0.0, 1e-3, 1e-1, 1.0]),
        "n_radial": (_parse_int, 10000),
    },
    "criterion": {
        "alpha": (str.strip, "mid"),
        "amplitude_low": (_parse_float, 0.0),
        "amplitude_high": (_parse_float, 2.0),
        "bisect_iters": (_parse_int, 6),
    },
    "compliance": {
        "checks": (_list(str), list(COMPLIANCE_CHECKS)),
        "trajectory": (str.strip, ""),
        "monotonicity_samples": (_parse_int, 20000),
    },
    "output": {"directory": (str.strip, "")},
}


@dataclass(frozen=True)
class RunConfig:
    """The parsed sections and every object built from them: the grid of
    [grid], a spec per grid the run steps (one per [gbu] grids entry for
    gbu_detect), each spec's run control with its [control] alpha weight
    (for gbu_detect it stops at the largest [gbu] thresholds entry and
    reports the crossing of each), the criterion exponent and the barrier
    parameters."""

    kind: str
    sections: dict
    grid: Grid | None = None
    specs: tuple[ProblemSpec, ...] = ()
    controls: tuple[StepControl, ...] = ()  # one per spec
    alpha: float | None = None  # the [criterion] exponent, "mid" resolved
    barrier: barriers.BarrierParams | None = None

    @property
    def seed(self) -> int:
        return self.sections["experiment"]["seed"]

    @property
    def spec(self) -> ProblemSpec:
        return self.specs[0]

    @property
    def control(self) -> StepControl | None:
        return self.controls[0] if self.controls else None

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]


def _read_ini(text: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from None
    return cp


def parse_config(text: str, seed: int | None = None) -> RunConfig:
    """Parse and validate a flat key=value config with [section] headers;
    seed, when given, replaces [experiment] seed before any check.

    Unknown sections and keys are errors; constraint violations name the
    violated hypothesis. A value that a run object rejects raises
    ConfigError with its constructor's message."""
    cp = _read_ini(text)
    if "experiment" not in cp:
        raise ConfigError("missing [experiment] section")
    raw_kind = cp["experiment"].get("kind")
    if raw_kind is None:
        raise ConfigError("missing required key 'kind' in [experiment]")
    kind = raw_kind.strip()
    rows = {row.kind: row for row in _VERBS.values()}
    if kind not in rows:
        raise ConfigError(f"unknown experiment kind {kind!r}; known: {tuple(rows)}")
    row = rows[kind]

    present = cp.sections()
    for sec in present:
        if sec not in (*row.required, *row.optional, "experiment", "output"):
            raise ConfigError(f"section [{sec}] is not allowed for kind {kind!r}")
    for sec in row.required:
        if sec not in present:
            raise ConfigError(f"kind {kind!r} requires section [{sec}]")
    for sec in row.optional:  # one whose keys all have defaults runs with them
        if sec not in present and _REQUIRED not in [d for _, d in _SCHEMA[sec].values()]:
            cp.add_section(sec)

    sections: dict[str, dict] = {}
    for sec in cp.sections():
        schema = _SCHEMA[sec]
        values = {}
        for key in cp[sec]:
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
        for key, (parser, default) in schema.items():
            if key in cp[sec]:
                values[key] = parser(cp[sec][key])
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r} in section [{sec}]")
            else:
                values[key] = default if not isinstance(default, list) else list(default)
        sections[sec] = values
    for sec, key, why in row.unread:
        if key in cp[sec]:
            raise ConfigError(f"{kind} takes no [{sec}] {key}: {why}")
        del sections[sec][key]
    if seed is not None:
        sections["experiment"]["seed"] = seed

    try:
        return _build(kind, sections)
    except ValueError as exc:  # a ConfigError too: either way its message is kept
        raise ConfigError(str(exc)) from None


def _build(kind: str, s: dict) -> RunConfig:
    """The one place that turns parsed sections into the objects a verb
    runs: grid, specs, controls with their weights, criterion exponent and
    barrier parameters. Their constructors check every value they take;
    this function makes the checks that no constructor makes."""
    seed = s["experiment"]["seed"]
    if seed < 0:
        raise ConfigError(f"requires seed >= 0, got {seed}")
    if "gbu" in s:
        g = s["gbu"]
        if len(g["thresholds"]) * len(g["grids"]) < 2:
            raise ConfigError("gbu_detect needs at least 2 (threshold, grid) pairs")
        if any(t1 <= t0 for t0, t1 in zip(g["thresholds"], g["thresholds"][1:])):
            raise ConfigError("thresholds must be strictly increasing")
        if len(set(g["grids"])) < len(g["grids"]):
            raise ConfigError(f"grids must not repeat an entry, got {g['grids']}")
    if "compliance" in s:
        c = s["compliance"]
        if not c["checks"]:
            raise ConfigError(f"[compliance] checks is empty; known: {COMPLIANCE_CHECKS}")
        unknown = set(c["checks"]) - set(COMPLIANCE_CHECKS)
        if unknown:
            raise ConfigError(f"unknown checks {sorted(unknown)}; known: {COMPLIANCE_CHECKS}")
        if c["trajectory"] and "control" in s:
            raise ConfigError(
                "compliance_suite with a stored trajectory takes no [control]: "
                "it checks the stored monitors and runs nothing"
            )
        if not c["trajectory"] and "control" not in s:
            raise ConfigError("compliance_suite without a stored trajectory requires [control]")
        if c["trajectory"]:
            _check_stored_run(s, Path(c["trajectory"]).parent / "config.canonical.cfg")

    grid = build_grid(s["grid"]["extents"], s["grid"]["points"]) if "grid" in s else None
    grids = [] if grid is None else [grid]
    if kind == "gbu_detect":
        extents = s["grid"]["extents"]
        grids = [build_grid(extents, [n] * len(extents)) for n in s["gbu"]["grids"]]
    specs = tuple(make_spec(g, **s["problem"]) for g in grids) if "problem" in s else ()
    controls = ()
    if "control" in s:
        c = dict(s["control"])
        power = c.pop("alpha", None)  # of phi1 in the weight of the recorded mass y
        if power is not None and not 1 <= power < math.inf:
            raise ConfigError(f"requires a finite alpha >= 1, got {power}")
        if "gbu" in s:
            thresholds = s["gbu"]["thresholds"]
            c.update(gbu_threshold=max(thresholds), report_thresholds=thresholds)
        control = StepControl(**c)
        controls = tuple(control if power is None else replace(
            control, functional_weight=np.power(spectral.principal_eigenpair(sp.grid).phi1, power)
        ) for sp in specs)
    if "continuation" in s:
        stepping.continuation_epsilons(s["continuation"]["epsilons"])
    if "criterion" in s:
        c = s["criterion"]
        spectral.criterion_bracket(c["amplitude_low"], c["amplitude_high"], c["bisect_iters"])
    if "compliance" in s:
        analysis.monotonicity_samples(s["compliance"]["monotonicity_samples"])
    alpha = None
    if kind == "criterion_bisect":
        window = spectral.alpha_window(specs[0].p, specs[0].q)  # EmptyAlphaWindow unless q > p
        key = s["criterion"]["alpha"]
        alpha = window.midpoint() if key == "mid" else _parse_float(key)
        if not window.contains(alpha):
            raise ConfigError(
                f"alpha={alpha} outside the admissible exponent window "
                f"({window.lo}, {window.hi})"
            )
    barrier = None
    if "barrier" in s:
        b = s["barrier"]
        barriers.certify_sampling(b["eps_values"], b["n_radial"])
        barrier = barriers.find_barrier_params(
            s["problem"]["p"], s["problem"]["q"], b["n"], b["rho"],
            g_norms=(b["grad_g"], b["hess_g"], b["g_sup"]), g_min=b["g_min"],
            data_sup=b["data_sup"],
        )
    return RunConfig(kind, s, grid, specs, controls, alpha, barrier)


# the keys of a stored check that must be those of the run it reads
_RUN_KEYS = (("grid", "extents"), ("grid", "points"),
             *(("problem", key) for key in ("p", "q", "epsilon", "mu")))


def _check_stored_run(s: dict, canonical: Path) -> None:
    """A stored check's grid and p, q, eps and mu must be the parsed values
    of the config.canonical.cfg that its run wrote beside monitors.csv. A
    monitors.csv without one (detect-gbu's runs/nXXX) is checked as it is.
    No check reads the profile or the amplitude, so they may differ."""
    if not canonical.is_file():
        return
    cp = _read_ini(canonical.read_text())
    for sec, key in _RUN_KEYS:
        raw = cp.get(sec, key, fallback=None)
        if raw is None or _SCHEMA[sec][key][0](raw) != s[sec][key]:
            raise ConfigError(f"[{sec}] {key} = {_fmt(s[sec][key])} is not the stored run's "
                              f"{key} = {raw}, in {canonical}")


def canonical_text(cfg: RunConfig) -> str:
    """Normal form: fixed section/key order, all defaults materialized."""
    lines = []
    for sec in _SCHEMA:
        if sec in cfg.sections:  # its keys are in _SCHEMA order
            lines += [f"[{sec}]"]
            lines += [f"{k} = {_fmt(v)}" for k, v in cfg[sec].items() if v is not None]
            lines += [""]
    return "\n".join(lines)


# -- artifact helpers ----------------------------------------------------------

def _sanitize(obj):
    """obj as plain JSON values: numpy scalars and arrays become Python
    numbers and lists, non-finite floats null."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(path: Path, schema_name: str, obj: dict) -> None:
    doc = _sanitize(obj)
    validate_output(schema_name, doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_run_artifacts(out: Path, traj, report) -> None:
    """The run's report, its monitors, and its kept states as states.field:
    one record per state in time order, t = 0 first and the final state
    last."""
    write_json(out / "run_report.json", "run_report", report.to_dict())
    stepping.write_monitors_csv(out / "monitors.csv", report.monitors)
    fieldio.write_fields(out / "states.field", [(s.u, s.t) for s in traj.states])


# -- dispatch ------------------------------------------------------------------

def dispatch(cfg: RunConfig, out: Path, jobs: int = 1) -> int:
    """Run cfg's verb into out, after writing its canonical config there.
    The handlers only run and write: parse_config built what they run."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.canonical.cfg").write_text(canonical_text(cfg))
    handler = next(row.handler for row in _VERBS.values() if row.kind == cfg.kind)
    return handler(cfg, out, jobs)


def _do_simulate(cfg: RunConfig, out: Path, jobs: int) -> int:
    spec = cfg.spec
    traj, report = stepping.run(spec, cfg.control)
    _write_run_artifacts(out, traj, report)
    analysis.write_shell_profile_csv(
        out / "shell_profile.csv", traj.states[-1], problem.gamma_star(spec.p, spec.q)
    )
    return 0 if report.verdict in (COMPLETED, GBU_DETECTED) else 3


def _do_continuation(cfg: RunConfig, out: Path, jobs: int) -> int:
    report = stepping.epsilon_continuation(cfg.spec, cfg["continuation"]["epsilons"], cfg.control)
    write_json(out / "continuation.json", "continuation", report.to_dict())
    # one record per eps in the order of report.epsilons, then the extrapolation
    fields = [*report.final_fields, report.extrapolated]
    fieldio.write_fields(out / "final_fields.field", [(u, cfg.control.t_end) for u in fields])
    return 0


def _gbu_job(spec: ProblemSpec, control: StepControl, out: Path) -> list:
    """Run spec once; one ThresholdCrossing per report threshold, timed by
    its crossing, else by the run's GBU time (a dt_floor stop), else None."""
    n = spec.grid.points_per_axis[0]
    traj, report = stepping.run(spec, control)
    out.mkdir(parents=True, exist_ok=True)
    _write_run_artifacts(out, traj, report)
    if report.verdict not in (COMPLETED, GBU_DETECTED):
        raise stepping.StalledStepError(f"run n={n} stalled: {report.reason}")
    return [
        stepping.ThresholdCrossing(n, g, report.threshold_crossings.get(g, report.t_detect))
        for g in control.report_thresholds
    ]


def _do_gbu_detect(cfg: RunConfig, out: Path, jobs: int) -> int:
    specs, controls = cfg.specs, cfg.controls
    dirs = [out / "runs" / f"n{s.grid.points_per_axis[0]}" for s in specs]
    if jobs > 1:
        # imported here: only parallel jobs start a process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
            results = list(pool.map(_gbu_job, specs, controls, dirs))
    else:
        results = list(map(_gbu_job, specs, controls, dirs))
    evidence = [e for crossings in results for e in crossings]
    verdict = stepping.detect_gbu(evidence)
    doc = {
        "status": verdict.status,
        "t_max_estimate": verdict.t_max_estimate,
        "per_resolution": {str(k): v for k, v in verdict.per_resolution.items()},
        "evidence": [asdict(e) for e in evidence],
    }
    write_json(out / "gbu_verdict.json", "gbu_verdict", doc)
    return 0 if verdict.status in ("GBU", "NoGBU") else 1


def _do_barrier(cfg: RunConfig, out: Path, jobs: int) -> int:
    b = cfg["barrier"]
    report = barriers.certify(cfg.barrier, eps_values=b["eps_values"], n_radial=b["n_radial"])
    write_json(out / "barrier_certificate.json", "barrier_certificate", report)
    return 0 if report["certified"] else 1


def _do_bisect(cfg: RunConfig, out: Path, jobs: int) -> int:
    spec = cfg.spec
    result = spectral.criterion_experiment(
        spec.grid,
        spec.p,
        spec.q,
        cfg.alpha,
        cfg.control,
        amplitude_low=cfg["criterion"]["amplitude_low"],
        amplitude_high=cfg["criterion"]["amplitude_high"],
        epsilon=spec.epsilon,
        mu=spec.mu,
        bisect_iters=cfg["criterion"]["bisect_iters"],
    )
    doc = {
        **asdict(result),
        "threshold_functional": result.threshold_functional,
        "alpha": cfg.alpha,
    }
    write_json(out / "bisect_report.json", "bisect_report", doc)
    return 0


def _do_compliance(cfg: RunConfig, out: Path, jobs: int) -> int:
    comp = cfg["compliance"]
    checks = comp["checks"]
    reports: list[analysis.ComplianceReport] = []

    spec = cfg.spec
    if comp["trajectory"]:
        monitors = stepping.read_monitors_csv(comp["trajectory"])
        states = []
        if "energy_estimate" in checks:  # the one check that reads a state: u0
            fields = fieldio.read_fields(Path(comp["trajectory"]).parent / "states.field")
            states = [SolutionState(cfg.grid, u, t) for u, t in fields]
        traj = stepping.Trajectory(cfg.grid, states, monitors)
    else:
        traj, run_report = stepping.run(spec, cfg.control)
        _write_run_artifacts(out, traj, run_report)
    if "max_principle" in checks:
        reports.append(analysis.max_principle_check(traj))
    if "regularizing_effect" in checks:
        reports.append(analysis.regularizing_effect_check(traj, spec.p))
    if "energy_estimate" in checks:
        reports.append(analysis.energy_estimate(traj, spec))
    if "monotonicity" in checks:
        reports.append(analysis.monotonicity_suite(comp["monotonicity_samples"], seed=cfg.seed))

    doc = {
        "passed": all(r.passed for r in reports),
        "seed": cfg.seed,
        "checks": [r.to_dict() for r in reports],
    }
    write_json(out / "compliance_report.json", "compliance_report", doc)
    return 0 if doc["passed"] else 1


def _do_eig(cfg: RunConfig, out: Path, jobs: int) -> int:
    grid = cfg.grid
    eig = spectral.principal_eigenpair(grid)
    fieldio.write_fields(out / "phi1.field", [(eig.phi1, 0.0)])
    doc = {
        "lambda1": eig.lambda1,
        "residual": eig.residual,
        "grid": {"extents": grid.extents, "points_per_axis": grid.points_per_axis},
        "phi1_field_file": "phi1.field",
    }
    write_json(out / "eigen.json", "eigen", doc)
    return 0


# -- verbs -----------------------------------------------------------------------

@dataclass(frozen=True)
class _Verb:
    """What a verb runs. Sections besides [experiment] and [output]: the
    config must have `required` and may have `optional`. `unread` lists
    (section, key, why) for keys of required sections that the kind does
    not read; setting one is a config error."""

    kind: str
    handler: Callable[[RunConfig, Path, int], int]
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    unread: tuple[tuple[str, str, str], ...] = ()


_RUN = ("grid", "problem", "control")
_NO_ALPHA = ("control", "alpha", "it writes no monitors, so the weighted mass would go unrecorded")
_SINE = "the bisection varies the amplitude of sine data"

_VERBS: dict[str, _Verb] = {
    "simulate": _Verb("simulate", _do_simulate, _RUN),
    "continue-eps": _Verb(
        "epsilon_continuation", _do_continuation, (*_RUN, "continuation"),
        unread=(("problem", "epsilon", "[continuation] epsilons sets it"), _NO_ALPHA)),
    "detect-gbu": _Verb(
        "gbu_detect", _do_gbu_detect, (*_RUN, "gbu"),
        unread=(("control", "gbu_threshold", "it stops at the largest [gbu] thresholds entry"),)),
    "certify-barrier": _Verb(
        "barrier_certify", _do_barrier, ("problem", "barrier"),
        unread=tuple(("problem", key, "the certificate reads only p and q")
                     for key in ("epsilon", "mu", "profile", "amplitude"))),
    "bisect-criterion": _Verb(
        "criterion_bisect", _do_bisect, (*_RUN, "criterion"),
        unread=(("problem", "profile", _SINE), ("problem", "amplitude", _SINE), _NO_ALPHA)),
    "check": _Verb("compliance_suite", _do_compliance, ("grid", "problem"),
                   optional=("control", "compliance")),
    "eig": _Verb("eig", _do_eig, ("grid",)),
}


# -- entry point -----------------------------------------------------------------

def _resolve_out(args_out: str | None, cfg: RunConfig) -> Path:
    configured = cfg["output"]["directory"] if "output" in cfg.sections else ""
    return Path(args_out or configured or os.environ.get("GBULAB_OUT") or "gbulab_out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gbulab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERBS:
        vp = sub.add_parser(verb)
        vp.add_argument("--config", required=True)
        vp.add_argument("--out", default=None)
        vp.add_argument("--jobs", type=int, default=1)
        vp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text(), seed=args.seed)
        expected = _VERBS[args.verb].kind
        if cfg.kind != expected:
            raise ConfigError(
                f"verb {args.verb!r} expects kind {expected!r}, config says {cfg.kind!r}"
            )
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = _resolve_out(args.out, cfg)
    try:
        return dispatch(cfg, out, jobs=args.jobs)
    except Exception as exc:  # runtime failure: machine-readable summary
        out.mkdir(parents=True, exist_ok=True)
        failure = {"error": type(exc).__name__, "message": str(exc)}
        (out / "failure.json").write_text(json.dumps(failure, indent=2) + "\n")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
