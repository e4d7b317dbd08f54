"""Batch CLI: parse flat key=value configs (fail-closed), dispatch runs,
sweeps and checks, and emit JSON/CSV artifacts.

Verbs: simulate, continue-eps, detect-gbu, certify-barrier,
bisect-criterion, check, eig. Exit codes: 0 pass, 1 check failure,
2 config error, 3 runtime failure. GBULAB_OUT sets the default output root.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, barriers, fieldio, spectral, stepping
from .grid import Grid, build_grid
from .problem import ProblemSpec, make_spec
from .schema import validate_output
from .stepping import COMPLETED, GBU_DETECTED, StepControl

KINDS = (
    "simulate",
    "epsilon_continuation",
    "gbu_detect",
    "barrier_certify",
    "criterion_bisect",
    "compliance_suite",
    "eig",
)

VERB_TO_KIND = {
    "simulate": "simulate",
    "continue-eps": "epsilon_continuation",
    "detect-gbu": "gbu_detect",
    "certify-barrier": "barrier_certify",
    "bisect-criterion": "criterion_bisect",
    "check": "compliance_suite",
    "eig": "eig",
}

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


def _parse_float_list(s: str) -> list[float]:
    return [_parse_float(v.strip()) for v in s.split(",") if v.strip()]


def _parse_int_list(s: str) -> list[int]:
    return [_parse_int(v.strip()) for v in s.split(",") if v.strip()]


def _parse_str_list(s: str) -> list[str]:
    return [v.strip() for v in s.split(",") if v.strip()]


def _parse_extents(s: str) -> list[list[float]]:
    axes = [a for a in s.split(";") if a.strip()]
    out = []
    for ax in axes:
        vals = _parse_float_list(ax)
        if len(vals) != 2:
            raise ConfigError(f"extent needs two numbers, got {ax!r}")
        out.append(vals)
    return out


def _parse_str(s: str) -> str:
    return s.strip()


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return "; ".join(", ".join(_fmt(v) for v in row) for row in value)
        return ", ".join(_fmt(v) for v in value)
    return str(value)


# section -> key -> (parser, default); _REQUIRED means the key must be present
_SCHEMA: dict[str, dict[str, tuple]] = {
    "experiment": {"kind": (_parse_str, _REQUIRED), "seed": (_parse_int, 0)},
    "grid": {"extents": (_parse_extents, _REQUIRED), "points": (_parse_int_list, _REQUIRED)},
    "problem": {
        "p": (_parse_float, _REQUIRED),
        "q": (_parse_float, _REQUIRED),
        "epsilon": (_parse_float, 0.0),
        "mu": (_parse_float, 1.0),
        "profile": (_parse_str, "sine"),
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
    "continuation": {"epsilons": (_parse_float_list, _REQUIRED)},
    "gbu": {
        "thresholds": (_parse_float_list, _REQUIRED),
        "grids": (_parse_int_list, _REQUIRED),
    },
    "barrier": {
        "rho": (_parse_float, _REQUIRED),
        "n": (_parse_int, _REQUIRED),
        "grad_g": (_parse_float, 0.0),
        "hess_g": (_parse_float, 0.0),
        "g_sup": (_parse_float, 0.0),
        "g_min": (_parse_float, 0.0),
        "data_sup": (_parse_float, 1.0),
        "eps_values": (_parse_float_list, [0.0, 1e-3, 1e-1, 1.0]),
        "n_radial": (_parse_int, 10000),
    },
    "criterion": {
        "alpha": (_parse_str, "mid"),
        "amplitude_low": (_parse_float, 0.0),
        "amplitude_high": (_parse_float, 2.0),
        "bisect_iters": (_parse_int, 6),
    },
    "compliance": {
        "checks": (_parse_str_list, list(COMPLIANCE_CHECKS)),
        "trajectory": (_parse_str, ""),
        "monotonicity_samples": (_parse_int, 20000),
    },
    "output": {"directory": (_parse_str, "")},
}

_SECTION_ORDER = tuple(_SCHEMA)

_KIND_SECTIONS: dict[str, tuple[set[str], set[str]]] = {
    # kind -> (required sections, optional sections) besides experiment/output
    "simulate": ({"grid", "problem", "control"}, set()),
    "epsilon_continuation": ({"grid", "problem", "control", "continuation"}, set()),
    "gbu_detect": ({"grid", "problem", "control", "gbu"}, set()),
    "barrier_certify": ({"problem", "barrier"}, set()),
    "criterion_bisect": ({"grid", "problem", "control", "criterion"}, set()),
    "compliance_suite": ({"grid", "problem"}, {"control", "compliance"}),
    "eig": ({"grid"}, set()),
}


@dataclass(frozen=True)
class RunConfig:
    """The parsed sections and the objects built from them: the grid of
    [grid], a spec per grid the run uses (one per [gbu] grids entry for
    gbu_detect) and the run control (for gbu_detect it stops at the largest
    [gbu] thresholds entry and reports the crossing of each)."""

    kind: str
    seed: int
    sections: dict
    grid: Grid | None = None
    specs: tuple[ProblemSpec, ...] = ()
    control: StepControl | None = None
    alpha: float | None = None  # the [criterion] exponent, "mid" resolved

    @property
    def spec(self) -> ProblemSpec:
        return self.specs[0]

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    def has(self, section: str) -> bool:
        return section in self.sections

    @property
    def output_dir(self) -> str:
        return self.sections.get("output", {}).get("directory", "")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key=value config with [section] headers.

    Unknown sections and keys are errors; constraint violations name the
    violated hypothesis. A value that a domain constructor rejects raises
    ConfigError with the constructor's message."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from None

    if "experiment" not in cp:
        raise ConfigError("missing [experiment] section")
    raw_kind = cp["experiment"].get("kind")
    if raw_kind is None:
        raise ConfigError("missing required key 'kind' in [experiment]")
    kind = raw_kind.strip()
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; known: {KINDS}")

    required, optional = _KIND_SECTIONS[kind]
    allowed = required | optional | {"experiment", "output"}
    present = set(cp.sections())
    for sec in present - allowed:
        raise ConfigError(f"section [{sec}] is not allowed for kind {kind!r}")
    for sec in required - present:
        raise ConfigError(f"kind {kind!r} requires section [{sec}]")

    sections: dict[str, dict] = {}
    for sec in present:
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
    if kind == "gbu_detect":
        if "gbu_threshold" in cp["control"]:
            raise ConfigError(
                "gbu_detect takes no [control] gbu_threshold: it stops at the largest "
                "[gbu] thresholds entry"
            )
        del sections["control"]["gbu_threshold"]
    if kind in ("criterion_bisect", "epsilon_continuation") and "alpha" in cp["control"]:
        raise ConfigError(
            f"{kind} takes no [control] alpha: it writes no monitors, so the weighted "
            "mass would go unrecorded"
        )

    config = RunConfig(kind=kind, seed=sections["experiment"]["seed"], sections=sections)
    _validate_constraints(config)
    try:
        return _build(config)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _validate_constraints(cfg: RunConfig) -> None:
    """The checks no domain constructor makes; `_build` makes the others."""
    if cfg.has("control"):
        if cfg["control"]["alpha"] is not None and cfg["control"]["alpha"] < 1:
            raise ConfigError("requires alpha >= 1")
    if cfg.has("gbu"):
        g = cfg["gbu"]
        if len(g["thresholds"]) * len(g["grids"]) < 2:
            raise ConfigError("gbu_detect needs at least 2 (threshold, grid) pairs")
        if any(t1 <= t0 for t0, t1 in zip(g["thresholds"], g["thresholds"][1:])):
            raise ConfigError("thresholds must be strictly increasing")
        if len(set(g["grids"])) < len(g["grids"]):
            raise ConfigError(f"grids must not repeat an entry, got {g['grids']}")
    if cfg.has("barrier"):
        b = cfg["barrier"]
        if not b["rho"] > 0:
            raise ConfigError("requires rho > 0")
        if b["n"] not in (1, 2, 3):
            raise ConfigError("requires n in {1, 2, 3}")
    if cfg.has("compliance"):
        if not cfg["compliance"]["checks"]:
            raise ConfigError(f"[compliance] checks is empty; known: {COMPLIANCE_CHECKS}")
        unknown = set(cfg["compliance"]["checks"]) - set(COMPLIANCE_CHECKS)
        if unknown:
            raise ConfigError(f"unknown checks {sorted(unknown)}; known: {COMPLIANCE_CHECKS}")
        if cfg["compliance"]["trajectory"]:
            bad = set(cfg["compliance"]["checks"]) - {"max_principle"}
            if bad:
                raise ConfigError(
                    f"stored-trajectory checking supports only max_principle; run {sorted(bad)} "
                    "as a fresh check (regularizing_effect needs its snapshots and "
                    "energy_estimate its initial gradient energy)"
                )
    if cfg.kind == "compliance_suite":
        has_traj = cfg.has("compliance") and bool(cfg["compliance"]["trajectory"])
        if not has_traj and not cfg.has("control"):
            raise ConfigError("compliance_suite without a stored trajectory requires [control]")


def _build(cfg: RunConfig) -> RunConfig:
    """cfg with the grid, specs, control and criterion exponent its run
    uses. Their constructors check every value they take."""
    s = cfg.sections
    grid = build_grid(s["grid"]["extents"], s["grid"]["points"]) if cfg.has("grid") else None
    if cfg.kind == "gbu_detect":
        extents = s["grid"]["extents"]
        grids = [build_grid(extents, [n] * len(extents)) for n in s["gbu"]["grids"]]
    elif cfg.kind == "barrier_certify":
        # no [grid]: the smallest grid lets [problem] pass the same constructor
        grids = [build_grid((0.0, 1.0), 3)]
    else:
        grids = [grid]
    specs = tuple(make_spec(g, **s["problem"]) for g in grids) if cfg.has("problem") else ()
    control = None
    if cfg.has("control"):
        c = {k: v for k, v in s["control"].items() if k != "alpha"}
        if cfg.has("gbu"):
            thresholds = s["gbu"]["thresholds"]
            c.update(gbu_threshold=max(thresholds), report_thresholds=thresholds)
        control = StepControl(**c)
    if cfg.has("continuation"):
        stepping.continuation_epsilons(s["continuation"]["epsilons"])
    if cfg.has("barrier"):
        barriers.certify_sampling(s["barrier"]["eps_values"], s["barrier"]["n_radial"])
    if cfg.has("criterion"):
        spectral.criterion_bracket(
            s["criterion"]["amplitude_low"], s["criterion"]["amplitude_high"]
        )
    alpha = None
    if cfg.kind == "criterion_bisect":
        window = spectral.alpha_window(specs[0].p, specs[0].q)  # EmptyAlphaWindow unless q > p
        key = s["criterion"]["alpha"]
        alpha = window.midpoint() if key == "mid" else _parse_float(key)
        if not window.contains(alpha):
            raise ConfigError(
                f"alpha={alpha} outside the admissible exponent window "
                f"({window.lo}, {window.hi})"
            )
    return replace(cfg, grid=grid, specs=specs, control=control, alpha=alpha)


def canonical_text(cfg: RunConfig) -> str:
    """Normal form: fixed section/key order, all defaults materialized."""
    lines = []
    for sec in _SECTION_ORDER:
        if sec not in cfg.sections:
            continue
        lines.append(f"[{sec}]")
        for key in _SCHEMA[sec]:
            value = cfg.sections[sec].get(key)
            if value is None:
                continue
            lines.append(f"{key} = {_fmt(value)}")
        lines.append("")
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


def _weight(cfg: RunConfig, grid: Grid) -> np.ndarray | None:
    """The functional weight phi1^alpha on grid when [control] sets alpha."""
    alpha = cfg["control"]["alpha"]
    return None if alpha is None else np.power(spectral.principal_eigenpair(grid).phi1, alpha)


def _run_control(cfg: RunConfig) -> StepControl:
    return replace(cfg.control, functional_weight=_weight(cfg, cfg.spec.grid))


def _write_run_artifacts(out: Path, traj, report) -> None:
    """The run's report, monitors and final state, and every earlier state
    under snapshots/ when the run kept more than its first and last."""
    write_json(out / "run_report.json", "run_report", report.to_dict())
    stepping.write_monitors_csv(out / "monitors.csv", report.monitors)
    fieldio.write_field(out / "final_state.field", traj.states[-1].u, traj.states[-1].t)
    if len(traj.states) > 2:
        snapdir = out / "snapshots"
        snapdir.mkdir(exist_ok=True)
        for k, s in enumerate(traj.states[:-1]):
            fieldio.write_field(snapdir / f"{k:05d}.field", s.u, s.t)


# -- dispatch ------------------------------------------------------------------

def dispatch(cfg: RunConfig, out: Path, jobs: int = 1, seed: int | None = None) -> int:
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.seed if seed is None else seed
    handler = {
        "simulate": _do_simulate,
        "epsilon_continuation": _do_continuation,
        "gbu_detect": _do_gbu_detect,
        "barrier_certify": _do_barrier,
        "criterion_bisect": _do_bisect,
        "compliance_suite": _do_compliance,
        "eig": _do_eig,
    }[cfg.kind]
    return handler(cfg, out, jobs, seed)


def _do_simulate(cfg: RunConfig, out: Path, jobs: int, seed: int) -> int:
    spec = cfg.spec
    traj, report = stepping.run(spec, _run_control(cfg))
    _write_run_artifacts(out, traj, report)
    gamma_star = 1.0 / (spec.q - spec.p + 1.0)
    analysis.write_shell_profile_csv(
        out / "shell_profile.csv", traj.states[-1], gamma_star
    )
    return 0 if report.verdict in (COMPLETED, GBU_DETECTED) else 3


def _do_continuation(cfg: RunConfig, out: Path, jobs: int, seed: int) -> int:
    control = cfg.control
    report = stepping.epsilon_continuation(cfg.spec, cfg["continuation"]["epsilons"], control)
    write_json(out / "continuation.json", "continuation", report.to_dict())
    for eps, field in zip(report.epsilons, report.final_fields):
        fieldio.write_field(out / f"final_eps_{eps!r}.field", field, control.t_end)
    fieldio.write_field(out / "final_extrapolated.field", report.extrapolated, control.t_end)
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


def _do_gbu_detect(cfg: RunConfig, out: Path, jobs: int, seed: int) -> int:
    specs = cfg.specs
    controls = [replace(cfg.control, functional_weight=_weight(cfg, s.grid)) for s in specs]
    dirs = [out / "runs" / f"n{s.grid.points_per_axis[0]}" for s in specs]
    if jobs > 1:
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
        "evidence": [
            {"resolution": e.resolution, "threshold": e.threshold, "t_detect": e.t_detect}
            for e in evidence
        ],
    }
    write_json(out / "gbu_verdict.json", "gbu_verdict", doc)
    return 0 if verdict.status in ("GBU", "NoGBU") else 1


def _do_barrier(cfg: RunConfig, out: Path, jobs: int, seed: int) -> int:
    b = cfg["barrier"]
    params = barriers.find_barrier_params(
        cfg.spec.p,
        cfg.spec.q,
        b["n"],
        b["rho"],
        g_norms=(b["grad_g"], b["hess_g"], b["g_sup"]),
        g_min=b["g_min"],
        data_sup=b["data_sup"],
    )
    report = barriers.certify(params, eps_values=b["eps_values"], n_radial=b["n_radial"])
    write_json(out / "barrier_certificate.json", "barrier_certificate", report)
    return 0 if report["certified"] else 1


def _do_bisect(cfg: RunConfig, out: Path, jobs: int, seed: int) -> int:
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
        "amplitude_low": result.amplitude_low,
        "amplitude_high": result.amplitude_high,
        "functional_low": result.functional_low,
        "functional_high": result.functional_high,
        "threshold_functional": result.threshold_functional,
        "t_detect": result.t_detect,
        "runs": result.runs,
        "alpha": cfg.alpha,
        "history": result.history,
    }
    write_json(out / "bisect_report.json", "bisect_report", doc)
    return 0


def _section_defaults(name: str) -> dict:
    return {
        key: (list(default) if isinstance(default, list) else default)
        for key, (_, default) in _SCHEMA[name].items()
        if default is not _REQUIRED
    }


def _do_compliance(cfg: RunConfig, out: Path, jobs: int, seed: int) -> int:
    comp = cfg.sections.get("compliance", _section_defaults("compliance"))
    checks = comp["checks"]
    reports: list[analysis.ComplianceReport] = []

    spec = cfg.spec
    if comp["trajectory"]:  # the checks are max_principle alone (_validate_constraints)
        monitors = stepping.read_monitors_csv(comp["trajectory"])
        traj = stepping.Trajectory(grid=cfg.grid, spec=None, states=[], monitors=monitors)
    else:
        traj, run_report = stepping.run(spec, _run_control(cfg))
        _write_run_artifacts(out, traj, run_report)
    if "max_principle" in checks:
        reports.append(analysis.max_principle_check(traj))
    if "regularizing_effect" in checks:
        u0_sup = float(np.max(np.abs(spec.initial)))
        reports.append(analysis.regularizing_effect_check(traj, spec.p, u0_sup))
    if "energy_estimate" in checks:
        reports.append(analysis.energy_estimate(run_report, spec))
    if "monotonicity" in checks:
        reports.append(analysis.monotonicity_suite(comp["monotonicity_samples"], seed=seed))

    doc = {
        "passed": all(r.passed for r in reports),
        "seed": seed,
        "checks": [r.to_dict() for r in reports],
    }
    write_json(out / "compliance_report.json", "compliance_report", doc)
    return 0 if doc["passed"] else 1


def _do_eig(cfg: RunConfig, out: Path, jobs: int, seed: int) -> int:
    grid = cfg.grid
    eig = spectral.principal_eigenpair(grid)
    fieldio.write_field(out / "phi1.field", eig.phi1, 0.0)
    doc = {
        "lambda1": eig.lambda1,
        "residual": eig.residual,
        "grid": {
            "extents": [list(e) for e in grid.extents],
            "points_per_axis": list(grid.points_per_axis),
        },
        "phi1_field_file": "phi1.field",
    }
    write_json(out / "eigen.json", "eigen", doc)
    return 0


# -- entry point -----------------------------------------------------------------

def _resolve_out(args_out: str | None, cfg: RunConfig) -> Path:
    if args_out:
        return Path(args_out)
    if cfg.output_dir:
        return Path(cfg.output_dir)
    env = os.environ.get("GBULAB_OUT")
    if env:
        return Path(env)
    return Path("gbulab_out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gbulab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERB_TO_KIND:
        vp = sub.add_parser(verb)
        vp.add_argument("--config", required=True)
        vp.add_argument("--out", default=None)
        vp.add_argument("--jobs", type=int, default=1)
        vp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        expected = VERB_TO_KIND[args.verb]
        if cfg.kind != expected:
            raise ConfigError(
                f"verb {args.verb!r} expects kind {expected!r}, config says {cfg.kind!r}"
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = _resolve_out(args.out, cfg)
    try:
        return dispatch(cfg, out, jobs=args.jobs, seed=args.seed)
    except Exception as exc:  # runtime failure: machine-readable summary
        out.mkdir(parents=True, exist_ok=True)
        failure = {"error": type(exc).__name__, "message": str(exc)}
        (out / "failure.json").write_text(json.dumps(failure, indent=2) + "\n")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
