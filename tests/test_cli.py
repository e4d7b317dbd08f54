import json
import math
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gbulab import fieldio
from gbulab.cli import _VERBS, ConfigError, canonical_text, dispatch, main, parse_config
from gbulab.schema import SchemaError, load_schema, validate
from gbulab.spectral import principal_eigenpair
from gbulab.stepping import MONITOR_COLUMNS, epsilon_continuation, read_monitors_csv, run

try:
    import jsonschema

    HAVE_JSONSCHEMA = True
except ImportError:
    HAVE_JSONSCHEMA = False


MINIMAL_SIMULATE = """
[experiment]
kind = simulate

[grid]
extents = 0, 1
points = 41

[problem]
p = 3.0
q = 2.5

[control]
t_end = 0.002
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- parsing --------------------------------------------------------------------

def test_parse_minimal_simulate():
    cfg = parse_config(MINIMAL_SIMULATE)
    assert cfg.kind == "simulate"
    assert cfg["problem"]["p"] == 3.0
    assert cfg["problem"]["mu"] == 1.0  # default materialized
    assert cfg["control"]["theta"] == 0.5


def test_canonical_roundtrip():
    cfg = parse_config(MINIMAL_SIMULATE)
    canon = canonical_text(cfg)
    cfg2 = parse_config(canon)
    assert canonical_text(cfg2) == canon
    assert cfg2.sections == cfg.sections


def test_unknown_key_rejected_fail_closed():
    bad = MINIMAL_SIMULATE + "\n[control]\n"  # duplicate section is an error too
    with pytest.raises(ConfigError):
        parse_config(bad)
    with pytest.raises(ConfigError):
        parse_config(MINIMAL_SIMULATE.replace("t_end = 0.002", "t_end = 0.002\ntypo_key = 1"))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL_SIMULATE + "\n[barrier]\nrho = 0.5\nn = 1\n")


def test_exponent_constraint_named_in_message():
    bad = MINIMAL_SIMULATE.replace("q = 2.5", "q = 2.0")
    with pytest.raises(ConfigError, match=r"requires q > p - 1"):
        parse_config(bad)
    bad_p = MINIMAL_SIMULATE.replace("p = 3.0", "p = 1.5")
    with pytest.raises(ConfigError, match=r"requires p > 2"):
        parse_config(bad_p)


def test_criterion_bisect_hypothesis_named():
    text = """
[experiment]
kind = criterion_bisect

[grid]
extents = 0, 1
points = 41

[problem]
p = 3.0
q = 3.0

[control]
t_end = 0.01

[criterion]
"""
    with pytest.raises(ConfigError, match=r"requires q > p > 2"):
        parse_config(text)


def test_criterion_alpha_outside_window_rejected():
    text = """
[experiment]
kind = criterion_bisect

[grid]
extents = 0, 1
points = 41

[problem]
p = 3.0
q = 4.0

[control]
t_end = 0.01

[criterion]
alpha = 3.5
"""
    with pytest.raises(ConfigError, match="outside the admissible"):
        parse_config(text)


def test_missing_required_section():
    with pytest.raises(ConfigError, match=r"requires section \[control\]"):
        parse_config(
            """
[experiment]
kind = simulate

[grid]
extents = 0, 1
points = 41

[problem]
p = 3.0
q = 2.5
"""
        )


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL_SIMULATE.replace("kind = simulate", "kind = explode"))


# -- schema validator -------------------------------------------------------------

def test_mini_validator_accepts_and_rejects():
    schema = load_schema("continuation")
    good = {"epsilons": [0.1, 0.01], "sup_distances": [0.5], "rates": [1.0], "monotone": True}
    validate(good, schema)
    with pytest.raises(SchemaError):
        validate({"epsilons": "oops"}, schema)
    with pytest.raises(SchemaError):
        validate({**good, "extra": 1}, schema)


# -- dispatch: simulate -------------------------------------------------------------

def test_dispatch_simulate_artifacts(tmp_path):
    cfg = parse_config(MINIMAL_SIMULATE)
    code = dispatch(cfg, tmp_path / "out")
    assert code == 0
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["verdict"] == "Completed"
    assert "config" not in report  # config.canonical.cfg records the config
    validate(report, load_schema("run_report"))
    if HAVE_JSONSCHEMA:
        jsonschema.validate(report, load_schema("run_report"))
    header = (tmp_path / "out" / "monitors.csv").read_text().splitlines()[0]
    assert header == "t,max_u,min_u,grad_inf,y,ut_l2_acc,max_ut,source_energy_acc,dt"
    monitors = read_monitors_csv(tmp_path / "out" / "monitors.csv")
    assert monitors["t"][-1] == 0.002
    # states.field: every kept state in time order, t = 0 first, the final state last
    states = fieldio.read_fields(tmp_path / "out" / "states.field")
    traj, _ = run(cfg.spec, cfg.control)
    assert len(states) == len(traj.states)
    assert states[0][1] == 0.0
    u, t = states[-1]
    assert t == monitors["t"][-1] and u.shape == (41,)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "config.canonical.cfg", "monitors.csv", "run_report.json", "shell_profile.csv",
        "states.field",
    ]
    shell = (tmp_path / "out" / "shell_profile.csv").read_text().splitlines()
    assert shell[0] == "delta_shell,max_grad,bound_value"
    d, m, b = (float(v) for v in shell[1].split(","))
    assert d > 0 and m <= b + 1e-9


def test_simulate_writes_each_state_once(tmp_path):
    # states.field holds every kept state once, in time order
    cfg = parse_config(MINIMAL_SIMULATE + "snapshot_every = 20\n")
    traj, _ = run(cfg.spec, cfg.control)
    assert len(traj.states) > 2
    assert dispatch(cfg, tmp_path / "out") == 0
    states = fieldio.read_fields(tmp_path / "out" / "states.field")
    assert len(states) == len(traj.states)
    assert states[0][1] == 0.0
    assert states[-1][1] == read_monitors_csv(tmp_path / "out" / "monitors.csv")["t"][-1]
    for (u, t), state in zip(states, traj.states):
        assert t == state.t
        assert np.array_equal(u, state.u)
    assert all(a[1] < b[1] for a, b in zip(states, states[1:]))


def test_dispatch_deterministic_outputs(tmp_path):
    cfg = parse_config(MINIMAL_SIMULATE)
    dispatch(cfg, tmp_path / "a")
    dispatch(cfg, tmp_path / "b")
    ra = json.loads((tmp_path / "a" / "run_report.json").read_text())
    rb = json.loads((tmp_path / "b" / "run_report.json").read_text())
    ra.pop("wall_time"), rb.pop("wall_time")
    assert ra == rb
    assert (tmp_path / "a" / "monitors.csv").read_bytes() == (
        tmp_path / "b" / "monitors.csv"
    ).read_bytes()


def test_run_report_carries_no_per_step_data(tmp_path):
    # the per-step monitors live in monitors.csv only: a run with 5x the steps
    # writes a report of the same size, up to its counters
    short, long = tmp_path / "short", tmp_path / "long"
    dispatch(parse_config(MINIMAL_SIMULATE), short)
    dispatch(parse_config(MINIMAL_SIMULATE.replace("t_end = 0.002", "t_end = 0.02")), long)
    rs, rl = (json.loads((d / "run_report.json").read_text()) for d in (short, long))
    assert rl["steps"] >= 5 * rs["steps"]
    assert "series" not in rl and "series" not in load_schema("run_report")["properties"]
    size = [(d / "run_report.json").stat().st_size for d in (short, long)]
    assert abs(size[1] - size[0]) < 100


# -- dispatch: compliance -------------------------------------------------------------

COMPLIANCE_CFG = """
[experiment]
kind = compliance_suite
seed = 7

[grid]
extents = 0, 1
points = 41

[problem]
p = 3.0
q = 2.5
epsilon = 1.0
profile = constant
amplitude = 1.0

[control]
t_end = 0.002

[compliance]
monotonicity_samples = 2000
"""


def test_compliance_stationary_all_pass(tmp_path):
    cfg = parse_config(COMPLIANCE_CFG)
    code = dispatch(cfg, tmp_path / "out")
    assert code == 0
    doc = json.loads((tmp_path / "out" / "compliance_report.json").read_text())
    assert doc["passed"]
    validate(doc, load_schema("compliance_report"))
    names = {c["name"] for c in doc["checks"]}
    assert "max_principle" in names and "monotonicity_suite" in names
    mp = next(c for c in doc["checks"] if c["name"] == "max_principle")
    assert mp["worst_margin"] == 0.0


def test_compliance_fault_injected_trajectory_fails(tmp_path):
    # produce a valid monitors.csv, corrupt a max_u entry, re-check from disk
    sim_cfg = parse_config(MINIMAL_SIMULATE)
    dispatch(sim_cfg, tmp_path / "sim")
    csv_path = tmp_path / "sim" / "monitors.csv"
    lines = csv_path.read_text().splitlines()
    parts = lines[3].split(",")
    parts[1] = "99.0"  # spike above max u0
    lines[3] = ",".join(parts)
    csv_path.write_text("\n".join(lines) + "\n")

    check_cfg = parse_config(
        f"""
[experiment]
kind = compliance_suite

[grid]
extents = 0, 1
points = 41

[problem]
p = 3.0
q = 2.5

[compliance]
checks = max_principle
trajectory = {csv_path}
"""
    )
    code = dispatch(check_cfg, tmp_path / "check")
    assert code == 1
    doc = json.loads((tmp_path / "check" / "compliance_report.json").read_text())
    assert not doc["passed"]
    assert doc["checks"][0]["name"] == "max_principle"
    assert not doc["checks"][0]["passed"]


# -- dispatch: other kinds -------------------------------------------------------------

EIG_CFG = """
[experiment]
kind = eig

[grid]
extents = 0, 1
points = 101
"""

BARRIER_CFG = """
[experiment]
kind = barrier_certify

[problem]
p = 3.0
q = 4.0

[barrier]
rho = 0.5
n = 1
"""


def test_dispatch_eig(tmp_path):
    cfg = parse_config(EIG_CFG)
    code = dispatch(cfg, tmp_path / "out")
    assert code == 0
    doc = json.loads((tmp_path / "out" / "eigen.json").read_text())
    validate(doc, load_schema("eigen"))
    assert "iterations" not in doc
    assert doc["lambda1"] == pytest.approx(np.pi**2, abs=2e-3)
    [(phi, t)] = fieldio.read_fields(tmp_path / "out" / "phi1.field")
    assert t == 0.0
    assert phi.shape == (101,)
    assert np.max(phi) == pytest.approx(1.0)


def test_dispatch_barrier(tmp_path):
    cfg = parse_config(BARRIER_CFG + "n_radial = 1000\n")
    code = dispatch(cfg, tmp_path / "out")
    assert code == 0
    doc = json.loads((tmp_path / "out" / "barrier_certificate.json").read_text())
    validate(doc, load_schema("barrier_certificate"))
    assert doc["certified"]
    assert doc["params"]["beta"] == pytest.approx(1 / 6)


@pytest.mark.parametrize("g_sup", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("grad_g", [0.0, 1.0, 10.0, 50.0, 200.0])
def test_certify_barrier_certifies_the_delta_its_search_returns(tmp_path, grad_g, g_sup):
    # from grad_g = 10 on the jal invariant binds at the searched delta: the
    # lower bound phi' - |grad g| of |grad v| reaches 0 at the collar edge,
    # where the eps = 0 residual would then be -(2 |grad g|)^q. A config
    # that the search accepts must certify (exit 0), never fail (exit 1)
    path = tmp_path / "barrier.cfg"
    path.write_text(BARRIER_CFG + f"grad_g = {grad_g!r}\ng_sup = {g_sup!r}\n")
    out = tmp_path / "out"
    code = main(["certify-barrier", "--config", str(path), "--out", str(out)])
    assert code != 1, json.loads((out / "barrier_certificate.json").read_text())["supersolution"]
    assert code in (0, 2, 3)


CONTINUATION_CFG = """
[experiment]
kind = epsilon_continuation

[grid]
extents = 0, 1
points = 41

[problem]
p = 3.0
q = 2.5

[control]
t_end = 0.002

[continuation]
epsilons = 1e-2, 1e-3, 1e-4
"""


def test_dispatch_continuation(tmp_path):
    cfg = parse_config(CONTINUATION_CFG)
    code = dispatch(cfg, tmp_path / "out")
    assert code == 0
    doc = json.loads((tmp_path / "out" / "continuation.json").read_text())
    validate(doc, load_schema("continuation"))
    assert doc["monotone"]
    assert len(fieldio.read_fields(tmp_path / "out" / "final_fields.field")) == 4


def test_dispatch_continuation_writes_one_field_per_eps(tmp_path):
    # the first two eps agree to 6 significant digits; each run keeps its record,
    # in the order of continuation.json's epsilons, and the extrapolation comes last
    cfg = parse_config(CONTINUATION_CFG.replace("1e-2, 1e-3, 1e-4", "0.1234562, 0.1234561, 0"))
    assert dispatch(cfg, tmp_path / "out") == 0
    doc = json.loads((tmp_path / "out" / "continuation.json").read_text())
    report = epsilon_continuation(cfg.spec, cfg["continuation"]["epsilons"], cfg.control)
    assert doc["epsilons"] == list(report.epsilons) == [0.1234562, 0.1234561, 0.0]
    records = fieldio.read_fields(tmp_path / "out" / "final_fields.field")
    assert len(records) == 4
    for (u, t), field in zip(records, [*report.final_fields, report.extrapolated]):
        assert t == cfg.control.t_end
        assert np.array_equal(u, field)
    assert not list((tmp_path / "out").glob("final_eps_*"))


GBU_DETECT_CFG = """
[experiment]
kind = gbu_detect

[grid]
extents = 0, 1
points = 51

[problem]
p = 3.0
q = 4.0
amplitude = 2.0

[control]
t_end = 0.05
dt_min = 1e-13

[gbu]
thresholds = 40, 80, 160
grids = 101
"""


def test_parse_builds_one_spec_per_grid_and_one_control():
    cfg = parse_config(GBU_DETECT_CFG.replace("grids = 101", "grids = 101, 201"))
    assert [s.grid.points_per_axis for s in cfg.specs] == [(101,), (201,)]
    assert [(s.p, s.q) for s in cfg.specs] == [(3.0, 4.0)] * 2
    # the control stops at the largest threshold and reports every crossing
    assert cfg.control.gbu_threshold == 160.0
    assert cfg.control.report_thresholds == (40.0, 80.0, 160.0)
    assert (cfg.control.t_end, cfg.control.dt_min) == (0.05, 1e-13)
    assert cfg.grid.points_per_axis == (51,)
    assert parse_config(canonical_text(cfg)).sections == cfg.sections
    assert cfg.controls == (cfg.control, cfg.control)


def test_parse_weights_each_control_on_its_grid():
    # [control] alpha: each spec's control records y with phi1^alpha of its own grid
    cfg = parse_config(GBU_DETECT_CFG.replace("grids = 101", "grids = 51, 101")
                       .replace("t_end", "alpha = 2.5\nt_end"))
    for spec, control in zip(cfg.specs, cfg.controls, strict=True):
        phi1 = principal_eigenpair(spec.grid).phi1
        assert np.array_equal(control.functional_weight, np.power(phi1, 2.5))
        assert replace(control, functional_weight=None) == replace(
            cfg.control, functional_weight=None)


def test_dispatch_gbu_detect(tmp_path):
    cfg = parse_config(GBU_DETECT_CFG)
    code = dispatch(cfg, tmp_path / "out")
    doc = json.loads((tmp_path / "out" / "gbu_verdict.json").read_text())
    validate(doc, load_schema("gbu_verdict"))
    assert doc["status"] == "GBU"
    assert code == 0
    # one run per grid, whose report holds every threshold's crossing
    runs = tmp_path / "out" / "runs"
    assert [p.name for p in runs.iterdir()] == ["n101"]
    assert (runs / "n101" / "monitors.csv").exists()
    report = json.loads((runs / "n101" / "run_report.json").read_text())
    assert report["threshold_crossings"] == {
        repr(e["threshold"]): e["t_detect"] for e in doc["evidence"]
    }


@pytest.mark.parametrize(("text", "top_reason"), [
    (GBU_DETECT_CFG, "threshold"),
    (GBU_DETECT_CFG.replace("dt_min = 1e-13", "dt_min = 1e-8"), "dt_floor"),  # before 80
    (GBU_DETECT_CFG.replace("t_end = 0.05", "t_end = 0.00026"), "t_end"),  # before 160
], ids=["threshold", "dt_floor", "never_reached"])
def test_gbu_detect_evidence_matches_one_run_per_threshold(tmp_path, text, top_reason):
    cfg = parse_config(text)
    assert dispatch(cfg, tmp_path / "out") in (0, 1)
    doc = json.loads((tmp_path / "out" / "gbu_verdict.json").read_text())
    expected, reasons = [], []
    for g in cfg.control.report_thresholds:
        _, rep = run(cfg.spec, replace(cfg.control, gbu_threshold=g, report_thresholds=()))
        expected.append({"resolution": 101, "threshold": g, "t_detect": rep.t_detect})
        reasons.append(rep.reason)
    assert doc["evidence"] == expected
    assert reasons[-1] == top_reason


def test_gbu_detect_jobs_2_matches_jobs_1(tmp_path):
    path = write_cfg(tmp_path, GBU_DETECT_CFG.replace("grids = 101", "grids = 51, 101"))
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code = main(["detect-gbu", "--config", str(path), "--out", str(out), "--jobs", jobs])
        files = {"exit code": code}
        for f in sorted(out.rglob("*")):
            if f.name == "run_report.json":
                files[f.relative_to(out)] = {
                    k: v for k, v in json.loads(f.read_text()).items() if k != "wall_time"}
            elif f.is_file():
                files[f.relative_to(out)] = f.read_bytes()
        trees.append(files)
    assert sorted(p.name for p in (tmp_path / "jobs2" / "runs").iterdir()) == ["n101", "n51"]
    assert trees[0] == trees[1]


# -- entry point -------------------------------------------------------------------------

def test_main_verb_kind_mismatch_exit_2(tmp_path):
    path = write_cfg(tmp_path, MINIMAL_SIMULATE)
    assert main(["eig", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_main_config_error_exit_2(tmp_path):
    path = write_cfg(tmp_path, MINIMAL_SIMULATE.replace("q = 2.5", "q = 1.0"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("amplitude", ["nan", "inf"])
def test_main_nonfinite_amplitude_exit_2(tmp_path, amplitude):
    text = MINIMAL_SIMULATE.replace("q = 2.5", f"q = 2.5\namplitude = {amplitude}")
    path = write_cfg(tmp_path, text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


RAMP_2D = MINIMAL_SIMULATE.replace("points = 41", "points = 11, 11").replace(
    "extents = 0, 1", "extents = 0, 1; 0, 1").replace("q = 2.5", "q = 2.5\nprofile = ramp")

BISECT_CFG = """
[experiment]
kind = criterion_bisect

[grid]
extents = 0, 1
points = 41

[problem]
p = 3.0
q = 4.0

[control]
t_end = 0.01

[criterion]
"""


@pytest.mark.parametrize(("verb", "text", "message"), [
    ("simulate", MINIMAL_SIMULATE + "monitor_stride = 0\n", "monitor_stride must be >= 1"),
    ("simulate", MINIMAL_SIMULATE + "dt_min = 0\n", "dt_min must be positive"),
    ("simulate", MINIMAL_SIMULATE + "gbu_threshold = -1\n", "gbu_threshold must be positive"),
    ("simulate", MINIMAL_SIMULATE + "snapshot_every = -1\n", "snapshot_every must be >= 0"),
    ("simulate", MINIMAL_SIMULATE + "max_steps = -1\n", "max_steps must be >= 0"),
    ("simulate", RAMP_2D, "ramp profile is 1D only"),
    ("detect-gbu", GBU_DETECT_CFG.replace("grids = 101", "grids = 2"),
     "need at least 3 nodes per axis, got 2"),
    ("detect-gbu", GBU_DETECT_CFG.replace("thresholds = 40, 80, 160", "thresholds = -5, 200"),
     "report_thresholds must be positive"),
    ("simulate", MINIMAL_SIMULATE.replace("q = 2.5", "q = 2.5\nepsilon = nan"),
     "requires eps >= 0"),
    ("detect-gbu", GBU_DETECT_CFG.replace("t_end", "gbu_threshold = -1\nt_end"),
     "gbu_detect takes no [control] gbu_threshold: it stops at the largest [gbu] thresholds"),
    ("detect-gbu", GBU_DETECT_CFG.replace("t_end", "gbu_threshold = 300\nt_end"),
     "gbu_detect takes no [control] gbu_threshold: it stops at the largest [gbu] thresholds"),
    ("continue-eps", CONTINUATION_CFG.replace("1e-2, 1e-3, 1e-4", "0.1, 0.01, -0.001"),
     "epsilons must be strictly decreasing and nonnegative"),
    ("detect-gbu", GBU_DETECT_CFG.replace("grids = 101", "grids = 101, 101"),
     "grids must not repeat an entry, got [101, 101]"),
    ("bisect-criterion", BISECT_CFG.replace("t_end", "alpha = 2\nt_end"),
     "criterion_bisect takes no [control] alpha"),
    ("continue-eps", CONTINUATION_CFG.replace("t_end", "alpha = 2\nt_end"),
     "epsilon_continuation takes no [control] alpha"),
    ("eig", EIG_CFG + "\n[eig]\ntol = 1e-10\n", "section [eig] is not allowed for kind 'eig'"),
    ("bisect-criterion", BISECT_CFG + "amplitude_low = -1\n",
     "requires finite 0 <= amplitude_low < amplitude_high"),
    ("bisect-criterion", BISECT_CFG + "amplitude_high = nan\n",
     "requires finite 0 <= amplitude_low < amplitude_high"),
    ("bisect-criterion", BISECT_CFG + "amplitude_low = 1.0\namplitude_high = 0.5\n",
     "requires finite 0 <= amplitude_low < amplitude_high"),
    ("certify-barrier", BARRIER_CFG + "n_radial = 1\n", "need at least 2 radial points"),
    ("certify-barrier", BARRIER_CFG + "eps_values = 0, 2\n", "requires eps in [0, 1]"),
    ("certify-barrier", BARRIER_CFG + "eps_values =\n", "need at least one eps value"),
    ("check", COMPLIANCE_CFG + "checks =\n", "[compliance] checks is empty"),
    ("check", COMPLIANCE_CFG + "checks =\ntrajectory = monitors.csv\n",
     "[compliance] checks is empty"),
    ("continue-eps", CONTINUATION_CFG.replace("q = 2.5", "q = 2.5\nepsilon = 0.01"),
     "epsilon_continuation takes no [problem] epsilon: [continuation] epsilons sets it"),
    *(("certify-barrier", BARRIER_CFG.replace("q = 4.0", f"q = 4.0\n{key} = {value}"),
       f"barrier_certify takes no [problem] {key}: the certificate reads only p and q")
      for key, value in (("epsilon", "0.1"), ("mu", "2.0"), ("profile", "ramp"),
                         ("amplitude", "0.5"))),
    *(("bisect-criterion", BISECT_CFG.replace("q = 4.0", f"q = 4.0\n{key} = {value}"),
       f"criterion_bisect takes no [problem] {key}: the bisection varies the amplitude "
       "of sine data")
      for key, value in (("profile", "ramp"), ("amplitude", "0.5"))),
    ("check", COMPLIANCE_CFG + "checks = max_principle\ntrajectory = monitors.csv\n",
     "compliance_suite with a stored trajectory takes no [control]"),
    # unchecked, an infinite eps or q runs to a dt_floor stall at step 0,
    # mu = inf to a non-finite stall, and inf or nan in epsilons to a failed run
    *(("simulate", MINIMAL_SIMULATE.replace("q = 2.5", f"q = 2.5\n{key} = inf"),
       "requires finite p, q, eps and mu") for key in ("epsilon", "mu")),
    ("simulate", MINIMAL_SIMULATE.replace("q = 2.5", "q = inf"),
     "requires finite p, q, eps and mu"),
    ("continue-eps", CONTINUATION_CFG.replace("1e-2, 1e-3, 1e-4", "1e-2, nan, 0"),
     "epsilons must be finite"),
    ("continue-eps", CONTINUATION_CFG.replace("1e-2, 1e-3, 1e-4", "inf, 1e-2, 0"),
     "epsilons must be finite"),
    # unchecked, fewer samples than dimensions fail in the sweep, after the run
    *(("check", COMPLIANCE_CFG.replace("= 2000", f"= {n}"), "monotonicity_samples must be >= 4")
      for n in (3, 0)),
    # unchecked, a negative count runs the two bracket probes and reports the bracket
    ("bisect-criterion", BISECT_CFG + "bisect_iters = -3\n", "bisect_iters must be >= 0"),
    # unchecked, huge norms overflow the delta search after the output root is
    # written (exit 3), a negative g_min certifies (exit 0), and alpha < 1 runs
    *(("certify-barrier", BARRIER_CFG + f"{key} = 1e300\n",
       "no admissible delta within the float range for p=3.0, q=4.0, N=1")
      for key in ("grad_g", "hess_g")),
    ("certify-barrier", BARRIER_CFG + "g_min = -1\n",
     "data norms and g_min must be finite and nonnegative"),
    ("simulate", MINIMAL_SIMULATE + "alpha = 0.5\n", "requires a finite alpha >= 1, got 0.5"),
], ids=["monitor_stride", "dt_min", "gbu_threshold", "snapshot_every", "max_steps", "ramp_2d",
        "gbu_grids", "gbu_thresholds", "epsilon_nan", "gbu_detect_control_threshold_neg",
        "gbu_detect_control_threshold_300", "epsilons", "gbu_grids_repeated",
        "bisect_control_alpha", "continuation_control_alpha", "eig_tol", "bisect_amplitude_low",
        "bisect_amplitude_high_nan", "bisect_bracket_reversed", "barrier_n_radial",
        "barrier_eps_values", "barrier_eps_values_empty", "compliance_checks_empty",
        "compliance_stored_checks_empty", "continuation_problem_epsilon", "barrier_epsilon",
        "barrier_mu", "barrier_profile", "barrier_amplitude", "bisect_profile",
        "bisect_amplitude", "compliance_stored_control", "epsilon_inf", "mu_inf", "q_inf",
        "epsilons_nan", "epsilons_inf", "monotonicity_samples_3", "monotonicity_samples_0",
        "bisect_iters_negative", "barrier_grad_g_overflow", "barrier_hess_g_overflow",
        "barrier_g_min_negative", "control_alpha_below_1"])
def test_main_value_rejected_by_constructor_exit_2_before_any_run(
    tmp_path, capsys, verb, text, message
):
    # the parser and the constructors check values at parse time: config error, no run
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([verb, "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (out / "failure.json").exists()
    assert not (out / "runs").exists()


VERB_CFGS = {
    "simulate": MINIMAL_SIMULATE,
    "continue-eps": CONTINUATION_CFG,
    "detect-gbu": GBU_DETECT_CFG,
    "certify-barrier": BARRIER_CFG + "n_radial = 1000\n",
    "bisect-criterion": BISECT_CFG + "bisect_iters = 0\n",
    "check": COMPLIANCE_CFG,
    "eig": EIG_CFG,
}


def _nonfinite_cases():
    """(verb, text) with one float key of the verb's VERB_CFGS config set to
    nan and to inf: a number, the last entry of a list, the upper bound of
    the last extent. gbu_threshold = inf is a run with no threshold stop."""
    cases = []
    for verb in sorted(_VERBS):
        cfg = parse_config(VERB_CFGS[verb])
        for sec, values in cfg.sections.items():
            for key, value in values.items():
                for bad in (math.nan, math.inf):
                    if value and isinstance(value, list) and isinstance(value[-1], list):
                        new = [*value[:-1], [value[-1][0], bad]]
                    elif value and isinstance(value, list) and isinstance(value[-1], float):
                        new = [*value[:-1], bad]
                    elif isinstance(value, float) or value is None:  # None: [control] alpha
                        new = bad
                    else:
                        continue
                    if (key, bad) == ("gbu_threshold", math.inf):
                        continue
                    sections = {name: dict(v) for name, v in cfg.sections.items()}
                    sections[sec][key] = new
                    text = canonical_text(replace(cfg, sections=sections))
                    cases.append(pytest.param(verb, text, id=f"{verb}-{key}-{bad}"))
    return cases


@pytest.mark.parametrize(("verb", "text"), _nonfinite_cases())
def test_nonfinite_value_is_a_config_error_before_any_output(tmp_path, verb, text):
    # parse first: unchecked, t_end = inf (simulate, continue-eps) and
    # [barrier] rho = inf never return; other values fail after the output
    # root is written, or pass with nan monitors
    with pytest.raises(ConfigError):
        parse_config(text)
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([verb, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("verb", sorted(_VERBS))
def test_every_verb_writes_its_canonical_config(tmp_path, verb):
    path = write_cfg(tmp_path, VERB_CFGS[verb])
    out = tmp_path / "out"
    assert main([verb, "--config", str(path), "--out", str(out)]) == 0
    written = (out / "config.canonical.cfg").read_text()
    cfg = parse_config(VERB_CFGS[verb])
    assert written == canonical_text(cfg)
    assert parse_config(written).sections == cfg.sections


@pytest.mark.parametrize(("text", "flags", "message"), [
    (COMPLIANCE_CFG.replace("seed = 7", "seed = -1"), [], "requires seed >= 0, got -1"),
    (COMPLIANCE_CFG, ["--seed", "-5"], "requires seed >= 0, got -5"),
], ids=["config", "flag"])
def test_negative_seed_is_a_config_error_before_any_output(tmp_path, capsys, text, flags,
                                                           message):
    # numpy's seed sequence rejects a negative seed only in the monotonicity
    # sweep, after the run has written its report, monitors and final field
    path = write_cfg(tmp_path, text + "checks = monotonicity\n")
    out = tmp_path / "out"
    assert main(["check", "--config", str(path), "--out", str(out), *flags]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_canonical_config_records_the_seed_override(tmp_path):
    path = write_cfg(tmp_path, MINIMAL_SIMULATE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out), "--seed", "7"]) == 0
    written = (out / "config.canonical.cfg").read_text()
    assert "\nseed = 7\n" in written
    assert parse_config(written).seed == 7


def test_stored_check_on_an_old_monitor_header_exit_3(tmp_path):
    # monitors.csv of the format that still wrote sup_u and min_source
    old = "t,max_u,min_u,grad_inf,y,ut_l2_acc,sup_u,max_ut,min_source,source_energy_acc,dt"
    csv_path = tmp_path / "monitors.csv"
    csv_path.write_text(old + "\n0.0,1.0,0.0,3.1,nan,0.0,1.0,nan,nan,0.0,0.0\n")
    text = COMPLIANCE_CFG.split("[control]")[0] + (
        f"[compliance]\nchecks = max_principle\ntrajectory = {csv_path}\n")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", str(path), "--out", str(out)]) == 3
    failure = json.loads((out / "failure.json").read_text())
    assert "unexpected monitor columns" in failure["message"]
    assert str(old.split(",")) in failure["message"]
    assert not (out / "compliance_report.json").exists()


def test_stored_check_on_a_monitor_file_without_rows_exit_3(tmp_path):
    # a header and no rows: the failure names the file, instead of an
    # IndexError from the check's first row
    csv_path = tmp_path / "monitors.csv"
    csv_path.write_text(",".join(MONITOR_COLUMNS) + "\n")
    text = COMPLIANCE_CFG.split("[control]")[0] + (
        f"[compliance]\nchecks = max_principle\ntrajectory = {csv_path}\n")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", str(path), "--out", str(out)]) == 3
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "ValueError"
    assert f"{csv_path} holds no monitor rows" in failure["message"]
    assert not (out / "compliance_report.json").exists()



# a stored check of MINIMAL_SIMULATE's problem, before its [compliance] section
STORED_CHECK = MINIMAL_SIMULATE.replace("kind = simulate", "kind = compliance_suite").split(
    "[control]")[0]
ALL_CHECKS = "checks = max_principle, regularizing_effect, energy_estimate, monotonicity\n"


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    """The output root of a MINIMAL_SIMULATE simulate run: monitors.csv with
    the states.field beside it."""
    root = tmp_path_factory.mktemp("stored_run")
    path = write_cfg(root, MINIMAL_SIMULATE)
    assert main(["simulate", "--config", str(path), "--out", str(root / "sim")]) == 0
    return root / "sim"


def run_stored_check(tmp_path, checks, monitors_csv, name="stored"):
    """Exit code and output root of a stored check of monitors_csv."""
    text = STORED_CHECK + f"[compliance]\n{checks}trajectory = {monitors_csv}\n"
    out = tmp_path / name
    return main(["check", "--config", str(write_cfg(tmp_path, text, f"{name}.cfg")),
                 "--out", str(out)]), out


def test_stored_check_writes_the_fresh_checks_report(tmp_path, stored_run):
    # every check takes its constants from the record a run keeps: p from
    # [problem], sup|u0| from the first monitor row, u0 from the first state
    # of the states.field beside monitors.csv, or nothing (monotonicity), so
    # a check of the simulate output gives the fresh check's report byte for
    # byte
    checks = ALL_CHECKS + "monotonicity_samples = 2000\n"
    fresh = MINIMAL_SIMULATE.replace("kind = simulate", "kind = compliance_suite")
    path = write_cfg(tmp_path, fresh + "\n[compliance]\n" + checks, "fresh.cfg")
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "fresh")]) == 0
    code, out = run_stored_check(tmp_path, checks, stored_run / "monitors.csv")
    assert code == 0
    fresh_doc, stored_doc = ((tmp_path / name / "compliance_report.json").read_text()
                             for name in ("fresh", "stored"))
    assert stored_doc == fresh_doc
    assert [c["name"] for c in json.loads(stored_doc)["checks"]] == [
        "max_principle", "regularizing_effect", "energy_estimate", "monotonicity_suite"]
    assert sorted(p.name for p in out.iterdir()) == [
        "compliance_report.json", "config.canonical.cfg"]


@pytest.mark.parametrize("checks", ["checks = energy_estimate\n",
                                    "checks = max_principle, energy_estimate\n", ""],
                         ids=["alone", "among_others", "default_all"])
def test_stored_check_of_energy_estimate_reads_u0_beside_the_monitors(
    tmp_path, stored_run, checks
):
    # the energy check reads u0 from the first record of states.field
    code, out = run_stored_check(tmp_path, checks, stored_run / "monitors.csv")
    assert code == 0
    doc = json.loads((out / "compliance_report.json").read_text())
    assert doc["passed"] and "energy_estimate" in [c["name"] for c in doc["checks"]]


def lone_monitors(tmp_path, stored_run):
    """A copy of the stored run's monitors.csv with no states.field beside it."""
    lone = tmp_path / "lone"
    lone.mkdir()
    shutil.copy(stored_run / "monitors.csv", lone / "monitors.csv")
    return lone / "monitors.csv"


def test_stored_energy_check_without_states_field_exit_3(tmp_path, stored_run):
    csv_path = lone_monitors(tmp_path, stored_run)
    code, out = run_stored_check(tmp_path, "checks = max_principle, energy_estimate\n", csv_path)
    assert code == 3
    failure = json.loads((out / "failure.json").read_text())
    assert str(csv_path.parent / "states.field") in failure["message"]
    assert not (out / "compliance_report.json").exists()


def test_stored_energy_check_whose_first_record_is_not_u0_exit_3(tmp_path, stored_run):
    # states.field without its t = 0 record: the first state is not u0
    csv_path = lone_monitors(tmp_path, stored_run)
    records = fieldio.read_fields(stored_run / "states.field")
    fieldio.write_fields(csv_path.parent / "states.field", records[1:])
    code, out = run_stored_check(tmp_path, "checks = energy_estimate\n", csv_path)
    assert code == 3
    failure = json.loads((out / "failure.json").read_text())
    assert (failure["error"], failure["message"]) == (
        "ValueError", f"the energy bound needs u0, and the first kept state is at "
                      f"t={records[1][1]!r}")
    assert not (out / "compliance_report.json").exists()


def test_stored_check_of_the_monitors_alone_needs_no_states_field(tmp_path, stored_run):
    # only energy_estimate reads a state
    csv_path = lone_monitors(tmp_path, stored_run)
    code, out = run_stored_check(tmp_path, "checks = max_principle\n", csv_path)
    assert code == 0
    doc = json.loads((out / "compliance_report.json").read_text())
    assert doc["passed"] and [c["name"] for c in doc["checks"]] == ["max_principle"]


# the README example, and a stored check of all four on its simulate output
README_CFG = re.search(r"```ini\n(.*?)```",
                       (Path(__file__).resolve().parents[1] / "README.md").read_text(),
                       re.S).group(1)
README_CHECK = """
[experiment]
kind = compliance_suite

[grid]
extents = 0, 1
points = 201

[problem]
p = 3.0
q = 2.5
epsilon = 1e-3

[compliance]
checks = max_principle, regularizing_effect, energy_estimate, monotonicity
monotonicity_samples = 2000
trajectory = {}
"""


@pytest.fixture(scope="module")
def readme_run(tmp_path_factory):
    """The output root of the README example's simulate run."""
    root = tmp_path_factory.mktemp("readme_run")
    path = write_cfg(root, README_CFG)
    assert main(["simulate", "--config", str(path), "--out", str(root / "sim")]) == 0
    return root / "sim"


@pytest.mark.parametrize("old, new, message", [
    ("p = 3.0\n", "p = 3.4\n", "[problem] p = 3.4 is not the stored run's p = 3.0"),
    ("epsilon = 1e-3\n", "epsilon = 0.5\n",
     "[problem] epsilon = 0.5 is not the stored run's epsilon = 0.001"),
    # the four checks pass on this pair unless it is compared with the run
    ("p = 3.0\nq = 2.5\nepsilon = 1e-3\n", "p = 3.4\nq = 2.5\nepsilon = 0.5\n",
     "[problem] p = 3.4 is not the stored run's p = 3.0"),
    ("q = 2.5\n", "q = 3.0\n", "[problem] q = 3.0 is not the stored run's q = 2.5"),
    ("epsilon = 1e-3\n", "epsilon = 1e-3\nmu = 0.5\n",
     "[problem] mu = 0.5 is not the stored run's mu = 1.0"),
    ("points = 201", "points = 101", "[grid] points = 101 is not the stored run's points = 201"),
    ("extents = 0, 1", "extents = 0, 2",
     "[grid] extents = 0.0, 2.0 is not the stored run's extents = 0.0, 1.0"),
], ids=["p", "epsilon", "p_and_epsilon", "q", "mu", "points", "extents"])
def test_stored_check_of_another_problem_is_a_config_error_before_any_output(
    tmp_path, capsys, readme_run, old, new, message
):
    # the check's [grid] and [problem] p, q, eps and mu are compared with
    # the config.canonical.cfg beside the monitors.csv
    text = README_CHECK.format(readme_run / "monitors.csv")
    assert text.count(old) == 1
    path = write_cfg(tmp_path, text.replace(old, new))
    out = tmp_path / "out"
    assert main(["check", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}, in {readme_run / 'config.canonical.cfg'}" in err
    assert not out.exists()


def test_stored_check_compares_parsed_values_not_text(tmp_path, readme_run):
    # 0.0, 1.0 and 0.001 are the values of 0, 1 and 1e-3; no check reads
    # the profile or the amplitude, so they are not compared
    text = README_CHECK.format(readme_run / "monitors.csv").replace(
        "extents = 0, 1", "extents = 0.0, 1.0").replace(
        "epsilon = 1e-3\n", "epsilon = 0.001\nprofile = constant\namplitude = 2.0\n")
    path = write_cfg(tmp_path, text)
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "compliance_report.json").read_text())["passed"]


def test_stored_check_of_a_lone_monitors_csv_compares_nothing(tmp_path, readme_run):
    # no config.canonical.cfg beside the monitors.csv, as in detect-gbu's
    # runs/nXXX: the check runs on its own [problem]
    csv_path = lone_monitors(tmp_path, readme_run)
    text = README_CHECK.format(csv_path).replace("p = 3.0", "p = 3.4").replace(
        "max_principle, regularizing_effect, energy_estimate, monotonicity", "max_principle")
    path = write_cfg(tmp_path, text)
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "compliance_report.json").read_text())["passed"]


def test_check_without_a_compliance_section_records_what_it_runs():
    # the canonical config of a check names the checks and sample count it
    # ran, whether its config spells out [compliance] or not
    text = COMPLIANCE_CFG.split("[compliance]")[0]
    canon = canonical_text(parse_config(text))
    assert canon == canonical_text(parse_config(text + "[compliance]\n"))
    assert ("\n[compliance]\nchecks = max_principle, regularizing_effect, energy_estimate, "
            "monotonicity\n") in canon
    assert "\nmonotonicity_samples = 20000\n" in canon


def test_main_check_on_zero_data_exit_0(tmp_path):
    # flat data take one step; the regularizing check scores that step's
    # u_t = 0 against the zero-data bound, with no warm-up rows to skip
    text = COMPLIANCE_CFG.replace("epsilon = 1.0\nprofile = constant\namplitude = 1.0",
                                  "epsilon = 1e-3\nprofile = sine\namplitude = 0.0")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", str(path), "--out", str(out)]) == 0
    doc = json.loads((out / "compliance_report.json").read_text())
    reg = next(c for c in doc["checks"] if c["name"] == "regularizing_effect")
    assert reg["passed"] and reg["worst_margin"] == 0.0
    assert not (out / "failure.json").exists()


def test_main_missing_config_exit_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_main_simulate_exit_0(tmp_path):
    path = write_cfg(tmp_path, MINIMAL_SIMULATE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "run_report.json").exists()


def test_main_nonfinite_initial_energy_writes_run_artifacts(tmp_path):
    # |u0'| ~ 3e130: the step bound overflows and ends the run at dt_floor
    text = MINIMAL_SIMULATE.replace("q = 2.5", "q = 4.0\nprofile = sine\namplitude = 1e130")
    path = write_cfg(tmp_path, text + "gbu_threshold = 1e300\n")
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    report = json.loads((out / "run_report.json").read_text())
    assert (report["verdict"], report["reason"]) == ("StalledStep", "dt_floor")
    validate(report, load_schema("run_report"))
    assert read_monitors_csv(out / "monitors.csv")["t"].tolist() == [0.0]
    assert not (out / "failure.json").exists()


def test_main_env_var_output_root(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, MINIMAL_SIMULATE)
    root = tmp_path / "envroot"
    monkeypatch.setenv("GBULAB_OUT", str(root))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 0
    assert (root / "run_report.json").exists()


def test_main_runtime_failure_exit_3(tmp_path):
    # stalled run (max_steps) yields a runtime-failure exit from simulate
    cfg_text = MINIMAL_SIMULATE.replace("t_end = 0.002", "t_end = 10.0\nmax_steps = 5")
    path = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
