"""The benchmark's own tests: its gates reject bad outputs, its counters
count what they claim, and BENCHMARK.json lists what run.py prints.

    python3 -m pytest perfbench -q
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

gb = workloads.import_gbulab(HERE.parent)


@pytest.fixture(scope="module")
def small_run():
    grid = gb.grid.build_grid((0.0, 1.0), 51)
    spec = gb.problem.make_spec(grid, 3.0, 2.5, profile="sine", amplitude=1.0)
    control = gb.stepping.StepControl(t_end=0.01)
    traj, report = gb.stepping.run(spec, control)
    return spec, control, traj, report


def test_extremum_gate_rejects_corrupted_monitor_series(small_run):
    spec, _, _, report = small_run
    h = spec.grid.h_min
    mon = report.monitors
    assert gates.monitor_extrema(mon["min_u"], mon["max_u"], 0.0, 1.0, h) is None
    spiked = mon["max_u"].copy()
    spiked[len(spiked) // 2] = 1.0 + 3 * h
    assert gates.monitor_extrema(mon["min_u"], spiked, 0.0, 1.0, h) is not None
    dipped = mon["min_u"].copy()
    dipped[-1] = float("nan")
    assert gates.monitor_extrema(dipped, mon["max_u"], 0.0, 1.0, h) is not None


def test_row_gate_rejects_a_truncated_monitor_file(small_run, tmp_path):
    _, _, _, report = small_run
    path = tmp_path / "monitors.csv"
    gb.stepping.write_monitors_csv(path, report.monitors)
    text = path.read_text()
    assert gates.monitor_rows(text, report.steps) is None
    truncated = "".join(text.splitlines(keepends=True)[:-1])
    assert gates.monitor_rows(truncated, report.steps) is not None


def test_verdict_gates_reject_a_wrong_verdict():
    st = gb.stepping
    growing = [st.ThresholdCrossing(201, g, t) for g, t in ((100.0, 1.0), (200.0, 2.0), (400.0, 4.0))]
    verdict = st.detect_gbu(growing)
    assert verdict.status != "GBU"
    assert gates.equals("status", verdict.status, "GBU") is not None
    assert gates.equals("verdict", "Completed", "GBUDetected") is not None
    assert gates.equals("verdict", "GBUDetected", "GBUDetected") is None
    assert gates.all_crossed({100.0: 1e-3, 200.0: None}, (100.0, 200.0)) is not None


def test_crossing_spread_gate():
    assert gates.crossing_spread([1.00, 1.02, 1.05, 0.99]) is None
    assert gates.crossing_spread([1.0, 1.2]) is not None
    assert gates.crossing_spread([1.0, None]) is not None


def test_schema_gate_rejects_a_document_missing_a_key():
    doc = {"lambda1": 9.87, "residual": 1e-12, "iterations": 3,
           "grid": {"extents": [[0.0, 1.0]], "points_per_axis": [11]},
           "phi1_field_file": "phi1.field"}
    validate = gb.schema.validate_output
    assert gates.schema_valid(validate, "eigen", doc) is None
    del doc["lambda1"]
    assert gates.schema_valid(validate, "eigen", doc) is not None


def test_source_limited_counts_from_previous_row():
    spec = gb.problem.make_spec(gb.grid.build_grid((0.0, 1.0), 11), 3.0, 4.0)
    control = gb.stepping.StepControl(t_end=1.0, t_marks=(0.5,))
    # h = 0.1, p = 3, q = 4, eps = 0: source-limited iff 0.4 W^3 > 4 W, i.e. W > sqrt(10)
    monitors = {
        "t": [0.0, 0.1, 0.2, 0.5, 0.6, 1.0],
        "grad_inf": [1.0, 5.0, 5.0, 5.0, 1.0, 5.0],
    }
    monitors = {k: np.array(v) for k, v in monitors.items()}
    # rows 1..5 use W = 1, 5, 5, 5, 1; row 3 hits the mark, row 5 hits t_end
    assert tracer.source_limited(spec, control, monitors) == (2, 3)


def test_run_key_ignores_stop_threshold_only():
    st = gb.stepping
    grid = gb.grid.build_grid((0.0, 1.0), 11)
    spec = gb.problem.make_spec(grid, 3.0, 4.0, amplitude=1.5)
    low = st.StepControl(t_end=0.35, gbu_threshold=100.0)
    high = st.StepControl(t_end=0.35, gbu_threshold=400.0, report_thresholds=(100.0,))
    assert tracer.run_key(spec, low) == tracer.run_key(spec, high)
    other = gb.problem.make_spec(grid, 3.0, 4.0, amplitude=1.5000001)
    assert tracer.run_key(other, low) != tracer.run_key(spec, low)
    assert tracer.run_key(spec, st.StepControl(t_end=0.3)) != tracer.run_key(spec, low)


def test_tracer_spans_and_restore(small_run):
    spec, control, _, report = small_run
    original = gb.stepping.run
    tr = tracer.Tracer()
    tr.install(gb)
    try:
        tr.iteration = 0
        _, traced = gb.stepping.run(spec, control)
        _, again = gb.stepping.run(spec, control)
    finally:
        tr.remove()
    assert gb.stepping.run is original and gb.spectral.run is original
    assert tr.missing == []
    assert traced.steps == again.steps == report.steps
    runs = [s for s in tr.spans if s[1] == "stepping.run"]
    assert len(runs) == 2
    for sid, _, start, end, parent, iteration, own, rollup in runs:
        assert parent is None and iteration == 0
        assert 0.0 < own < end - start
        assert rollup["operators.regularized_diffusion"][0] == report.steps
    values = tr.metrics(1, 0.0, 0.0)
    assert values["stepping.steps"]["value"] == 2 * report.steps
    assert values["stepping.duplicate_step_frac"]["value"] == 0.5
    calls = tr.calls["operators.face_fluxes"][0]
    assert calls == 2 * report.steps


def test_determinism_flags_drift():
    same = [{"fingerprint": {"steps": 10, "t": 0.5}} for _ in range(3)]
    assert run.determinism(same) is None
    drifted = same + [{"fingerprint": {"steps": 11, "t": 0.5}}]
    assert "steps" in run.determinism(drifted)


def test_benchmark_json_lists_what_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(tracer.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

