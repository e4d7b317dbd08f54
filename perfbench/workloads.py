"""The benchmark's workloads.

Each workload draws its inputs from the seed, sets up once, and then runs
identical iterations through gbulab's public API in this process. An
iteration has two halves: `iterate` makes the program calls (timed), and
`check` turns their results into gated operations and a determinism
fingerprint (not timed). Program functions are always looked up through
their module (`gb.stepping.run`, not a name imported here), so the tracer's
wrappers see every call.
"""
from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import sys
from pathlib import Path

import gates


def import_gbulab(root: Path):
    """Import gbulab from `root/src` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import gbulab

    importlib.import_module("gbulab.cli")  # the package does not import its CLI
    if Path(gbulab.__file__).resolve().parent != src / "gbulab":
        raise ImportError(f"gbulab was imported from {gbulab.__file__}, not from {src}")
    return gbulab


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.rng = random.Random(seed)

    def setup(self) -> None:
        self.gb = import_gbulab(self.root)
        import numpy

        self.np = numpy

    def iterate(self) -> dict:
        raise NotImplementedError

    def check(self, res: dict) -> tuple[list, dict, int]:
        """(operations as (name, failure reason or None), fingerprint, bytes written)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class GbuOneD(Workload):
    """The acceptance GBU fixture in miniature: a shallow amplitude bisection,
    twin runs on n=201 and n=401 at the bisected amplitude, the GBU verdict,
    the boundary profile and the blow-up ODE fit (p=3, q=4, sine data)."""

    name = "gbu_1d"
    P, Q = 3.0, 4.0
    THRESHOLDS = (100.0, 200.0, 400.0)
    GRIDS = (201, 401)
    T_END = 0.35
    DT_MIN = 1e-13
    # theta = 1 halves the fixture's step count (it uses 0.5) so that two
    # iterations fit one run; steps stay source-limited and every gate holds.
    # Snapshots every 25 steps keep the fixture's spacing in time (every 50
    # at theta = 0.5), which the profile check's stability test depends on:
    # every 50 steps at theta = 1 puts its C1 spread at 0.2-0.24.
    THETA = 1.0
    SNAPSHOT_EVERY = 25

    def __init__(self, seed, root):
        super().__init__(seed, root)
        # Every upper bracket in this band blows up, and one bisection step
        # lands on its midpoint (about 1.5), close enough to the critical
        # amplitude that crossing times on both grids agree within 10%
        # (at 1.6 the spread is already 10.2%). The band is narrow because
        # the step count falls 20% from 1.48 to 1.52: seeds vary the inputs,
        # not the amount of work.
        self.amplitude_high = self.rng.uniform(2.99, 3.01)

    def setup(self):
        super().setup()
        self.grids = {n: self.gb.grid.build_grid((0.0, 1.0), n) for n in self.GRIDS}

    def _control(self, **kw):
        return self.gb.stepping.StepControl(
            t_end=self.T_END, theta=self.THETA, dt_min=self.DT_MIN, **kw
        )

    def iterate(self):
        gb = self.gb
        sp, st = gb.spectral, gb.stepping
        alpha = sp.alpha_window(self.P, self.Q).midpoint()
        bisect = sp.criterion_experiment(
            self.grids[201], self.P, self.Q, alpha,
            self._control(gbu_threshold=self.THRESHOLDS[0]),
            amplitude_low=0.0, amplitude_high=self.amplitude_high, bisect_iters=1,
        )
        amplitude = bisect.amplitude_high
        twins = {}
        for n, grid in self.grids.items():
            eig = sp.principal_eigenpair(grid)
            spec = gb.problem.make_spec(
                grid, self.P, self.Q, profile="sine", amplitude=amplitude
            )
            twins[n] = st.run(spec, self._control(
                gbu_threshold=self.THRESHOLDS[-1],
                report_thresholds=self.THRESHOLDS,
                snapshot_every=self.SNAPSHOT_EVERY,
                functional_weight=self.np.power(eig.phi1, alpha),
            ))
        evidence = [
            st.ThresholdCrossing(n, g, rep.threshold_crossings.get(g))
            for n, (_, rep) in twins.items()
            for g in self.THRESHOLDS
        ]
        verdict = st.detect_gbu(evidence)
        profiles = {}
        for n, (traj, rep) in twins.items():
            late = [s for s in traj.states if s.t > 0.98 * rep.t_detect]
            profiles[n] = gb.analysis.gradient_profile_check(
                late, self.P, self.Q, rep.t_detect, slope_tol=0.15, stability_tol=0.2
            )
        mon = twins[201][1].monitors
        half = mon["t"] >= 0.5 * twins[201][1].t_detect
        fit = sp.blowup_ode_fit(mon["t"][half], mon["y"][half], self.Q)
        return {"bisect": bisect, "twins": twins, "evidence": evidence,
                "verdict": verdict, "profiles": profiles, "fit": fit}

    def check(self, res):
        bisect, twins = res["bisect"], res["twins"]
        amplitude = bisect.amplitude_high
        gamma_star = 1.0 / (self.Q - self.P + 1.0)
        ops = [("bisection", None if bisect.t_detect is not None else "no probe blew up")]
        for n, (traj, rep) in twins.items():
            h = self.grids[n].h_min
            ops.append((f"run n={n}", gates.equals("verdict", rep.verdict, "GBUDetected")
                        or gates.all_crossed(rep.threshold_crossings, self.THRESHOLDS)
                        or gates.monitor_extrema(rep.monitors["min_u"], rep.monitors["max_u"],
                                                 0.0, amplitude, h)))
        ops.append(("crossing spread",
                    gates.crossing_spread([e.t_detect for e in res["evidence"]])))
        ops.append(("detect_gbu", gates.equals("status", res["verdict"].status, "GBU")))
        for n, prof in res["profiles"].items():
            ops.append((f"gradient profile n={n}",
                        gates.profile_slopes(prof.passed, prof.details["slopes"], gamma_star)))
        ops.append(("blow-up ODE fit", gates.ode_fit(res["fit"].c1, res["fit"].margin)))
        fingerprint = {
            "probes": bisect.runs,
            "history": [[p["amplitude"], p["verdict"], p["t_detect"]] for p in bisect.history],
            "steps": {f"n{n}": rep.steps for n, (_, rep) in twins.items()},
            "snapshots": {f"n{n}": len(traj.states) for n, (traj, _) in twins.items()},
            "t_detect": {f"n{n}": rep.t_detect for n, (_, rep) in twins.items()},
            "crossings": [e.t_detect for e in res["evidence"]],
        }
        return ops, fingerprint, 0


_SIMULATE_CFG = """\
[experiment]
kind = simulate

[grid]
extents = 0, 1
points = 201

[problem]
p = 3.0
q = 2.5
epsilon = 1e-3
profile = sine
amplitude = {amplitude!r}

[control]
t_end = 0.05
snapshot_every = 500
"""

_CHECK_CFG = """\
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
checks = max_principle
trajectory = {trajectory}
"""

_DETECT_CFG = """\
[experiment]
kind = gbu_detect

[grid]
extents = 0, 1
points = 201

[problem]
p = 3.0
q = 4.0
profile = sine
amplitude = 4.0

[control]
t_end = 0.35
dt_min = 1e-13
snapshot_every = 50

[gbu]
thresholds = 100, 200, 400
grids = 201
"""

_BARRIER_CFG = """\
[experiment]
kind = barrier_certify

[problem]
p = 3.0
q = 4.0

[barrier]
rho = 0.5
n = 1
"""

_EIG_CFG = """\
[experiment]
kind = eig

[grid]
extents = 0, 1
points = 201
"""


class CliOneD(Workload):
    """Five CLI verbs in process, each iteration into a fresh output tree:
    simulate (the README example), check on the monitors.csv just written,
    detect-gbu (1 grid x 3 thresholds), certify-barrier and eig."""

    name = "cli_1d"
    VERBS = ("simulate", "check", "detect-gbu", "certify-barrier", "eig")

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.amplitude = self.rng.uniform(0.995, 1.005)  # the README example's 1.0
        self.work = root / ".perfbench" / f"work-{self.name}-{os.getpid()}"
        self.out = self.work / "out"

    def setup(self):
        super().setup()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        texts = {
            "simulate": _SIMULATE_CFG.format(amplitude=self.amplitude),
            "check": _CHECK_CFG.format(trajectory=self.out / "simulate" / "monitors.csv"),
            "detect-gbu": _DETECT_CFG,
            "certify-barrier": _BARRIER_CFG,
            "eig": _EIG_CFG,
        }
        self.configs = {}
        for verb, text in texts.items():
            path = self.work / f"{verb}.cfg"
            path.write_text(text)
            self.configs[verb] = path

    def iterate(self):
        main = self.gb.cli.main
        return {verb: main([verb, "--config", str(self.configs[verb]),
                            "--out", str(self.out / verb), "--jobs", "1"])
                for verb in self.VERBS}

    def check(self, res):
        validate = self.gb.schema.validate_output
        ops = [(f"{verb} exit", gates.equals("exit code", rc, 0)) for verb, rc in res.items()]

        def load(rel, schema):
            path = self.out / rel
            try:
                doc = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                ops.append((f"{rel} schema", f"unreadable: {exc}"))
                return {}
            ops.append((f"{rel} schema", gates.schema_valid(validate, schema, doc)))
            return doc

        def monitor_rows(run_dir, report):
            try:
                text = (self.out / run_dir / "monitors.csv").read_text()
            except OSError as exc:
                ops.append((f"{run_dir} monitors", f"unreadable: {exc}"))
                return
            ops.append((f"{run_dir} monitors", gates.monitor_rows(text, report.get("steps", -1))))

        reports = {"simulate": load("simulate/run_report.json", "run_report")}
        monitor_rows("simulate", reports["simulate"])
        compliance = load("check/compliance_report.json", "compliance_report")
        ops.append(("compliance", gates.is_true("passed", compliance.get("passed"))))
        verdict = load("detect-gbu/gbu_verdict.json", "gbu_verdict")
        ops.append(("gbu verdict", gates.equals("status", verdict.get("status"), "GBU")))
        runs_dir = self.out / "detect-gbu" / "runs"
        for run_dir in sorted(p.name for p in runs_dir.iterdir()) if runs_dir.is_dir() else []:
            rel = f"detect-gbu/runs/{run_dir}"
            reports[rel] = load(f"{rel}/run_report.json", "run_report")
            monitor_rows(rel, reports[rel])
        barrier = load("certify-barrier/barrier_certificate.json", "barrier_certificate")
        ops.append(("barrier", gates.is_true("certified", barrier.get("certified"))))
        eigen = load("eig/eigen.json", "eigen")

        total = files = 0
        for dirpath, _, names in os.walk(self.out):
            for fname in names:
                total += os.path.getsize(os.path.join(dirpath, fname))
                files += 1
        # run reports carry their wall time, the only bytes allowed to differ
        wall_bytes = sum(len(json.dumps(r["wall_time"])) for r in reports.values()
                         if "wall_time" in r)
        fingerprint = {
            "steps": {k: r.get("steps") for k, r in reports.items()},
            "t_detect": [e.get("t_detect") for e in verdict.get("evidence", [])],
            "lambda1": eigen.get("lambda1"),
            "files": files,
            "bytes_without_wall_time": total - wall_bytes,
        }
        shutil.rmtree(self.out, ignore_errors=True)
        return ops, fingerprint, total

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (GbuOneD, CliOneD)}
