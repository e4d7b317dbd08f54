"""Planted one-line defects (mutants) and the tests that must catch them.

    python3 tools/mutants.py              # run every mutant
    python3 tools/mutants.py --list       # list the mutants and their tests

A check is worth something only if it can fail. Each mutant changes one
line under `src/gbulab/` by an exact text edit (its old text may carry the
lines before it, so that it occurs once), with the test ids that should
fail under it. The runner copies `src/`, `tests/`, `pyproject.toml` and
`README.md` of this checkout into a temporary directory, first runs every
listed test on the unchanged copy (they must all pass, or a failure would
prove nothing), then, per mutant, applies its edit to a fresh copy and
runs its tests there.
A mutant is caught when pytest reports a failed test (exit code 1).

The exit code is 0 when every mutant run is caught, 1 when one survives or
its edit no longer applies (its old text must occur exactly once in the
file), and 2 when a listed test fails on the unchanged checkout. A full
run starts 25 pytest processes, one after another (20-60 s on 2 cores).
Run it after changing a check or the code a mutant edits, and add a
mutant with each new check.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")  # tests read its example


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout root
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("source_without_eps_shift", "src/gbulab/operators.py",
           "shift = eps ** (q / 2.0)", "shift = 0.0",
           ("tests/test_operators.py::test_kernel_steps_bitwise_as_plain_numpy",
            "tests/test_analysis.py::test_energy_estimate_stationary")),
    Mutant("first_order_boundary_stencil", "src/gbulab/operators.py",
           "g[0] = (-3.0 * f0 + 4.0 * f1 - f2) / two_h", "g[0] = 2.0 * (f1 - f0) / two_h",
           ("tests/test_operators.py::test_gradient_exact_on_quadratic",
            "tests/test_operators.py::test_source_exact_on_quadratic_gradient")),
    Mutant("step_bound_diffusion_halved", "src/gbulab/operators.py",
           "self._c_p, self._c_q = 2.0 * dim * (p - 1.0),",
           "self._c_p, self._c_q = 1.0 * dim * (p - 1.0),",
           ("tests/test_stepping.py::test_stable_dt_contract_value",
            "tests/test_operators.py::test_kernel_steps_bitwise_as_plain_numpy")),
    Mutant("step_bound_without_source", "src/gbulab/operators.py",
           "denom = self._c_p * s**self._e_p + self._c_q * s**self._e_q",
           "denom = self._c_p * s**self._e_p",
           ("tests/test_stepping.py::test_stable_dt_contract_value",
            "tests/test_stepping.py::test_step_bound_overflow_ends_in_dt_floor_verdict",
            "tests/test_operators.py::test_kernel_steps_bitwise_as_plain_numpy")),
    Mutant("detect_gbu_ratio_test_off", "src/gbulab/stepping.py",
           "if d1 > INCREMENT_RATIO_MAX * d0:", "if False:",
           ("tests/test_stepping.py::test_detect_gbu_linear_in_log_threshold_inconclusive",)),
    Mutant("max_principle_tolerance_x100", "src/gbulab/analysis.py",
           "    mon = traj.monitors\n    u0_min, u0_max = mon[\"min_u\"][0], mon[\"max_u\"][0]\n"
           "    tol = BOUND_TOL_H * traj.grid.h_min",
           "    mon = traj.monitors\n    u0_min, u0_max = mon[\"min_u\"][0], mon[\"max_u\"][0]\n"
           "    tol = 100.0 * BOUND_TOL_H * traj.grid.h_min",
           ("tests/test_analysis.py::test_max_principle_detects_corrupted_series",)),
    Mutant("regularizing_ratio_x0.1", "src/gbulab/analysis.py",
           "ratios = max_ut * t * (p - 2.0) / u0_sup", "ratios = 0.1 * max_ut * t * (p - 2.0) / u0_sup",
           ("tests/test_analysis.py::test_regularizing_bound_brackets_scaled_ut",)),
    Mutant("regularizing_p_minus_1", "src/gbulab/analysis.py",
           "ratios = max_ut * t * (p - 2.0) / u0_sup", "ratios = max_ut * t * (p - 1.0) / u0_sup",
           ("tests/test_analysis.py::test_regularizing_bound_brackets_scaled_ut",)),
    Mutant("regularizing_sup_u0_from_the_last_row", "src/gbulab/analysis.py",
           'u0_sup = float(max(abs(mon["min_u"][0]), abs(mon["max_u"][0])))',
           'u0_sup = float(max(abs(mon["min_u"][-1]), abs(mon["max_u"][-1])))',
           ("tests/test_analysis.py::test_regularizing_bound_brackets_scaled_ut",)),
    Mutant("energy_e0_from_the_last_state", "src/gbulab/analysis.py",
           "e0 = integrate(first.grid, np.power(first.grad_mag**2",
           "e0 = integrate(first.grid, np.power(traj.states[-1].grad_mag**2",
           ("tests/test_analysis.py::test_energy_e0_is_the_quadrature_of_u0",)),
    Mutant("energy_bound_x10", "src/gbulab/analysis.py",
           "bound = (2.0 / spec.p) * e0 + 2.0", "bound = 10.0 * (2.0 / spec.p) * e0 + 20.0",
           ("tests/test_analysis.py::test_energy_estimate_brackets_scaled_ut",)),
    Mutant("interior_boundedness_bound_x10", "src/gbulab/analysis.py",
           "bound = c1 * d0 ** (-gamma_star) + c2", "bound = 10.0 * (c1 * d0 ** (-gamma_star) + c2)",
           ("tests/test_analysis.py::test_interior_boundedness_brackets_the_region_sup",)),
    Mutant("profile_stability_ignored", "src/gbulab/analysis.py",
           "stable = c1_spread <= stability_tol and slope_spread <= stability_tol",
           "stable = True",
           ("tests/test_analysis.py::test_profile_check_rejects_an_unstable_envelope",)),
    Mutant("ode_fit_without_final_sample", "src/gbulab/spectral.py",
           "compliant = c1 > 0 and (c1 * yq[-1] - c2) > 0", "compliant = c1 > 0",
           ("tests/test_spectral.py::test_ode_fit_decaying_series_with_positive_c1_noncompliant",)),
    Mutant("scaling_bound_x100", "src/gbulab/analysis.py",
           "bound = SCALING_TOL_COEF * (h * h + dt_max)",
           "bound = 100.0 * SCALING_TOL_COEF * (h * h + dt_max)",
           ("tests/test_analysis.py::test_scaling_transform_check_rejects_perturbed_data",)),
    Mutant("comparison_tolerance_x100", "src/gbulab/analysis.py",
           "margins[k], BOUND_TOL_H * pair.traj_low.grid.h_min",
           "margins[k], 100.0 * BOUND_TOL_H * pair.traj_low.grid.h_min",
           ("tests/test_analysis.py::test_comparison_fails_on_a_broken_order",)),
    Mutant("ordering_margin_abs", "src/gbulab/stepping.py",
           "margins.append(_min(high - low, tuple(range(1, low.ndim))))",
           "margins.append(_min(np.abs(high - low), tuple(range(1, low.ndim))))",
           ("tests/test_stepping.py::test_run_pair_ordering_margin_shows_a_broken_order",)),
    Mutant("stop_past_the_flagged_row", "src/gbulab/stepping.py",
           "r = stop[0].item() if stop.size else m", "r = stop[0].item() + 1 if stop.size else m",
           ("tests/test_stepping.py::test_a_rule_appended_to_the_table_stops_at_its_first_flagged_row",
            "tests/test_stepping.py::test_nonfinite_stop_keeps_last_accepted_field")),
    Mutant("accumulators_without_the_running_sums", "src/gbulab/stepping.py",
           "np.add.accumulate(acc, out=acc)", "np.add.accumulate(acc[1:], out=acc[1:])",
           ("tests/test_stepping.py::test_run_bitwise_matches_repeated_step",)),
    Mutant("t_end_may_be_infinite", "src/gbulab/stepping.py",
           "if not 0 < self.t_end < math.inf:", "if not 0 < self.t_end:",
           ("tests/test_cli.py::test_nonfinite_value_is_a_config_error_before_any_output"
            "[simulate-t_end-inf]",
            "tests/test_cli.py::test_nonfinite_value_is_a_config_error_before_any_output"
            "[continue-eps-t_end-inf]")),
    Mutant("stored_check_compares_only_p", "src/gbulab/cli.py",
           "for sec, key in _RUN_KEYS:", 'for sec, key in (("problem", "p"),):',
           ("tests/test_cli.py::test_stored_check_of_another_problem_is_a_config_error_before"
            "_any_output[epsilon]",)),
    Mutant("read_fields_drops_the_last_record", "src/gbulab/fieldio.py",
           "return _unpack_fields(Path(path).read_bytes())",
           "return _unpack_fields(Path(path).read_bytes())[:-1]",
           ("tests/test_fieldio.py::test_multi_record_roundtrip_bit_exact",)),
    Mutant("barrier_search_skips_the_edge_residuals", "src/gbulab/barriers.py",
           "and all(r[0] >= 0 for r in _residuals(params, np.array([params.eta]), 0.0))",
           "and True",
           ("tests/test_cli.py::test_certify_barrier_certifies_the_delta_its_search_returns"
            "[50.0-1.0]",)),
    Mutant("gamma_star_as_p_minus_2_over_q_minus_p_plus_1", "src/gbulab/problem.py",
           "return 1.0 / (q - p + 1.0)", "return (p - 2.0) / (q - p + 1.0)",
           ("tests/test_analysis.py::test_profile_check_rejects_an_unstable_envelope"
            "[stable-p2.5-q4]",)),
)


def copy_checkout(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def pytest(cwd: Path, tests) -> int:
    """pytest's exit code on `tests` in the copy at `cwd` (which puts its
    own src/ first on the path, through pyproject.toml)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def apply(mutant: Mutant, root: Path) -> bool:
    """Apply the edit under `root`; False when its old text does not occur
    exactly once."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def run_mutant(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="gbulab-mutant-") as tmp:
        root = Path(tmp)
        copy_checkout(root)
        if not apply(mutant, root):
            return "edit does not apply"
        code = pytest(root, mutant.tests)
    return {0: "SURVIVED", 1: "caught"}.get(code, f"pytest exit {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}\t{m.path}\t{' '.join(m.tests)}")
        return 0

    union = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="gbulab-mutant-") as tmp:
        copy_checkout(Path(tmp))
        if pytest(Path(tmp), union) != 0:
            print(f"the listed tests do not all pass on the unchanged checkout: {union}")
            return 2

    print("| mutant | file | result | seconds |")
    print("| --- | --- | --- | --- |")
    survivors = 0
    for m in MUTANTS:
        start = time.perf_counter()
        result = run_mutant(m)
        survivors += result != "caught"
        print(f"| {m.name} | {m.path} | {result} | {time.perf_counter() - start:.1f} |",
              flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
