"""Correctness gates at the acceptance suite's own tolerances.

Each gate takes plain values and returns a failure reason, or None when the
value passes. The workloads turn each gate into one operation; a failed gate
is a failed operation. Nothing here calls into gbulab except the schema
check, which uses the package's own validator on documents read back from
disk.
"""
from __future__ import annotations

import math

H_MARGIN = 2.0  # extrema may overshoot the data range by 2h
SPREAD_MAX = 0.10  # crossing-time spread over thresholds x grids
SLOPE_TOL = 0.15  # boundary-profile slope tolerance around -gamma*


def monitor_extrema(min_series, max_series, lo: float, hi: float, h: float):
    """Every row's min/max of u stays within [lo, hi] +- 2h."""
    rows = [float(v) for v in min_series] + [float(v) for v in max_series]
    if not all(math.isfinite(v) for v in rows):
        return "non-finite min_u or max_u in the monitor series"
    min_u, max_u = min(min_series), max(max_series)
    if min_u < lo - H_MARGIN * h:
        return f"min_u={min_u:.6g} below {lo} - 2h"
    if max_u > hi + H_MARGIN * h:
        return f"max_u={max_u:.6g} above {hi} + 2h"
    return None


def equals(name: str, actual, expected):
    if actual != expected:
        return f"{name} is {actual!r}, expected {expected!r}"
    return None


def is_true(name: str, flag):
    return None if flag is True else f"{name} is {flag!r}"


def all_crossed(crossings: dict, thresholds):
    missing = [g for g in thresholds if crossings.get(g) is None]
    return f"thresholds {missing} not crossed" if missing else None


def crossing_spread(times):
    """(max - min) / median of every crossing time must be <= 10%."""
    if not times or any(t is None for t in times):
        return "missing crossing times"
    ordered = sorted(times)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    spread = (ordered[-1] - ordered[0]) / median
    return None if spread <= SPREAD_MAX else f"crossing-time spread {spread:.3f} > {SPREAD_MAX}"


def profile_slopes(passed: bool, slopes, gamma_star: float):
    if not passed:
        return "gradient_profile_check did not pass"
    if not slopes or min(slopes) < -gamma_star - SLOPE_TOL:
        return f"profile slopes {slopes} below -gamma* - {SLOPE_TOL}"
    return None


def ode_fit(c1: float, margin: float):
    if not (c1 > 0.0 and margin >= 0.0):
        return f"blow-up fit C1={c1:.4g} margin={margin:.4g}"
    return None


def monitor_rows(csv_text: str, steps: int):
    """monitors.csv holds a header and one row per step plus the initial row."""
    rows = sum(1 for line in csv_text.splitlines()[1:] if line.strip())
    return None if rows == steps + 1 else f"monitors.csv has {rows} rows for {steps} steps"


def schema_valid(validate, name: str, doc):
    """`validate` is gbulab.schema.validate_output."""
    try:
        validate(name, doc)
    except ValueError as exc:
        return f"{name}: {exc}"
    return None
