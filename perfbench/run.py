"""Benchmark entry point.

    python3 perfbench/run.py --workload gbu_1d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; gbulab is imported from its `src/`. The
command sets the workload up (several times, for setup_s), runs identical
iterations for --seconds, gates every operation, checks that iterations
repeat bit-exactly, prints a summary with every metric by name and unit, and
prints as its last line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics. --trace 1 runs
an untraced half and a traced half and reports the per-layer metrics. The
result with its provenance, and the spans of a traced run, are written under
.perfbench/ in the checkout.

Identical iterations vary by up to 1.8x on a shared 2-core machine, for
stretches of seconds to tens of minutes, so a run reports the median of its
iterations and of several set-ups. Scaling by a reference step kernel run
between phases was tried and dropped: across runs the kernel's time spread
more than the workloads' own.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_SAMPLES = 5  # one in this process, the rest in fresh interpreters

# Times the same set-up in a fresh interpreter, imports included.
_SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {here!r})
import workloads
w = workloads.WORKLOADS[{name!r}]({seed!r}, workloads.Path({root!r}))
w.setup()
print(time.perf_counter() - t0)
w.close()
"""


def setup_times(name: str, seed: int) -> list[float]:
    code = _SETUP_PROBE.format(here=str(HERE), name=name, seed=seed, root=str(ROOT))
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def measure(w, window: float, min_iterations: int, tr=None) -> list[dict]:
    """Iterate until `window` seconds are spent; a new iteration starts only
    while half a typical iteration still fits."""
    out = []
    start = time.perf_counter()
    while True:
        if tr is not None:
            tr.iteration += 1
        t0 = time.perf_counter()
        try:
            res = w.iterate()
        except Exception as exc:  # a crashed iteration is a failed operation
            out.append({"seconds": time.perf_counter() - t0, "fingerprint": None,
                        "bytes": 0, "traceback": traceback.format_exc(),
                        "ops": [("iteration", f"{type(exc).__name__}: {exc}")]})
        else:
            seconds = time.perf_counter() - t0
            ops, fingerprint, nbytes = w.check(res)
            out.append({"seconds": seconds, "ops": ops, "fingerprint": fingerprint,
                        "bytes": nbytes})
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["seconds"] for r in out)
        if len(out) >= min_iterations and elapsed + 0.5 * typical >= window:
            return out


def determinism(iterations: list[dict]):
    """Steps, snapshots, probes, bytes and detection times must repeat
    bit-exactly; returns the failure reason or None."""
    canon = [json.dumps(r["fingerprint"], sort_keys=True) for r in iterations]
    drift = [k for k, c in enumerate(canon) if c != canon[0]]
    if not drift:
        return None
    first, other = iterations[0]["fingerprint"] or {}, iterations[drift[0]]["fingerprint"] or {}
    keys = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
    return f"iterations {drift} differ from iteration 0 in {keys}"


def provenance(gb, seed: int) -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "l3_cache": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gbulab": gb.__version__,
        "commit": None,
        "src_sha256": None,
        "seed": seed,
        "operator_bytes": "computed from array shapes, not measured",
        "bandwidth_ratio": "not reported: every field in these workloads fits in L3",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and info["cpu_model"] is None:
                info["cpu_model"] = value.strip()
            elif key.strip() == "cache size" and info["l3_cache"] is None:
                info["l3_cache"] = value.strip()
    except OSError:
        pass
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        info["commit"] = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        t0 = time.perf_counter()
        w.setup()
        setups = [time.perf_counter() - t0] + setup_times(args.workload, args.seed)
        if args.trace:
            iterations = measure(w, args.seconds / 2, 1)
            tr = tracer.Tracer()
            tr.install(w.gb)
            try:
                traced = measure(w, args.seconds / 2, 1, tr)
            finally:
                tr.remove()
        else:
            iterations = measure(w, args.seconds, 2)
            traced = []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        w.close()

    everything = iterations + traced
    ops = [op for r in everything for op in r["ops"]]
    if len(everything) > 1:
        ops.append(("determinism", determinism(everything)))
    failed = [(name, reason) for name, reason in ops if reason is not None]
    wall = [r["seconds"] for r in iterations]
    wall_s = statistics.median(wall)
    setup_s = statistics.median(setups)
    out_mb = statistics.mean(r["bytes"] for r in iterations) / 1e6
    if args.trace:
        traced_s = statistics.median(r["seconds"] for r in traced)
        metrics = tr.metrics(len(traced), (traced_s - wall_s) / wall_s, out_mb)
    else:
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}

    prov = provenance(w.gb, args.seed)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: wall_s median "
          f"{wall_s:.4f} s, max {max(wall):.4f} s over {len(wall)} untraced iterations; "
          f"setup_s median {setup_s:.4f} s of {len(setups)}; peak_rss_mb "
          f"{peak_rss_mb:.1f} MB; out_mb {out_mb:.3f} MB/iteration; "
          f"failed_frac {len(failed)}/{len(ops)}")
    for name, reason in failed:
        print(f"FAILED {name}: {reason}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": prov, "result": result, "setup_s": setups,
              "iterations": iterations, "traced_iterations": traced}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tr.dump()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
