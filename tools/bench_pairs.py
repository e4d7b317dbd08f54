"""Run the benchmark on two checkouts in alternating pairs and summarize.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload gbu_1d \
        --seed 1 --pairs 10 --out BENCH_prN.json

Each pair runs `python3 perfbench/run.py --workload W --seed N --seconds 50
--trace 0` once in each checkout, one after the other; pair 1 runs the
parent first, pair 2 the change first, and so on, so that a drift of the
host's speed does not favour one side. Every run's result line (the last
line it prints, one JSON object) is kept with the provenance it prints and a
hash of its iterations' determinism fingerprints. The summary gives, per
end-to-end metric, each side's median and quartiles (linear interpolation,
as numpy's default), the change's median relative to the parent's, in how
many pairs the change was better, split by whether it ran first or second,
and in how many pairs the run that went second was worse; plus the failed
operations per side. On a host whose speed drifts within a pair, the split
shows run order passing for a difference of code.

The output file holds one entry per workload and seed under "workloads";
an existing file gains or replaces that entry and keeps the others. The
script reads each checkout's perfbench and writes only the output file (and
what perfbench itself writes under each checkout's .perfbench/).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SECONDS = 50  # the benchmark's run length


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in `checkout`: its result line, provenance and the
    hash of its fingerprints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=20 * SECONDS + 300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    prov = next((json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith("provenance ")), {})
    record = json.loads(
        (checkout / ".perfbench" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    prints = [json.dumps(r["fingerprint"], sort_keys=True) for r in record["iterations"]]
    return {"result": result, "provenance": prov,
            "fingerprint_sha256_16": hashlib.sha256(prints[0].encode()).hexdigest()[:16],
            "fingerprints_repeat": len(set(prints)) == 1}


def summarize(runs: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and pair counts. `runs`
    is in the order the runs ran, so the first run of a pair ran first."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    names = list(runs[0]["result"]["metrics"])
    first, second = {}, {}  # pair -> the side that ran first, second
    for r in runs:
        (second if r["pair"] in first else first)[r["pair"]] = r["side"]
    summary = {}
    for name in names:
        entry = {}
        for side in SIDES:
            values = [r["result"]["metrics"][name]["value"] for r in by_side[side]]
            q1, q3 = quartiles(values)
            entry[side] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                           "runs": len(values)}
        entry["median_change_rel"] = entry["change"]["median"] / entry["parent"]["median"] - 1.0
        pairs = {}
        for r in runs:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"][name]["value"]
        # every metric: lower is better
        better = {k: p["change"] < p["parent"] for k, p in pairs.items()}
        entry["pairs_change_better"] = f"{sum(better.values())}/{len(pairs)}"
        for when, side in (("first", "change"), ("second", "parent")):
            ks = [k for k in pairs if first[k] == side]
            entry[f"pairs_change_better_when_{when}"] = f"{sum(better[k] for k in ks)}/{len(ks)}"
        second_worse = sum(p[second[k]] > p[first[k]] for k, p in pairs.items())
        entry["pairs_second_run_worse"] = f"{second_worse}/{len(pairs)}"
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            r = run_once(dirs[side], args.workload, args.seed)
            runs.append({"pair": pair, "side": side, **r})
            wall = r["result"]["metrics"].get("wall_s", {}).get("value")
            print(f"pair {pair} {side}: wall_s {wall} failed {r['result']['failed']}",
                  flush=True)

    provs = {side: next(r["provenance"] for r in runs if r["side"] == side) for side in SIDES}
    entry = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {SECONDS} --trace 0",
        "order": "pairs alternate which side runs first: pair 1 runs the parent first",
        "commit": {side: provs[side].get("commit") for side in SIDES},
        "src_sha256": {side: provs[side].get("src_sha256") for side in SIDES},
        "machine": {k: provs["change"].get(k) for k in ("nproc", "cpu_model", "l3_cache",
                                                         "python", "numpy")},
        "summary": summarize(runs),
        "failed": {side: sum(r["result"]["failed"] for r in runs if r["side"] == side)
                   for side in SIDES},
        "fingerprints_identical": len({r["fingerprint_sha256_16"] for r in runs}) == 1
        and all(r["fingerprints_repeat"] for r in runs),
        "runs": [{k: v for k, v in r.items() if k != "provenance"} for r in runs],
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("what", "perfbench end-to-end metrics of a change against its parent, "
                           "from alternating pairs of runs")
    doc.setdefault("workloads", {})[f"{args.workload}-seed{args.seed}"] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    s = entry["summary"]
    print(json.dumps({name: {"parent": v["parent"]["median"], "change": v["change"]["median"],
                             "better": v["pairs_change_better"],
                             "better_first": v["pairs_change_better_when_first"],
                             "better_second": v["pairs_change_better_when_second"],
                             "second_worse": v["pairs_second_run_worse"]}
                      for name, v in s.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
