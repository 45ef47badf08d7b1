"""Repeat run.py over seeds and summarize each metric per workload.

    python3 bench/baseline.py --runs 10 --traced-runs 3 --out bench/results/baseline.json

Each run is a separate run.py process with its own seed. For every metric
the summary gives the median, the quartiles (statistics.quantiles, n=4),
the number of runs and the spread, which is the distance between the
quartiles as a share of the median. End-to-end metrics come from untraced
runs and per-layer metrics from traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS

NAMED = re.compile(r"^  (\w+) = (\S+) (\S+)  \(n=\d+\)$")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    # the workload's own names, printed as "  name = value unit  (n=N)"
    result["named"] = {m[1]: {"value": float(m[2]), "unit": m[3]}
                       for m in map(NAMED.match, lines) if m}
    print(f"{workload} seed {seed} trace {trace}: " + ", ".join(
        f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()
        if not trace or k.endswith("overhead_s")), flush=True)
    return result


def summarize(results: list, key: str = "metrics") -> dict:
    out = {}
    for name in results[0][key]:
        values = [r[key][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median,) * 3)
        out[name] = {"unit": results[0][key][name]["unit"],
                     "median": median, "q1": q1, "q3": q3, "n": len(values),
                     "values": values,
                     "spread": (q3 - q1) / median if median else None}
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": spec["run_seconds"], "python": platform.python_version(),
           "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
           "workloads": {}}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in args.workloads:
        untraced = [run_once(workload, s, spec["run_seconds"], 0) for s in seeds]
        entry = {"seeds": list(seeds),
                 "attempted": sum(r["attempted"] for r in untraced),
                 "failed": sum(r["failed"] for r in untraced),
                 "end_to_end": summarize(untraced),
                 "workload_metrics": summarize(untraced, "named")}
        for name, row in entry["end_to_end"].items():
            flag = "" if row["spread"] < bounds[name] / 3 else "  (over a third of its bound)"
            print(f"{workload:9s} {name:12s} median {row['median']:.6g} {row['unit']}"
                  f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.3f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
        if args.traced_runs:
            traced = [run_once(workload, s, spec["run_seconds"], 1)
                      for s in seeds[:args.traced_runs]]
            entry["per_layer"] = summarize(traced)
        doc["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
