"""Paired benchmark runs of two checkouts of tgs, written as one JSON record.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR OUT.json \
        --pairs 10 --seed0 2801

For each workload of bench/run.py and each pair i, runs

    python3 bench/run.py --workload W --seed S --seconds 10 --trace 0

in both checkouts, the side that runs first alternating with i, and keeps
the end-to-end metrics of each run (the JSON line bench/run.py prints
last). Seeds run from --seed0, one block of --pairs per workload. Each
workload's summary gives, per metric, both sides' quartiles, the parent's
interquartile width, and whether the claim rule holds (see summary).

A run-level pair compares two medians taken about 10 s apart, so a load
burst on the host moves one side of a pair. The interleaved passes take
that out: per workload, one manifest of seeded inputs is written once, by
the parent's bench/workloads.py, and each side's bench/worker.py runs a
pass on it in turn, parent, change, change, parent, for INTERLEAVED_ROUNDS
rounds; the k-th pass of one side is paired with the k-th of the other,
its neighbour in time. Every pass's outputs go through the bench's gate.
The record gives each pair's ratio of pass_s, change over parent, their
median and the number of pairs in which the change is lower.

Then, in each checkout, one traced classify run and one traced modules
run (per-layer metrics, and for classify its "search at" lines). Last,
`tgs classify --order 4 --gamma 2` runs in a fresh interpreter, with a time
limit, interleaved as the passes are: per round, at --jobs 1 and then at
--jobs 2, parent, change, change, parent, for CLASSIFY_42_ROUNDS rounds.
The record keeps every wall time, the ratio of each pair of neighbours,
and whether every run of both sides wrote the same report.json. Stdlib
only; run from anywhere.

Both checkouts are copied first, PARENT_DIR to <tmp>/a/repo and CHANGE_DIR
to <tmp>/b/repo, and every run reads its copy: bench/run.py's peak_rss_mb
moves with the name of the directory it runs in, so both sides run from
directories of one name and one path length. The record names the copies.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("classify", "analyze", "modules", "order5")
METRICS = ("setup_s", "pass_s", "peak_rss_mb")
CLAIM_SHARE = 0.9  # 9 of 10 pairs
CLASSIFY_42_TIMEOUT_S = 60
INTERLEAVED_ROUNDS = 10  # each round parent, change, change, parent
CLASSIFY_42_ROUNDS = 3  # the same order, at each --jobs


def stage(sides: dict, tmp: str) -> dict:
    """Copies of the checkouts at <tmp>/a/repo, <tmp>/b/repo, in side
    order, without their git data and bytecode caches."""
    staged = {}
    for letter, (side, root) in zip("ab", sides.items()):
        staged[side] = os.path.join(tmp, letter, "repo")
        shutil.copytree(root, staged[side], ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache"))
    return staged


def bench_run(root: str, workload: str, seed: int, trace: int) -> tuple:
    """(result JSON, printed lines) of one bench/run.py call in root."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "10", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def spread(xs) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3}


def pairs(sides: dict, workload: str, seeds) -> dict:
    runs = {side: [] for side in sides}
    first = []
    for i, seed in enumerate(seeds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        first.append(order[0])
        for side in order:
            result, _ = bench_run(sides[side], workload, seed, 0)
            runs[side].append(result)
            print(f"{workload} seed {seed} {side}: "
                  f"{result['metrics']['pass_s']['value']:.3f} s", flush=True)
    out = {"seeds": list(seeds), "first": first}
    for side, results in runs.items():
        out[side] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            **{m: [r["metrics"][m]["value"] for r in results] for m in METRICS}}
    out["summary"] = {m: summary(out["parent"][m], out["change"][m])
                      for m in METRICS}
    return out


def summary(parent: list, change: list) -> dict:
    """The spread of both sides over the pairs, and whether the claim rule
    holds for a lower-is-better metric: the change is lower in at least
    CLAIM_SHARE of the pairs, and its median lies below the parent's by more
    than the parent's interquartile width, so one burst of host noise in a
    pair decides neither."""
    p, c = spread(parent), spread(change)
    lower = sum(y < x for x, y in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    return {"parent": p, "change": c,
            "median_ratio": c["median"] / p["median"],
            "change_lower_in": lower, "pairs": len(parent),
            "parent_iqr": iqr,
            "claim_holds": (lower >= math.ceil(CLAIM_SHARE * len(parent))
                            and p["median"] - c["median"] > iqr)}


def traced(root: str, workload: str, seed: int) -> dict:
    """The per-layer metrics and "search at" lines of one traced run."""
    result, lines = bench_run(root, workload, seed, 1)
    return {"search": [line.strip() for line in lines if "search at" in line],
            "per_layer": {name: m["value"]
                          for name, m in result["metrics"].items()}}


def _bench_workloads(root: str):
    """bench/workloads.py of the checkout root, as a module of its own."""
    path = os.path.join(root, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def worker_pass(root: str, manifest: str, result: str, mode: str) -> dict:
    """One pass of root's bench/worker.py on manifest, started as bench/run.py
    starts it; its result JSON."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    subprocess.run(
        [sys.executable, os.path.join(root, "bench", "worker.py"), manifest,
         result, repr(t0), mode],
        cwd=root, capture_output=True, check=True,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def interleaved(sides: dict, workload: str, seed: int, tmp: str) -> dict:
    """Passes of both sides on one manifest, ABBA (see the module
    docstring); sides is ordered parent, change."""
    wl = _bench_workloads(sides["parent"])
    with open(os.path.join(sides["parent"], "bench", "data.json"),
              encoding="utf-8") as fh:
        data = json.load(fh)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    ops, expected = wl.prepare(workload, data,
                               random.Random(f"{workload}:{seed}"), inputs)
    manifest = os.path.join(work, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "ops": ops}, fh)
    serial = itertools.count()

    def one(side: str, mode: str = "pass") -> dict:
        result = os.path.join(work, f"r{next(serial)}.json")
        res = worker_pass(sides[side], manifest, result, mode)
        if mode == "pass":
            res["failed"] = sum(wl.check(workload, exp, out, {}) is not None
                                for exp, out in zip(expected, res["outputs"]))
            shutil.rmtree(result + ".out", ignore_errors=True)
        os.remove(result)
        return res

    for side in sides:  # warm each side's files and bytecode; discarded
        one(side, "setup")
    runs = {side: [] for side in sides}
    parent, change = sides
    for _ in range(INTERLEAVED_ROUNDS):
        for side in (parent, change, change, parent):
            runs[side].append(one(side))
    out = {"seed": seed, "rounds": INTERLEAVED_ROUNDS,
           "order": "parent, change, change, parent per round"}
    for side, results in runs.items():
        out[side] = {"failed": sum(r["failed"] for r in results),
                     "pass_s": [sum(r["latencies"]) for r in results],
                     "peak_rss_mb": [r["peak_rss_mb"] for r in results]}
    ratios = [c / p for p, c in zip(out[parent]["pass_s"], out[change]["pass_s"])]
    out["pass_ratios"] = ratios
    out["median_pass_ratio"] = statistics.median(ratios)
    out["change_lower_in"] = sum(r < 1 for r in ratios)
    out["pairs"] = len(ratios)
    out["summary"] = {m: summary(out[parent][m], out[change][m])
                      for m in ("pass_s", "peak_rss_mb")}
    print(f"{workload} interleaved: median pass ratio "
          f"{out['median_pass_ratio']:.3f}, change lower in "
          f"{out['change_lower_in']} of {len(ratios)}", flush=True)
    return out


def classify_42(root: str, jobs: int) -> dict:
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        # its own process group, so a timeout also ends the pool workers
        proc = subprocess.Popen(
            [sys.executable, "-m", "tgs", "classify", "--order", "4",
             "--gamma", "2", "--jobs", str(jobs), "--out", out],
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=CLASSIFY_42_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"jobs": jobs, "finished": False,
                    "killed_after_s": CLASSIFY_42_TIMEOUT_S}
        wall = time.perf_counter() - t0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            report = fh.read()
    counts = dict(re.findall(r"^(candidates passing axioms|non-isomorphic "
                             r"structures): (\d+)$", stdout, re.M))
    return {"jobs": jobs, "finished": True, "exit": proc.returncode,
            "wall_s": wall,
            "candidates": int(counts["candidates passing axioms"]),
            "structures": int(counts["non-isomorphic structures"]),
            "report_json": report.decode()}


def classify_42_interleaved(sides: dict) -> dict:
    """classify_42 on both sides, ABBA per round and per --jobs (see the
    module docstring); sides is ordered parent, change. The k-th run of one
    side at one --jobs is paired with the k-th of the other."""
    parent, change = sides
    runs = {(side, jobs): [] for side in sides for jobs in (1, 2)}
    for _ in range(CLASSIFY_42_ROUNDS):
        for jobs in (1, 2):
            for side in (parent, change, change, parent):
                runs[side, jobs].append(classify_42(sides[side], jobs))
                print(f"classify 4 2 --jobs {jobs} {side}: "
                      f"{runs[side, jobs][-1].get('wall_s', 'killed')}", flush=True)
    reports = {run.pop("report_json", None) for rs in runs.values() for run in rs}
    out = {"rounds": CLASSIFY_42_ROUNDS,
           "order": "per round, at --jobs 1 then --jobs 2: parent, change, "
                    "change, parent",
           "same_report_json_in_every_run":
               None if None in reports else len(reports) == 1}
    for jobs in (1, 2):
        walls = {side: [run.get("wall_s") for run in runs[side, jobs]] for side in sides}
        entry = {side: {"runs": runs[side, jobs], "wall_s": walls[side]} for side in sides}
        if None not in walls[parent] + walls[change]:
            ratios = [c / p for p, c in zip(walls[parent], walls[change])]
            entry.update(wall_ratios=ratios, median_wall_ratio=statistics.median(ratios),
                         summary=summary(walls[parent], walls[change]))
        out[f"jobs_{jobs}"] = entry
    return out


def run_all(checkouts: dict, sides: dict, args, tmp: str) -> dict:
    """The record of every run, each side run from its staged copy."""
    record = {"host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                      f"Python {platform.python_version()}",
              "pairs_command": "python3 bench/run.py --workload W --seed S "
                               "--seconds 10 --trace 0, parent and change "
                               "alternating which runs first",
              "staged": {side: {"from": checkouts[side], "ran_in": sides[side]}
                         for side in sides},
              "pairs": {}}
    for w, workload in enumerate(WORKLOADS):
        seed0 = args.seed0 + w * args.pairs
        record["pairs"][workload] = pairs(
            sides, workload, range(seed0, seed0 + args.pairs))
    trace_seed = args.seed0 + len(WORKLOADS) * args.pairs
    for workload in ("classify", "modules"):
        record[f"traced_{workload}"] = {
            "seed": trace_seed,
            **{side: traced(root, workload, trace_seed)
               for side, root in sides.items()}}
    record["interleaved"] = {
        workload: interleaved(sides, workload, trace_seed + 1 + w, tmp)
        for w, workload in enumerate(WORKLOADS)}
    record["classify_4_2"] = classify_42_interleaved(sides)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("out")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=2801)
    args = parser.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        record = run_all(checkouts, stage(checkouts, tmp), args, tmp)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
