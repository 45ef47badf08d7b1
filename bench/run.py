"""The tgs benchmark. Run from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                    # every workload, untraced

Each pass of a workload runs in a fresh interpreter (worker.py), so the
module-level caches of tgs start cold as they do for every CLI call. The
seeded inputs are written before that interpreter starts. With --trace 0
passes repeat while at least half of another fits in --seconds, and the
end-to-end metrics are medians over them; with --trace 1 a traced pass
between two untraced ones gives the per-layer metrics and the tracing
overhead. Every output is checked against data.json. The last line printed
is one JSON object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("classify", "analyze", "modules", "order5")
SETUP_SAMPLES = 9
RUN_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def percentile(samples, pct: int, beyond: int = 10):
    """Nearest-rank pct-th percentile, or None unless at least `beyond`
    samples lie above it."""
    xs = sorted(samples)
    rank = -(-pct * len(xs) // 100)
    if rank < 1 or len(xs) - rank < beyond:
        return None
    return xs[rank - 1]


def spawn(manifest: str, result: str, mode: str, deadline: float) -> dict:
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, manifest, result, repr(t0), mode],
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
            # fixed string hashing, so set and dict order repeat between passes
            env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the run exceeded {RUN_TIMEOUT_S} s in a {mode} pass") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def gate(name: str, ops: list, expected: list, res: dict, counters: dict) -> list:
    """(op label, reason) for each operation of a pass that failed."""
    failures = []
    for op, exp, out in zip(ops, expected, res["outputs"]):
        reason = workloads.check(name, exp, out, counters)
        if reason is not None:
            failures.append((op["label"], reason))
    if res["wrappers_left"]:
        failures.append(("tracing", f"wrappers left: {res['wrappers_left']}"))
    return failures


def search_checks(spans: dict):
    """(op index, passed) for each axiom check of a table the search completed."""
    names, parent = spans["names"], spans["parent"]
    for i, name in enumerate(names):
        if (name == "core.verify_axioms" and parent[i] >= 0
                and names[parent[i]] == "enumeration.search"):
            yield spans["op"][i], spans["ok"][i] is True


def layer_metrics(spans: dict, counters: dict, outputs: list) -> dict:
    """Per-layer metrics of one traced pass."""
    calls = Counter(spans["names"])
    self_s = defaultdict(float)
    for name, t in zip(spans["names"], tracing.self_times(spans)):
        self_s[name] += t
    checks = [ok for _, ok in search_checks(spans)]
    completed, passed = len(checks), sum(checks)
    counts = [o["counts"] for o in outputs if "counts" in o]
    actions = sum(c[1] for c in counts)
    passing = sum(c[2] for c in counts)
    cands = counters.get("candidates", 0)
    reps = counters.get("representatives", 0)
    values = {
        "enumeration.completed_tables": completed,
        "enumeration.tables_passed": passed,
        "enumeration.table_pass_ratio": passed / completed if completed else 0.0,
        "enumeration.candidates": cands,
        "enumeration.representatives": reps,
        "enumeration.dedup_ratio": reps / cands if cands else 0.0,
        "ideals.predicates.calls": sum(calls[f"ideals.{p}"] for p in (
            "is_prime", "is_semiprime", "is_maximal", "is_primary")),
        "gamma_modules.actions": actions,
        "gamma_modules.actions_passing": passing,
        "gamma_modules.action_pass_ratio": passing / actions if actions else 0.0,
        "cli.self_s": self_s["cli.main"],
    }
    for name in set(tracing.TRACED) | {"gamma_modules.enumerate"}:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_s[name]
    return values


def per_op_counts(spans: dict, labels: list) -> dict:
    """Completed and passing tables of the ternary search, per operation."""
    out = {}
    for op, ok in search_checks(spans):
        row = out.setdefault(labels[op], [0, 0])
        row[0] += 1
        row[1] += ok
    return out


def run_passes(name: str, seed: int, seconds: int, trace: bool, data: dict) -> tuple:
    """Prepare the seeded inputs and run the passes: (ops, passes, set-up times)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        inputs = os.path.join(workdir, "inputs")
        os.makedirs(inputs)
        ops, expected = workloads.prepare(name, data, random.Random(f"{name}:{seed}"),
                                          inputs)
        manifest = os.path.join(workdir, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "ops": ops}, fh)
        serial = itertools.count()

        def one(mode: str) -> dict:
            result = os.path.join(workdir, f"r{next(serial)}.json")
            res = spawn(manifest, result, mode, deadline)
            if mode != "setup":
                res["counters"] = {}
                res["failures"] = gate(name, ops, expected, res, res["counters"])
                shutil.rmtree(result + ".out", ignore_errors=True)
            return res

        one("setup")  # warm the interpreter's files and bytecode; discarded
        if trace:
            # untraced passes on both sides, so drift of the machine's speed
            # during the run cancels out of the overhead
            passes = [one("pass"), one("traced"), one("pass")]
        else:
            passes, walls = [], []
            start = time.monotonic()
            while True:
                t = time.monotonic()
                passes.append(one("pass"))
                walls.append(time.monotonic() - t)
                # another pass only if at least half of it fits
                if time.monotonic() + statistics.median(walls) / 2 > start + seconds:
                    break
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(one("setup")["setup_s"])
        return ops, passes, setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict,
                 data: dict) -> tuple:
    """Returns (result object, lines for people)."""
    ops, passes, setups = run_passes(name, seed, seconds, trace, data)
    attempted = sum(len(p["outputs"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = sum(1 for label, _ in failures if label != "tracing")
    correct = not failures
    lines = [f"{name}: seed {seed}, {len(passes)} passes in fresh interpreters,"
             f" {attempted} operations, {failed} failed"]
    lines += [f"  FAILED {label}: {reason}" for label, reason in failures[:20]]

    untraced = [p for p in passes if p["spans"] is None]
    pass_s = [sum(p["latencies"]) for p in untraced]
    e2e = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_s),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    named = {"setup_s": (e2e["setup_s"], "s", len(setups)),
             "pass_s": (e2e["pass_s"], "s", len(pass_s)),
             f"{name}_s": (e2e["pass_s"], "s", len(pass_s)),
             "peak_rss_mb": (e2e["peak_rss_mb"], "MB", len(untraced)),
             "failed_ratio": (failed / attempted, "ratio", attempted)}
    if name == "classify":
        for i, op in enumerate(ops):
            if op["label"] in ("4,1", "3,2"):
                times = [p["latencies"][i] for p in untraced]
                named[f"classify_{op['order']}_{op['gamma']}_s"] = (
                    statistics.median(times), "s", len(times))
    if name == "analyze":
        lat = [t for p in untraced for t in p["latencies"]]
        named["analyze_p50_ms"] = (1000 * statistics.median(lat), "ms", len(lat))
        p95 = percentile(lat, 95)
        if p95 is not None:
            named["analyze_p95_ms"] = (1000 * p95, "ms", len(lat))
    for key, (value, unit, n) in named.items():
        lines.append(f"  {key} = {value:.6g} {unit}  (n={n})")

    if trace:
        traced = passes[1]
        values = layer_metrics(traced["spans"], traced["counters"], traced["outputs"])
        values["trace.overhead_s"] = sum(traced["latencies"]) - e2e["pass_s"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for label, (done, ok) in per_op_counts(traced["spans"],
                                              [op["label"] for op in ops]).items():
            lines.append(f"  search at ({label}): {done} completed tables, {ok} passed")
        asserted = traced["counters"].get("asserted_failures")
        if asserted is not None:
            lines.append(f"  asserted-suite failures reported by tgs (results, not"
                         f" failed operations): {asserted}")
        path = os.path.join(OUT_DIR, f"trace-{name}-{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed,
                       "ops": [op["label"] for op in ops],
                       "untraced_pass_s": e2e["pass_s"],
                       "traced_pass_s": sum(traced["latencies"]),
                       "overhead_s": values["trace.overhead_s"],
                       "spans": traced["spans"]}, fh)
        lines.append(f"  spans written to {os.path.relpath(path, ROOT)}")
        lines += [f"  {key} = {m['value']:.6g} {m['unit']}" for key, m in metrics.items()]
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(HERE, "data.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            result, lines = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), spec, data)
        except BenchError as exc:
            print(f"{name}: benchmark could not run: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
