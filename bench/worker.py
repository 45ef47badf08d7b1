"""One pass of one workload in a fresh interpreter, so every cache of the
program starts cold. Started by run.py; not meant to be run by hand.

    worker.py MANIFEST RESULT T0 {pass,traced,setup}

T0 is the parent's CLOCK_MONOTONIC reading taken just before it started
this process, so set-up time counts interpreter start, ``import tgs`` and
reading the inputs. The result is written as JSON to RESULT.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_tgs():
    sys.path.insert(0, SRC)
    import tgs
    import tgs.cli
    here = os.path.realpath(os.path.dirname(tgs.__file__))
    if os.path.dirname(here) != os.path.realpath(SRC):
        raise SystemExit(f"tgs imported from {here}, not from {SRC}")
    return tgs


def main(argv) -> int:
    manifest_path, result_path, t0, mode = argv
    tgs = _import_tgs()
    import tracing
    import workloads

    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    name, ops = manifest["workload"], manifest["ops"]
    args = workloads.load(name, tgs, ops)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(t0)
    result = {"setup_s": setup_s}
    if mode == "setup":
        return _write(result_path, result)

    rec = tracing.Recorder() if mode == "traced" else None
    drive = rec.drive if rec else (lambda span, gen: gen)
    patches = tracing.install(rec) if rec else []
    pass_dir = os.path.join(os.path.dirname(result_path),
                            os.path.basename(result_path) + ".out")
    os.makedirs(pass_dir, exist_ok=True)
    outs, latencies = [], []
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink:
            for i, (op, arg) in enumerate(zip(ops, args)):
                span = None
                if rec:
                    rec.current_op = i
                    span = rec.begin("bench.op")
                t = time.perf_counter()
                try:
                    out = workloads.run_op(name, tgs, op, arg, pass_dir, sink, drive)
                except Exception as exc:  # counted as a failed operation
                    out = {"error": f"{type(exc).__name__}: {exc}"}
                latencies.append(time.perf_counter() - t)
                if rec:
                    rec.finish(span)
                outs.append(out)
    finally:
        tracing.restore(patches)
    result.update({
        "latencies": latencies,
        "outputs": outs,
        "peak_rss_mb": peak_rss_mb(),
        "wrappers_left": tracing.leftover_wrappers(),
        "spans": rec.to_dict() if rec else None,
    })
    return _write(result_path, result)


def peak_rss_mb() -> float:
    """High-water resident set of this process image (Linux).

    Not ru_maxrss: exec keeps the larger of the parent's and the child's
    peak, so a parent grown by reading a trace would show through.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
