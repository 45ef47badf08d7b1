"""The four workloads: their inputs, their operations and their gates.

Each workload is a list of operations run one after another by one client
(a closed loop). ``prepare`` runs in the benchmark's parent process and
writes the seeded inputs; ``load`` and ``run_op`` run in the fresh timed
interpreter; ``check`` runs in the parent again and compares each output
with the answers frozen in data.json. Nothing here imports tgs at module
level, so the parent never warms a cache of the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

CLASSIFY_SHAPES = [(3, 1), (4, 1), (2, 2), (3, 2)]
ANALYZE_SHAPES = [(4, 1), (3, 2)]
MODULE_SHAPES = [(1, 1), (2, 1), (3, 1), (2, 2)]
CORPUS_SHAPES = CLASSIFY_SHAPES + [(1, 1), (2, 1)]
# indices into enumerate_additive_monoids(5); 77 is the cyclic group
ORDER5_MONOIDS = (0, 4, 6, 28, 63, 77)
# their search does not finish within 20 s each (monoid 16 ran 15 min);
# left out only so that a run can end
ORDER5_EXCLUDED = (16, 39, 41, 43, 48, 50)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# inputs, built without the program

def decode_tables(hex_text: str):
    """(order, gamma, addition, ternary) from a canonical table serialization."""
    data = bytes.fromhex(hex_text)
    n, m = data[0], data[1]
    pos = 2 + n * n
    addition = [list(data[2 + a * n:2 + (a + 1) * n]) for a in range(n)]
    cubes = []
    for _ in range(m * m):
        cubes.append([[list(data[pos + (a * n + b) * n:pos + (a * n + b + 1) * n])
                       for b in range(n)] for a in range(n)])
        pos += n * n * n
    ternary = [[cubes[al * m + be] for be in range(m)] for al in range(m)]
    return n, m, addition, ternary


def zero_fixing_shuffle(rng, n: int) -> list:
    tail = list(range(1, n))
    rng.shuffle(tail)
    return [0] + tail


def relabel_addition(addition, sigma) -> list:
    n = len(addition)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[addition[a][b]]
    return out


def relabeled_structure_doc(hex_text: str, sigma) -> dict:
    """Structure JSON (the program's file format) of a relabeled table."""
    n, m, addition, ternary = decode_tables(hex_text)
    tern = {}
    for al in range(m):
        for be in range(m):
            cube = [[[0] * n for _ in range(n)] for _ in range(n)]
            src = ternary[al][be]
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        cube[sigma[a]][sigma[b]][sigma[c]] = sigma[src[a][b][c]]
            tern[f"{al},{be}"] = cube
    names = [""] * n
    for a in range(n):
        names[sigma[a]] = str(a)
    return {"order": n, "gamma": m, "names": names,
            "addition": relabel_addition(addition, sigma), "ternary": tern}


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _relabeled_corpus(data, shapes, rng, inputs_dir) -> list:
    """Write every representative of the shapes, relabeled; (path, row) pairs."""
    out = []
    for n, m in shapes:
        for idx, row in enumerate(data["corpus"][f"{n},{m}"]):
            path = os.path.join(inputs_dir, f"s{n}{m}_{idx:03d}.json")
            sigma = zero_fixing_shuffle(rng, n)
            _write_json(path, relabeled_structure_doc(row["tables"], sigma))
            out.append((path, row))
    return out


def prepare(name: str, data: dict, rng, inputs_dir: str):
    """Seeded inputs for one workload: (op specs for the worker, expectations)."""
    if name == "classify":
        ops = [{"label": f"{n},{m}", "order": n, "gamma": m}
               for n, m in CLASSIFY_SHAPES]
        return ops, list(data["classify"])
    if name == "analyze":
        pairs = _relabeled_corpus(data, ANALYZE_SHAPES, rng, inputs_dir)
        rng.shuffle(pairs)
        return ([{"label": os.path.basename(p), "file": p} for p, _ in pairs],
                [row for _, row in pairs])
    if name == "modules":
        pairs = list(zip(_relabeled_corpus(data, MODULE_SHAPES, rng, inputs_dir),
                         data["modules"]))
        rng.shuffle(pairs)
        return ([{"label": os.path.basename(p), "file": p} for (p, _), _ in pairs],
                [counts for _, counts in pairs])
    if name == "order5":
        tables = list(data["order5"]["tables"])
        rng.shuffle(tables)
        ops = [{"label": "monoids"}]
        for t in tables:
            sigma = zero_fixing_shuffle(rng, 5)
            path = os.path.join(inputs_dir, f"monoid5_{t['monoid_index']}.json")
            _write_json(path, relabel_addition(t["addition"], sigma))
            ops.append({"label": f"monoid {t['monoid_index']}", "file": path})
        return ops, [data["order5"]] + tables
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# operations, run in the timed interpreter

def load(name: str, tgs, ops: list) -> list:
    """Parse the inputs a workload's operations take (part of set-up)."""
    if name == "modules":
        return [tgs.core.load_structure(op["file"]) for op in ops]
    if name == "order5":
        args = [None]
        for op in ops[1:]:
            with open(op["file"], encoding="utf-8") as fh:
                args.append(tuple(tuple(row) for row in json.load(fh)))
        return args
    return [None] * len(ops)


def module_counts(tgs, s, drive=lambda name, gen: gen):
    """The criterion-9 load for one scalar structure.

    Returns (regular module passes, actions generated, actions passing the
    module axioms, simple actions with a proper annihilator).
    """
    gm = tgs.gamma_modules
    reg = gm.regular_module(s)
    regular_ok = gm.verify_module_axioms(reg).passed is True
    ann = gm.annihilator(reg)
    if ann.proper and not ann.ideal.ok:
        regular_ok = False
    actions = passing = simple = 0
    for k in (2, 3):
        for action in drive("gamma_modules.enumerate",
                            gm.enumerate_module_actions(s, k)):
            actions += 1
            if gm.verify_module_axioms(action).passed is not True:
                continue
            passing += 1
            if gm.is_simple_module(action) and gm.annihilator(action).proper:
                simple += 1
    return regular_ok, actions, passing, simple


def run_op(name: str, tgs, op: dict, arg, pass_dir: str, sink, drive) -> dict:
    """One operation; returns what the gate needs to see."""
    if name == "classify":
        out = os.path.join(pass_dir, f"classify_{op['order']}_{op['gamma']}")
        with contextlib.redirect_stdout(sink):
            code = tgs.cli.main(["classify", "--order", str(op["order"]),
                                 "--gamma", str(op["gamma"]), "--out", out])
        return {"exit": code, "out": out}
    if name == "analyze":
        out = os.path.join(pass_dir, op["label"])
        with contextlib.redirect_stdout(sink):
            code = tgs.cli.main(["analyze", op["file"], "--format", "json",
                                 "--out", out])
        return {"exit": code, "out": out}
    if name == "modules":
        return {"counts": list(module_counts(tgs, arg, drive))}
    if name == "order5":
        if arg is None:
            monoids = tgs.enumeration.enumerate_additive_monoids(5)
            return {"count": len(monoids),
                    "sha256": digest([[list(r) for r in g] for g in monoids])}
        seen = set()
        candidates = 0
        for s in drive("enumeration.search",
                       tgs.enumeration.enumerate_structures(5, 1, addition=arg)):
            candidates += 1
            seen.add(tgs.core.canonical_form(s))
        return {"candidates": candidates, "distinct": len(seen)}
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# correctness gates, run in the parent

def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(name: str, expected, out: dict, counters: dict):
    """None when the operation's output is right, else the reason it is not.

    Failures of the program's own asserted suite (maximal-implies-prime) are
    results of the analysis and are counted in ``counters``, never as failed
    operations.
    """
    if "error" in out:
        return out["error"]
    if name in ("classify", "analyze") and out["exit"] != 0:
        return f"exit code {out['exit']}"
    if name == "classify":
        report = _read_json(os.path.join(out["out"], "report.json"))
        counters["candidates"] = counters.get("candidates", 0) + report["candidate_count"]
        counters["representatives"] = (counters.get("representatives", 0)
                                       + report["structure_count"])
        if report["structure_count"] != expected["structure_count"]:
            return (f"{report['structure_count']} structures,"
                    f" expected {expected['structure_count']}")
        if digest(report["structures"]) != expected["structures_sha256"]:
            return "digest of the structures array differs"
        return None
    if name == "analyze":
        report = _read_json(out["out"])
        counters["asserted_failures"] = counters.get("asserted_failures", 0) + sum(
            1 for c in report["suite"]["asserted"] if c["ok"] is False)
        got = {"canonical_sha256": report["structure"]["canonical_sha256"],
               "ideals": len(report["ideals"]),
               "congruences": report["congruences"]["count"],
               "idempotents": len(report["idempotents"])}
        for key, value in got.items():
            if value != expected[key]:
                return f"{key} is {value}, expected {expected[key]}"
        return None
    if name == "modules":
        if out["counts"] != expected:
            return f"counts {out['counts']}, expected {expected}"
        return None
    if name == "order5":
        if "sha256" in out:
            if (out["count"], out["sha256"]) != (expected["monoid_count"],
                                                 expected["monoids_sha256"]):
                return f"{out['count']} monoids or their digest differ"
            return None
        counters["candidates"] = counters.get("candidates", 0) + out["candidates"]
        counters["representatives"] = (counters.get("representatives", 0)
                                       + out["distinct"])
        if out["distinct"] != expected["distinct"]:
            return f"{out['distinct']} distinct structures, expected {expected['distinct']}"
        return None
    raise ValueError(f"unknown workload {name!r}")
