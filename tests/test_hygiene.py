"""Source hygiene of the package, read with the stdlib ast module: no module
imports a name it never uses, no module-level private function goes
unreferenced, no public function or class goes uncalled, no per-structure
memo key is set in two places, every memo seed is a key some memo call
computes, one search engine completes every table, the package writes JSON
through one writer (core._json_text, never json.dump or json.dumps), the
test oracles share no code with the package, every name the benchmark
traces still exists, and each axiom report decides and reports every law
of its table."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from tgs.core import AxiomReport
from tgs.gamma_modules import ModuleAxiomReport

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tgs"
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _used_names(tree) -> set:
    """Every name read as a variable or an attribute anywhere in tree."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_no_unused_imports():
    unused = []
    for module, tree in _trees().items():
        if module == "__init__":
            continue
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{module}: {name}")
    assert unused == []


def test_every_private_function_is_referenced():
    trees = _trees()
    used = set().union(*map(_used_names, trees.values()))
    unreferenced = [f"{module}: {node.name}"
                    for module, tree in trees.items() for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and node.name not in used]
    assert unreferenced == []


def test_every_public_name_has_a_caller():
    # a public function or class that the package neither exports nor reads
    # is surface that only its own tests reach
    trees = _trees()
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set().union(exported, *map(_used_names, trees.values()))
    uncalled = [f"{module}: {node.name}"
                for module, tree in trees.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in used]
    assert uncalled == []


def test_each_memo_key_is_set_in_one_place():
    # memo(s, key, compute): the key is a string literal, or a tuple whose
    # first item is one; two call sites with one key would share a slot
    sites = Counter()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "memo"):
                key = node.args[1]
                if isinstance(key, ast.Tuple):
                    key = key.elts[0]
                assert isinstance(key, ast.Constant), f"{module}: {ast.dump(key)}"
                sites[key.value] += 1
    assert sites
    assert [key for key, count in sites.items() if count > 1] == []


def test_every_memo_seed_is_a_computed_key():
    # _prevalidated(cls, ..., _memo={...}) seeds what memo would compute:
    # "body", or ("fails", law) for a law of the report of cls. A seed of
    # any other key would never be read, and the search would decide that
    # law again. The store is touched nowhere else but in memo and memoized.
    laws = {"GammaStructure": AxiomReport._LAWS,
            "ModuleAction": ModuleAxiomReport._LAWS}
    seeds = Counter()
    for module, tree in _trees().items():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Constant) and node.value == "_memo"
                        and module + "." + getattr(top, "name", "") not in (
                            "core.memo", "core.memoized")):
                    raise AssertionError(f"{module}: the memo store read directly")
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_prevalidated"):
                    continue
                for kw in node.keywords:
                    if kw.arg != "_memo":
                        continue
                    cls = node.args[0].id
                    assert isinstance(kw.value, ast.Dict), f"{module}: {cls} seed"
                    for key in kw.value.keys:
                        key = ast.literal_eval(key)
                        assert (key == "body" and cls == "GammaStructure"
                                or (key[0] == "fails" and key[1] in laws[cls])), (
                            f"{module}: {cls} seeded with {key!r}")
                        seeds[cls, key if key == "body" else key[0]] += 1
    assert seeds == {("GammaStructure", "body"): 1, ("GammaStructure", "fails"): 4,
                     ("ModuleAction", "fails"): 4}


def test_one_search_engine():
    # enumeration._backtrack completes every table: the additive monoids,
    # the one-cube search behind every ternary table and module action, and
    # the join of a ternary table's passing cubes
    callers = [f"{module}.{top.name}" for module, tree in _trees().items()
               for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "_backtrack"]
    assert sorted(callers) == ["enumeration._cube_solutions",
                               "enumeration._structures_for_monoid",
                               "enumeration.enumerate_additive_monoids"]


def test_one_json_writer():
    # core._json_text writes every JSON document; the loader's json.loads stays
    calls = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                calls.append(f"{module}: json.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                calls += [f"{module}: from json import {alias.name}"
                          for alias in node.names if alias.name in ("dump", "dumps")]
    assert calls == []


def test_oracles_import_only_the_structure_type():
    # a whole-module import counts under its own name, so it fails too
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names
                         if alias.name.split(".")[0] == "tgs"}
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "tgs"):
            imported |= {alias.name for alias in node.names}
    assert imported == {"GammaStructure"}


def test_every_traced_name_resolves():
    # bench/tracing.py wraps package functions by (module, attribute); a
    # renamed or deleted one would otherwise surface only in the benchmark
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr in tracing.TRACED.values()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    assert set(tracing.OUTCOMES) <= set(tracing.TRACED)
    assert all(map(callable, tracing.OUTCOMES.values()))


def test_each_report_orders_every_law_once():
    # passed decides the laws in _ORDER, so a law missing there would drop
    # out of the verdict unseen; _KEYS is the law table plus "passed"
    for report in (AxiomReport, ModuleAxiomReport):
        assert sorted(report._ORDER) == sorted(report._LAWS)
        assert report._KEYS.count("passed") == 1
        assert [key for key in report._KEYS if key != "passed"] == list(report._LAWS)
