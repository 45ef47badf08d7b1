"""Spans taken at the module boundaries of tgs, from outside the package.

For a traced pass, each function named in TRACED is replaced by a timing
wrapper in every tgs module namespace that binds it, the defining module
included, so calls made inside that module are timed as well. Generators
that the benchmark drives itself are timed per ``next()``. Spans stay in
memory and are written out with the pass result.
"""

from __future__ import annotations

import sys
from time import perf_counter

# span name -> (module, attribute). Two private names are wrapped because the
# ternary search and the invariant summary have no public entry point inside
# classify(); with jobs=1 both are looked up through the module namespace.
TRACED = {
    "cli.main": ("tgs.cli", "main"),
    "core.verify_axioms": ("tgs.core", "verify_axioms"),
    "core.canonical_form": ("tgs.core", "canonical_form"),
    "core.load_structure": ("tgs.core", "load_structure"),
    "core.dumps_structure": ("tgs.core", "dumps_structure"),
    "enumeration.classify": ("tgs.enumeration", "classify"),
    "enumeration.monoids": ("tgs.enumeration", "enumerate_additive_monoids"),
    "enumeration.search": ("tgs.enumeration", "_enumeration_worker"),
    "enumeration.summary": ("tgs.enumeration", "_structure_summary"),
    "ideals.enumerate_ideals": ("tgs.ideals", "enumerate_ideals"),
    "ideals.ideal_lattice": ("tgs.ideals", "ideal_lattice"),
    "ideals.classify_ideal": ("tgs.ideals", "classify_ideal"),
    "ideals.is_prime": ("tgs.ideals", "is_prime"),
    "ideals.is_semiprime": ("tgs.ideals", "is_semiprime"),
    "ideals.is_maximal": ("tgs.ideals", "is_maximal"),
    "ideals.is_primary": ("tgs.ideals", "is_primary"),
    "quotient.enumerate_congruences": ("tgs.quotient", "enumerate_congruences"),
    "quotient.bourne_congruence": ("tgs.quotient", "bourne_congruence"),
    "quotient.quotient_structure": ("tgs.quotient", "quotient_structure"),
    "radicals.radical_by_primes": ("tgs.radicals", "radical_by_primes"),
    "radicals.radical_report": ("tgs.radicals", "radical_report"),
    "radicals.jacobson_radical": ("tgs.radicals", "jacobson_radical"),
    "spectrum.verify_topology": ("tgs.spectrum", "verify_topology"),
    "spectrum.prime_spectrum": ("tgs.spectrum", "prime_spectrum"),
    "spectrum.crt_check": ("tgs.spectrum", "crt_check"),
    "spectrum.decompose_by_idempotent": ("tgs.spectrum", "decompose_by_idempotent"),
    "spectrum.connected_components": ("tgs.spectrum", "connected_components"),
    "analysis.analyze": ("tgs.analysis", "analyze"),
    "analysis.asserted_suite": ("tgs.analysis", "run_asserted_suite"),
    "analysis.reported_suite": ("tgs.analysis", "run_reported_suite"),
    "gamma_modules.regular_module": ("tgs.gamma_modules", "regular_module"),
    "gamma_modules.verify_module_axioms": ("tgs.gamma_modules", "verify_module_axioms"),
    "gamma_modules.is_simple_module": ("tgs.gamma_modules", "is_simple_module"),
    "gamma_modules.annihilator": ("tgs.gamma_modules", "annihilator"),
}

# spans that also record whether the call's answer was "passed"
OUTCOMES = {
    "core.verify_axioms": lambda report: report.passed,
    "gamma_modules.verify_module_axioms": lambda report: report.passed is True,
}


class Recorder:
    """Spans of one pass, as parallel lists; a span's parent is an index."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.ok = []
        self.current_op = -1
        self._stack = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.ok.append(None)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int, ok=None) -> None:
        self.end[i] = perf_counter()
        self.ok[i] = ok
        self._stack.pop()

    def drive(self, name: str, gen):
        """Iterate gen, one span per next()."""
        while True:
            i = self.begin(name)
            try:
                item = next(gen)
            except StopIteration:
                self.finish(i)
                return
            except BaseException:
                self.finish(i)
                raise
            self.finish(i)
            yield item

    def to_dict(self) -> dict:
        return {"names": self.names, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "ok": self.ok}


def self_times(spans: dict) -> list:
    """Each span's duration minus the time its direct children cover."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def _wrap(rec: Recorder, name: str, fn):
    outcome = OUTCOMES.get(name)

    def wrapper(*args, **kwargs):
        i = rec.begin(name)
        ok = None
        try:
            result = fn(*args, **kwargs)
            if outcome is not None:
                ok = outcome(result)
            return result
        finally:
            rec.finish(i, ok)

    wrapper.bench_span = name
    return wrapper


def tgs_modules() -> list:
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "tgs" or key.startswith("tgs."))]


def install(rec: Recorder) -> list:
    """Put wrappers in place; returns the patches that restore() undoes."""
    modules = tgs_modules()
    patches = []
    for name, (modname, attr) in TRACED.items():
        original = getattr(sys.modules[modname], attr)
        wrapper = _wrap(rec, name, original)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                patches.append((mod, key, original))
                setattr(mod, key, wrapper)
    return patches


def restore(patches: list) -> None:
    for mod, key, original in reversed(patches):
        setattr(mod, key, original)


def leftover_wrappers() -> list:
    """Names in tgs namespaces that are still benchmark wrappers."""
    return [f"{mod.__name__}.{key}" for mod in tgs_modules()
            for key, value in vars(mod).items()
            if callable(value) and hasattr(value, "bench_span")]
