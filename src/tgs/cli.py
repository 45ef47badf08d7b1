"""Command line interface.

Four subcommands: classify (exhaustive enumeration with a written report
directory), analyze (single-structure report), verify (axiom and theorem
suites over a file, a corpus directory, or the bundled fixtures), and
export (DOT graphs). Exit codes are disjoint by failure class:

  0  success
  1  input or I/O error
  2  resource cap exceeded
  3  axiom failure
  4  asserted-invariant failure
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .analysis import (analyze, evaluate_all_claims, render_text,
                       run_asserted_suite, run_reported_suite)
from .core import (InputError, ResourceLimitError, _check_order, _json_text,
                   dumps_structure, load_structure, verify_axioms)
from .enumeration import classify, render_classification_text
from .fixtures import DERIVED
from .ideals import lattice_dot
from .quotient import enumerate_congruences, roundtrip_failures
from .spectrum import spectrum_dot

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOURCE = 2
EXIT_AXIOMS = 3
EXIT_ASSERT = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 is reserved for resource caps here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _refuse_earlier_output(out: str) -> None:
    """Refuse a directory that holds a report or structure files, which a
    smaller run would leave in place beside its own; delete nothing."""
    try:
        names = os.listdir(out)
    except FileNotFoundError:
        return
    earlier = sorted(f for f in names if f == "report.json"
                     or f.startswith("structure_") and f.endswith(".json"))
    if earlier:
        raise InputError(f"{out} already holds classify output"
                         f" ({earlier[0]}); give an empty or new directory")


def cmd_classify(args) -> int:
    if args.out is not None:
        _refuse_earlier_output(args.out)
    report = classify(args.order, args.gamma, jobs=args.jobs)
    text = render_classification_text(report)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        # one representative at a time, rebuilt from its canonical form
        for idx, s in enumerate(report.representatives):
            _write_or_print(dumps_structure(s),
                            os.path.join(args.out, f"structure_{idx:03d}.json"))
        _write_or_print(_json_text(report.to_dict()),
                        os.path.join(args.out, "report.json"))
        _write_or_print(text, os.path.join(args.out, "report.txt"))
    sys.stdout.write(text)
    return EXIT_OK


def _load(path, exhaustive: bool = True):
    """The structure in path. Exhaustive commands (analyze, export, the
    theorem suites) refuse one above the order cap; the axiom check is
    polynomial and takes any order."""
    s = load_structure(path)
    if exhaustive:
        _check_order(s.order, f"{path}: order")
    return s


def cmd_analyze(args) -> int:
    s = _load(args.file)
    report = analyze(s)
    if args.format == "json":
        _write_or_print(_json_text(report), args.out)
    else:
        _write_or_print(render_text(report), args.out)
    return EXIT_OK if report["axioms"]["passed"] else EXIT_AXIOMS


def _verify_structure(s, suite: str, label: str) -> int:
    rep = verify_axioms(s)
    if not rep.passed:
        print(f"{label}: axioms FAIL")
        for v in rep.failures():
            print(f"  {v.law} at {tuple(v.args)}: {v.lhs} != {v.rhs}")
        return EXIT_AXIOMS
    print(f"{label}: axioms pass")
    if suite == "axioms":
        return EXIT_OK

    code = EXIT_OK
    for c in run_asserted_suite(s):
        if c.ok is None:
            print(f"  [skip] {c.name}: {c.note}")
        elif c.ok:
            print(f"  [pass] {c.name}")
        else:
            code = EXIT_ASSERT
            print(f"  [FAIL] {c.name}")
            for w in c.witnesses[:5]:
                print(f"         witness: {w}")
    _print_reported_suite(s)
    return code


def _print_reported_suite(s) -> None:
    for c in run_reported_suite(s):
        if c.ok:
            print(f"  [reported] {c.name}: holds exhaustively")
        else:
            print(f"  [reported] {c.name}: {len(c.witnesses)} discrepancies,"
                  f" first: {c.witnesses[0]}")


def _verify_fixtures() -> int:
    print("bundled fixtures: reported comparisons and documented claims")
    print()
    for name, s in DERIVED.items():
        print(f"fixture {name} (order {s.order}):")
        _print_reported_suite(s)
        print(f"  congruence round-trip collisions: {len(roundtrip_failures(s))}"
              f" of {len(enumerate_congruences(s))}"
              " congruences do not return to themselves")
    print()
    print("documented claims, re-evaluated against the literal definitions:")
    verdicts = evaluate_all_claims()
    width = max(len(v["id"]) for v in verdicts)
    for v in verdicts:
        print(f"  {v['id']:<{width}}  {v['verdict']:<13} {v['text']}")
        if v["verdict"] != "confirmed" and v["witness"] is not None:
            print(f"  {'':<{width}}  witness: {v['witness']}")
    return EXIT_OK


def cmd_verify(args) -> int:
    target = args.target
    exhaustive = args.suite == "all"
    if os.path.isdir(target):
        files = sorted(f for f in os.listdir(target)
                       if f.endswith(".json") and f != "report.json")
        if not files:
            raise InputError(f"no structure files in {target}")
        worst = EXIT_OK
        # every file is verified; the exit code is the gravest outcome:
        # input error, then resource cap, axiom failure, assertion failure
        rank = {EXIT_INPUT: 4, EXIT_RESOURCE: 3, EXIT_AXIOMS: 2, EXIT_ASSERT: 1,
                EXIT_OK: 0}
        for fname in files:
            try:
                s = _load(os.path.join(target, fname), exhaustive)
            except (InputError, ResourceLimitError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                code = EXIT_INPUT if isinstance(exc, InputError) else EXIT_RESOURCE
            else:
                code = _verify_structure(s, args.suite, fname)
            if rank[code] > rank[worst]:
                worst = code
        return worst
    if os.path.exists(target):
        s = _load(target, exhaustive)
        return _verify_structure(s, args.suite, target)
    if target == "fixtures":
        return _verify_fixtures()
    raise InputError(f"no such file or directory: {target}")


def cmd_export(args) -> int:
    s = _load(args.file)
    dot = lattice_dot(s) if args.target == "ideals" else spectrum_dot(s)
    _write_or_print(dot, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tgs", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="enumerate all structures of an order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--gamma", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="directory for representatives and reports")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("analyze", help="full report for one structure file")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify",
                       help="run suites over a file, a directory, or the"
                            " reserved target 'fixtures'")
    p.add_argument("target")
    p.add_argument("--suite", choices=("axioms", "all"),
                   default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="DOT graph of the ideal lattice or spectrum")
    p.add_argument("file")
    p.add_argument("--target", choices=("ideals", "spec"), required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main call, not at import, and reused by every later
    # one: parse_args fills a fresh Namespace each time and leaves the
    # parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
