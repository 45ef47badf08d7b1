"""Whole-structure analysis: theorem suites, claim evaluation, report assembly.

Two suites run over a single structure. The asserted suite contains laws that
must hold (callers treat any failure as a hard error with witnesses). The
reported suite contains comparisons that are expected to fail on parts of the
corpus; their outcomes are recorded, never enforced. Claim evaluation replays
the shipped worked-example claims against the literal definitions and labels
each confirmed, refuted, or not-evaluable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from .core import (GammaStructure, _meet, canonical_form, full_mask,
                   mask_elements, mask_of, memo, verify_axioms)
from .fixtures import CLAIMS, claim_structure
from .gamma_modules import regular_module, verify_module_axioms
from .ideals import (enumerate_ideals, ideal_classes, ideal_lattice, is_ideal,
                     is_prime, is_semiprime)
from .quotient import (bourne_congruence, congruence_to_ideal,
                       enumerate_congruences, has_nonzero_zero_divisors,
                       is_congruence, partition_blocks, quotient_structure,
                       roundtrip_failures)
from .radicals import ideal_radicals, is_semisimple, jacobson_radical
from .spectrum import (HomomorphismMap, connected_components, crt_check,
                       decompose_by_idempotent, find_idempotents, is_simple,
                       prime_spectrum, pullback_ideal, quotient_by_ideal,
                       spectrum_points, verify_topology)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SuiteCheck:
    """One law evaluated over one structure."""

    name: str
    asserted: bool
    ok: Optional[bool]
    witnesses: tuple = ()
    note: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "asserted": self.asserted,
            "ok": self.ok,
            "witnesses": [list(w) if isinstance(w, tuple) else w
                          for w in self.witnesses],
            "note": self.note,
        }


def _elems(mask: int) -> list:
    return list(mask_elements(mask))


# ---------------------------------------------------------------------------
# asserted suite

def run_asserted_suite(s: GammaStructure) -> list:
    checks = []
    top = full_mask(s.order)
    ideals = enumerate_ideals(s)
    classes = ideal_classes(s)

    for name, premise, conclusion in (
            ("maximal-implies-prime", "maximal", "prime"),
            ("prime-implies-primary", "prime", "primary"),
            ("prime-implies-semiprime", "prime", "semiprime")):
        wit = [(_elems(c.mask), list(getattr(c, conclusion).witness))
               for c in classes if getattr(c, premise) and not getattr(c, conclusion)]
        checks.append(SuiteCheck(name, True, not wit, tuple(wit)))

    semis = [c.mask for c in classes if c.semiprime]
    wit = []
    for a in range(len(semis)):
        for b in range(a + 1, len(semis)):
            meet = semis[a] & semis[b]
            if meet != top and not is_semiprime(s, meet).ok:
                wit.append((_elems(semis[a]), _elems(semis[b]), _elems(meet)))
    if len(semis) > 2:
        meet = _meet(s, semis)
        if meet != top and not is_semiprime(s, meet).ok:
            wit.append(("family", _elems(meet)))
    checks.append(SuiteCheck("semiprime-intersections", True, not wit, tuple(wit)))

    # each radical is an ideal, so a key of rads
    rads = dict(zip(ideals, ideal_radicals(s)))
    wit = []
    for i in ideals:
        rad = rads[i].by_primes
        if rad != top and not is_semiprime(s, rad).ok:
            wit.append((_elems(i), _elems(rad)))
    checks.append(SuiteCheck("radical-semiprime-when-proper", True, not wit,
                             tuple(wit)))

    wit = []
    for i in ideals:
        rad = rads[i].by_primes
        again = rads[rad].by_primes
        if rad != again:
            wit.append((_elems(i), _elems(rad), _elems(again)))
    checks.append(SuiteCheck("radical-idempotent", True, not wit, tuple(wit)))

    wit = []
    for i in ideals:
        for j in ideals:
            if i & j == i:
                ri, rj = rads[i].by_primes, rads[j].by_primes
                if ri & rj != ri:
                    wit.append((_elems(i), _elems(j)))
    checks.append(SuiteCheck("radical-monotone", True, not wit, tuple(wit)))

    wit = []
    for q in semis:
        if rads[q].by_elements != q:
            wit.append((_elems(q), _elems(rads[q].by_elements)))
    checks.append(SuiteCheck("semiprime-equals-element-radical", True,
                             not wit, tuple(wit)))

    for t in verify_topology(s):
        checks.append(SuiteCheck(f"topology-{t.name}", True, t.ok,
                                 () if t.witness is None else (t.witness,)))

    congruences = enumerate_congruences(s)
    wit = []
    for i in ideals:
        # the memoized list decides; only a non-member needs the witness scan
        rho = bourne_congruence(s, i)
        if rho not in congruences:
            wit.append((_elems(i), list(is_congruence(s, rho).witness)))
    checks.append(SuiteCheck("bourne-is-congruence", True, not wit, tuple(wit)))

    wit = []
    for rho in congruences:
        z = congruence_to_ideal(s, rho)
        v = is_ideal(s, z)
        if not v.ok:
            wit.append((list(rho), list(v.witness)))
    checks.append(SuiteCheck("congruence-zero-class-is-ideal", True,
                             not wit, tuple(wit)))

    # a quotient is a homomorphic image, and every axiom is an equation, so
    # the quotients of a structure that passes its axioms pass theirs
    wit = []
    if not verify_axioms(s).passed:
        for rho in congruences:
            rep = verify_axioms(quotient_structure(s, rho))
            if not rep.passed:
                wit.append((list(rho), [v.law for v in rep.failures()]))
    checks.append(SuiteCheck("quotient-passes-axioms", True, not wit, tuple(wit)))

    wit = []
    for i in ideals:
        z = congruence_to_ideal(s, bourne_congruence(s, i))
        if i & z != i:
            wit.append((_elems(i), _elems(z)))
    checks.append(SuiteCheck("ideal-inside-bourne-zero-class", True,
                             not wit, tuple(wit)))

    wit = []
    for rho in congruences:
        # quotient_structure refuses a non-congruence, so pi is a homomorphism
        q = quotient_structure(s, rho)
        pi = HomomorphismMap(s, q, rho)
        q_top = full_mask(q.order)
        for qi in enumerate_ideals(q):
            back = pullback_ideal(pi, qi)
            if not is_ideal(s, back).ok:
                wit.append((list(rho), _elems(qi), "pullback-not-ideal"))
            if qi != q_top and is_prime(q, qi).ok:
                if not is_prime(s, back).ok:
                    wit.append((list(rho), _elems(qi), "pullback-not-prime"))
    checks.append(SuiteCheck("prime-pullback-along-projections", True,
                             not wit, tuple(wit)))

    maximals = [c for c in classes if c.maximal]
    jac = jacobson_radical(s)
    hypothesis = maximals and jac != top and all(c.prime for c in maximals)
    if hypothesis:
        v = is_semiprime(s, jac)
        checks.append(SuiteCheck("jacobson-semiprime-when-maximals-prime", True,
                                 v.ok, () if v.ok else (list(v.witness),)))
    else:
        checks.append(SuiteCheck("jacobson-semiprime-when-maximals-prime", True,
                                 None, (), "hypothesis not met; nothing to check"))

    if s.is_additive_group():
        checks.extend(_quotient_characterizations(s))
    return checks


def _quotient_characterizations(s: GammaStructure) -> list:
    """Three laws proved for additive groups: asserted there, reported (with
    a note on what the proof needs) for monoid addition."""
    ideals = enumerate_ideals(s)
    asserted = s.is_additive_group()

    def check(name: str, wit: list, note: Optional[str]) -> SuiteCheck:
        return SuiteCheck(name, asserted, not wit, tuple(wit),
                          None if asserted else note)

    wit = []
    for i in ideals:
        z = congruence_to_ideal(s, bourne_congruence(s, i))
        if z != i:
            wit.append((_elems(i), _elems(z)))
    checks = [check("bourne-zero-class-equals-ideal", wit,
                    "monoid addition: inflation is possible")]

    wit = []
    for c in ideal_classes(s):
        if not c.proper:
            continue
        left = c.prime.ok
        right = not has_nonzero_zero_divisors(quotient_by_ideal(s, c.mask)).ok
        if left != right:
            wit.append((_elems(c.mask), "prime" if left else "not-prime",
                        "zero-divisor-free" if right else "has-zero-divisors"))
    checks.append(check("prime-iff-quotient-zero-divisor-free", wit,
                        "coset argument needs subtraction"))

    wit = []
    for rep in _crt_reports(s):
        if rep.comaximal.ok and not (rep.bijective
                                     and rep.kernel_matches_intersection):
            wit.append(tuple(_elems(i) for i in rep.ideals))
    checks.append(check("crt-for-comaximal-maximals", wit, None))
    return checks


def _crt_reports(s: GammaStructure) -> tuple:
    """CRT reports for each pair of maximal ideals, then for all of them when
    there are more than two; once per structure."""
    return memo(s, "crt", lambda: _crt_checks(s))


def _crt_checks(s: GammaStructure) -> tuple:
    maximals = [c.mask for c in ideal_classes(s) if c.maximal]
    out = []
    for a in range(len(maximals)):
        for b in range(a + 1, len(maximals)):
            out.append(crt_check(s, [maximals[a], maximals[b]]))
    if len(maximals) > 2:
        out.append(crt_check(s, maximals))
    return tuple(out)


# ---------------------------------------------------------------------------
# reported suite

def run_reported_suite(s: GammaStructure) -> list:
    checks = []
    top = full_mask(s.order)

    reports = ideal_radicals(s)
    wit = []
    flags = []
    for rep in reports:
        if not rep.agree:
            wit.append((_elems(rep.ideal), list(rep.only_by_primes),
                        list(rep.only_by_elements)))
        if not rep.by_elements_is_ideal:
            flags.append(_elems(rep.ideal))
    checks.append(SuiteCheck("radical-route-agreement", False, not wit, tuple(wit)))
    checks.append(SuiteCheck("element-radical-is-ideal", False, not flags,
                             tuple(flags)))

    wit = []
    for c, rep in zip(ideal_classes(s), reports):
        if c.primary:
            rad = rep.by_primes
            if rad == top:
                wit.append((_elems(c.mask), "radical-not-proper"))
            elif not is_prime(s, rad).ok:
                wit.append((_elems(c.mask), _elems(rad)))
    checks.append(SuiteCheck("primary-radical-prime", False, not wit, tuple(wit)))

    wit = [(list(rho), list(back)) for rho, back in roundtrip_failures(s)]
    checks.append(SuiteCheck("congruence-roundtrip-bijection", False,
                             not wit, tuple(wit),
                             "distinct congruences may share a zero class"))

    if not s.is_additive_group():
        checks.extend(_quotient_characterizations(s))

    idempotents = find_idempotents(s)
    components = connected_components(s)
    ok = len(idempotents) == len(components)
    checks.append(SuiteCheck(
        "idempotent-count-equals-component-count", False, ok,
        () if ok else ((list(idempotents), len(components)),)))

    nontrivial = []
    for e in idempotents:
        d = decompose_by_idempotent(s, e)
        if d.nontrivial:
            nontrivial.append(e)
    topo_connected = len(components) <= 1
    alg_connected = not nontrivial
    agree = topo_connected == alg_connected
    checks.append(SuiteCheck(
        "connectedness-topological-vs-idempotent", False, agree,
        () if agree else ((topo_connected, nontrivial),),
        "connected iff no nontrivial idempotent splitting"))

    mod_rep = verify_module_axioms(regular_module(s))
    checks.append(SuiteCheck("regular-module-surrogate-associativity", False,
                             mod_rep.passed,
                             () if mod_rep.passed else
                             tuple((v.law,) + tuple(v.args)
                                   for v in mod_rep.failures())))
    return checks


# ---------------------------------------------------------------------------
# claim evaluation

def _claim_ideal_ready(s: GammaStructure, elements) -> tuple:
    """(mask, problem) where problem explains why the set is not an ideal."""
    mask = mask_of(elements)
    v = is_ideal(s, mask)
    if not v.ok:
        return mask, list(v.witness)
    return mask, None


def evaluate_claim(claim: dict) -> dict:
    s = claim_structure(claim["fixture"])
    kind = claim["kind"]
    out = {
        "id": claim["id"],
        "fixture": claim["fixture"],
        "kind": kind,
        "text": claim["text"],
        "verdict": "not-evaluable",
        "witness": None,
    }

    def done(ok: bool, witness=None) -> dict:
        out["verdict"] = "confirmed" if ok else "refuted"
        out["witness"] = witness
        return out

    if kind == "not-evaluable":
        out["witness"] = claim.get("note")
        return out
    if s is None:
        out["witness"] = "no finite structure to evaluate against"
        return out

    top = full_mask(s.order)
    if kind == "axioms":
        rep = verify_axioms(s)
        if rep.passed:
            return done(True)
        return done(False, {"failures": [v.to_dict() for v in rep.failures()]})
    if kind == "ideals-exactly":
        claimed = sorted(mask_of(e) for e in claim["ideals"])
        computed = sorted(enumerate_ideals(s))
        return done(claimed == computed,
                    {"computed": [_elems(i) for i in sorted(computed)]})
    if kind == "simple":
        return done(is_simple(s) == claim.get("value", True),
                    {"ideals": [_elems(i) for i in enumerate_ideals(s)]})
    if kind in ("prime", "not-prime", "semiprime", "maximal",
                "prime-not-maximal", "primary-not-prime"):
        mask, problem = _claim_ideal_ready(s, claim["elements"])
        if problem is not None:
            return done(False, {"not-an-ideal": problem})
        if mask == top:
            return done(False, {"not-proper": _elems(mask)})
        info = ideal_classes(s)[enumerate_ideals(s).index(mask)]
        if "-not-" in kind:  # prime-not-maximal, primary-not-prime
            holds, fails = kind.split("-not-")
            a, b = getattr(info, holds).ok, getattr(info, fails).ok
            return done(a and not b, {holds: a, fails: b})
        # prime, semiprime, maximal, and not-prime: the witness is the
        # counterexample whenever the property fails
        v = getattr(info, kind.removeprefix("not-"))
        return done(v.ok != kind.startswith("not-"),
                    None if v.ok else list(v.witness))
    if kind == "primes-exactly":
        claimed = sorted(mask_of(e) for e in claim["ideals"])
        computed = sorted(spectrum_points(s))
        return done(claimed == computed,
                    {"computed": [_elems(i) for i in computed]})
    if kind == "jacobson":
        jac = jacobson_radical(s)
        return done(jac == mask_of(claim["elements"]), {"computed": _elems(jac)})
    if kind == "semisimple":
        return done(is_semisimple(s) == claim["value"],
                    {"computed": is_semisimple(s),
                     "jacobson": _elems(jacobson_radical(s))})
    if kind == "quotient-order":
        mask, problem = _claim_ideal_ready(s, claim["elements"])
        if problem is not None:
            return done(False, {"not-an-ideal": problem})
        q = quotient_by_ideal(s, mask)
        return done(q.order == claim["order"], {"computed": q.order})
    if kind == "idempotent":
        e = claim["element"]
        return done(e in find_idempotents(s),
                    {"idempotents": list(find_idempotents(s))})
    if kind == "decomposition":
        e = claim["element"]
        if e not in find_idempotents(s):
            return done(False, {"not-idempotent": e})
        d = decompose_by_idempotent(s, e)
        ok = (d.left == mask_of(claim["left"])
              and d.right == mask_of(claim["right"]))
        return done(ok, d.to_dict())
    if kind == "crt":
        masks = []
        for elems in claim["ideals"]:
            mask, problem = _claim_ideal_ready(s, elems)
            if problem is not None:
                return done(False, {"not-an-ideal": problem})
            masks.append(mask)
        rep = crt_check(s, masks)
        ok = (rep.comaximal.ok and rep.bijective
              and rep.kernel_matches_intersection)
        return done(ok, rep.to_dict())
    out["witness"] = f"unknown claim kind {kind!r}"
    return out


def evaluate_all_claims() -> list:
    return [evaluate_claim(c) for c in CLAIMS]


# ---------------------------------------------------------------------------
# report assembly

def analyze(s: GammaStructure) -> dict:
    """Full analysis as a JSON-ready dict; deterministic for a fixed input."""
    axioms = verify_axioms(s)
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "analysis",
        "structure": {
            "order": s.order,
            "gamma_size": s.gamma_size,
            "names": list(s.names),
            "canonical_sha256": hashlib.sha256(canonical_form(s)).hexdigest(),
            "additive_group": s.is_additive_group(),
        },
        "axioms": axioms.to_dict(),
    }
    if not axioms.passed:
        report["analysis_skipped"] = "axioms failed; nothing below is defined"
        return report

    lattice = ideal_lattice(s)
    ideal_rows = []
    for i, info in zip(lattice.ideals, lattice.info):
        row = {"elements": _elems(i), "proper": info.proper,
               "tags": list(info.tags())}
        for name, verdict in (("prime", info.prime),
                              ("semiprime", info.semiprime),
                              ("maximal", info.maximal),
                              ("primary", info.primary)):
            if verdict is None:
                row[name] = None
            else:
                row[name] = {"ok": verdict.ok,
                             "witness": None if verdict.witness is None
                             else list(verdict.witness)}
        ideal_rows.append(row)
    report["ideals"] = ideal_rows
    report["ideal_covers"] = [[_elems(lattice.ideals[a]), _elems(lattice.ideals[b])]
                              for a, b in lattice.covers]

    report["radicals"] = [rep.to_dict() for rep in ideal_radicals(s)]
    jac = jacobson_radical(s)
    report["jacobson"] = {"elements": _elems(jac),
                          "semisimple": is_semisimple(s)}

    congruences = enumerate_congruences(s)
    report["congruences"] = {
        "count": len(congruences),
        "partitions": [[list(b) for b in partition_blocks(rho)]
                       for rho in congruences],
        "ideal_count": len(lattice.ideals),
    }

    report["spectrum"] = prime_spectrum(s).to_dict()
    report["topology"] = [
        {"name": t.name, "ok": t.ok,
         "witness": None if t.witness is None else list(t.witness)}
        for t in verify_topology(s)]

    idempotents = find_idempotents(s)
    report["idempotents"] = list(idempotents)
    report["decompositions"] = [decompose_by_idempotent(s, e).to_dict()
                                for e in idempotents]
    report["crt"] = [rep.to_dict() for rep in _crt_reports(s)]
    report["simple"] = is_simple(s)

    asserted = run_asserted_suite(s)
    reported = run_reported_suite(s)
    report["suite"] = {
        "asserted": [c.to_dict() for c in asserted],
        "reported": [c.to_dict() for c in reported],
    }
    report["discrepancies"] = [c.to_dict() for c in reported if c.ok is False]
    return report


def render_text(report: dict) -> str:
    """ASCII rendering of an analysis report."""
    lines = []
    st = report["structure"]
    lines.append(f"structure: order {st['order']}, gamma {st['gamma_size']}")
    lines.append(f"canonical sha256: {st['canonical_sha256'][:16]}...")
    lines.append(f"additive group: {'yes' if st['additive_group'] else 'no'}")
    ax = report["axioms"]
    lines.append(f"axioms: {'pass' if ax['passed'] else 'FAIL'}")
    if not ax["passed"]:
        for v in ax.values():
            if isinstance(v, dict) and v.get("law"):
                lines.append(f"  {v['law']} at {tuple(v['args'])}: "
                             f"{v['lhs']} != {v['rhs']}")
        return "\n".join(lines) + "\n"
    lines.append("")
    lines.append("ideals:")
    for row in report["ideals"]:
        tags = ",".join(row["tags"]) or "-"
        label = "{" + ",".join(str(e) for e in row["elements"]) + "}"
        lines.append(f"  {label:<18} {tags}")
    jac = report["jacobson"]
    label = "{" + ",".join(str(e) for e in jac["elements"]) + "}"
    lines.append(f"jacobson radical: {label}"
                 f" ({'semisimple' if jac['semisimple'] else 'not semisimple'})")
    lines.append(f"congruences: {report['congruences']['count']}"
                 f" (ideals: {report['congruences']['ideal_count']})")
    spec_pts = report["spectrum"]["points"]
    lines.append(f"spectrum points: {len(spec_pts)}, components:"
                 f" {len(report['spectrum']['components'])}")
    lines.append(f"idempotents: {report['idempotents']}")
    lines.append(f"simple: {'yes' if report['simple'] else 'no'}")
    lines.append("")
    for group_name in ("asserted", "reported"):
        rows = report["suite"][group_name]
        lines.append(f"{group_name} checks:")
        for c in rows:
            if c["ok"] is None:
                mark = "skip"
            else:
                mark = "pass" if c["ok"] else "FAIL"
            lines.append(f"  [{mark}] {c['name']}")
            for w in c["witnesses"][:3]:
                lines.append(f"         witness: {w}")
    return "\n".join(lines) + "\n"
