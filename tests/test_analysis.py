import gc
import hashlib
import json
import sys
import weakref
from collections import Counter
from dataclasses import replace

import pytest

import tgs.analysis
import tgs.cli
import tgs.quotient
import tgs.spectrum
from tgs.analysis import (analyze, evaluate_all_claims, evaluate_claim,
                          render_text, run_asserted_suite,
                          run_reported_suite)
from tgs.core import AxiomReport, GammaStructure, mask_elements, mask_of
from tgs.enumeration import _structure_summary
from tgs.fixtures import CLAIMED, CLAIMS, DERIVED, mod_mul_structure
from tgs.ideals import enumerate_ideals, ideal_classes
from tgs.radicals import jacobson_radical
from tgs.spectrum import find_idempotents, spectrum_points

from oracles import naive_ideals, naive_is_prime


def _klein_with_zero_product():
    add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    cube = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    return GammaStructure(order=4, gamma_size=1, addition=add,
                          ternary=[[cube]])


def test_asserted_suite_clean_on_m6():
    checks = run_asserted_suite(DERIVED["M6"])
    assert all(c.asserted for c in checks)
    assert [c.name for c in checks if c.ok is False] == []
    names = {c.name for c in checks}
    # group-based structures additionally run the quotient characterizations
    assert "bourne-zero-class-equals-ideal" in names
    assert "prime-iff-quotient-zero-divisor-free" in names
    assert "crt-for-comaximal-maximals" in names


def test_asserted_suite_group_only_checks_absent_on_monoids():
    names = {c.name for c in run_asserted_suite(DERIVED["B2"])}
    assert "bourne-zero-class-equals-ideal" not in names
    assert "crt-for-comaximal-maximals" not in names
    assert len(names) == 23


def test_asserted_suite_n3_maximal_counterexample():
    by_name = {c.name: c for c in run_asserted_suite(DERIVED["N3"])}
    c = by_name["maximal-implies-prime"]
    assert c.ok is False
    assert c.witnesses[0] == ([0, 2], [1, 1, 1, 0, 0])
    skipped = by_name["jacobson-semiprime-when-maximals-prime"]
    assert skipped.ok is None
    assert skipped.note == "hypothesis not met; nothing to check"
    doc = c.to_dict()
    assert doc["ok"] is False and doc["asserted"] is True


def test_quotient_check_scans_quotients_only_when_axioms_fail():
    # a passing structure's quotients pass by the homomorphism; one that
    # fails its axioms still has each quotient checked
    assert {c.name: c for c in run_asserted_suite(DERIVED["M3"])}[
        "quotient-passes-axioms"].ok
    check = {c.name: c for c in run_asserted_suite(CLAIMED["add3"])}[
        "quotient-passes-axioms"]
    assert check.ok is False
    assert check.witnesses == (([0, 1, 2], ["distributivity-0", "absorbing-zero"]),)


def test_axioms_are_decided_once_per_structure(law_calls, capsys):
    # analyze and tgs verify decide the axioms before the asserted suite
    # runs, and the suite's quotient check reads their verdict from the
    # structure's memo instead of deciding the laws again
    calls = law_calls(AxiomReport)
    once = {("decide", law): 1 for law in AxiomReport._LAWS}
    for name in sorted(DERIVED):
        calls.clear()
        analyze(replace(DERIVED[name]))
        assert {k: v for k, v in calls.items() if k[0] == "decide"} == once
        calls.clear()
        tgs.cli._verify_structure(replace(DERIVED[name]), "all", name)
        assert {k: v for k, v in calls.items() if k[0] == "decide"} == once
    capsys.readouterr()


def test_asserted_suite_records_product_map_refutation():
    # three pairwise comaximal maximals over a 4-element additive group
    # with the zero product: every pair maps bijectively, the triple
    # cannot (4 elements against a 2x2x2 product), and the suite keeps
    # the failure visible instead of weakening the check
    s = _klein_with_zero_product()
    by_name = {c.name: c for c in run_asserted_suite(s)}
    crt = by_name["crt-for-comaximal-maximals"]
    assert crt.ok is False
    assert crt.witnesses == (([0, 1], [0, 2], [0, 3]),)
    assert by_name["maximal-implies-prime"].ok is False
    assert len(by_name["maximal-implies-prime"].witnesses) == 3


def test_reported_suite_m6():
    by_name = {c.name: c for c in run_reported_suite(DERIVED["M6"])}
    assert not any(c.asserted for c in by_name.values())
    fails = {n: c for n, c in by_name.items() if c.ok is False}
    assert list(fails) == ["idempotent-count-equals-component-count"]
    assert fails["idempotent-count-equals-component-count"].witnesses == (
        ([0, 1, 2, 3, 4, 5], 2),)


def test_reported_suite_fails_idempotent_count_everywhere():
    # the claimed equality between idempotent count and component count
    # fails on every bundled valid fixture; that is the point of keeping
    # it in the reported lane
    for name, s in DERIVED.items():
        by_name = {c.name: c for c in run_reported_suite(s)}
        assert by_name["idempotent-count-equals-component-count"].ok is False


def test_claim_table_verdicts():
    rows = evaluate_all_claims()
    assert len(rows) == len(CLAIMS) == 40
    counts = Counter(r["verdict"] for r in rows)
    assert counts == {"refuted": 33, "not-evaluable": 5, "confirmed": 2}
    confirmed = sorted(r["id"] for r in rows if r["verdict"] == "confirmed")
    assert confirmed == ["add4-not-semisimple", "add6-idempotent-3"]


def test_axioms_claim_witness_lists_every_failure():
    row = next(r for r in evaluate_all_claims() if r["id"] == "add3-axioms")
    assert row["verdict"] == "refuted"
    laws = [f["law"] for f in row["witness"]["failures"]]
    assert laws == ["distributivity-0", "absorbing-zero"]
    for f in row["witness"]["failures"]:
        assert set(f) == {"law", "args", "lhs", "rhs"}


def test_claim_on_non_ideal_subset_is_refuted_with_witness():
    row = evaluate_claim({"id": "x", "fixture": "M6", "kind": "prime",
                          "elements": [0, 1], "text": "x"})
    assert row["verdict"] == "refuted"
    assert "not-an-ideal" in row["witness"]


# One claim per kind that reaches a predicate, a quotient, a decomposition
# or a product map: the shipped claims all stop earlier, at a subset that is
# not an ideal. Verdicts follow from the definitions. M6 is Z6 with product
# abc, ideals {0}, {0,3}, {0,2,4} and Z6; M4 is Z4 with ideals {0}, {0,2}
# and Z4; L3 is the chain 0 < 1 < 2 under max and min, ideals {0}, {0,1}
# and L3.
DERIVED_CLAIMS = [
    # abc even forces an even factor; 2.3.1 = 0 with no factor 0
    ("M6", "prime", {"elements": [0, 2, 4]}, "confirmed"),
    ("M6", "prime", {"elements": [0]}, "refuted"),
    ("M6", "not-prime", {"elements": [0]}, "confirmed"),
    ("M6", "not-prime", {"elements": [0, 3]}, "refuted"),
    # a^3 = 0 mod 6 only at a = 0; 2^3 = 0 mod 4
    ("M6", "semiprime", {"elements": [0]}, "confirmed"),
    ("M4", "semiprime", {"elements": [0]}, "refuted"),
    # nothing lies between {0,3} and Z6; {0,1} lies between {0} and L3
    ("M6", "maximal", {"elements": [0, 3]}, "confirmed"),
    ("L3", "maximal", {"elements": [0]}, "refuted"),
    # min(a,b,c) = 0 forces a factor 0, and {0} < {0,1}; {0,2,4} is maximal
    ("L3", "prime-not-maximal", {"elements": [0]}, "confirmed"),
    ("M6", "prime-not-maximal", {"elements": [0, 2, 4]}, "refuted"),
    # abc = 0 mod 4 with a != 0 forces b or c even, so b^3 or c^3 is 0, but
    # 2.2.1 = 0; a prime ideal is primary, so {0,3} is not primary-not-prime
    ("M4", "primary-not-prime", {"elements": [0]}, "confirmed"),
    ("M6", "primary-not-prime", {"elements": [0, 3]}, "refuted"),
    # the whole carrier is no proper subset
    ("M3", "prime", {"elements": [0, 1, 2]}, "refuted"),
    # the cosets of 2Z6 and 3Z6: two and three classes
    ("M6", "quotient-order", {"elements": [0, 2, 4], "order": 2}, "confirmed"),
    ("M6", "quotient-order", {"elements": [0, 3], "order": 2}, "refuted"),
    # 2^3 = 0 in Z4, so 2 is no idempotent
    ("M4", "decomposition", {"element": 2, "left": [0, 2], "right": [0]},
     "refuted"),
    # Z6 = Z6/2Z6 x Z6/3Z6; {0} + {0,2} generates {0,2}, not Z4
    ("M6", "crt", {"ideals": [[0, 2, 4], [0, 3]]}, "confirmed"),
    ("M4", "crt", {"ideals": [[0], [0, 2]]}, "refuted"),
]


@pytest.mark.parametrize("fixture,kind,payload,verdict", DERIVED_CLAIMS)
def test_claims_on_derived_ideals(fixture, kind, payload, verdict):
    s = DERIVED[fixture]
    # every subset named is an ideal, so the claim gets past that check
    ideals = naive_ideals(s)
    for elems in payload.get("ideals", [payload.get("elements", [0])]):
        assert mask_of(elems) in ideals
    if kind in ("prime", "not-prime") and len(payload["elements"]) < s.order:
        holds = naive_is_prime(s, mask_of(payload["elements"]))
        assert holds == ((verdict == "confirmed") == (kind == "prime"))
    row = evaluate_claim({"id": "x", "fixture": fixture, "kind": kind,
                          "text": "x", **payload})
    assert row["verdict"] == verdict
    if kind == "decomposition":
        assert row["witness"] == {"not-idempotent": 2}
    if payload.get("elements") == [0, 1, 2]:
        assert row["witness"] == {"not-proper": [0, 1, 2]}
    if kind == "crt":
        assert row["witness"]["comaximal"] == (fixture == "M6")


def test_unknown_fixture_claim_not_evaluable():
    row = evaluate_claim({"id": "x", "fixture": None, "kind": "prime",
                          "elements": [0], "text": "x",
                          "note": "written without operation tables"})
    assert row["verdict"] == "not-evaluable"


def test_analyze_report_shape():
    doc = analyze(DERIVED["M6"])
    assert doc["kind"] == "analysis"
    assert doc["schema_version"] == 1
    st = doc["structure"]
    assert (st["order"], st["gamma_size"], st["additive_group"]) == (6, 1, True)
    assert len(st["canonical_sha256"]) == 64
    assert doc["axioms"]["passed"] is True
    assert len(doc["ideals"]) == 4
    assert sorted(doc["jacobson"]["elements"]) == [0]
    assert doc["jacobson"]["semisimple"] is True
    assert doc["congruences"]["count"] == 4
    assert len(doc["suite"]["asserted"]) == 26
    assert doc["discrepancies"]
    covers = {tuple(map(tuple, pair)) for pair in doc["ideal_covers"]}
    assert ((0,), (0, 3)) in covers


def test_analyze_skips_after_axiom_failure():
    from tgs.fixtures import CLAIMED
    doc = analyze(CLAIMED["add3"])
    assert doc["axioms"]["passed"] is False
    assert doc["analysis_skipped"]
    assert "ideals" not in doc


def test_render_text_anchors():
    text = render_text(analyze(DERIVED["M6"]))
    assert "jacobson radical: {0} (semisimple)" in text
    assert "[pass] maximal-implies-prime" in text
    assert "[FAIL] idempotent-count-equals-component-count" in text
    text = render_text(analyze(DERIVED["N3"]))
    assert "[FAIL] maximal-implies-prime" in text


# sha256 over the analyze() JSON of every representative at (1..4, 1) and
# (2, 2), then of every DERIVED fixture; any change to a report's bytes shows
ANALYZE_DIGEST = "3bedd42a00f8540b080dbce69fb6e3e94f7814afb6b60efaa94d19e7b375c77e"


def test_analyze_reports_are_frozen(corpus_reps):
    structures = [s for shape in ((1, 1), (2, 1), (3, 1), (4, 1), (2, 2))
                  for s in corpus_reps[shape]]
    structures += [DERIVED[name] for name in sorted(DERIVED)]
    digest = hashlib.sha256()
    for s in structures:
        digest.update(json.dumps(analyze(s), indent=2, sort_keys=True).encode())
    assert digest.hexdigest() == ANALYZE_DIGEST


def test_structure_is_freed_after_analyze():
    # names no other test uses, so no cache keyed by equal tables holds it
    s = replace(mod_mul_structure(6), names=tuple("zabcde"))
    twin = replace(s)
    analyze(s)
    # what analyze() leaves on the object is no field of the structure
    assert (s, hash(s), repr(s)) == (twin, hash(twin), repr(twin))
    ref = weakref.ref(s)
    del s
    gc.collect()
    assert ref() is None


def _count_calls(monkeypatch, name: str, key) -> Counter:
    """Counter of key(*args) over the calls of the function called name,
    wrapped in every loaded tgs module that binds it."""
    modules = [mod for mod_name, mod in sys.modules.items()
               if mod_name == "tgs" or mod_name.startswith("tgs.")]
    inner = next(getattr(mod, name) for mod in modules if hasattr(mod, name))
    counts = Counter()

    def count(*args):
        counts[key(*args)] += 1
        return inner(*args)

    for mod in modules:
        if getattr(mod, name, None) is inner:
            monkeypatch.setattr(mod, name, count)
    return counts


def test_bourne_and_crt_computed_once_per_structure(monkeypatch):
    bourne, crt = Counter(), Counter()
    inner_bourne = tgs.quotient._bourne_classes
    inner_crt = tgs.analysis.crt_check

    def count_bourne(s, mask):
        bourne[mask] += 1
        return inner_bourne(s, mask)

    def count_crt(s, ideals):
        crt[tuple(ideals)] += 1
        return inner_crt(s, ideals)

    monkeypatch.setattr(tgs.quotient, "_bourne_classes", count_bourne)
    monkeypatch.setattr(tgs.analysis, "crt_check", count_crt)
    radicals = _count_calls(monkeypatch, "radical_report", lambda s, mask: mask)
    components = _count_calls(monkeypatch, "_components", lambda s: s)
    # fresh objects: the fixtures may already carry their memo
    for name, crt_runs in (("M6", 1), ("N3", 0), ("L3", 0)):
        for counts in (bourne, crt, radicals, components):
            counts.clear()
        s = replace(DERIVED[name])
        analyze(s)
        assert bourne and set(bourne.values()) == {1}
        # M6 has two maximal ideals, one pair
        assert len(crt) == crt_runs and set(crt.values()) <= {1}
        assert radicals == Counter(enumerate_ideals(s))
        assert components == Counter([s])


def test_closed_sets_built_once_per_ideal(monkeypatch):
    # the spectrum and the prime radicals read one closed set per ideal
    closed = _count_calls(monkeypatch, "closed_set", lambda s, mask: mask)
    for name in ("M6", "N3", "L3"):
        closed.clear()
        s = replace(DERIVED[name])
        analyze(s)
        assert closed == Counter(enumerate_ideals(s))


def test_quotients_built_once_per_partition(monkeypatch):
    built = Counter()
    inner = tgs.quotient._quotient

    def count(s, p):
        built[p] += 1
        return inner(s, p)

    monkeypatch.setattr(tgs.quotient, "_quotient", count)
    for name in ("M6", "N3", "L3"):
        built.clear()
        analyze(replace(DERIVED[name]))
        assert built and set(built.values()) == {1}


def test_decompositions_built_once_per_idempotent(monkeypatch):
    built = Counter()
    inner = tgs.spectrum._decompose

    def count(s, e):
        built[e] += 1
        return inner(s, e)

    monkeypatch.setattr(tgs.spectrum, "_decompose", count)
    for name in ("M6", "N3", "L3"):
        built.clear()
        s = replace(DERIVED[name])
        analyze(s)
        assert built == Counter(dict.fromkeys(find_idempotents(s), 1))


PREDICATES = ("is_prime", "is_semiprime", "is_maximal", "is_primary")
PREDICATE_KINDS = ("prime", "not-prime", "semiprime", "maximal",
                   "prime-not-maximal", "primary-not-prime")


def _count_predicate_calls(monkeypatch) -> Counter:
    """Wrap the four predicates in every tgs module namespace that binds
    them; the counter gets one entry per call, by predicate name."""
    calls = Counter()
    for key, mod in sorted(sys.modules.items()):
        if key != "tgs" and not key.startswith("tgs."):
            continue
        for name in PREDICATES:
            fn = getattr(mod, name, None)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_ideal_lists_read_the_one_classification(monkeypatch):
    calls = _count_predicate_calls(monkeypatch)
    for name in sorted(DERIVED):
        # a fresh object classifies each proper ideal once, one call per
        # predicate
        fresh = replace(DERIVED[name])
        proper = len(ideal_classes(fresh)) - 1
        assert calls == Counter(dict.fromkeys(PREDICATES, proper)), name
        calls.clear()
        # once built, the spectrum, the Jacobson radical, the summary and the
        # predicate claims (on the fixture object itself) run no predicate
        s = DERIVED[name]
        classes = ideal_classes(s)
        calls.clear()
        spectrum_points(s)
        jacobson_radical(s)
        _structure_summary(s)
        for info in classes[:-1]:
            for kind in PREDICATE_KINDS:
                row = evaluate_claim({"id": "x", "fixture": name, "kind": kind,
                                      "text": "x",
                                      "elements": list(mask_elements(info.mask))})
                assert row["verdict"] in ("confirmed", "refuted")
        assert calls == Counter(), name
