import hashlib
import json
import random
from dataclasses import replace

import pytest

from tgs.core import (GammaStructure, InputError, Verdict, full_mask, memoized,
                      subset_sort_key, verify_axioms)
from tgs.fixtures import CLAIMED, DERIVED
from tgs.ideals import (classify_ideal, enumerate_ideals, generated_ideal,
                        ideal_lattice, is_ideal, is_maximal, is_primary,
                        is_prime, is_semiprime, lattice_dot)

from oracles import (naive_generated_ideal, naive_ideals, naive_is_prime,
                     naive_is_prime_ideal_triples, naive_primary_witness,
                     naive_prime_witness, naive_semiprime_witness)
from test_core import _mutants, _random_tables

IDEAL_MASKS = {
    "B2": (1, 3),
    "M3": (1, 7),
    "M4": (1, 5, 15),
    "M6": (1, 9, 21, 63),
    "L3": (1, 3, 7),
    "N3": (1, 5, 7),
}


@pytest.mark.parametrize("name", sorted(IDEAL_MASKS))
def test_fixture_ideals_frozen(name):
    s = DERIVED[name]
    assert enumerate_ideals(s) == IDEAL_MASKS[name]
    assert list(enumerate_ideals(s)) == naive_ideals(s)


def test_ideal_scan_matches_oracle_on_corpus(corpus_reps):
    for shape in ((3, 1), (2, 2)):
        for s in corpus_reps[shape]:
            assert list(enumerate_ideals(s)) == naive_ideals(s)


def test_reach_masks_pick_what_the_is_ideal_scan_picks(corpus):
    # enumerate_ideals decides each subset on reach masks, is_ideal scans its
    # tables; on any table, axioms or not, both keep the same odd masks. Each
    # structure is a fresh copy, so is_ideal runs before the list exists and
    # scans every subset
    bases = ([s for _, _, s in corpus] + [DERIVED[name] for name in sorted(DERIVED)]
             + [CLAIMED[name] for name in sorted(CLAIMED)])
    mutants = list(_mutants(bases, random.Random(2025)))
    assert any(s.order == 1 for s in bases) and any(s.order == 6 for s in bases)
    assert sum(not verify_axioms(s).passed for s in mutants) > len(mutants) // 2
    for s in bases + mutants:
        s = GammaStructure(order=s.order, gamma_size=s.gamma_size,
                           addition=s.addition, ternary=s.ternary)
        want = sorted((mask for mask in range(1, 1 << s.order, 2)
                       if is_ideal(s, mask).ok), key=subset_sort_key)
        assert memoized(s, "ideals") is None
        assert list(enumerate_ideals(s)) == want


def test_is_ideal_reads_the_memoized_list():
    # the same verdict and witness for every subset before the ideal list
    # exists (it is not computed) and after, when members come from the list
    for name in sorted(DERIVED):
        d = DERIVED[name]
        s = GammaStructure(order=d.order, gamma_size=d.gamma_size,
                           addition=d.addition, ternary=d.ternary)
        masks = range(1, 1 << s.order)
        want = [is_ideal(s, mask) for mask in masks]
        assert memoized(s, "ideals") is None
        enumerate_ideals(s)
        assert [is_ideal(s, mask) for mask in masks] == want


def test_is_ideal_witnesses():
    s = DERIVED["M6"]
    v = is_ideal(s, 0b000011)  # {0,1}: 1*1*1 = 1 is fine, but 1+1=2 escapes
    assert not v.ok
    assert v.witness[0] == "additive-closure"
    v = is_ideal(s, 0b000101)  # {0,2}: 2+2=4 escapes
    assert not v.ok
    assert v.witness == ("additive-closure", 2, 2)
    v = is_ideal(s, 0b001000)  # no zero
    assert not v.ok and v.witness == ("missing-zero",)


def test_frozen_predicate_witnesses(corpus):
    # the verdicts and witnesses of is_ideal on every nonempty subset, then
    # of is_prime, is_primary and is_maximal on every proper subset, over the
    # corpus, the fixtures (order 6 included) and seeded mutations of them;
    # each structure is a fresh copy, so is_ideal scans every subset before
    # is_maximal lists the ideals. The digest was taken while is_ideal,
    # is_prime and is_primary were each their own loop
    rng = random.Random(22)
    structures = [s for _, _, s in corpus] + list(DERIVED.values()) + list(CLAIMED.values())
    structures = [replace(s) for s in structures] + list(_mutants(structures, rng))
    reports = []
    for s in structures:
        full = full_mask(s.order)
        reports.append([
            [is_ideal(s, mask) for mask in range(1, full + 1)],
            [[is_prime(s, mask), is_primary(s, mask), is_maximal(s, mask)]
             for mask in range(1, full)]])
    kinds = {v.witness[0] for r in reports for v in r[0] if not v.ok}
    assert kinds == {"missing-zero", "additive-closure", "absorption"}
    for i in range(3):
        assert {row[i].ok for r in reports for row in r[1]} == {True, False}
    assert len(reports) == 1028
    assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == (
        "4b5ef9ae43ace1075e160f0049d4cbcb01373e3d46e7d933ee0cfee4ac788b52")


def test_predicates_match_the_oracles_on_every_subset(corpus_reps):
    # is_prime and is_primary decide first and scan for a witness only on
    # failure, from the first element their loops found; for them and for
    # is_semiprime, verdict and witness must be the oracle's first witness
    # on every proper nonempty subset, ideal or not, of random tables
    # (nearly all failing their axioms), seeded mutations of
    # representatives, and the representatives, at gamma 1 and 2
    rng = random.Random(3301)
    reps = [s for shape in ((3, 1), (4, 1), (2, 2)) for s in corpus_reps[shape]]
    structures = [s for n in range(1, 6) for m in (1, 2)
                  for s in _random_tables(rng, n, m, 12 if n < 5 else 3)]
    structures += list(_mutants(rng.sample(reps, 40), rng)) + reps
    assert {s.gamma_size for s in structures} == {1, 2}
    assert not all(verify_axioms(s).passed for s in structures)
    outcomes = set()
    for s in structures:
        for mask in range(1, full_mask(s.order)):
            for predicate, oracle in ((is_prime, naive_prime_witness),
                                      (is_semiprime, naive_semiprime_witness),
                                      (is_primary, naive_primary_witness)):
                witness = oracle(s, mask)
                assert predicate(s, mask) == Verdict(witness is None, witness)
                outcomes.add((predicate.__name__, witness is None))
    assert len(outcomes) == 6


def test_prime_verdicts_frozen():
    assert is_prime(DERIVED["M6"], 1) == Verdict(False, (1, 2, 3, 0, 0))
    assert is_prime(DERIVED["M6"], 9) == Verdict(True, None)
    assert is_prime(DERIVED["M6"], 21) == Verdict(True, None)
    assert is_prime(DERIVED["M4"], 1) == Verdict(False, (1, 2, 2, 0, 0))
    assert is_prime(DERIVED["M4"], 5) == Verdict(True, None)
    assert is_prime(DERIVED["N3"], 5) == Verdict(False, (1, 1, 1, 0, 0))
    assert is_prime(DERIVED["L3"], 1) == Verdict(True, None)
    assert is_prime(DERIVED["L3"], 3) == Verdict(True, None)


def test_semiprime_verdicts_frozen():
    assert is_semiprime(DERIVED["M6"], 1) == Verdict(True, None)
    assert is_semiprime(DERIVED["N3"], 1) == Verdict(False, (1, 0, 0))
    assert is_semiprime(DERIVED["M4"], 1) == Verdict(False, (2, 0, 0))


def test_maximal_verdicts_frozen():
    assert is_maximal(DERIVED["M4"], 1) == Verdict(False, (5,))
    assert is_maximal(DERIVED["M4"], 5) == Verdict(True, None)
    assert is_maximal(DERIVED["M6"], 9) == Verdict(True, None)
    assert is_maximal(DERIVED["M6"], 21) == Verdict(True, None)
    assert is_maximal(DERIVED["N3"], 5) == Verdict(True, None)


def test_primary_verdicts_frozen():
    assert is_primary(DERIVED["M6"], 1) == Verdict(False, (1, 2, 3, 0, 0))
    assert is_primary(DERIVED["M6"], 9).ok
    assert is_primary(DERIVED["M4"], 1).ok  # 2*2*2=0 and 2 cubes into {0}


def test_maximal_not_prime_counterexample():
    # the order-3 witness: saturating addition, zero product
    s = DERIVED["N3"]
    assert is_maximal(s, 5).ok
    assert not is_prime(s, 5).ok


def test_prime_agrees_with_naive_definition(corpus_reps):
    structures = list(DERIVED.values()) + list(corpus_reps[(3, 1)])
    for s in structures:
        top = full_mask(s.order)
        for i in enumerate_ideals(s):
            if i == top:
                continue
            assert is_prime(s, i).ok == naive_is_prime(s, i)


def test_prime_agrees_with_ideal_triple_form(corpus_reps):
    structures = list(DERIVED.values()) + list(corpus_reps[(3, 1)])
    for s in structures:
        top = full_mask(s.order)
        ideals = list(enumerate_ideals(s))
        for i in ideals:
            if i == top:
                continue
            assert is_prime(s, i).ok == naive_is_prime_ideal_triples(
                s, i, ideals)


def test_properness_required():
    s = DERIVED["M3"]
    for fn in (is_prime, is_semiprime, is_maximal, is_primary):
        with pytest.raises(InputError):
            fn(s, full_mask(3))


def test_empty_subset_refused():
    # the empty subset is no ideal: every predicate on ideals refuses it
    # with the error is_ideal gives, rather than passing it as prime
    s = DERIVED["M3"]
    for fn in (is_ideal, is_prime, is_semiprime, is_maximal, is_primary,
               classify_ideal):
        with pytest.raises(InputError, match="subset is empty"):
            fn(s, 0)
    # nor is a bool or a float a subset, though True would read as {0}; one
    # equal to 0 or to the carrier is refused for its type, not called empty
    # or improper
    cases = [(is_ideal, True), (generated_ideal, 1.0), (is_ideal, 0.0),
             (is_ideal, False), (is_prime, False)]
    cases += [(fn, 7.0) for fn in (is_prime, is_semiprime, is_maximal, is_primary)]
    for fn, mask in cases:
        with pytest.raises(InputError, match="integer bitmask"):
            fn(s, mask)


def test_generated_ideal_frozen():
    s = DERIVED["M6"]
    assert generated_ideal(s, 0b001000) == 9  # {3} -> {0,3}
    assert generated_ideal(s, 0b000100) == 21  # {2} -> {0,2,4}
    assert generated_ideal(s, 0b000010) == 63  # {1} -> T
    assert generated_ideal(s, 0) == 1


def test_generated_ideal_minimal(corpus_reps):
    for s in corpus_reps[(3, 1)]:
        ideals = enumerate_ideals(s)
        for seed in range(1 << s.order):
            gen = generated_ideal(s, seed)
            assert gen in ideals
            assert gen & seed == seed
            containing = [i for i in ideals if i & seed == seed]
            assert all(gen & i == gen for i in containing)


def test_generated_ideal_matches_closure_oracle(corpus_reps):
    # the CLAIMED fixtures fail zero absorption and the random tables are
    # checked against no axiom, so the lookup must not lean on the axioms;
    # uniform tables close almost every seed to the carrier, so half the
    # tables take each sum from its arguments and nine products in ten as 0
    rng = random.Random(13)
    tables = []
    for n in range(1, 6):
        for m in (1, 2):
            for sparse in (False, True) * 12:
                add = [[rng.choice((a, b)) if sparse else rng.randrange(n)
                        for b in range(n)] for a in range(n)]
                tern = [[[[[0 if sparse and rng.random() < 0.9 else rng.randrange(n)
                            for _ in range(n)] for _ in range(n)] for _ in range(n)]
                         for _ in range(m)] for _ in range(m)]
                tables.append(GammaStructure(order=n, gamma_size=m,
                                             addition=add, ternary=tern))
    fixtures = [s for reps in corpus_reps.values() for s in reps]
    fixtures += list(CLAIMED.values())
    for s in fixtures + tables:
        for seed in range(1 << s.order):
            assert generated_ideal(s, seed) == naive_generated_ideal(s, seed)
    assert sum(generated_ideal(s, seed) != full_mask(s.order)
               for s in tables for seed in range(1 << s.order)) > 100


def test_classify_ideal_tags():
    info = classify_ideal(DERIVED["M6"], 9)
    assert info.tags() == ("P", "SP", "MAX", "PRI")
    info0 = classify_ideal(DERIVED["M6"], 1)
    assert info0.tags() == ("SP",)
    top = classify_ideal(DERIVED["M6"], 63)
    assert top.tags() == ()
    assert not top.proper
    assert top.prime is None


def test_lattice_covers_frozen():
    lat = ideal_lattice(DERIVED["M6"])
    assert lat.ideals == (1, 9, 21, 63)
    # covers are index pairs into lat.ideals
    assert set(lat.covers) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_lattice_dot_frozen():
    dot = lattice_dot(DERIVED["M6"])
    assert dot == (
        "digraph ideal_lattice {\n"
        "  rankdir=BT;\n"
        '  n0 [label="{0}\\nSP"];\n'
        '  n1 [label="{0,3}\\nP SP MAX PRI"];\n'
        '  n2 [label="{0,2,4}\\nP SP MAX PRI"];\n'
        '  n3 [label="{0,1,2,3,4,5}"];\n'
        "  n0 -> n1;\n"
        "  n0 -> n2;\n"
        "  n1 -> n3;\n"
        "  n2 -> n3;\n"
        "}\n"
    )
    assert lattice_dot(DERIVED["M6"]) == dot
