import hashlib
from dataclasses import replace

import pytest

from tgs.core import (ConsistencyError, GammaStructure, InputError, canonical_form,
                      verify_axioms)
from tgs.fixtures import DERIVED, mod_mul_structure
from tgs.ideals import enumerate_ideals, is_ideal
from tgs.quotient import (bourne_congruence, congruence_to_ideal,
                          enumerate_congruences, has_nonzero_zero_divisors,
                          is_congruence, normalize_partition,
                          partition_blocks, quotient_structure)
from tgs.spectrum import find_homomorphisms

from oracles import naive_congruences, naive_partitions

CONGRUENCE_COUNTS = {"B2": 2, "M3": 2, "M4": 3, "M6": 4, "L3": 4, "N3": 3}


@pytest.mark.parametrize("name", sorted(CONGRUENCE_COUNTS))
def test_congruence_counts_frozen(name):
    s = DERIVED[name]
    found = enumerate_congruences(s)
    assert len(found) == CONGRUENCE_COUNTS[name]
    assert sorted(found) == naive_congruences(s)


def test_n3_congruences_exact():
    assert enumerate_congruences(DERIVED["N3"]) == (
        (0, 0, 0), (0, 1, 1), (0, 1, 2))


def test_congruences_match_oracle_on_corpus(corpus_reps):
    for shape in ((3, 1), (4, 1), (2, 2)):
        for s in corpus_reps[shape]:
            assert sorted(enumerate_congruences(s)) == naive_congruences(s)


SHAPES = ((1, 1), (2, 1), (3, 1), (4, 1), (2, 2))

# sha256 of the ordered (partition, verdict) stream over every partition of
# every representative at SHAPES, partitions in lexicographic order
VERDICT_DIGEST = "19e8071061f156e7facce17096f569eca687a6aa4a8efe2b3e208df974dfa97d"


def _all_partitions(corpus_reps):
    for shape in SHAPES:
        for s in corpus_reps[shape]:
            for p in naive_partitions(s.order):
                yield s, p


def test_congruence_verdicts_frozen(corpus_reps):
    digest = hashlib.sha256()
    for s, p in _all_partitions(corpus_reps):
        digest.update(repr((p, is_congruence(s, p).ok)).encode())
    assert digest.hexdigest() == VERDICT_DIGEST


def test_is_congruence_witnesses():
    s = DERIVED["L3"]
    v = is_congruence(s, (0, 1, 0))  # merging 0 and 2 breaks addition by 1
    assert not v.ok
    # 1+2 = 2 sits in class 0, the representative sum 1+0 = 1 in class 1
    assert v.witness == ("add", 1, 1, 0, 2)
    with pytest.raises(InputError, match="label 3 elements"):
        is_congruence(s, (0, 1))


def _replays(s, p, witness):
    """Representatives are block minima, each paired element shares its
    representative's class, and the two results lie in different classes."""
    kind, *args = witness
    if kind == "add":
        pairs, (x, y) = args, (s.addition, s.addition)
    else:
        pairs, (al, be) = args[:6], args[6:]
        x = y = s.ternary[al][be]
    reps, elems = pairs[0::2], pairs[1::2]
    for r, e in zip(reps, elems):
        if r != p.index(p[r]) or p[r] != p[e]:
            return False
    for i in reps:
        x = x[i]
    for i in elems:
        y = y[i]
    return p[x] != p[y]


def test_witnesses_replay_and_quotient_agrees(corpus_reps):
    failures = 0
    for s, p in _all_partitions(corpus_reps):
        v = is_congruence(s, p)
        if v.ok:
            assert quotient_structure(s, p).order == max(p) + 1
            continue
        failures += 1
        assert _replays(s, p, v.witness), (p, v.witness)
        with pytest.raises(ConsistencyError):
            quotient_structure(s, p)
    assert failures


# sha256 of the ordered (partition, witness) stream over the non-congruences
# among the partitions of test_congruence_verdicts_frozen
WITNESS_DIGEST = "50eb70145499f89558e29f11cb093b8e0fc87ff2d0bb49773d55bd3539c52ea8"


def test_witness_stream_frozen(corpus_reps):
    digest = hashlib.sha256()
    for s, p in _all_partitions(corpus_reps):
        v = is_congruence(s, p)
        if not v.ok:
            digest.update(repr((p, v.witness)).encode())
    assert digest.hexdigest() == WITNESS_DIGEST


def test_partition_labels_must_be_ints():
    # a float or bool label hashes equal to an int and would merge blocks
    s = DERIVED["M3"]
    for call, p in ((is_congruence, (0, 1.0, 2)), (congruence_to_ideal, (0, 0.0, 1)),
                    (quotient_structure, (0, True, 1))):
        with pytest.raises(InputError, match="labels must be integers"):
            call(s, p)
    # the exported helpers refuse them too, rather than merging the blocks
    for call, p in ((normalize_partition, (0, True, 1)),
                    (partition_blocks, (0, 1.0, 1))):
        with pytest.raises(InputError, match="labels must be integers"):
            call(p)
    assert congruence_to_ideal(s, (0, 1, 2)) == 1


def test_bourne_congruence_frozen():
    s = DERIVED["M6"]
    assert bourne_congruence(s, 9) == (0, 1, 2, 0, 1, 2)
    assert bourne_congruence(s, 21) == (0, 1, 0, 1, 0, 1)
    assert bourne_congruence(s, 1) == (0, 1, 2, 3, 4, 5)
    assert bourne_congruence(s, 63) == (0, 0, 0, 0, 0, 0)


def test_bourne_always_congruence(corpus):
    for _, _, s in corpus:
        for i in enumerate_ideals(s):
            assert is_congruence(s, bourne_congruence(s, i)).ok


def test_bourne_zero_class():
    s = DERIVED["M6"]  # additive group: zero class equals the ideal
    for i in enumerate_ideals(s):
        assert congruence_to_ideal(s, bourne_congruence(s, i)) == i
    n3 = DERIVED["N3"]  # saturating monoid: {0,2} inflates to T
    rho = bourne_congruence(n3, 5)
    assert congruence_to_ideal(n3, rho) != 5
    with pytest.raises(InputError, match="containing 0"):
        bourne_congruence(n3, 0b110)
    with pytest.raises(InputError, match="integer bitmask"):
        bourne_congruence(DERIVED["M3"], 1.0)


def test_zero_class_is_ideal(corpus):
    for _, _, s in corpus[:120]:
        for rho in enumerate_congruences(s):
            assert is_ideal(s, congruence_to_ideal(s, rho)).ok


def test_quotient_m6_by_03_is_m3():
    s = DERIVED["M6"]
    q = quotient_structure(s, bourne_congruence(s, 9))
    assert q.order == 3
    assert q.names == ("{0,3}", "{1,4}", "{2,5}")
    assert verify_axioms(q).passed
    assert canonical_form(q) == canonical_form(DERIVED["M3"])


def test_quotient_m6_by_024_is_mod2():
    s = DERIVED["M6"]
    q = quotient_structure(s, bourne_congruence(s, 21))
    assert q.order == 2
    assert canonical_form(q) == canonical_form(mod_mul_structure(2))


def test_quotients_pass_axioms(corpus):
    for _, _, s in corpus[:120]:
        for rho in enumerate_congruences(s):
            assert verify_axioms(quotient_structure(s, rho)).passed


def test_quotient_rejects_non_congruence():
    s = replace(DERIVED["L3"])
    for _ in range(2):
        with pytest.raises(ConsistencyError):
            quotient_structure(s, (0, 1, 0))
    assert ("quotient", (0, 1, 0)) not in s.__dict__.get("_memo", {})


def test_memoized_quotient_equals_validated_construction(corpus_reps):
    for reps in corpus_reps.values():
        for s in reps:
            for rho in enumerate_congruences(s):
                q = quotient_structure(s, rho)
                checked = GammaStructure(
                    order=q.order, gamma_size=q.gamma_size,
                    addition=[list(row) for row in q.addition],
                    ternary=q.ternary, names=list(q.names))
                assert q == checked and hash(q) == hash(checked)
                assert quotient_structure(s, list(rho)) is q


def test_partition_helpers():
    assert normalize_partition((1, 0, 1)) == (0, 1, 0)
    assert partition_blocks((0, 1, 0, 1)) == ((0, 2), (1, 3))
    assert normalize_partition((0, 2, 0)) == (0, 1, 0)


def test_roundtrip_collisions_frozen():
    # distinct congruences sharing a zero class, counted per fixture
    expected = {"B2": 0, "M3": 0, "M4": 0, "M6": 0, "L3": 1, "N3": 1}
    for name, s in DERIVED.items():
        bad = sum(1 for rho in enumerate_congruences(s)
                  if bourne_congruence(s, congruence_to_ideal(s, rho)) != rho)
        assert bad == expected[name]


def test_zero_divisor_reports():
    s = DERIVED["M6"]
    v = has_nonzero_zero_divisors(s)
    assert v.ok and v.witness == (1, 2, 3, 0, 0)
    q = quotient_structure(s, bourne_congruence(s, 9))
    assert not has_nonzero_zero_divisors(q).ok


def test_first_isomorphism_over_corpus_homs(corpus_reps):
    reps = [s for shape in ((1, 1), (2, 1), (3, 1)) for s in corpus_reps[shape]]
    checked = 0
    for src in reps:
        for dst in reps:
            for f in find_homomorphisms(src, dst, surjective_only=True):
                q = quotient_structure(src, normalize_partition(f.element_map))
                assert canonical_form(q) == canonical_form(dst)
                checked += 1
    assert checked > len(reps)  # identity maps alone guarantee this many
