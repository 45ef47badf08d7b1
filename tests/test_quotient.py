import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest

import tgs.quotient
from tgs.core import (ConsistencyError, GammaStructure, InputError, Verdict,
                      canonical_form, verify_axioms)
from tgs.fixtures import DERIVED, mod_mul_structure
from tgs.ideals import enumerate_ideals, is_ideal
from tgs.quotient import (bourne_congruence, congruence_to_ideal,
                          enumerate_congruences, has_nonzero_zero_divisors,
                          is_congruence, normalize_partition,
                          partition_blocks, quotient_structure)
from tgs.spectrum import find_homomorphisms

from oracles import (naive_bourne, naive_congruences, naive_first_clash,
                     naive_is_congruence, naive_partitions, replays_clash)
from test_core import _random_tables

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


def test_witnesses_replay_and_quotient_agrees(corpus_reps):
    failures = 0
    for s, p in _all_partitions(corpus_reps):
        v = is_congruence(s, p)
        if v.ok:
            assert quotient_structure(s, p).order == max(p) + 1
            continue
        failures += 1
        assert replays_clash(s, p, v.witness), (p, v.witness)
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


def _zero_product(s):
    """s with the same addition and every product 0: every partition
    respects that product, so its congruences are those of the addition."""
    n, m = s.order, s.gamma_size
    return GammaStructure(order=n, gamma_size=m, addition=s.addition,
                          ternary=[[[[[0] * n] * n] * n] * m] * m)


def test_congruence_test_matches_the_oracle_on_random_partitions(corpus_reps):
    # _respects compares the addition first and the whole body only when
    # the addition respects the partition; verdicts, witnesses and the
    # congruence lists must be the oracle's on random tables (nearly all
    # failing their axioms) and on representatives, for random labelings
    # of every partition, many of them respecting the addition and not
    # the product
    rng = random.Random(4711)
    structures = [s for n in range(1, 6) for m in (1, 2)
                  for s in _random_tables(rng, n, m, 6)]
    structures += [s for shape in ((3, 1), (4, 1), (2, 2))
                   for s in rng.sample(corpus_reps[shape], min(30, len(corpus_reps[shape])))]
    kinds = Counter()
    for s in structures:
        assert list(enumerate_congruences(replace(s))) == naive_congruences(s)
        additive = _zero_product(s)
        for p in naive_partitions(s.order):
            labels = rng.sample(range(-3, 9), max(p) + 1)
            relabeled = [labels[v] for v in p]
            for q in (p, relabeled, tuple(relabeled)):
                clash = naive_first_clash(s, q)
                assert is_congruence(s, q) == Verdict(clash is None, clash)
            kinds[naive_is_congruence(additive, p), naive_is_congruence(s, p)] += 1
    assert kinds[True, False] and kinds[True, True] and kinds[False, False]


def test_bourne_congruence_matches_the_oracle(corpus_reps):
    # on every subset holding 0, ideal or not, of random tables and of
    # representatives
    rng = random.Random(1013)
    structures = [s for n in range(1, 6) for m in (1, 2)
                  for s in _random_tables(rng, n, m, 6)]
    structures += [s for shape in ((3, 1), (4, 1), (2, 2)) for s in corpus_reps[shape]]
    merged = 0
    for s in structures:
        for mask in range(1, 1 << s.order, 2):
            rho = naive_bourne(s, mask)
            assert bourne_congruence(s, mask) == rho
            merged += max(rho) + 1 < s.order
    assert merged


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
    # a partition is a nonempty list or tuple of labels
    for call in (normalize_partition, partition_blocks,
                 lambda p: is_congruence(s, p)):
        for p in (5, (), None):
            with pytest.raises(InputError, match="nonempty list or tuple"):
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


def test_quotients_pass_axioms(corpus_reps):
    # the asserted suite takes this for granted of a structure that passes
    for s in (s for reps in corpus_reps.values() for s in reps):
        for rho in enumerate_congruences(s):
            assert verify_axioms(quotient_structure(s, rho)).passed


def test_quotient_rejects_non_congruence():
    s = replace(DERIVED["L3"])
    for _ in range(2):
        with pytest.raises(ConsistencyError):
            quotient_structure(s, (0, 1, 0))
    assert ("quotient", (0, 1, 0)) not in s.__dict__.get("_memo", {})


def test_quotient_skips_the_test_only_for_a_listed_congruence(monkeypatch):
    # a partition in the memoized congruence list is not tested again; any
    # other is, and a non-congruence is refused with the same message before
    # and after the list exists
    def message(s, p):
        with pytest.raises(ConsistencyError) as exc:
            quotient_structure(s, p)
        return str(exc.value)

    before = message(replace(DERIVED["L3"]), (0, 1, 0))
    assert before == ("partition [0, 1, 0] is not a congruence: "
                      f"{is_congruence(DERIVED['L3'], (0, 1, 0)).witness}")
    tested = []
    respects = tgs.quotient._respects
    monkeypatch.setattr(tgs.quotient, "_respects",
                        lambda s, p, projection: tested.append(p)
                        or respects(s, p, projection))
    for name in ("L3", "M6"):
        s = replace(DERIVED[name])
        listed = enumerate_congruences(s)
        tested.clear()
        for rho in listed:
            assert verify_axioms(quotient_structure(s, rho)).passed
        assert tested == []
    s = replace(DERIVED["L3"])
    enumerate_congruences(s)
    tested.clear()
    assert message(s, (0, 1, 0)) == before
    assert tested == [(0, 1, 0)]


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


def test_partitions_in_form_pass_as_they_are():
    # a tuple already in restricted growth form comes back as it is; any
    # other labeling is renumbered, a list always copied to a tuple
    for n in range(1, 6):
        for p in naive_partitions(n):
            assert normalize_partition(p) is p
            assert normalize_partition(list(p)) == p
    for p, want in (((0, -1), (0, 1)), ((-1, -1), (0, 0)), ((1, 0), (0, 1)),
                    ((0, 2, 1), (0, 1, 2)), ((0, 0, 2), (0, 0, 1)),
                    ((0, 1, 3, 2), (0, 1, 2, 3))):
        assert normalize_partition(p) == want
        assert partition_blocks(p) == partition_blocks(want)


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
