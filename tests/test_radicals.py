import pytest

from tgs.core import InputError, full_mask
from tgs.fixtures import DERIVED
from tgs.ideals import enumerate_ideals
from tgs.radicals import (is_semisimple, jacobson_radical, radical_by_elements,
                          radical_by_primes, radical_report)

from oracles import naive_radical_by_primes

JACOBSON = {"B2": 1, "M3": 1, "M4": 5, "M6": 1, "L3": 3, "N3": 5}
SEMISIMPLE = {"B2": True, "M3": True, "M4": False, "M6": True,
              "L3": False, "N3": False}


@pytest.mark.parametrize("name", sorted(JACOBSON))
def test_jacobson_frozen(name):
    assert jacobson_radical(DERIVED[name]) == JACOBSON[name]


@pytest.mark.parametrize("name", sorted(SEMISIMPLE))
def test_semisimple_frozen(name):
    assert is_semisimple(DERIVED[name]) == SEMISIMPLE[name]


def test_m4_nilpotent_radical():
    s = DERIVED["M4"]
    assert radical_by_primes(s, 1) == 5
    assert radical_by_elements(s, 1) == 5


def test_radical_by_primes_matches_oracle(corpus_reps):
    structures = list(DERIVED.values()) + list(corpus_reps[(3, 1)])
    for s in structures:
        for i in enumerate_ideals(s):
            assert radical_by_primes(s, i) == naive_radical_by_primes(s, i)


def test_radical_with_no_prime_above_is_carrier():
    s = DERIVED["N3"]  # no proper primes at all
    assert radical_by_primes(s, 1) == full_mask(3)
    assert radical_by_primes(s, 5) == full_mask(3)


def test_radical_routes_agree_on_fixtures():
    for s in DERIVED.values():
        for i in enumerate_ideals(s):
            rep = radical_report(s, i)
            assert rep.agree, (s.names, i, rep.to_dict())
            assert rep.by_elements_is_ideal


def test_radical_report_shape():
    rep = radical_report(DERIVED["M4"], 1)
    doc = rep.to_dict()
    assert doc["ideal"] == [0]
    assert doc["by_primes"] == [0, 2]
    assert doc["by_elements"] == [0, 2]
    assert doc["agree"] is True
    assert doc["only_by_primes"] == []
    assert doc["only_by_elements"] == []
    assert doc["by_elements_is_ideal"] is True


def test_radical_monotone_and_idempotent_on_fixtures():
    for s in DERIVED.values():
        ideals = enumerate_ideals(s)
        for i in ideals:
            r = radical_by_primes(s, i)
            assert r & i == i
            assert radical_by_primes(s, r) == r
            for j in ideals:
                if i & j == i:
                    assert radical_by_primes(s, i) & radical_by_primes(s, j) \
                        == radical_by_primes(s, i)


def test_radical_subset_inputs():
    # any in-range subset is accepted and evaluated mechanically
    assert radical_by_primes(DERIVED["M6"], 0b000110) == 63
    assert radical_by_elements(DERIVED["M6"], 0b000110) == 0b000110
    with pytest.raises(InputError):
        radical_by_primes(DERIVED["M6"], 1 << 6)
    with pytest.raises(InputError, match="integer bitmask"):
        radical_by_primes(DERIVED["M3"], 1.0)
    with pytest.raises(InputError):
        radical_by_elements(DERIVED["M6"], 1 << 6)
    # an empty element radical lacks 0: reported as no ideal, not refused
    for name, mask, by_primes in (("M4", 0b100, 0b101), ("M4", 0, 0b101),
                                  ("M6", 0, 1)):
        rep = radical_report(DERIVED[name], mask)
        assert (rep.by_primes, rep.by_elements) == (by_primes, 0)
        assert rep.by_elements_is_ideal is False
