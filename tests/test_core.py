import hashlib
import json
import math
import random

import pytest

from tgs.core import (AxiomReport, GammaStructure, InputError, _json_text, _nest,
                      _non_commuting, _structure_template, apply_permutation,
                      canonical_form, dumps_structure, full_mask, mask_elements,
                      mask_of, max_order, parse_structure, structure_from_bytes,
                      structure_from_dict, structure_to_dict, structures_isomorphic,
                      subset_sort_key, ternary_product, verify_axioms,
                      zero_fixing_permutations)
from tgs.enumeration import enumerate_additive_monoids
from tgs.fixtures import CLAIMED, DERIVED
from tgs.gamma_modules import verify_module_axioms

from cube_product import ternary_tables
from oracles import naive_axiom_check, naive_canonical_form


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_fixtures_pass_axioms(name):
    rep = verify_axioms(DERIVED[name])
    assert rep.passed
    assert rep.failures() == []


@pytest.mark.parametrize("name", sorted(CLAIMED))
def test_claimed_fixtures_fail_zero_absorption(name):
    s = CLAIMED[name]
    rep = verify_axioms(s)
    assert not rep.passed
    laws = {v.law for v in rep.failures()}
    assert "absorbing-zero" in laws
    v = rep.absorbing_zero
    a, b, c, al, be = v.args
    assert 0 in (a, b, c)
    assert s.ternary[al][be][a][b][c] == v.lhs != 0


def test_oracle_agrees_on_fixtures():
    for s in list(DERIVED.values()) + list(CLAIMED.values()):
        assert naive_axiom_check(s) == verify_axioms(s).passed


def test_violation_witness_replays():
    s = DERIVED["M3"]
    cube = [[list(row) for row in plane] for plane in s.ternary[0][0]]
    cube[1][1][1] = 0  # 1*1*1 should be 1
    bad = GammaStructure(order=3, gamma_size=1, addition=s.addition,
                         ternary=[[cube]])
    rep = verify_axioms(bad)
    assert not rep.passed
    assert not naive_axiom_check(bad)
    for v in rep.failures():
        assert v.lhs != v.rhs


def _mutants(passing, rng):
    """Each table with one, two and three random cells overwritten."""
    for s in passing:
        n = s.order
        for k in (1, 2, 3):
            add = [list(row) for row in s.addition]
            tern = [[[[list(row) for row in plane] for plane in cube] for cube in layer]
                    for layer in s.ternary]
            rows = add + [row for layer in tern for cube in layer
                          for plane in cube for row in plane]
            for _ in range(k):
                rng.choice(rows)[rng.randrange(n)] = rng.randrange(n)
            yield GammaStructure(order=n, gamma_size=s.gamma_size,
                                 addition=add, ternary=tern)


def _random_tables(rng, n, m, count):
    """count tables of shape (n, m) with every entry drawn at random, 0 half
    the time, so that they hold subsets of every kind; nearly all fail
    their axioms."""
    def entry():
        return 0 if rng.random() < 0.5 else rng.randrange(n)

    for _ in range(count):
        yield GammaStructure(
            order=n, gamma_size=m,
            addition=[[entry() for _ in range(n)] for _ in range(n)],
            ternary=[[[[[entry() for _ in range(n)] for _ in range(n)]
                       for _ in range(n)] for _ in range(m)] for _ in range(m)])


def _completed_tables(n, m, adds):
    """Every table the ternary search completes over the given additions."""
    return [GammaStructure(order=n, gamma_size=m, addition=add, ternary=tern)
            for add in adds
            for tern in ternary_tables(add, n, m)]


def _witness_reports(tables, seed):
    """The verify_axioms reports of the tables, then of seeded mutations of
    the passing ones, with the three counts."""
    passing = [s for s in tables if verify_axioms(s).passed]
    mutants = list(_mutants(passing, random.Random(seed)))
    for s in mutants:
        assert verify_axioms(s).passed == naive_axiom_check(s)
    reports = [verify_axioms(s).to_dict() for s in tables + mutants]
    return reports, (len(tables), len(passing), len(mutants))


def _digest(reports) -> str:
    return hashlib.sha256(json.dumps(reports).encode()).hexdigest()


def test_frozen_witnesses():
    # every table the ternary search completes at (<=4,1) and (2,2), then
    # seeded mutations of the passing ones: together they fail each of the
    # ten laws; the digest was taken while every law was still checked by a
    # full element-wise scan in its documented order
    tables = [s for n, m in ((1, 1), (2, 1), (3, 1), (4, 1), (2, 2))
              for s in _completed_tables(n, m, enumerate_additive_monoids(n))]
    reports, counts = _witness_reports(tables, 7)
    assert counts == (1467, 246, 738)
    assert len({v["law"] for r in reports for v in r.values()
                if isinstance(v, dict)}) == 10
    assert _digest(reports) == (
        "91e23e742e001574638126e682efa996b895ff32a2be50e9b737c8c820726a80")


def test_frozen_witnesses_at_gamma_2_and_order_5():
    # every table completed at (3,2), where two parameters order the
    # associativity witnesses by (e, al, be, ga, de) within each (c, d), and
    # for the order-5 additions 0 and 4, then seeded mutations of the
    # passing ones; the digest was taken while the associativity witness
    # was still found by the element-wise scan
    monoids5 = enumerate_additive_monoids(5)
    tables = (_completed_tables(3, 2, enumerate_additive_monoids(3))
              + _completed_tables(5, 1, (monoids5[0], monoids5[4])))
    reports, counts = _witness_reports(tables, 11)
    assert counts == (3802, 218, 654)
    witnesses = [r["ternary_assoc"]["args"] for r in reports if r["ternary_assoc"]]
    assert len(witnesses) == 4103
    assert any(any(w[5:]) for w in witnesses)  # a nonzero parameter
    assert _digest(reports) == (
        "aabffe72eee68aa4067aa6aed164192a2d7136aafa54cf92a23845e043cdb656")


def test_passed_is_decided_before_any_witness(corpus):
    # passed decides every law on maps and stops at the first that fails:
    # read first, it must equal passed read after every field (failures()
    # reads them all) and the oracle's verdict, over the corpus, the claimed
    # fixtures and seeded mutants of the corpus
    tables = [s for _, _, s in corpus]
    tables += [CLAIMED[name] for name in sorted(CLAIMED)]
    tables += list(_mutants(tables[:len(corpus)], random.Random(7)))
    verdicts = set()
    for s in tables:
        first = verify_axioms(s).passed
        late = verify_axioms(s)
        late.failures()
        assert type(first) is bool
        assert first == late.passed == (not late.failures()) == naive_axiom_check(s)
        verdicts.add(first)
    assert verdicts == {True, False}


def test_zero_absorption_decision_agrees_with_its_scan():
    # the decision reads the cells with a zero argument, the scan walks
    # (a, b, c, al, be): the law fails exactly when the scan finds a witness
    decide, scan = AxiomReport._LAWS["absorbing_zero"]
    tables = [CLAIMED[name] for name in sorted(CLAIMED)]
    tables += list(_mutants([DERIVED[name] for name in sorted(DERIVED)],
                            random.Random(5)))
    verdicts = [decide(s) for s in tables]
    assert verdicts == [scan(s) is not None for s in tables]
    assert set(verdicts) == {True, False}


def test_non_commuting_stops_at_the_first_failing_map():
    # maps of {0, 1, 2}: the identity and the 3-cycle commute with the
    # cycle, a constant map does not; lefts may not be read past it
    rights = [(0, 1, 2), (1, 2, 0)]

    def lefts():
        yield (0, 1, 2)
        yield (2, 0, 1)
        yield (0, 0, 0)
        raise AssertionError("read past the first failing map")

    assert next(_non_commuting(lefts(), rights)) == (0, 0, 0)
    assert next(_non_commuting([(0, 1, 2), (2, 0, 1)], rights), None) is None
    assert list(_non_commuting([(1, 1, 1), (0, 1, 2), (0, 0, 0)], rights)) == [
        (1, 1, 1), (0, 0, 0)]


def _nested(flat, shape):
    """Reference of core._nest: split into shape[0] equal runs, recursively."""
    if len(shape) == 1:
        return tuple(flat)
    step = len(flat) // shape[0]
    return tuple(_nested(flat[i * step:(i + 1) * step], shape[1:])
                 for i in range(shape[0]))


@pytest.mark.parametrize("shape", [(1,), (4,), (2, 3), (3, 1, 2),
                                   (1, 1, 1, 1, 1), (2, 2, 3, 1, 2)])
def test_nest_equals_reference_for_every_sequence_type(shape):
    flat = [(7 * i + 3) % 11 for i in range(math.prod(shape))]
    want = _nested(flat, shape)
    for seq in (flat, tuple(flat), bytes(flat)):
        assert _nest(seq, shape) == want


def test_report_fields_read_in_any_order():
    # fields are filled as they are read; failures() and to_dict() keep the
    # declared law order whichever field was read first
    rng = random.Random(3)
    tables = list(_mutants([DERIVED[name] for name in sorted(DERIVED)], rng))
    laws = [name for name in AxiomReport._KEYS if name != "passed"]
    several = 0
    for s in tables:
        forward, backward = verify_axioms(s), verify_axioms(s)
        for name in reversed(laws):
            getattr(backward, name)
        assert backward.failures() == forward.failures()
        assert backward.to_dict() == forward.to_dict()
        several += len(forward.failures()) > 1
    assert several
    rep = verify_axioms(tables[0])
    for name in laws + ["passed"]:
        with pytest.raises(AttributeError):
            setattr(rep, name, None)


class Unreadable:
    """A subject whose tables, like every other attribute, raise when read."""

    def __getattr__(self, name):
        raise AssertionError(f"read {name}")


@pytest.mark.parametrize("verify, table", [(verify_axioms, "ternary"),
                                           (verify_module_axioms, "action")])
def test_constructing_a_report_reads_no_table(verify, table):
    # a report stores its subject alone and writes nothing into the
    # subject's memo; passed is the first read of a table, and a decision
    # that raises records no verdict
    subject = Unreadable()
    rep = verify(subject)
    assert vars(rep) == {"_subject": subject}
    assert vars(subject) == {}
    with pytest.raises(AssertionError, match=f"read {table}"):
        rep.passed
    assert vars(subject) == {"_memo": {}}


def test_each_law_decided_and_scanned_at_most_once(law_calls):
    calls = law_calls(AxiomReport)
    scanned = 0
    for s in _mutants([DERIVED[name] for name in sorted(DERIVED)], random.Random(3)):
        calls.clear()
        rep = verify_axioms(s)
        rep.passed
        for name in AxiomReport._LAWS:
            getattr(rep, name)
        rep.failures()
        rep.to_dict()
        rep.to_dict()
        assert set(calls.values()) == {1}
        assert {("decide", name) for name in AxiomReport._LAWS} <= set(calls)
        scanned += sum(kind == "scan" for kind, _ in calls)
    assert scanned


def test_reports_of_one_subject_share_each_decision_and_scan(law_calls):
    # verdicts and witnesses live in the subject's memo: a second report of
    # the same structure decides and scans nothing again, and a structure
    # equal to it but built apart shares none of it
    calls = law_calls(AxiomReport)
    scanned = 0
    for s in _mutants([DERIVED[name] for name in sorted(DERIVED)], random.Random(3)):
        calls.clear()
        first, second = verify_axioms(s), verify_axioms(s)
        first.passed
        second.to_dict()
        assert first.to_dict() == second.to_dict()
        assert second.passed == first.passed
        assert set(calls.values()) == {1}
        assert {("decide", name) for name in AxiomReport._LAWS} <= set(calls)
        scanned += sum(kind == "scan" for kind, _ in calls)
        calls.clear()
        other = GammaStructure(order=s.order, gamma_size=s.gamma_size,
                               addition=s.addition, ternary=s.ternary)
        assert verify_axioms(other).to_dict() == first.to_dict()
        assert {("decide", name) for name in AxiomReport._LAWS} <= set(calls)
    assert scanned


def test_ternary_product_accessor():
    s = DERIVED["M6"]
    assert ternary_product(s, 2, 0, 3, 0, 4) == (2 * 3 * 4) % 6
    with pytest.raises(InputError):
        ternary_product(s, 6, 0, 0, 0, 0)
    with pytest.raises(InputError, match="not an integer"):
        ternary_product(DERIVED["M3"], 1.5, 0, 1, 0, 1)


def test_structure_text_is_the_stdlib_text():
    # dumps_structure fills one template per shape; its text is json.dumps
    # of structure_to_dict at every shape up to order 6 and gamma 2, with
    # names that need escaping, and the template cache is bounded
    rng = random.Random(61)
    names = ['"', "\\", "%", "%s", "%d%%", "caf\u00e9", "\u2203\U0001d53d",
             'a"b\\c%', "", " ", "\n\t"]
    structures = [DERIVED[name] for name in sorted(DERIVED)]
    for n in range(1, 7):
        for m in (1, 2):
            for s in _random_tables(rng, n, m, 2):
                structures += [s, GammaStructure(
                    order=n, gamma_size=m, addition=s.addition,
                    ternary=s.ternary, names=rng.sample(names, n))]
    for s in structures:
        assert dumps_structure(s) == json.dumps(
            structure_to_dict(s), indent=2, sort_keys=True) + "\n"
    assert _structure_template.cache_info().maxsize is not None


def test_serialization_round_trip():
    for s in DERIVED.values():
        text = dumps_structure(s)
        back = parse_structure(text)
        assert back.addition == s.addition
        assert back.ternary == s.ternary
        assert dumps_structure(back) == text


ADVERSARIAL_DOCUMENTS = [
    "", "plain", "caf\u00e9 \u2203 \U0001d53d", 'quote " and \\ backslash',
    "".join(map(chr, range(32))) + "\x7f",
    [True, 1, False, 0, None], {"true": True, "one": 1},
    [-1, 0, 2 ** 70, -(2 ** 70)],
    [0.0, -0.0, 1e16, 1.5e-300, 0.1, -2.5, math.nan, math.inf, -math.inf],
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[], {}], {"b": [[]]}],
    (), (1, (2, ()), [3]), {"t": (None, ("x",))},
    {"b": 1, "a": 2, "B": 3, "\u00e9": 4, "": 5, "a b": {"z": [], "y": {}}},
    1, -7, 2.5, None, True, "s",
]


def test_json_writer_bytes_equal_the_stdlib_on_adversarial_documents():
    for doc in ADVERSARIAL_DOCUMENTS + [ADVERSARIAL_DOCUMENTS]:
        assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_writer_refuses_what_it_does_not_write():
    for doc in ({1, 2}, {1: "a"}, {"a": {None: 1}}, [b"x"], {"a": [object()]},
                frozenset()):
        with pytest.raises(TypeError):
            _json_text(doc)


def test_parse_error_reports_position():
    with pytest.raises(InputError, match=r"line 1 column"):
        parse_structure("{ nope")


def test_structure_from_dict_validation():
    with pytest.raises(InputError, match="missing key"):
        structure_from_dict({"order": 2, "gamma": 1, "addition": []})
    with pytest.raises(InputError, match="order"):
        structure_from_dict({"order": 0, "gamma": 1, "addition": [],
                             "ternary": {}})
    good = json.loads(dumps_structure(DERIVED["B2"]))
    bad = dict(good, addition=[[0, 1]])
    with pytest.raises(InputError):
        structure_from_dict(bad)
    # JSON numbers and booleans where lists or counts belong
    for key, value in (("addition", 3), ("names", 5), ("order", True),
                       ("gamma", True)):
        with pytest.raises(InputError, match=key):
            structure_from_dict(dict(good, **{key: value}))
    for path in (("addition", 1), ("ternary", "0,0", 1)):
        bad = json.loads(json.dumps(good))
        holder = bad
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = 7
        with pytest.raises(InputError, match="must be a list, got int"):
            structure_from_dict(bad)


def test_constructor_validation():
    with pytest.raises(InputError):
        GammaStructure(order=0, gamma_size=1, addition=[], ternary=[])
    zero = [[[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]]]
    with pytest.raises(InputError):
        GammaStructure(order=2, gamma_size=1, addition=[[0, 1], [1, 9]],
                       ternary=zero)
    for kwargs in ({"order": True, "gamma_size": 1},
                   {"order": 2, "gamma_size": True},
                   {"order": 2, "gamma_size": 1, "names": 5},
                   {"order": 2, "gamma_size": 1, "addition": 3},
                   {"order": 2, "gamma_size": 1,
                    "addition": [[0, 1], [1, 1.0]]},
                   {"order": 2, "gamma_size": 1, "addition": [[0, 1], 7]},
                   {"order": 2, "gamma_size": 1, "ternary": [[[7, 7]]]}):
        args = dict({"addition": [[0, 1], [1, 0]], "ternary": zero}, **kwargs)
        with pytest.raises(InputError):
            GammaStructure(**args)


def test_canonical_form_permutation_invariance():
    for s in DERIVED.values():
        if s.order > 4:
            continue
        base = canonical_form(s)
        for sigma in zero_fixing_permutations(s.order):
            assert canonical_form(apply_permutation(s, sigma)) == base


def test_canonical_form_equals_brute_force_minimum(corpus):
    for _, _, s in corpus:
        assert canonical_form(s) == naive_canonical_form(s)


def test_canonical_form_on_random_tables():
    # tables checked against no axiom; the all-zero addition, the one with
    # x + y = 1 off the zero row and column, and many monoids have
    # non-trivial 0-fixing automorphisms, so several relabelings tie on the
    # addition and the ternary tables decide among them
    rng = random.Random(5)
    ties = 0
    for n in range(1, 6):
        adds = [[[rng.randrange(n) for _ in range(n)] for _ in range(n)]
                for _ in range(4)]
        adds.append([[0] * n for _ in range(n)])
        adds.append([[b if a == 0 else a if b == 0 else 1 for b in range(n)]
                     for a in range(n)])
        adds += [list(map(list, add)) for add in enumerate_additive_monoids(n)[-4:]]
        for add in adds:
            autos = sum(1 for sigma in zero_fixing_permutations(n)
                        if all(add[sigma[a]][sigma[b]] == sigma[add[a][b]]
                               for a in range(n) for b in range(n)))
            ties += autos > 1
            for m in (1, 2, 2):
                tern = [[[[[rng.randrange(n) for _ in range(n)] for _ in range(n)]
                          for _ in range(n)] for _ in range(m)] for _ in range(m)]
                s = GammaStructure(order=n, gamma_size=m, addition=add,
                                   ternary=tern)
                assert canonical_form(s) == naive_canonical_form(s), (n, m)
    assert ties == 10


def test_canonical_bytes_round_trip():
    for s in DERIVED.values():
        data = canonical_form(s)
        back = structure_from_bytes(data)
        assert canonical_form(back) == data
        assert structures_isomorphic(s, back)


def test_isomorphism_judgments():
    m3 = DERIVED["M3"]
    swapped = apply_permutation(m3, (0, 2, 1))
    assert structures_isomorphic(m3, swapped)
    assert not structures_isomorphic(m3, DERIVED["L3"])
    assert not structures_isomorphic(m3, DERIVED["B2"])


def test_apply_permutation_validation():
    s = DERIVED["M3"]
    with pytest.raises(InputError):
        apply_permutation(s, (1, 0, 2))
    with pytest.raises(InputError):
        apply_permutation(s, (0, 1))
    for sigma in ((0, 2.0, 1.0), (0, True, 2)):
        with pytest.raises(InputError, match="permutation"):
            apply_permutation(s, sigma)
    for sigma in (5, None, "012", range(3)):
        with pytest.raises(InputError, match="list or tuple"):
            apply_permutation(s, sigma)


def test_names_travel_with_permutation():
    base = DERIVED["M3"]
    s = GammaStructure(order=3, gamma_size=1, addition=base.addition,
                       ternary=base.ternary, names=("zero", "one", "two"))
    moved = apply_permutation(s, (0, 2, 1))
    assert moved.names == ("zero", "two", "one")


def test_set_label_renders_masks():
    assert DERIVED["M6"].set_label(9) == "{0,3}"
    assert DERIVED["M6"].set_label(1) == "{0}"


def test_mask_helpers():
    assert mask_of([0, 2]) == 5
    assert mask_elements(5) == (0, 2)
    assert full_mask(3) == 7
    masks = [7, 1, 5, 3, 2]
    ordered = sorted(masks, key=subset_sort_key)
    assert ordered == [1, 2, 3, 5, 7]


def test_max_order_env(monkeypatch):
    monkeypatch.delenv("TGS_MAX_ORDER", raising=False)
    assert max_order() == 5
    monkeypatch.setenv("TGS_MAX_ORDER", "3")
    assert max_order() == 3
    monkeypatch.setenv("TGS_MAX_ORDER", "x")
    with pytest.raises(InputError):
        max_order()
    monkeypatch.setenv("TGS_MAX_ORDER", "0")
    with pytest.raises(InputError):
        max_order()
