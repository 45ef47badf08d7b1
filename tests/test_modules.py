import hashlib
import json
import random
from itertools import chain

import pytest

from oracles import naive_module_actions, naive_module_check, naive_submodules
from tgs import gamma_modules
from tgs.analysis import analyze
from tgs.core import AxiomReport, InputError, ResourceLimitError, verify_axioms
from tgs.enumeration import (classify, enumerate_additive_monoids,
                             enumerate_structures)
from tgs.fixtures import CLAIMED, DERIVED
from tgs.gamma_modules import (ModuleAction, ModuleAxiomReport, annihilator,
                               enumerate_module_actions, enumerate_submodules,
                               find_primitive_ideals, is_simple_module,
                               regular_module, verify_module_axioms,
                               zero_module)

SUBMODULES = {
    "B2": (1, 3), "M3": (1, 7), "M4": (1, 5, 15), "M6": (1, 9, 21, 63),
    "L3": (1, 3, 7), "N3": (1, 5, 7),
}
SIMPLE = {"B2": True, "M3": True, "M4": False, "M6": False,
          "L3": False, "N3": False}


@pytest.mark.parametrize("name", sorted(SUBMODULES))
def test_regular_module_passes_and_submodules_frozen(name):
    r = regular_module(DERIVED[name])
    rep = verify_module_axioms(r)
    assert rep.passed is True
    assert rep.failures() == ()
    assert enumerate_submodules(r) == SUBMODULES[name]
    assert is_simple_module(r) == SIMPLE[name]


def test_module_report_is_a_plain_verdict():
    rep = verify_module_axioms(regular_module(DERIVED["B2"]))
    assert type(rep.passed) is bool
    assert list(rep.to_dict()) == ["carrier_monoid", "additivity",
                                   "absorbing_zero", "associativity", "passed"]


def _mutable_regular(name):
    s = DERIVED[name]
    act = [[[[list(row) for row in plane] for plane in s.ternary[al][be]]
            for be in range(s.gamma_size)] for al in range(s.gamma_size)]
    return s, act


def test_corrupted_action_additivity_witness():
    s, act = _mutable_regular("M3")
    act[0][0][1][1][1] = 2  # was 1
    rep = verify_module_axioms(ModuleAction(
        scalar=s, carrier_order=3, carrier_addition=s.addition, action=act))
    assert rep.passed is False
    v = rep.additivity
    assert v is not None and v.law.startswith("module-additivity")
    # replay the reported equation on the corrupted table
    a = ModuleAction(scalar=s, carrier_order=3,
                     carrier_addition=s.addition, action=act)
    if v.law == "module-additivity-0":
        x, y, mm, b, al, be = v.args
        lhs = a.action[al][be][s.addition[x][y]][mm][b]
        rhs = a.carrier_addition[a.action[al][be][x][mm][b]][a.action[al][be][y][mm][b]]
    elif v.law == "module-additivity-1":
        aa, m1, m2, b, al, be = v.args
        lhs = a.action[al][be][aa][a.carrier_addition[m1][m2]][b]
        rhs = a.carrier_addition[a.action[al][be][aa][m1][b]][a.action[al][be][aa][m2][b]]
    else:
        aa, mm, x, y, al, be = v.args
        lhs = a.action[al][be][aa][mm][s.addition[x][y]]
        rhs = a.carrier_addition[a.action[al][be][aa][mm][x]][a.action[al][be][aa][mm][y]]
    assert (lhs, rhs) == (v.lhs, v.rhs) and lhs != rhs


def test_corrupted_action_zero_witness():
    s, act = _mutable_regular("M3")
    act[0][0][0][2][1] = 1  # scalar slot zero must absorb
    rep = verify_module_axioms(ModuleAction(
        scalar=s, carrier_order=3, carrier_addition=s.addition, action=act))
    assert rep.passed is False
    v = rep.absorbing_zero
    assert v.law == "module-absorbing-zero"
    assert v.args == (0, 2, 1, 0, 0) and (v.lhs, v.rhs) == (1, 0)


def test_bad_carrier_monoid_is_reported():
    s = DERIVED["B2"]
    rep = verify_module_axioms(ModuleAction(
        scalar=s, carrier_order=2, carrier_addition=((0, 1), (0, 0)),
        action=zero_module(s, 2, ((0, 1), (1, 0))).action))
    assert rep.passed is False
    assert rep.carrier_monoid is not None


def test_action_constructor_validation():
    s = DERIVED["B2"]
    with pytest.raises(InputError):
        ModuleAction(scalar=s, carrier_order=0, carrier_addition=(),
                     action=((((),),),))
    with pytest.raises(InputError):
        ModuleAction(scalar=s, carrier_order=1, carrier_addition=((0,),),
                     action=[[[[[5], [0]]]]])
    # entries must be integers: no truncation, no bools, no strings
    act = [[[[list(row) for row in plane] for plane in s.ternary[0][0]]]]
    for madd in ([[0, 1.9], [True, 0]], [[0, "x"], [1, 0]]):
        with pytest.raises(InputError, match="carrier addition"):
            ModuleAction(scalar=s, carrier_order=2, carrier_addition=madd,
                         action=act)
    act[0][0][1][1][1] = 1.5
    with pytest.raises(InputError, match="action"):
        ModuleAction(scalar=s, carrier_order=2, carrier_addition=s.addition,
                     action=act)
    # the carrier order is checked before a carrier addition is asked for
    with pytest.raises(InputError, match="carrier order must be a positive"):
        zero_module(s, 0)


def _freeze(act, m):
    return tuple(tuple(tuple(tuple(tuple(r) for r in pl)
                             for pl in act[al][be])
                       for be in range(m)) for al in range(m))


def test_action_enumeration_matches_oracle():
    s = DERIVED["B2"]
    for madd in enumerate_additive_monoids(2):
        got = {_freeze(a.action, 1)
               for a in enumerate_module_actions(s, 2, madd)}
        want = {_freeze(a, 1) for a in naive_module_actions(s, 2, madd)}
        assert got == want
        for a in enumerate_module_actions(s, 2, madd):
            rep = verify_module_axioms(a)
            assert rep.additivity is None and rep.absorbing_zero is None


def test_action_enumeration_all_carriers():
    s = DERIVED["M3"]
    seen = list(enumerate_module_actions(s, 2))
    per_carrier = sum(
        len(naive_module_actions(s, 2, madd))
        for madd in enumerate_additive_monoids(2))
    assert len(seen) == per_carrier


def _flat(x):
    if isinstance(x, int):
        yield x
    else:
        for y in x:
            yield from _flat(y)


@pytest.fixture(scope="module")
def search_actions(corpus_reps):
    """The action search's output, in order, on carriers k = 2, 3 over the
    (<=3, 1) representatives and k = 2 over the (2, 2) ones."""
    loads = [(s, k) for shape in ((1, 1), (2, 1), (3, 1))
             for s in corpus_reps[shape] for k in (2, 3)]
    loads += [(s, 2) for s in corpus_reps[(2, 2)]]
    return [a for s, k in loads for a in enumerate_module_actions(s, k)]


def test_action_stream_digest(search_actions):
    # the ordered output of the action search, frozen
    h = hashlib.sha256()
    for a in search_actions:
        h.update(bytes(_flat(a.carrier_addition)) + bytes(_flat(a.action)))
    assert len(search_actions) == 8849
    assert h.hexdigest() == (
        "beed0653eeb06f7f46675f28c3ebb55cbaa9f76949b8cc481d270e456fb4b570")


def _order_3_actions(corpus_reps):
    """The action search's output, in order, on every carrier of order 3
    over the (2, 2) representatives, streamed: 81,992 actions, whose four
    (al, be) cubes the search fills independently."""
    return (a for s in corpus_reps[(2, 2)] for a in enumerate_module_actions(s, 3))


def test_action_stream_digest_on_order_3_carriers(corpus_reps):
    # the ordered output of the action search with each action's verdict
    h = hashlib.sha256()
    count = 0
    for a in _order_3_actions(corpus_reps):
        rows = chain.from_iterable(chain.from_iterable(chain.from_iterable(a.action)))
        h.update(bytes(chain.from_iterable(a.carrier_addition)))
        h.update(bytes(chain.from_iterable(rows)))
        h.update(bytes([verify_module_axioms(a).passed]))
        count += 1
    assert count == 81992
    assert h.hexdigest() == (
        "447c63b657dd49c57bf267e3ea272a53b68e2a180c545216b6ea23b1d59136c6")


def _module_mutants(actions, rng):
    """Each action with one, two and three random action cells overwritten,
    then with one, two and three carrier-addition cells overwritten."""
    for a in actions:
        s, k = a.scalar, a.carrier_order
        for cells in (1, 2, 3):
            act = [[[[list(row) for row in plane] for plane in cube]
                    for cube in layer] for layer in a.action]
            rows = [row for layer in act for cube in layer
                    for plane in cube for row in plane]
            for _ in range(cells):
                rng.choice(rows)[rng.randrange(s.order)] = rng.randrange(k)
            yield ModuleAction(scalar=s, carrier_order=k,
                               carrier_addition=a.carrier_addition, action=act)
        for cells in (1, 2, 3):
            madd = [list(row) for row in a.carrier_addition]
            for _ in range(cells):
                madd[rng.randrange(k)][rng.randrange(k)] = rng.randrange(k)
            yield ModuleAction(scalar=s, carrier_order=k,
                               carrier_addition=madd, action=a.action)


def test_frozen_module_witnesses(corpus_reps, search_actions):
    # every action the search yields on the stream-digest corpus, the regular
    # modules of every representative and derived fixture, then seeded
    # mutations of the regular modules and of a sample of the actions:
    # together they fail each of the eight module laws; the digest was taken
    # while every law was still checked by a full element-wise scan in its
    # documented order
    regular = [regular_module(s) for reps in corpus_reps.values() for s in reps]
    regular += [regular_module(DERIVED[name]) for name in sorted(DERIVED)]
    rng = random.Random(11)
    sample = rng.sample(search_actions, 300)
    mutants = list(_module_mutants(regular + sample, rng))
    reports = [verify_module_axioms(a).to_dict()
               for a in search_actions + regular + mutants]
    assert len(regular) == 221 and len(mutants) == 3126
    laws = {v["law"] for r in reports for v in r.values() if isinstance(v, dict)}
    assert len(laws) == 8
    assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == (
        "c4cff0949fd5254289dbdd800bef4e3fe44b8b0a9e8860cbbf724eb5ea7a4240")
    for a in mutants:
        assert verify_module_axioms(a).passed == naive_module_check(a)


def test_passed_is_decided_before_any_witness(search_actions, corpus_reps):
    # passed, read first, decides every law on maps; it must equal passed
    # read after every field and the oracle's verdict, over the search's
    # actions and seeded mutants of the regular modules, which break the
    # laws the search builds in; then it must equal the oracle's verdict on
    # the order-3 carriers of the (2, 2) representatives, where the
    # exchange-law verdict walks the most carrier maps, and on seeded
    # mutants of one in about 256 of those actions
    regular = [regular_module(DERIVED[name]) for name in sorted(DERIVED)]
    # every action result the top of a join semilattice: zero absorption is
    # the one law it breaks
    top = ModuleAction(scalar=DERIVED["B2"], carrier_order=2,
                       carrier_addition=((0, 1), (1, 1)),
                       action=[[[[[1, 1]] * 2] * 2]])
    assert [v.law for v in verify_module_axioms(top).failures()] == [
        "module-absorbing-zero"]
    verdicts = set()
    for a in (search_actions + [top]
              + list(_module_mutants(regular, random.Random(5)))):
        first = verify_module_axioms(a).passed
        late = verify_module_axioms(a)
        late.failures()
        assert type(first) is bool
        assert first == late.passed == (not late.failures()) == naive_module_check(a)
        verdicts.add(first)
    assert verdicts == {True, False}
    rng = random.Random(7)
    picked = []
    tally = {True: 0, False: 0}
    for a in _order_3_actions(corpus_reps):
        passed = verify_module_axioms(a).passed
        assert passed == naive_module_check(a)
        tally[passed] += 1
        if not rng.randrange(256):
            picked.append(a)
    assert tally == {True: 2640, False: 79352}
    for a in _module_mutants(picked, rng):
        assert verify_module_axioms(a).passed == naive_module_check(a)


def test_submodules_equal_a_closure_of_each_subset(corpus_reps, search_actions):
    # the search's actions, the regular modules and seeded mutants of both,
    # whose carrier mutants mostly break the carrier monoid
    regular = [regular_module(s) for reps in corpus_reps.values() for s in reps]
    regular += [regular_module(DERIVED[name]) for name in sorted(DERIVED)]
    rng = random.Random(17)
    mutants = list(_module_mutants(regular + rng.sample(search_actions, 300), rng))
    # (1 + 2) + 2 = 1 but 1 + (2 + 2) = 0: no monoid; 2 + 2 = 1 leaves {0, 2}
    odd = zero_module(DERIVED["M3"], 3, ((0, 1, 2), (1, 0, 1), (2, 1, 1)))
    assert verify_module_axioms(odd).carrier_monoid is not None
    assert enumerate_submodules(odd) == (1, 3, 7)
    no_monoid = 0
    for a in search_actions + regular + mutants + [odd]:
        assert list(enumerate_submodules(a)) == naive_submodules(a)
        no_monoid += verify_module_axioms(a).carrier_monoid is not None
    assert no_monoid > 1


def test_report_fields_read_in_any_order():
    regular = [regular_module(DERIVED[name]) for name in sorted(DERIVED)]
    laws = [name for name in ModuleAxiomReport._KEYS if name != "passed"]
    several = 0
    for a in _module_mutants(regular, random.Random(5)):
        forward, backward = verify_module_axioms(a), verify_module_axioms(a)
        for name in reversed(laws):
            getattr(backward, name)
        assert backward.failures() == forward.failures()
        assert backward.to_dict() == forward.to_dict()
        several += len(forward.failures()) > 1
    assert several
    rep = verify_module_axioms(regular[0])
    for name in laws + ["passed"]:
        with pytest.raises(AttributeError):
            setattr(rep, name, None)


def test_passed_on_a_failing_action_decides_one_law(law_calls):
    # the search builds in every law but the exchange law, which passed
    # decides first, so a failing search action costs one decision
    failing = [a for a in enumerate_module_actions(DERIVED["B2"], 2)
               if not verify_module_axioms(a).passed]
    assert failing
    calls = law_calls(ModuleAxiomReport)
    for a in failing:
        calls.clear()
        assert verify_module_axioms(a).passed is False
        assert calls == {("decide", "associativity"): 1}


def test_each_law_decided_and_scanned_at_most_once(law_calls):
    calls = law_calls(ModuleAxiomReport)
    regular = [regular_module(DERIVED[name]) for name in sorted(DERIVED)]
    scanned = 0
    for a in _module_mutants(regular, random.Random(5)):
        calls.clear()
        rep = verify_module_axioms(a)
        rep.passed
        for name in ModuleAxiomReport._LAWS:
            getattr(rep, name)
        rep.failures()
        rep.to_dict()
        rep.to_dict()
        assert set(calls.values()) == {1}
        assert {("decide", name) for name in ModuleAxiomReport._LAWS} <= set(calls)
        scanned += sum(kind == "scan" for kind, _ in calls)
    assert scanned


def test_hot_paths_never_scan(monkeypatch):
    # the searches, the module verdicts of the criterion-9 load and analyze
    # read passed, or the fields of laws that hold, so none of them may run
    # a witness scan: every scan of both report classes raises here
    def scan(subject):
        raise AssertionError("witness scan")

    for report in (AxiomReport, ModuleAxiomReport):
        for name, (decide, _) in list(report._LAWS.items()):
            monkeypatch.setitem(report._LAWS, name, (decide, scan))
    classify(3, 2)
    assert sum(1 for _ in enumerate_structures(4, 1))
    reps = {n: tuple(classify(n, 1).representatives) for n in (1, 2, 3)}
    for s in reps[1] + reps[2] + reps[3]:
        for k in (2, 3):
            for a in enumerate_module_actions(s, k):
                verify_module_axioms(a).passed
        assert verify_module_axioms(regular_module(s)).passed
    for s in reps[3]:
        analyze(s)
    # the patch is live: a failing law's field does scan
    with pytest.raises(AssertionError, match="witness scan"):
        verify_axioms(CLAIMED[sorted(CLAIMED)[0]]).absorbing_zero


def test_action_search_equals_validated_construction():
    s = DERIVED["M3"]
    madd = enumerate_additive_monoids(3)[2]
    actions = list(enumerate_module_actions(s, 3, [list(r) for r in madd]))
    assert actions
    for a in actions:
        checked = ModuleAction(scalar=s, carrier_order=3,
                               carrier_addition=[list(r) for r in madd],
                               action=a.action)
        assert a == checked and hash(a) == hash(checked)


def test_action_search_validates_its_arguments():
    s = DERIVED["B2"]
    with pytest.raises(InputError, match="carrier order"):
        list(enumerate_module_actions(s, 0, []))
    with pytest.raises(InputError, match="carrier addition"):
        list(enumerate_module_actions(s, 2, [[0, 1], [1, 2]]))
    # the search replays additivity for y >= x only, so on a carrier that is
    # no commutative monoid with identity 0 (here 1 + 0 = 0) it would yield
    # actions that fail module-additivity-0
    with pytest.raises(InputError, match="commutative monoid"):
        enumerate_module_actions(s, 2, [[0, 1], [0, 1]])


def test_action_search_order_cap(monkeypatch):
    # both carrier paths refuse an order above the cap at the call, before
    # any search starts
    s = DERIVED["B2"]
    madd = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    monkeypatch.delenv("TGS_MAX_ORDER", raising=False)
    for carrier in (None, madd):
        with pytest.raises(ResourceLimitError, match="carrier order 6"):
            enumerate_module_actions(s, 6, carrier)
    monkeypatch.setenv("TGS_MAX_ORDER", "6")
    enumerate_module_actions(s, 6, madd)


def test_annihilator_regular_m3():
    a = annihilator(regular_module(DERIVED["M3"]))
    assert a.mask == 1
    assert a.proper
    assert a.ideal.ok
    assert a.prime is not None and a.prime.ok
    doc = a.to_dict()
    assert doc["elements"] == [0] and doc["prime"] is True


def test_annihilator_zero_module():
    a = annihilator(zero_module(DERIVED["M4"]))
    assert a.mask == 15
    assert not a.proper
    assert a.ideal.ok
    assert a.prime is None


def test_annihilator_when_no_scalar_kills_the_carrier():
    # every product is 1, so not even the scalar 0 kills the carrier and the
    # annihilator is empty; is_ideal refuses the empty subset
    cube = [[[1, 1], [1, 1]], [[1, 1], [1, 1]]]
    action = ModuleAction(scalar=DERIVED["B2"], carrier_order=2,
                          carrier_addition=((0, 1), (1, 0)), action=[[cube]])
    assert verify_module_axioms(action).absorbing_zero.args[0] == 0
    a = annihilator(action)
    assert (a.mask, a.proper, a.prime) == (0, True, None)
    assert a.ideal == (False, ("missing-zero",))
    assert a.to_dict()["ideal_witness"] == ["missing-zero"]


def test_primitive_ideals_read_modules_only(monkeypatch):
    # a primitive ideal is the annihilator of a simple module: an action that
    # fails its axioms (B2 has one among its four at carrier order 2) is
    # never asked for its annihilator mask, and no ideal or prime verdict
    # is taken
    taken = []
    mask = gamma_modules._annihilator_mask

    def checked(action):
        assert verify_module_axioms(action).passed
        taken.append(action)
        return mask(action)

    def refused(*args):
        raise AssertionError("annihilator report taken")

    monkeypatch.setattr(gamma_modules, "_annihilator_mask", checked)
    monkeypatch.setattr(gamma_modules, "annihilator", refused)
    assert find_primitive_ideals(DERIVED["B2"]) == (1,)
    assert taken


# find_primitive_ideals of each representative, in classification order, and
# of each derived fixture, frozen while the masks were still read from
# annihilator reports
PRIMITIVE_IDEALS = {
    (1, 1): ((),),
    (2, 1): ((1,),) * 4,
    (3, 1): ((3,), (3,), (1,), (1,), (1,), *((1, 5),) * 8, *((1, 3),) * 3,
             (1,), (1,), (1,)),
    (2, 2): ((1,),) * 16,
}
PRIMITIVE_IDEALS_DERIVED = {"B2": (1,), "L3": (1, 3), "M3": (1,), "M4": (5,),
                            "M6": (9, 21), "N3": (1,)}


def test_primitive_ideals_frozen(corpus_reps):
    assert {shape: tuple(map(find_primitive_ideals, corpus_reps[shape]))
            for shape in PRIMITIVE_IDEALS} == PRIMITIVE_IDEALS
    assert sum(map(len, PRIMITIVE_IDEALS.values())) == 40
    assert ({name: find_primitive_ideals(s) for name, s in DERIVED.items()}
            == PRIMITIVE_IDEALS_DERIVED)
