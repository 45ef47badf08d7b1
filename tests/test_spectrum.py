import hashlib
import json
import random
from dataclasses import replace

import pytest

import tgs.spectrum
from tgs.core import (GammaStructure, InputError, ResourceLimitError, Verdict,
                      full_mask, mask_of)
from tgs.fixtures import DERIVED, saturating_zero_structure
from tgs.ideals import enumerate_ideals, ideal_classes, is_semiprime
from tgs.quotient import (bourne_congruence, enumerate_congruences,
                          has_nonzero_zero_divisors, quotient_structure)
from tgs.radicals import radical_by_primes
from tgs.spectrum import (HomomorphismMap, closed_set, connected_components,
                          crt_check, decompose_by_idempotent, find_homomorphisms,
                          find_idempotents, is_simple, prime_spectrum,
                          pullback_ideal, quotient_by_ideal, spectrum_dot,
                          spectrum_points, verify_topology)

from test_core import _mutants

SPECTRUM = {
    "B2": (1,), "M3": (1,), "M4": (5,), "M6": (9, 21), "L3": (1, 3), "N3": (),
}
COMPONENTS = {
    "B2": ((1,),), "M3": ((1,),), "M4": ((5,),), "M6": ((9,), (21,)),
    "L3": ((1, 3),), "N3": (),
}
IDEMPOTENTS = {
    "B2": (0, 1), "M3": (0, 1, 2), "M4": (0, 1, 3), "M6": (0, 1, 2, 3, 4, 5),
    "L3": (0, 1, 2), "N3": (0,),
}
SIMPLE = {"B2": True, "M3": True, "M4": False, "M6": False,
          "L3": False, "N3": False}


@pytest.mark.parametrize("name", sorted(SPECTRUM))
def test_spectrum_points_frozen(name):
    assert spectrum_points(DERIVED[name]) == SPECTRUM[name]


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_components_frozen(name):
    assert connected_components(DERIVED[name]) == COMPONENTS[name]


@pytest.mark.parametrize("name", sorted(IDEMPOTENTS))
def test_idempotents_frozen(name):
    assert find_idempotents(DERIVED[name]) == IDEMPOTENTS[name]


@pytest.mark.parametrize("name", sorted(SIMPLE))
def test_simple_frozen(name):
    assert is_simple(DERIVED[name]) == SIMPLE[name]


def test_topology_checks_pass_on_fixtures():
    names = {
        "bottom-closed-set-is-all", "top-closed-set-is-empty",
        "intersection-law", "sum-law",
        "family-closed-under-union-intersection", "order-reversal",
        "point-closure-is-containment-set", "t0-separation",
        "closed-set-meet-is-radical",
    }
    for s in DERIVED.values():
        checks = verify_topology(s)
        assert {c.name for c in checks} == names
        assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


def test_closed_set_meet_check_can_fail(monkeypatch):
    # N3 has no primes, so every closed set meets in the carrier; an ideal
    # {0,2} marked semiprime lies strictly between {0} and that meet
    s = saturating_zero_structure(3)
    fake = tuple(replace(c, semiprime=Verdict(True)) if c.mask == 5 else c
                 for c in ideal_classes(s))
    monkeypatch.setattr(tgs.spectrum, "ideal_classes", lambda s: fake)
    check = next(c for c in verify_topology(s)
                 if c.name == "closed-set-meet-is-radical")
    assert (check.ok, check.witness) == (False, (1,))


def test_closed_set_values():
    s = DERIVED["M6"]
    assert closed_set(s, 1) == frozenset({9, 21})
    assert closed_set(s, 9) == frozenset({9})
    assert closed_set(s, full_mask(6)) == frozenset()
    with pytest.raises(InputError, match="beyond order 6"):
        closed_set(s, 1 << 6)
    with pytest.raises(InputError, match="integer bitmask"):
        closed_set(s, 1.5)
    # meet of a closed set recovers the radical
    assert 9 & 21 == radical_by_primes(s, 1)


def test_decomposition_m6():
    s = DERIVED["M6"]
    d = decompose_by_idempotent(s, 3)
    assert (d.left, d.right) == (9, 21)
    assert d.mixed_products_zero
    assert d.nontrivial
    d0 = decompose_by_idempotent(s, 0)
    assert (d0.left, d0.right) == (1, 63)
    assert not d0.nontrivial
    d1 = decompose_by_idempotent(DERIVED["B2"], 1)
    assert (d1.left, d1.right) == (3, 1)


def test_decomposition_requires_idempotent():
    with pytest.raises(InputError):
        decompose_by_idempotent(DERIVED["N3"], 1)
    # 1 is an idempotent of M3, but 1.0 and True are not elements
    for e in (1.0, True):
        with pytest.raises(InputError, match="integer element"):
            decompose_by_idempotent(DERIVED["M3"], e)


def test_crt_m6_pair():
    rep = crt_check(DERIVED["M6"], [21, 9])
    assert rep.comaximal.ok
    assert rep.quotient_orders == (2, 3)
    assert rep.image_size == 6
    assert rep.surjective and rep.injective and rep.bijective
    assert rep.kernel_zero_class == 1 == rep.intersection
    assert rep.kernel_matches_intersection
    doc = rep.to_dict()
    assert doc["bijective"] is True


def test_crt_rejects_bad_input():
    with pytest.raises(InputError):
        crt_check(DERIVED["M4"], [5])
    with pytest.raises(InputError):
        crt_check(DERIVED["M6"], [9, 63])  # improper
    with pytest.raises(InputError):
        crt_check(DERIVED["M6"], [9, 3])  # {0,1} is not an ideal
    for ideals in (5, None, {9, 21}):
        with pytest.raises(InputError, match="list or tuple"):
            crt_check(DERIVED["M6"], ideals)


def test_crt_non_comaximal_reported():
    rep = crt_check(DERIVED["M6"], [1, 9])
    assert not rep.comaximal.ok
    assert rep.comaximal.witness == (0, 1)  # ideal index pair
    # the first non-comaximal pair in (a, b) order, a < b; (0, 1) is comaximal
    assert crt_check(DERIVED["M6"], [9, 21, 1]).comaximal.witness == (0, 2)


def test_crt_triple_counterexample():
    # Klein four-group addition with the zero ternary product: three
    # pairwise comaximal maximals, each pair bijective, the triple is not
    # surjective (4 elements cannot cover the 2x2x2 product)
    from tgs.core import GammaStructure
    add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    cube = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    s = GammaStructure(order=4, gamma_size=1, addition=add, ternary=[[cube]])
    maximals = [3, 5, 9]
    for a in range(3):
        for b in range(a + 1, 3):
            pair = crt_check(s, [maximals[a], maximals[b]])
            assert pair.comaximal.ok and pair.bijective
    triple = crt_check(s, maximals)
    assert triple.comaximal.ok
    assert triple.injective
    assert triple.kernel_matches_intersection
    assert not triple.surjective
    assert triple.image_size == 4 and triple.quotient_orders == (2, 2, 2)


def test_quotient_by_ideal_shortcut():
    s = DERIVED["M6"]
    q = quotient_by_ideal(s, 9)
    assert q.order == 3


def test_spectrum_view_shape():
    view = prime_spectrum(DERIVED["M6"])
    assert view.points == (9, 21)
    doc = view.to_dict()
    assert doc["points"] == [[0, 3], [0, 2, 4]]
    assert len(doc["closed_sets"]) == len(enumerate_ideals(DERIVED["M6"]))
    assert doc["components"] == [[[0, 3]], [[0, 2, 4]]]


def test_spectrum_dot_frozen():
    assert spectrum_dot(DERIVED["M3"]) == (
        "digraph spectrum {\n"
        "  rankdir=BT;\n"
        '  p0 [label="{0}"];\n'
        "}\n"
    )
    dot = spectrum_dot(DERIVED["L3"])
    assert "p0 -> p1;" in dot  # {0} specializes into {0,1}


def test_hom_discovery_m3():
    homs = find_homomorphisms(DERIVED["M3"], DERIVED["M3"])
    maps = sorted(h.element_map for h in homs)
    assert maps == [(0, 0, 0), (0, 1, 2), (0, 2, 1)]
    for h in homs:
        assert h.validate().ok
    onto = find_homomorphisms(DERIVED["M3"], DERIVED["M3"],
                              surjective_only=True)
    assert sorted(h.element_map for h in onto) == [(0, 1, 2), (0, 2, 1)]


def test_hom_gamma_size_must_match():
    s22 = None
    from tgs.enumeration import enumerate_structures
    s22 = next(iter(enumerate_structures(2, 2)))
    assert find_homomorphisms(DERIVED["B2"], s22) == []


def test_hom_search_is_capped(monkeypatch):
    # the search scans n^(n-1) maps: either order above the cap is refused
    monkeypatch.setenv("TGS_MAX_ORDER", "3")
    m3, m4 = DERIVED["M3"], DERIVED["M4"]
    for src, dst in ((m4, m3), (m3, m4)):
        with pytest.raises(ResourceLimitError, match="order 4 exceeds cap 3"):
            find_homomorphisms(src, dst)
    assert len(find_homomorphisms(m3, m3)) == 3


def test_hom_validate_witness():
    bad = HomomorphismMap(source=DERIVED["M3"], target=DERIVED["M3"],
                          element_map=(0, 1, 1))
    v = bad.validate()
    assert not v.ok
    assert v.witness[0] in ("add", "tern")
    m3 = DERIVED["M3"]
    assert HomomorphismMap(m3, m3, (2, 1, 0)).validate() == Verdict(False, ("zero", 0))
    b2 = DERIVED["B2"]
    cube = b2.ternary[0][0]
    b2_two = GammaStructure(order=2, gamma_size=2, addition=b2.addition,
                            ternary=[[cube, cube], [cube, cube]])
    for src, dst, f, match in ((m3, m3, (0, 1), "3 entries"),
                               (m3, b2, (0, 1, 2), "out of range"),
                               (m3, m3, (0, 1.0, 2), "integers"),
                               (m3, m3, 5, "must be a list"),
                               (b2_two, b2, (0, 1), "fewer parameters")):
        with pytest.raises(InputError, match=match):
            HomomorphismMap(src, dst, f).validate()


@pytest.mark.parametrize("f, match", [((0, 1.0, 2), "integers"),
                                      ("abc", "must be a list"),
                                      (None, "must be a list"),
                                      ((0, 1), "3 entries"),
                                      ((0, 5, 2), "out of range")])
def test_pullback_refuses_a_bad_element_map(f, match):
    m3 = DERIVED["M3"]
    for check in (lambda h: h.validate(), lambda h: pullback_ideal(h, 1)):
        with pytest.raises(InputError, match=match):
            check(HomomorphismMap(m3, m3, f))


def test_frozen_scan_witnesses(corpus):
    # the witnesses of has_nonzero_zero_divisors, is_semiprime on every
    # proper subset, validate on seeded maps with and without 0 fixed, and
    # decompose_by_idempotent on every idempotent, over the corpus and seeded
    # mutations of it; the digest was taken while each scan was its own loop
    rng = random.Random(13)
    structures = [s for _, _, s in corpus]
    structures += list(_mutants(structures, rng))
    reports = []
    for s in structures:
        n = s.order
        maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(3)]
        maps += [(0,) + f[1:] for f in maps]
        reports.append([
            has_nonzero_zero_divisors(s),
            [is_semiprime(s, mask) for mask in range(1, full_mask(n))],
            [HomomorphismMap(s, s, f).validate() for f in maps],
            [decompose_by_idempotent(s, e).to_dict() for e in find_idempotents(s)]])
    assert {v.witness[0] for r in reports for v in r[2] if not v.ok} == {
        "zero", "add", "tern"}
    assert len(reports) == 984
    assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == (
        "c4516d0b0f07700d3062081a9af0404fce45dbb7a9a2d624bfd0eba99b3e4254")


def test_prime_pullback_along_quotient_projection(corpus):
    s = DERIVED["M6"]
    rho = bourne_congruence(s, 9)
    q = quotient_structure(s, rho)
    pi = HomomorphismMap(source=s, target=q, element_map=rho)
    assert pi.validate().ok
    assert pi.is_surjective()
    back = pullback_ideal(pi, 1)  # zero class of the quotient
    assert back == 9
    from tgs.ideals import is_prime
    assert is_prime(s, back).ok
    # the asserted suite pulls back along every projection without
    # validating it: each is a homomorphism onto its quotient
    checked = 0
    for t in [t for n, m, t in corpus if n <= 3 and m == 1] + list(DERIVED.values()):
        for rho in enumerate_congruences(t):
            q = quotient_structure(t, rho)
            assert HomomorphismMap(t, q, rho).validate().ok
            checked += 1
    assert checked


def test_pullbacks_of_primes_prime_over_small_corpus(corpus_reps):
    from tgs.ideals import is_prime
    reps = [s for shape in ((2, 1), (3, 1)) for s in corpus_reps[shape]]
    checked = 0
    for src in reps:
        for dst in reps:
            for f in find_homomorphisms(src, dst, surjective_only=True):
                for p in spectrum_points(dst):
                    back = pullback_ideal(f, p)
                    assert back != full_mask(src.order)
                    assert is_prime(src, back).ok
                    checked += 1
    assert checked
