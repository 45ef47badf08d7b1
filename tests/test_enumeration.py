import hashlib
import json

import pytest

import tgs.enumeration
from tgs.core import (GammaStructure, ResourceLimitError, InputError,
                      _relabel_tables, _serialize_tables, apply_permutation,
                      canonical_form, zero_fixing_permutations)
from tgs.enumeration import (CLAIMED_TABLE, ClassificationReport, classify,
                             enumerate_additive_monoids, enumerate_structures,
                             render_classification_text, _structure_summary)

from oracles import (canonical_set, naive_monoid_tables, naive_structures,
                     naive_structures_fully)

# counts frozen from the naive oracles before the pruned paths were trusted
MONOID_COUNTS = {1: 1, 2: 2, 3: 5, 4: 19, 5: 78}
CANDIDATE_COUNTS = {(1, 1): 1, (2, 1): 4, (3, 1): 19, (4, 1): 206, (2, 2): 16}
# sha256 of the ordered stream of serialized tables: the search must emit the
# same structures in the same order, not just as many
CANDIDATE_DIGESTS = {
    (1, 1): "a0454a24dd4bc418448ca19320519ea3fe544fa1a910868b62ca210614f119f8",
    (2, 1): "7876514b5e63305eddcfadd1f345c0067c10568543ff1d107028847f1028c079",
    (3, 1): "32b17d258f4bf5a66bd115eea443f2951ec353759fba601f1757309ff4c74a11",
    (4, 1): "0592f19dc4dacb16811fc3dfc6390b2610b41137526ea3cc1ff037f93487c36d",
    (2, 2): "e532ee85991296e76c8082a1d7e61e34f082e49714edc945e6e680456638f16e",
}
MONOID_DIGEST = "7cfd1a5e7b019c50b7d7772c25dfdc62d6245e213c3283ff8f8fc8b579e939a0"
CANONICAL_COUNTS = {(1, 1): 1, (2, 1): 4, (3, 1): 19, (4, 1): 175, (2, 2): 16}


@pytest.mark.parametrize("n", sorted(MONOID_COUNTS))
def test_monoid_counts(n):
    assert len(enumerate_additive_monoids(n)) == MONOID_COUNTS[n]


def test_monoid_stream_digest():
    h = hashlib.sha256()
    for n in sorted(MONOID_COUNTS):
        for grid in enumerate_additive_monoids(n):
            h.update(bytes(v for row in grid for v in row))
    assert h.hexdigest() == MONOID_DIGEST


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_monoid_oracle_equality(n):
    naive = naive_monoid_tables(n)
    reps = enumerate_additive_monoids(n)
    naive_set = set(naive)
    # every representative is itself a valid table the oracle must emit
    for add in reps:
        assert tuple(tuple(row) for row in add) in naive_set
    # every oracle table is a relabeling of exactly one representative
    rep_set = {tuple(tuple(row) for row in add) for add in reps}
    for add in naive:
        n_ = len(add)
        images = set()
        for sigma in zero_fixing_permutations(n_):
            out = [[0] * n_ for _ in range(n_)]
            for a in range(n_):
                for b in range(n_):
                    out[sigma[a]][sigma[b]] = sigma[add[a][b]]
            img = tuple(tuple(row) for row in out)
            if img in rep_set:
                images.add(img)
        assert len(images) == 1


@pytest.mark.parametrize("shape", sorted(CANDIDATE_COUNTS))
def test_candidate_counts(shape):
    n, m = shape
    h = hashlib.sha256()
    count = 0
    for s in enumerate_structures(n, m):
        h.update(_serialize_tables(n, m, s.addition, s.ternary))
        count += 1
    assert count == CANDIDATE_COUNTS[shape]
    assert h.hexdigest() == CANDIDATE_DIGESTS[shape]


@pytest.mark.parametrize("shape", sorted(CANONICAL_COUNTS))
def test_canonical_counts(shape, corpus_reps):
    assert len(corpus_reps[shape]) == CANONICAL_COUNTS[shape]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_enumeration_matches_naive_oracle(n):
    naive = canonical_set(naive_structures(n))
    pruned = canonical_set(enumerate_structures(n, 1))
    assert pruned == naive


def test_free_cell_reduction_is_faithful():
    # at order 2 the literally-everything sweep is affordable; it must agree
    # with the zero-forced free-cell sweep used for order 3
    assert canonical_set(naive_structures_fully(2)) == canonical_set(
        naive_structures(2))


def test_stream_contains_named_fixtures():
    from tgs.fixtures import DERIVED
    forms3 = canonical_set(enumerate_structures(3, 1))
    assert canonical_form(DERIVED["M3"]) in forms3
    assert canonical_form(DERIVED["L3"]) in forms3
    assert canonical_form(DERIVED["N3"]) in forms3
    forms2 = canonical_set(enumerate_structures(2, 1))
    assert canonical_form(DERIVED["B2"]) in forms2


def test_classify_deterministic_across_jobs():
    a = classify(3, 1, jobs=1)
    b = classify(3, 1, jobs=4)
    ja = json.dumps(a.to_dict(), sort_keys=True)
    jb = json.dumps(b.to_dict(), sort_keys=True)
    assert ja == jb
    assert render_classification_text(a) == render_classification_text(b)


@pytest.mark.parametrize("jobs", (1, 2))
def test_classify_completes_each_table_once(jobs):
    # dedup would hide a lost or doubled table from structure_count, so the
    # tasks together must pass exactly the tables enumerate_structures does
    expected = {**CANDIDATE_COUNTS, (3, 2): 175}
    for (n, m), count in sorted(expected.items()):
        assert classify(n, m, jobs=jobs).candidate_count == count


def test_classify_gamma2_identical_across_jobs():
    one = json.dumps(classify(3, 2, jobs=1).to_dict(), indent=2, sort_keys=True)
    two = json.dumps(classify(3, 2, jobs=2).to_dict(), indent=2, sort_keys=True)
    assert one == two


def test_classify_pool_bounded_by_tasks_and_cpus(monkeypatch):
    sizes = []

    class RecordingPool:
        # runs the tasks in this process; never starts a worker
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(tgs.enumeration, "Pool", RecordingPool)
    monkeypatch.setattr(tgs.enumeration.os, "cpu_count", lambda: 8)
    # (2, 1) has 2 monoids, one task each
    expected = json.dumps(classify(2, 1).to_dict(), sort_keys=True)
    assert sizes == []
    assert json.dumps(classify(2, 1, jobs=1000).to_dict(),
                      sort_keys=True) == expected
    assert sizes == [2]
    classify(4, 1, jobs=1000)
    assert sizes == [2, 8]
    classify(3, 1, jobs=3)
    assert sizes == [2, 8, 3]
    monkeypatch.setattr(tgs.enumeration.os, "cpu_count", lambda: None)
    classify(3, 1, jobs=4)
    assert sizes == [2, 8, 3]  # one worker runs in-process


def test_orbit_stabilizer_identity(corpus):
    # per addition A, with G its 0-fixing automorphisms: the search finds each
    # G-orbit of labeled tables whole, once, so the tables found for A number
    # the sum of |G| / |Stab_G(T)| over the representatives T found for A
    found = {}
    shape_3_2 = ((3, 2, s) for s in enumerate_structures(3, 2))
    for n, m, s in (*corpus, *shape_3_2):
        found.setdefault((n, m, s.addition), []).append(s)
    for (n, m, add), tables in found.items():
        group = [sigma for sigma in zero_fixing_permutations(n)
                 if _relabel_tables(sigma, add)[0] == add]
        reps = {canonical_form(t): t for t in tables}
        orbits = 0
        for t in reps.values():
            stab = sum(1 for sigma in group
                       if _relabel_tables(sigma, add, t.ternary)[1] == t.ternary)
            orbits += len(group) // stab
        assert len(tables) == orbits, (n, m, add)


def test_search_output_equals_validated_construction():
    for s in enumerate_structures(3, 1):
        checked = GammaStructure(order=s.order, gamma_size=s.gamma_size,
                                 addition=[list(r) for r in s.addition],
                                 ternary=s.ternary)
        assert s == checked and hash(s) == hash(checked)
        assert s.names == checked.names == ("0", "1", "2")


def test_given_addition_yields_its_part_of_the_stream(corpus):
    # the route of the order-5 search: one given addition, here as lists
    for n, m in CANDIDATE_COUNTS:
        for add in enumerate_additive_monoids(n):
            part = [s for n2, m2, s in corpus
                    if (n2, m2) == (n, m) and s.addition == add]
            given = [list(row) for row in add]
            assert list(enumerate_structures(n, m, addition=given)) == part


@pytest.mark.parametrize("addition, match", [
    ([[0, 1], [1]], "row 1"),
    ([[0, 1], [1, 2]], "not an integer"),
    ([[0, 1], [1, 1.0]], "not an integer"),
    ([[0, 1], [0, 1]], "commutative monoid"),
    ([[1, 0], [0, 1]], "commutative monoid"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 0]], "commutative monoid"),
])
def test_given_addition_is_refused_before_search(addition, match):
    with pytest.raises(InputError, match=match):
        next(enumerate_structures(len(addition), 1, addition=addition))


def test_classify_repeat_runs_identical():
    a = json.dumps(classify(2, 1).to_dict(), sort_keys=True)
    b = json.dumps(classify(2, 1).to_dict(), sort_keys=True)
    assert a == b


def test_classify_comparison_row():
    report = classify(3, 1)
    cmp = report.comparison()
    assert cmp["claimed"]["structures"] == CLAIMED_TABLE[3]["structures"] == 3
    assert cmp["computed"]["structures"] == 19
    assert cmp["match"]["structures"] is False
    text = render_classification_text(report)
    assert "MISMATCH" in text


def test_classify_without_claimed_row():
    report = classify(2, 2)
    assert report.claimed is None
    text = render_classification_text(report)
    assert "claimed" not in text or "no claimed" in text


def test_summaries_permutation_invariant(corpus_reps):
    for s in corpus_reps[(3, 1)]:
        base = _structure_summary(s)
        for sigma in zero_fixing_permutations(s.order):
            assert _structure_summary(apply_permutation(s, sigma)) == base


def test_caps():
    with pytest.raises(ResourceLimitError):
        enumerate_additive_monoids(6)
    with pytest.raises(ResourceLimitError):
        list(enumerate_structures(6, 1))
    with pytest.raises(ResourceLimitError):
        list(enumerate_structures(2, 3))
    with pytest.raises(InputError):
        list(enumerate_structures(0, 1))
    with pytest.raises(InputError, match="jobs must be positive"):
        classify(3, jobs=0)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("TGS_MAX_ORDER", "2")
    with pytest.raises(ResourceLimitError, match="TGS_MAX_ORDER"):
        list(enumerate_structures(3, 1))


def test_report_counts_consistent():
    report = classify(4, 1)
    assert report.structure_count == len(report.representatives)
    assert report.structure_count <= report.candidate_count
    assert report.complete
    doc = report.to_dict()
    assert doc["schema_version"] == 1
    assert len(doc["structures"]) == report.structure_count
    for row in doc["structures"]:
        assert set(row) >= {"index", "canonical_sha256", "summary"}
