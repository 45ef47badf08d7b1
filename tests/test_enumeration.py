import hashlib
import itertools
import json
import math
import multiprocessing

import pytest

import tgs.enumeration
from tgs.core import (AxiomReport, GammaStructure, ResourceLimitError,
                      InputError, _prevalidated, _serialize_tables,
                      apply_permutation, canonical_form, verify_axioms,
                      zero_fixing_permutations)
from tgs.enumeration import (CLAIMED_TABLE, ClassificationReport, classify,
                             enumerate_additive_monoids, enumerate_structures,
                             render_classification_text, _backtrack,
                             _cube_solutions, _enumeration_worker,
                             _orbit_layout, _pair_grid, _structure_summary,
                             _structures_for_monoid)
from tgs.gamma_modules import _actions_for_carrier, enumerate_module_actions

from cube_product import ternary_tables
from monoid_hook import associativity_hook
from oracles import (canonical_set, naive_monoid_tables, naive_structures,
                     naive_structures_fully)
from relabel import relabel_tables

# counts frozen from the naive oracles before the pruned paths were trusted
MONOID_COUNTS = {1: 1, 2: 2, 3: 5, 4: 19, 5: 78}
CANDIDATE_COUNTS = {(1, 1): 1, (2, 1): 4, (3, 1): 19, (4, 1): 206, (2, 2): 16,
                    (3, 2): 175}
# sha256 of the ordered stream of serialized tables: the search must emit the
# same structures in the same order, not just as many
CANDIDATE_DIGESTS = {
    (1, 1): "a0454a24dd4bc418448ca19320519ea3fe544fa1a910868b62ca210614f119f8",
    (2, 1): "7876514b5e63305eddcfadd1f345c0067c10568543ff1d107028847f1028c079",
    (3, 1): "32b17d258f4bf5a66bd115eea443f2951ec353759fba601f1757309ff4c74a11",
    (4, 1): "0592f19dc4dacb16811fc3dfc6390b2610b41137526ea3cc1ff037f93487c36d",
    (2, 2): "e532ee85991296e76c8082a1d7e61e34f082e49714edc945e6e680456638f16e",
    (3, 2): "7f1ca366c2077628f92a3f83d3644ccb076df0e4402e20da54acf14761bbf7ed",
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


def _logged(ok, calls):
    """ok, each call appended to calls as (cell, value, verdict)."""
    def hook(vals, k):
        verdict = ok(vals, k)
        calls.append((k, vals[k], verdict))
        return verdict
    return hook


@pytest.mark.parametrize("n, count", [(1, 0), (2, 2), (3, 30), (4, 720),
                                      (5, 23185)])
def test_monoid_hook_equals_reference(n, count, monkeypatch):
    # the flat-table hook decides every placement as the holds-based one
    # does: the same (cell, value, verdict) at every call, in the same order
    calls, reference = [], []
    monkeypatch.setattr(tgs.enumeration, "_backtrack",
                        lambda size, domain, ok:
                        _backtrack(size, domain, _logged(ok, calls)))
    enumerate_additive_monoids.__wrapped__(n)  # the search, past the cache
    cells, ok = associativity_hook(n)
    for _ in _backtrack(cells, range(n), _logged(ok, reference)):
        pass
    assert calls == reference
    assert len(calls) == count


def _monoid_search(n, monkeypatch):
    """The representatives of a run of the monoid search at order n, past
    the cache, and the number of labeled tables it completed."""
    completed = []

    def counting(count, domain, ok):
        for vals in _backtrack(count, domain, ok):
            completed.append(None)
            yield vals

    monkeypatch.setattr(tgs.enumeration, "_backtrack", counting)
    return enumerate_additive_monoids.__wrapped__(n), len(completed)


def _labelings(reps) -> int:
    """The labeled monoids with identity 0 in the classes of reps: the sum
    of (n - 1)! / |Aut(A)| over the representatives A."""
    total = 0
    for add in reps:
        n = len(add)
        aut = sum(1 for sigma in zero_fixing_permutations(n)
                  if relabel_tables(sigma, add)[0] == add)
        total += math.factorial(n - 1) // aut
    return total


@pytest.mark.parametrize("n, labeled", [(4, 94), (5, 1486)])
def test_monoid_search_completes_each_labeling_once(n, labeled, monkeypatch):
    # the orbit-stabilizer count of the labeled tables; at order 5 past the
    # oracles' reach
    reps, completed = _monoid_search(n, monkeypatch)
    assert reps == enumerate_additive_monoids(n)
    assert completed == _labelings(reps) == labeled


def test_monoid_classes_at_order_6(monkeypatch):
    # the commutative monoids of order 6 (OEIS A058131) and their labelings;
    # kept out of MONOID_COUNTS, over which MONOID_DIGEST is frozen; about 2 s
    monkeypatch.setenv("TGS_MAX_ORDER", "6")
    reps, completed = _monoid_search(6, monkeypatch)
    assert len(reps) == 421
    assert completed == _labelings(reps) == 38890


def test_monoid_cap_is_checked_before_the_cache(monkeypatch):
    # a result cached under a raised cap is refused once the cap is back
    # down, and a lowered cap refuses an order cached under the default
    monkeypatch.setenv("TGS_MAX_ORDER", "6")
    assert len(enumerate_additive_monoids(6)) == 421
    monkeypatch.delenv("TGS_MAX_ORDER")
    with pytest.raises(ResourceLimitError, match="order 6 exceeds cap 5"):
        enumerate_additive_monoids(6)
    assert len(enumerate_additive_monoids(3)) == 5
    monkeypatch.setenv("TGS_MAX_ORDER", "2")
    with pytest.raises(ResourceLimitError, match="order 3 exceeds cap 2"):
        enumerate_additive_monoids(3)


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


def _recursive_backtrack(count, domain, ok):
    """The search engine as one recursive generator per cell: the reference
    the one-frame engine must follow call for call."""
    vals = [0] * (count + 1)

    def fill(k):
        if k == count:
            yield vals
            return
        for v in domain:
            vals[k] = v
            if ok(vals, k):
                yield from fill(k + 1)

    return fill(0)


def _prefix_ok(prefix) -> bool:
    # prunes at every depth: no two equal neighbours, no prefix summing to 5
    return (len(prefix) < 2 or prefix[-1] != prefix[-2]) and sum(prefix) != 5


@pytest.mark.parametrize("count", range(5))
def test_backtrack_equals_filtered_product_and_recursive_reference(count):
    domain = range(4)

    def run(engine):
        trace = []

        def ok(vals, k):
            trace.append((k, tuple(vals[:k + 1])))
            return _prefix_ok(vals[:k + 1])

        out = []
        for vals in engine(count, domain, ok):
            # the live list, with its trailing pinned 0
            assert len(vals) == count + 1 and vals[count] == 0
            out.append(tuple(vals[:count]))
        return out, trace

    out, trace = run(_backtrack)
    want = [p for p in itertools.product(domain, repeat=count)
            if all(_prefix_ok(p[:k + 1]) for k in range(count))]
    assert out == want
    assert (out, trace) == run(_recursive_backtrack)
    assert len(out) == (1, 4, 10, 24, 60)[count]


def test_one_cell_tables():
    # one pinned cell: no free cell, one completion, one 1-tuple per level
    (s,) = enumerate_structures(1, 1)
    assert s.ternary == (((((0,),),),),)
    (a,) = enumerate_module_actions(s, 1)
    assert a.action == (((((0,),),),),)


def _cells(table) -> bytes:
    """The cells of a five-level table (cubes, planes, rows) in row-major
    order."""
    return bytes(itertools.chain.from_iterable(itertools.chain.from_iterable(
        itertools.chain.from_iterable(itertools.chain.from_iterable(table)))))


def test_additive_table_stream_digest_at_gamma_3():
    # above the gamma cap of every public search; the (al, be) cubes (0, 1)
    # and (1, 0) read one position of the pair grid
    h = hashlib.sha256()
    count = 0
    for add in enumerate_additive_monoids(2):
        for table in ternary_tables(add, 2, 3):
            h.update(_cells(table))
            count += 1
    assert count == 128
    assert h.hexdigest() == (
        "c22b7e81cfafab0976ea4eebd692bd744bee9fab8338b4bf623deb7f96fa1d50")


def _whole_table_buckets(count, m, index, dims, adds):
    """The additivity instances (lhs, r1, r2) of a whole table over cells
    (al, be, s0, s1, s2), each in the bucket of the last key it reads; a
    copy of the package's bucket builder from before it searched one cube."""
    buckets = [{} for _ in range(count)]
    for al in range(m):
        for be in range(m):
            for slot, (d, add) in enumerate(zip(dims, adds)):
                rest = [range(dims[j]) for j in range(3) if j != slot]
                for uv in itertools.product(*rest):
                    for x in range(d):
                        for y in range(x, d):
                            ks = tuple(index[(al, be) + uv[:slot] + (z,) + uv[slot:]]
                                       for z in (add[x][y], x, y))
                            if max(ks) >= 0:
                                buckets[max(ks)][ks] = None
    return [tuple(b) for b in buckets]


def _whole_table_search(index, m, dims, adds, op):
    """The table search as one _backtrack over every free key of a whole
    table layout with the whole bucket hook: the reference the one-cube
    search must equal, table for table and in order."""
    count = max(index.values()) + 1
    buckets = _whole_table_buckets(count, m, index, dims, adds)

    def ok(vals, k):
        return all(vals[lhs] == op[vals[r1]][vals[r2]] for lhs, r1, r2 in buckets[k])

    keys = list(index.values())
    shape = (m, m) + dims
    for vals in _backtrack(count, range(len(op)), ok):
        flat = [vals[key] for key in keys]
        for d in reversed(shape[1:]):
            flat = [tuple(flat[i:i + d]) for i in range(0, len(flat), d)]
        yield tuple(flat)


def _module_layout(n, m, k):
    # the action cells a mm b with nonzero scalars a, b are free, numbered in
    # lexicographic order; the scalar-zero ones are pinned
    cells = list(itertools.product(range(m), range(m), range(n), range(k), range(n)))
    index = dict.fromkeys(cells, -1)
    index.update((c, i) for i, c in enumerate(c for c in cells if c[2] and c[4]))
    return index


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2),
                                  (2, 2), (3, 2), (1, 3), (2, 3)])
def test_orbit_search_equals_whole_table_search(n, m):
    layout = _closed_orbit_layout(n, m)
    for add in enumerate_additive_monoids(n):
        assert (list(ternary_tables(add, n, m))
                == list(_whole_table_search(layout, m, (n, n, n), (add,) * 3, add)))


@pytest.mark.parametrize("n, m, k", [(1, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3),
                                     (1, 2, 2), (2, 2, 2), (2, 2, 3), (2, 3, 2)])
def test_action_search_equals_whole_table_search(n, m, k):
    # the package's product of cube solutions over the m*m cubes; any scalar
    # ternary table works here, as the action search reads the addition only
    layout = _module_layout(n, m, k)
    zero = [[[[[0] * n] * n] * n] * m] * m
    for sadd in enumerate_additive_monoids(n):
        s = GammaStructure(order=n, gamma_size=m, addition=sadd, ternary=zero)
        for madd in enumerate_additive_monoids(k):
            adds = (sadd, madd, sadd)
            assert ([a.action for a in _actions_for_carrier(s, k, madd)]
                    == list(_whole_table_search(layout, m, (n, k, n), adds, madd)))


def test_one_position_search_streams(monkeypatch):
    # a search at one parameter is one position: drawing its first table
    # must complete one table, not every table of the monoid; so must
    # drawing the first structure when the first table passes
    completions = []

    def counted(count, domain, ok):
        for vals in _backtrack(count, domain, ok):
            completions.append(1)
            yield vals

    add = enumerate_additive_monoids(4)[12]  # the most tables at order 4
    monkeypatch.setattr(tgs.enumeration, "_backtrack", counted)
    tables = _cube_solutions(_orbit_layout(4), (4, 4, 4), (add,) * 3, add)
    assert completions == []
    next(tables)
    assert completions == [1]
    assert 1 + sum(1 for _ in tables) == len(completions) == 672
    completions.clear()
    structures = _structures_for_monoid(add, 4, 1)
    first = next(structures)
    assert completions == [1]
    assert first.ternary == ((next(_cube_solutions(
        _orbit_layout(4), (4, 4, 4), (add,) * 3, add)),),)


def test_cube_check_decides_ternary_associativity_alone(law_calls):
    # each cube the search checks holds the four laws the search builds in
    # as seeded verdicts, so passed decides one law per completed cube
    calls = law_calls(AxiomReport)
    assert sum(1 for _ in enumerate_structures(4, 1)) == 206
    assert calls == {("decide", "ternary_assoc"): 1420}


@pytest.mark.parametrize("n, m", [(4, 1), (2, 2)])
def test_search_output_carries_no_seeded_verdict(n, m, law_calls):
    # the seeds stay on the cubes checked: verify_axioms on a yielded
    # structure still decides every law
    calls = law_calls(AxiomReport)
    count = 0
    for s in enumerate_structures(n, m):
        assert not any(isinstance(key, tuple) for key in vars(s).get("_memo", {}))
        calls.clear()
        assert verify_axioms(s).passed
        assert calls == {("decide", law): 1 for law in AxiomReport._LAWS}
        count += 1
    assert count == {(4, 1): 206, (2, 2): 16}[(n, m)]


def _filtered_structures(add, n, m):
    """The ternary route before the cube join: every product of cube
    solutions over the positions of the pair grid, each table kept when
    verify_axioms passes it. The reference the join must equal."""
    names = tuple(map(str, range(n)))
    for tern in ternary_tables(add, n, m):
        s = _prevalidated(GammaStructure, order=n, gamma_size=m, addition=add,
                          ternary=tern, names=names)
        if verify_axioms(s).passed:
            yield s


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2),
                                  (2, 2), (3, 2), (1, 3), (2, 3)])
def test_cube_join_equals_filtered_product(n, m):
    # gamma 3 is above the cap of enumerate_structures, so the join is read
    # per monoid there
    adds = enumerate_additive_monoids(n)
    if m <= 2:
        joined = list(enumerate_structures(n, m))
    else:
        joined = [s for add in adds for s in _structures_for_monoid(add, n, m)]
    assert joined == [s for add in adds for s in _filtered_structures(add, n, m)]


def test_free_cell_reduction_is_faithful():
    # at order 2 the literally-everything sweep is affordable; it must agree
    # with the zero-forced free-cell sweep used for order 3
    assert canonical_set(naive_structures_fully(2)) == canonical_set(
        naive_structures(2))


def _closed_orbit_layout(n, m):
    """The layout by closing each cell under the law's two swaps, numbering
    orbits by their least members, zero-argument cells at -1."""
    index = {}
    orbits = 0
    for cell in itertools.product(range(m), range(m), range(n), range(n), range(n)):
        if cell in index:
            continue
        if 0 in cell[2:]:
            index[cell] = -1
            continue
        stack = [cell]
        while stack:
            al, be, a, b, c = stack.pop()
            if (al, be, a, b, c) not in index:
                index[al, be, a, b, c] = orbits
                stack += [(be, al, b, a, c), (al, be, c, b, a)]
        orbits += 1
    return {cell: index[cell] for cell in sorted(index)}


@pytest.mark.parametrize("m", (1, 2, 3))
def test_orbit_layout_equals_swap_closure(m):
    # the one-cube layout at the position of its pair, position p owning the
    # keys from p times the cube's count, gives the same cells with the same
    # keys in the same order, so the search fills the same tables in the
    # same order
    grid = _pair_grid(m)
    for n in range(1, 7):
        cube = _orbit_layout(n)
        size = max(cube.values()) + 1
        layout = {(al, be, *cell): key if key < 0 else grid[al][be] * size + key
                  for al in range(m) for be in range(m)
                  for cell, key in cube.items()}
        assert list(layout.items()) == list(_closed_orbit_layout(n, m).items())
        # an orbit is a pair {al, be} with a multiset of three nonzero elements
        assert max(layout.values()) + 1 == math.comb(n + 1, 3) * m * (m + 1) // 2


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
    for (n, m), count in sorted(CANDIDATE_COUNTS.items()):
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

    # classify imports the pool only when it starts one, from multiprocessing
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
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


def _assert_orbit_stabilizer(structures):
    """Per addition A, with G its 0-fixing automorphisms: the search finds
    each G-orbit of labeled tables whole, once, so the tables found for A
    number the sum of |G| / |Stab_G(T)| over the representatives T found
    for A. Returns the numbers of additions and of representatives."""
    found = {}
    for s in structures:
        found.setdefault((s.order, s.gamma_size, s.addition), []).append(s)
    classes = 0
    for (n, m, add), tables in found.items():
        group = [sigma for sigma in zero_fixing_permutations(n)
                 if relabel_tables(sigma, add)[0] == add]
        reps = {canonical_form(t): t for t in tables}
        orbits = 0
        for t in reps.values():
            stab = sum(1 for sigma in group
                       if relabel_tables(sigma, add, t.ternary)[1] == t.ternary)
            orbits += len(group) // stab
        assert len(tables) == orbits, (n, m, add)
        classes += len(reps)
    return len(found), classes


def test_orbit_stabilizer_identity(corpus):
    _assert_orbit_stabilizer([*(s for _, _, s in corpus),
                              *enumerate_structures(3, 2)])


def test_counts_at_order_4_and_two_parameters():
    # beyond the oracles and the paper: the labeled tables and their classes,
    # checked by the orbit-stabilizer identity on each of the 19 additions;
    # tables over distinct additions are never isomorphic, so the classes
    # add up over additions
    tables = list(enumerate_structures(4, 2))
    assert len(tables) == 4202
    assert _assert_orbit_stabilizer(tables) == (19, 3446)


# order 5, per addition index: (labeled tables, classes), frozen before the
# one-cube search lost its product; additions 16, 39 and 50 (633 tables and
# 343 classes of the 2,679 and 2,106 at order 5) take about 55 s together on
# a 2-core host, and stay out of tier 1 until associativity is a hook of the
# cube search
ORDER_5_COUNTS = {
    0: (15, 10), 1: (4, 4), 2: (12, 12), 3: (11, 11), 4: (28, 17), 5: (11, 11),
    6: (42, 42), 7: (9, 9), 8: (8, 8), 9: (18, 18), 10: (7, 7), 11: (4, 4),
    12: (2, 2), 13: (2, 2), 14: (4, 3), 15: (8, 8), 17: (28, 28), 18: (60, 40),
    19: (36, 22), 20: (25, 25), 21: (5, 5), 22: (20, 20), 23: (19, 13),
    24: (16, 16), 25: (23, 15), 26: (47, 29), 27: (25, 25), 28: (65, 65),
    29: (14, 14), 30: (18, 18), 31: (47, 32), 32: (14, 14), 33: (34, 34),
    34: (56, 56), 35: (19, 19), 36: (56, 56), 37: (12, 12), 38: (3, 3),
    40: (37, 37), 41: (128, 128), 42: (34, 34), 43: (145, 84), 44: (47, 32),
    45: (14, 14), 46: (55, 55), 47: (53, 53), 48: (138, 80), 49: (57, 57),
    51: (47, 47), 52: (8, 8), 53: (13, 13), 54: (48, 48), 55: (10, 10),
    56: (10, 10), 57: (29, 19), 58: (7, 7), 59: (21, 21), 60: (19, 19),
    61: (49, 30), 62: (18, 18), 63: (70, 70), 64: (19, 19), 65: (3, 3),
    66: (11, 11), 67: (5, 5), 68: (17, 17), 69: (16, 16), 70: (12, 12),
    71: (7, 7), 72: (18, 18), 73: (16, 11), 74: (5, 5), 75: (23, 8),
    76: (5, 5), 77: (5, 3)
}


def test_counts_at_order_5_by_addition():
    monoids = enumerate_additive_monoids(5)
    found = {}
    for i in ORDER_5_COUNTS:
        tables = list(enumerate_structures(5, 1, addition=monoids[i]))
        additions, classes = _assert_orbit_stabilizer(tables)
        assert additions == 1
        found[i] = (len(tables), classes)
    assert found == ORDER_5_COUNTS
    assert len(found) == 75
    assert sum(t for t, _ in found.values()) == 2046
    assert sum(c for _, c in found.values()) == 1763


def test_search_output_equals_validated_construction():
    for s in enumerate_structures(3, 1):
        checked = GammaStructure(order=s.order, gamma_size=s.gamma_size,
                                 addition=[list(r) for r in s.addition],
                                 ternary=s.ternary)
        assert s == checked and hash(s) == hash(checked)
        assert s.names == checked.names == ("0", "1", "2")


def test_given_addition_yields_its_part_of_the_stream(corpus):
    # the route of the order-5 search: one given addition, here as lists
    for n, m in sorted({(n, m) for n, m, _ in corpus}):
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
    # exact positive ints only: a bool or a float is neither an order, a
    # gamma size nor a worker count
    for call in (lambda: classify(2, True), lambda: classify(True),
                 lambda: classify(2, 1.0), lambda: list(enumerate_structures(2.0)),
                 lambda: enumerate_additive_monoids(2.0)):
        with pytest.raises(InputError, match="must be a positive integer"):
            call()
    for jobs in (True, 1.5):
        with pytest.raises(InputError, match="jobs must be positive"):
            classify(2, jobs=jobs)


@pytest.mark.parametrize("args, error, match", [
    ((9,), ResourceLimitError, "order 9 exceeds cap"),
    ((0,), InputError, "order must be a positive integer"),
    ((2.0,), InputError, "order must be a positive integer"),
    ((2, 3), ResourceLimitError, "gamma size 3 exceeds cap"),
    ((2, 0), InputError, "gamma size must be a positive integer"),
    ((2, 1, [[0, 1], [0, 1]]), InputError, "commutative monoid"),
])
def test_structure_search_is_refused_at_the_call(args, error, match, monkeypatch):
    # the call itself raises: no generator is returned to be iterated
    monkeypatch.delenv("TGS_MAX_ORDER", raising=False)
    with pytest.raises(error, match=match):
        enumerate_structures(*args)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("TGS_MAX_ORDER", "2")
    with pytest.raises(ResourceLimitError, match="TGS_MAX_ORDER"):
        list(enumerate_structures(3, 1))


def test_report_counts_consistent():
    report = classify(4, 1)
    assert report.structure_count == len(tuple(report.representatives))
    assert report.structure_count <= report.candidate_count
    assert report.complete
    doc = report.to_dict()
    assert doc["schema_version"] == 1
    assert len(doc["structures"]) == report.structure_count
    for row in doc["structures"]:
        assert set(row) >= {"index", "canonical_sha256", "summary"}


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2),
                                  (3, 2), (4, 2)])
def test_each_task_holds_its_monoids_classes(n, m):
    """Each classify task deduplicates its own monoid's structures, which is
    exact: every form a task returns starts with the header and its
    monoid's table, so no class spans two monoids, and the tasks' sorted
    forms, concatenated in monoid order, are the sorted set of all forms."""
    every, rows = [], []  # every form, and the rows of every task
    for i, add in enumerate(enumerate_additive_monoids(n)):
        forms = [canonical_form(s) for s in enumerate_structures(n, m, add)]
        passed, chunk = _enumeration_worker((n, m, i))
        assert passed == len(forms)
        assert [cb for cb, _ in chunk] == sorted(set(forms))
        prefix = bytes((n, m)) + bytes(itertools.chain.from_iterable(add))
        assert all(cb.startswith(prefix) for cb, _ in chunk)
        every += forms
        rows += chunk
    assert [cb for cb, _ in rows] == sorted(set(every))
