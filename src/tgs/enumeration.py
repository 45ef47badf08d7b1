"""Exhaustive generation of structures of a given order up to isomorphism.

Every table here is completed by one backtracking engine, _backtrack: cells
take values in lexicographic order and a hook accepts or rejects each
placement, all in one generator frame with a stack of per-cell value
iterators. Additive monoids come first, with associativity as the hook;
the addition is one flat list, a + b at a*n + b, and the hook checks only
the triples that read the cell just placed, finding the sums x + y equal
to a given element by a scan of the placed cells by value. The first
labeled monoid found of each relabeling class puts all its 0-fixing
relabelings, as bytes, into a set, so every later member of the class costs
one set lookup, and the class keeps the least of them, its canonical form.
Ternary tables follow, filled one value per commutativity orbit: the orbit
of a cell (al, be, a, b, c) is its unordered parameter pair {al, be} with
the multiset of a, b and c. Zero absorption pins every cell with a zero
argument, and each distributivity instance is replayed as soon as its last
free cell is placed. gamma_modules fills module actions with the same
engine and the same additivity buckets.

An additivity instance reads one (al, be) cube, and every cube carries the
same instances, so the search fills one cube once and yields its
solutions. A ternary table is their join, with one position per pair
{al, be}, the cubes (al, be) and (be, al) sharing it; a module action, in
gamma_modules, is their product over the m*m cubes.

Ternary associativity is not a hook of the cube search. Each cube solution
goes through verify_axioms once, as a structure at one parameter, whose
passed decides every axiom on maps. A table of passing cubes passes iff
the row maps of every two of its cubes commute, decided once per unordered
pair of passing cubes; at more than one parameter a second _backtrack
joins the passing cubes over the positions, in the order of their
product, the first position slowest, and its hook checks each pick
against the earlier ones. At one parameter there is one position: the
passing cubes are the tables, and they stream.

classify runs one task per additive monoid, the whole pipeline of that
monoid: search, dedup by canonical form, and a summary of each
representative. The dedup is exact per monoid: a canonical form is a least
relabeling with the addition first, so its addition is the least table of
the monoid's class, the one enumerate_additive_monoids holds, and the
monoids, sorted by table, list their forms in sorted order.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import product as iproduct
from typing import Iterator, Optional

from .core import (DEFAULT_MAX_GAMMA, GammaStructure, InputError,
                   ResourceLimitError, _check_order, _default_names,
                   _from_body, _gather, _given_monoid, _nest, _non_commuting,
                   _positive_int, _prevalidated, _relabelings, _slot_maps,
                   canonical_form, mask_size, verify_axioms)
from .ideals import ideal_classes
from .quotient import enumerate_congruences, roundtrip_failures
from .radicals import is_semisimple, jacobson_radical
from .spectrum import connected_components, find_idempotents, is_simple

# counts claimed by the source writeup for gamma_size 1; the report prints
# them next to computed values with a match flag, asserting nothing
CLAIMED_TABLE = {
    2: {"structures": 1, "simple": 1, "semisimple": 1},
    3: {"structures": 3, "simple": 1, "semisimple": 2},
    4: {"structures": 6, "simple": 2, "semisimple": 4},
}


def _check_caps(n: int, m: int) -> None:
    _positive_int(n, "order")
    _positive_int(m, "gamma size")
    _check_order(n)
    if m > DEFAULT_MAX_GAMMA:
        raise ResourceLimitError(
            f"gamma size {m} exceeds cap {DEFAULT_MAX_GAMMA}")


def _backtrack(count: int, domain, ok):
    """The one table-completion search of the package.

    Cells 0..count-1 take values from domain in lexicographic order; after
    cell k lands, ok(vals, k) decides whether to go deeper. The live value
    list is yielded at each completion, once (with no cells) when count is 0.
    It carries one extra trailing 0, so a cell key of -1 reads a pinned zero.

    One generator frame runs the search, stack[k] holding the values left
    for cell k (Knuth, TAOCP 4B, 7.2.2, Algorithm B).
    """
    vals = [0] * (count + 1)
    if not count:
        yield vals
        return
    stack = [iter(domain)]
    while stack:
        k = len(stack) - 1
        for v in stack[k]:
            vals[k] = v
            if ok(vals, k):
                if k + 1 < count:
                    stack.append(iter(domain))
                    break
                yield vals
        else:
            stack.pop()


def _additivity_buckets(count: int, index: dict, dims, adds) -> list:
    """Additivity instances (lhs, r1, r2) of one cube over cells (s0, s1, s2),
    slot i ranging over dims[i] and summed by adds[i].

    index maps each cell to its key: a cell index, or -1 for a cell pinned to
    0. Instances go to the bucket of the last key they read and hold when
    vals[lhs] == op[vals[r1]][vals[r2]]; those that read no free cell drop.
    """
    buckets = [{} for _ in range(count)]  # dicts as ordered sets
    for slot, (d, add) in enumerate(zip(dims, adds)):
        rest = [range(dims[j]) for j in range(3) if j != slot]
        for uv in iproduct(*rest):
            for x in range(d):
                for y in range(x, d):
                    ks = tuple(index[uv[:slot] + (z,) + uv[slot:]]
                               for z in (add[x][y], x, y))
                    if max(ks) >= 0:
                        buckets[max(ks)][ks] = None
    return [tuple(b) for b in buckets]


def _cube_solutions(index: dict, dims, adds, op) -> Iterator[tuple]:
    """Every cube of shape dims whose cells map through index onto free
    values in range(len(op)), additive in each slot; as nested tuples, in
    search order, streamed."""
    count = max(index.values()) + 1
    buckets = _additivity_buckets(count, index, dims, adds)

    def ok(vals, k: int) -> bool:
        for lhs, r1, r2 in buckets[k]:
            if vals[lhs] != op[vals[r1]][vals[r2]]:
                return False
        return True

    keys = tuple(index.values())
    for vals in _backtrack(count, range(len(op)), ok):
        yield _nest(map(vals.__getitem__, keys), dims)


def _checked_first(search):
    """search(n), cached per order, behind _check_caps(n, 1) at every call."""
    cached = lru_cache(maxsize=None)(search)

    @wraps(search)
    def call(n: int) -> tuple:
        _check_caps(n, 1)
        return cached(n)
    return call


@_checked_first
def enumerate_additive_monoids(n: int) -> tuple:
    """Commutative monoid tables with identity at index 0, one per 0-fixing
    relabeling class, ordered by canonical serialization."""
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    table = [None] * (n * n)  # a + b at a*n + b
    table[:n] = table[::n] = range(n)
    units = range(1, n)
    # per cell (a, b): its two positions; the positions of the later cells;
    # its orientations (u, w) as (u, u*n, w, w*n); and the (x*n, y*n) of the
    # sums x + y it holds. Sets, so a cell with a == b has one of each.
    at = [(a * n + b, b * n + a) for a, b in cells]
    later = [[i for pos in at[k + 1:] for i in pos] for k in range(len(cells))]
    turns = [{(a, a * n, b, b * n), (b, b * n, a, a * n)} for a, b in cells]
    pairs = [{(a * n, b * n), (b * n, a * n)} for a, b in cells]

    def ok(vals, k: int) -> bool:
        # Place cell k and clear the later ones, left over from other
        # branches. Then check the triples that read the cell just placed:
        # every other triple whose lookups are all placed was checked when
        # its last lookup landed. The table is symmetric, so (x, y, z) and
        # (z, y, x) state one equation, and it suffices to take the triples
        # that read the cell as u + w, (u + w) + z == u + (w + z), or as
        # s + w with s = x + y = u, (x + y) + w == x + (y + w); the placed
        # cells c <= k with vals[c] == u hold every such x + y. A triple
        # with a 0 in it holds by the identity row, and one with a lookup
        # not placed yet, None, waits for it.
        v = vals[k]
        p, q = at[k]
        table[p] = table[q] = v
        for i in later[k]:
            table[i] = None
        vn = v * n
        for u, un, w, wn in turns[k]:
            for z in units:
                wz = table[wn + z]
                if wz is not None:
                    lhs, rhs = table[vn + z], table[un + wz]
                    if lhs != rhs and lhs is not None and rhs is not None:
                        return False
            for c in range(k + 1):
                if vals[c] == u:
                    for xn, yn in pairs[c]:
                        yw = table[yn + w]
                        if yw is not None:
                            rhs = table[xn + yw]
                            if rhs != v and rhs is not None:
                                return False
        return True

    # seen holds bodies, the addition rows as bytes, which order tables the
    # way tuples of rows do; the least relabeling is the canonical one
    seen = set()
    reps = []
    for _ in _backtrack(len(cells), range(n), ok):
        body = bytes(table)
        if body not in seen:
            images = {_gather(n, 0, inv)(body).translate(t)
                      for inv, t in _relabelings(n)}
            seen |= images
            reps.append(min(images))
    return tuple(_nest(rep, (n, n)) for rep in sorted(reps))


def _orbit_layout(n: int) -> dict:
    """Every cell (a, b, c) of one ternary cube, in lexicographic order,
    mapped to its commutativity orbit, or to -1 when zero absorption pins it.

    The law's swaps (al, be, a, b, c) -> (be, al, b, a, c) and
    -> (al, be, c, b, a) generate every permutation of (a, b, c) together
    with the exchange of al and be, so an orbit is an unordered parameter
    pair, numbered by _pair_grid, with a multiset of three nonzero elements,
    numbered here in the order their least cells appear.
    """
    orbits = {}
    return {cell: -1 if 0 in cell
            else orbits.setdefault(tuple(sorted(cell)), len(orbits))
            for cell in iproduct(range(n), repeat=3)}


def _pair_grid(m: int) -> tuple:
    """grid[al][be]: the unordered pair {al, be}, pairs numbered in the
    order their first cells appear, so (al, be) and (be, al) share one."""
    pairs = {}
    return tuple(tuple(pairs.setdefault(frozenset((al, be)), len(pairs))
                       for be in range(m)) for al in range(m))


def _structures_for_monoid(add, n: int, m: int) -> Iterator[GammaStructure]:
    """Every axiom-passing table over add at m parameters, in the order of
    the product of cube solutions over the positions of _pair_grid(m), the
    first position slowest.

    Associativity composes a row t(a,b,-) of one cube with a map through
    slot 0 of another, and a symmetric cube's slot-0 maps are its rows: so
    a table of cubes that pass at one parameter passes iff the rows of
    every two of its cubes commute.
    """
    names = _default_names(n)

    def structure(gamma: int, tern) -> GammaStructure:
        return _prevalidated(GammaStructure, order=n, gamma_size=gamma,
                             addition=add, ternary=tern, names=names)

    def passes(cube) -> bool:
        return verify_axioms(structure(1, ((cube,),))).passed

    cubes = filter(passes, _cube_solutions(_orbit_layout(n), (n, n, n),
                                           (add,) * 3, add))
    if m == 1:  # one position: each passing cube is a table, streamed
        yield from (structure(1, ((cube,),)) for cube in cubes)
        return
    cubes = list(cubes)
    rows = [_slot_maps(((cube,),), 2) for cube in cubes]
    partners = [set() for _ in cubes]  # the cubes whose rows commute with each
    for j, row in enumerate(rows):
        for i in range(j + 1):
            if not any(_non_commuting(row, rows[i])):
                partners[i].add(j)
                partners[j].add(i)

    def ok(vals, k: int) -> bool:
        return partners[vals[k]].issuperset(vals[:k])

    grid = _pair_grid(m)
    for picks in _backtrack(1 + max(map(max, grid)), range(len(cubes)), ok):
        yield structure(m, tuple(tuple(cubes[picks[p]] for p in row)
                                 for row in grid))


def enumerate_structures(n: int, m: int = 1,
                         addition=None) -> Iterator[GammaStructure]:
    """Every axiom-passing commutative structure, not deduplicated.

    Streams over all additive monoid representatives unless a specific
    addition table is supplied; that table must be a commutative monoid with
    identity 0. The arguments and the caps are checked at the call, before
    any search starts.
    """
    _check_caps(n, m)
    if addition is not None:
        adds = (_given_monoid(addition, n, "addition"),)
    else:
        adds = enumerate_additive_monoids(n)
    return (s for add in adds for s in _structures_for_monoid(add, n, m))


def _enumeration_worker(task) -> tuple:
    """(tables passed, [(canonical form, summary), ...] by form) of one
    additive monoid: one row per relabeling class, its representative
    rebuilt from the form, summarized and dropped with its memo."""
    n, m, monoid_idx = task
    add = enumerate_additive_monoids(n)[monoid_idx]
    forms = [canonical_form(s) for s in _structures_for_monoid(add, n, m)]
    names = _default_names(n)
    # canonical forms derive from validated tables; no second validation
    return len(forms), [(cb, _structure_summary(_from_body(n, m, cb[2:], names)))
                        for cb in sorted(set(forms))]


# ---------------------------------------------------------------------------
# classification

def _structure_summary(s: GammaStructure) -> dict:
    classes = ideal_classes(s)
    return {
        "ideals": len(classes),
        "primes": sum(1 for c in classes if c.prime),
        "semiprimes": sum(1 for c in classes if c.semiprime),
        "maximals": sum(1 for c in classes if c.maximal),
        "jacobson_size": mask_size(jacobson_radical(s)),
        "idempotents": len(find_idempotents(s)),
        "simple": is_simple(s),
        "semisimple": is_semisimple(s),
        "components": len(connected_components(s)),
        "congruences": len(enumerate_congruences(s)),
        "congruence_roundtrip_failures": len(roundtrip_failures(s)),
    }


@dataclass(frozen=True)
class ClassificationReport:
    """The classes of one classify run, in canonical order: each class's
    canonical form and invariant summary, row for row, with the counts.

    It holds no structure. representatives rebuilds each one from its form
    as it is read, so a caller that writes them out holds one at a time.
    """
    order: int
    gamma_size: int
    monoid_count: int
    candidate_count: int
    structure_count: int
    summaries: tuple = field(repr=False)
    canonical_forms: tuple = field(repr=False)  # of the representatives
    complete: bool = True

    @property
    def representatives(self) -> Iterator[GammaStructure]:
        names = _default_names(self.order)
        return (_from_body(self.order, self.gamma_size, cb[2:], names)
                for cb in self.canonical_forms)

    @property
    def claimed(self) -> Optional[dict]:
        if self.gamma_size != 1:
            return None
        return CLAIMED_TABLE.get(self.order)

    @property
    def computed(self) -> dict:
        return {
            "structures": self.structure_count,
            "simple": sum(1 for x in self.summaries if x["simple"]),
            "semisimple": sum(1 for x in self.summaries if x["semisimple"]),
        }

    def comparison(self) -> Optional[dict]:
        claimed = self.claimed
        if claimed is None:
            return None
        computed = self.computed
        return {
            "claimed": claimed,
            "computed": computed,
            "match": {k: claimed[k] == computed[k] for k in sorted(claimed)},
        }

    def to_dict(self) -> dict:
        structures = []
        for idx, (form, summary) in enumerate(zip(self.canonical_forms, self.summaries)):
            structures.append({
                "index": idx,
                "canonical_sha256": hashlib.sha256(form).hexdigest(),
                "summary": summary,
            })
        return {
            "schema_version": 1,
            "kind": "classification",
            "order": self.order,
            "gamma_size": self.gamma_size,
            "monoid_count": self.monoid_count,
            "candidate_count": self.candidate_count,
            "structure_count": self.structure_count,
            "comparison": self.comparison(),
            "complete": self.complete,
            "structures": structures,
        }


def classify(n: int, m: int = 1, jobs: int = 1) -> ClassificationReport:
    """Enumerate, deduplicate by canonical form, and summarize invariants.

    The report content does not depend on the worker count: each task
    returns its monoid's classes, deduplicated, sorted and summarized, and
    no class spans two monoids (see the module docstring), so classify
    concatenates the rows in monoid order and sums the counts.
    """
    _check_caps(n, m)
    if type(jobs) is not int or jobs < 1:
        raise InputError(f"jobs must be positive, got {jobs!r}")
    monoids = enumerate_additive_monoids(n)
    tasks = [(n, m, mi) for mi in range(len(monoids))]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        results = [_enumeration_worker(t) for t in tasks]
    else:
        from multiprocessing import Pool  # about 6 ms of imports, paid only here
        with Pool(workers) as pool:
            results = pool.map(_enumeration_worker, tasks)
    rows = [row for _, chunk in results for row in chunk]
    return ClassificationReport(
        order=n,
        gamma_size=m,
        monoid_count=len(monoids),
        candidate_count=sum(passed for passed, _ in results),
        structure_count=len(rows),
        summaries=tuple(summary for _, summary in rows),
        canonical_forms=tuple(cb for cb, _ in rows),
    )


_SUMMARY_COLUMNS = (
    ("ideals", "ideals"),
    ("primes", "primes"),
    ("semiprimes", "semipr"),
    ("maximals", "maxml"),
    ("jacobson_size", "|J|"),
    ("idempotents", "idemp"),
    ("simple", "simple"),
    ("semisimple", "ssimple"),
    ("components", "comps"),
    ("congruences", "congr"),
    ("congruence_roundtrip_failures", "rtfail"),
)


def render_classification_text(report: ClassificationReport) -> str:
    lines = [
        f"classification order={report.order} gamma={report.gamma_size}",
        f"additive monoids: {report.monoid_count}",
        f"candidates passing axioms: {report.candidate_count}",
        f"non-isomorphic structures: {report.structure_count}",
    ]
    cmp = report.comparison()
    if cmp is not None:
        for key in sorted(cmp["claimed"]):
            verdict = "match" if cmp["match"][key] else "MISMATCH"
            lines.append(
                f"claimed {key}: {cmp['claimed'][key]}"
                f" vs computed {cmp['computed'][key]} ({verdict})")
    header = ["idx"] + [short for _, short in _SUMMARY_COLUMNS]
    rows = [header]
    for idx, summary in enumerate(report.summaries):
        row = [str(idx)]
        for key, _ in _SUMMARY_COLUMNS:
            val = summary[key]
            row.append(("yes" if val else "no") if isinstance(val, bool) else str(val))
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines.append("")
    for r_i, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if r_i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
