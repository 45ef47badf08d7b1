"""Exhaustive generation of structures of a given order up to isomorphism.

Every table here is completed by one backtracking engine, _backtrack: cells
take values in lexicographic order and a hook accepts or rejects each
placement. Additive monoids come first, with associativity as the hook;
it checks only the triples that read the cell just placed. The first
labeled monoid found of each relabeling class puts all its 0-fixing
relabelings into a set, so every later member of the class costs one set
lookup, and the class keeps the least of them, its canonical form.
Ternary tables follow, filled orbit by orbit: commutativity ties symmetric
cells together, zero absorption pins every cell with a zero argument, and
each distributivity instance is replayed as soon as its last free cell is
placed. gamma_modules fills module actions with the same engine and the
same additivity buckets. Ternary associativity is not a hook: every
completed table goes through the full axiom check, verify_axioms.

classify runs one search task per additive monoid, so each monoid builds
its additivity buckets once. Splitting a monoid further, by the value of its
first ternary cell, rebuilt the buckets in every part: at --jobs 1, the
default and the setting of every benchmark run, that cost about a quarter
of the (4,1) search (76 bucket builds for 19 monoids; 0.24 s against
0.18 s in process on a 2-core x86 host) and paid off only with more workers.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as iproduct
from multiprocessing import Pool
from typing import Iterator, Optional

from .core import (DEFAULT_MAX_GAMMA, GammaStructure, InputError,
                   ResourceLimitError, _addition_images, _check_order,
                   _default_names, _given_monoid, _nest, _prevalidated,
                   _serialize_tables, canonical_form, mask_size,
                   structure_from_bytes, verify_axioms)
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
    if n < 1 or m < 1:
        raise InputError(f"order and gamma size must be positive, got {n}, {m}")
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
    """
    vals = [0] * (count + 1)

    def fill(k: int):
        if k == count:
            yield vals
            return
        for v in domain:
            vals[k] = v
            if ok(vals, k):
                yield from fill(k + 1)

    return fill(0)


def _additivity_buckets(count: int, m: int, index: dict, dims, adds) -> list:
    """Additivity instances (lhs, r1, r2) of a table over cells
    (al, be, s0, s1, s2), slot i ranging over dims[i] and summed by adds[i].

    index maps each cell to its key: a cell index, or -1 for a cell pinned to
    0. Instances go to the bucket of the last key they read and hold when
    vals[lhs] == op[vals[r1]][vals[r2]]; those that read no free cell drop.
    """
    buckets = [{} for _ in range(count)]  # dicts as ordered sets
    for al in range(m):
        for be in range(m):
            for slot, (d, add) in enumerate(zip(dims, adds)):
                rest = [range(dims[j]) for j in range(3) if j != slot]
                for uv in iproduct(*rest):
                    for x in range(d):
                        for y in range(x, d):
                            ks = tuple(index[(al, be) + uv[:slot] + (z,) + uv[slot:]]
                                       for z in (add[x][y], x, y))
                            if max(ks) >= 0:
                                buckets[max(ks)][ks] = None
    return [tuple(b) for b in buckets]


def _additive_tables(index: dict, m: int, dims, adds, op):
    """Every m x m x dims table whose cells map through index onto free
    values in range(len(op)), additive in each slot; as nested tuples, in
    search order."""
    count = max(index.values()) + 1
    buckets = _additivity_buckets(count, m, index, dims, adds)

    def ok(vals, k: int) -> bool:
        for lhs, r1, r2 in buckets[k]:
            if vals[lhs] != op[vals[r1]][vals[r2]]:
                return False
        return True

    keys = tuple(index.values())
    shape = (m, m) + dims
    for vals in _backtrack(count, range(len(op)), ok):
        yield _nest([vals[i] for i in keys], shape)


@lru_cache(maxsize=None)
def enumerate_additive_monoids(n: int) -> tuple:
    """Commutative monoid tables with identity at index 0, one per 0-fixing
    relabeling class, ordered by canonical serialization."""
    _check_caps(n, 1)
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    table = [[None] * n for _ in range(n)]
    for a in range(n):
        table[0][a] = a
        table[a][0] = a

    units = range(1, n)

    def holds(x: int, y: int, z: int) -> bool:
        # (x + y) + z == x + (y + z), or some lookup is not placed yet
        s1, u1 = table[x][y], table[y][z]
        if s1 is None or u1 is None:
            return True
        lhs, rhs = table[s1][z], table[x][u1]
        return lhs is None or rhs is None or lhs == rhs

    def ok(vals, k: int) -> bool:
        # Place cell k and clear the later ones, left over from other
        # branches. Then check the triples that read the cell just placed:
        # every other triple whose lookups are all placed was checked when
        # its last lookup landed. The table is symmetric, so (x, y, z) and
        # (z, y, x) state one equation, and it suffices to take the triples
        # that read the cell as x + y or as s + z with s = x + y. A triple
        # with a 0 in it holds by the identity row.
        for j in range(k, len(cells)):
            a, b = cells[j]
            table[a][b] = table[b][a] = vals[k] if j == k else None
        p, q = cells[k]
        for u, w in ((p, q), (q, p)):
            if not all(holds(u, w, z) for z in units):
                return False
            for x in units:
                for y in units:
                    if table[x][y] == u and not holds(x, y, w):
                        return False
        return True

    # seen holds serializations, far smaller than nested tuples; the least
    # relabeling is the canonical one, as the serialization (n, 0, rows...)
    # orders tables the way tuples of rows do
    seen = set()
    reps = []
    for _ in _backtrack(len(cells), range(n), ok):
        if _serialize_tables(n, 0, table, ()) not in seen:
            images = _addition_images(table)
            seen.update(_serialize_tables(n, 0, g, ()) for g in images)
            reps.append(min(images))
    return tuple(sorted(reps))


@lru_cache(maxsize=None)
def _orbit_layout(n: int, m: int) -> tuple:
    """Every ternary cell (al, be, a, b, c), in lexicographic order, mapped
    to its commutativity orbit, or to -1 when zero absorption pins it. Orbits
    are numbered by their lexicographically least member.
    """
    index = {}
    count = 0
    for cell in iproduct(range(m), range(m), range(n), range(n), range(n)):
        if cell in index:
            continue
        if 0 in cell[2:]:
            index[cell] = -1
            continue
        seen = {cell}
        stack = [cell]
        while stack:
            al, be, a, b, c = stack.pop()
            for img in ((be, al, b, a, c), (al, be, c, b, a)):
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
        for member in seen:
            index[member] = count
        count += 1
    return dict(sorted(index.items()))


def _structures_for_monoid(add, n: int, m: int) -> Iterator[GammaStructure]:
    names = _default_names(n)
    for tern in _additive_tables(_orbit_layout(n, m), m, (n, n, n), (add,) * 3,
                                 add):
        s = _prevalidated(GammaStructure, order=n, gamma_size=m, addition=add,
                          ternary=tern, names=names)
        if verify_axioms(s).passed:
            yield s


def enumerate_structures(n: int, m: int = 1,
                         addition=None) -> Iterator[GammaStructure]:
    """Every axiom-passing commutative structure, not deduplicated.

    Streams over all additive monoid representatives unless a specific
    addition table is supplied; that table must be a commutative monoid with
    identity 0, and it is refused before any search.
    """
    _check_caps(n, m)
    if addition is not None:
        adds = (_given_monoid(addition, n, "addition"),)
    else:
        adds = enumerate_additive_monoids(n)
    for add in adds:
        yield from _structures_for_monoid(add, n, m)


def _enumeration_worker(task) -> list:
    n, m, monoid_idx = task
    add = enumerate_additive_monoids(n)[monoid_idx]
    return [canonical_form(s) for s in _structures_for_monoid(add, n, m)]


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
    order: int
    gamma_size: int
    monoid_count: int
    candidate_count: int
    structure_count: int
    representatives: tuple = field(repr=False)
    summaries: tuple = field(repr=False)
    complete: bool = True

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
        for idx, (s, summary) in enumerate(zip(self.representatives, self.summaries)):
            digest = hashlib.sha256(canonical_form(s)).hexdigest()
            structures.append({
                "index": idx,
                "canonical_sha256": digest,
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

    The report content does not depend on the worker count: workers return
    the canonical form of each structure they find, and a single aggregation
    pass deduplicates and sorts them.
    """
    _check_caps(n, m)
    if jobs < 1:
        raise InputError(f"jobs must be positive, got {jobs}")
    monoids = enumerate_additive_monoids(n)
    tasks = [(n, m, mi) for mi in range(len(monoids))]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        chunks = [_enumeration_worker(t) for t in tasks]
    else:
        with Pool(workers) as pool:
            chunks = pool.map(_enumeration_worker, tasks)
    forms = [cb for chunk in chunks for cb in chunk]
    representatives = tuple(structure_from_bytes(cb) for cb in sorted(set(forms)))
    summaries = tuple(_structure_summary(s) for s in representatives)
    return ClassificationReport(
        order=n,
        gamma_size=m,
        monoid_count=len(monoids),
        candidate_count=len(forms),
        structure_count=len(representatives),
        representatives=representatives,
        summaries=summaries,
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
