"""Exhaustive generation of structures of a given order up to isomorphism.

Additive monoids come first (backtracking with associativity checked as
entries land), then ternary tables are filled orbit by orbit: commutativity
ties symmetric cells together, zero absorption pins every cell with a zero
argument, and distributivity instances are replayed as soon as their last
free cell is placed. Ternary associativity spans five elements and prunes
poorly, so completed tables go through the full axiom check instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from multiprocessing import Pool
from typing import Iterator, Optional

from .core import (DEFAULT_MAX_GAMMA, GammaStructure, InputError,
                   ResourceLimitError, _serialize_tables, canonical_form,
                   mask_size, max_order, structure_from_bytes, verify_axioms)
from .ideals import classify_ideal, enumerate_ideals, full_mask
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
    if n > max_order():
        raise ResourceLimitError(
            f"order {n} exceeds cap {max_order()} (set TGS_MAX_ORDER to raise)")
    if m > DEFAULT_MAX_GAMMA:
        raise ResourceLimitError(
            f"gamma size {m} exceeds cap {DEFAULT_MAX_GAMMA}")


def _monoid_serial(grid, n: int) -> bytes:
    return bytes(grid[a][b] for a in range(n) for b in range(n))


def _monoid_canonical(grid, n: int) -> bytes:
    from .core import zero_fixing_permutations
    best = None
    for sigma in zero_fixing_permutations(n):
        relab = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                relab[sigma[a]][sigma[b]] = sigma[grid[a][b]]
        cand = _monoid_serial(relab, n)
        if best is None or cand < best:
            best = cand
    return best


@lru_cache(maxsize=None)
def enumerate_additive_monoids(n: int) -> tuple:
    """Commutative monoid tables with identity at index 0, one per 0-fixing
    relabeling class, ordered by canonical serialization."""
    _check_caps(n, 1)
    if n == 1:
        return (((0,),),)
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    table = [[None] * n for _ in range(n)]
    for a in range(n):
        table[0][a] = a
        table[a][0] = a
    found = []

    def assoc_ok() -> bool:
        # checks only triples whose four lookups are already placed
        for x in range(n):
            for y in range(n):
                s1 = table[x][y]
                if s1 is None:
                    continue
                for z in range(n):
                    lhs = table[s1][z]
                    u1 = table[y][z]
                    if lhs is None or u1 is None:
                        continue
                    rhs = table[x][u1]
                    if rhs is not None and lhs != rhs:
                        return False
        return True

    def fill(k: int) -> None:
        if k == len(cells):
            found.append(tuple(tuple(row) for row in table))
            return
        a, b = cells[k]
        for v in range(n):
            table[a][b] = v
            table[b][a] = v
            if assoc_ok():
                fill(k + 1)
        table[a][b] = None
        table[b][a] = None

    fill(0)
    reps = {}
    for grid in found:
        reps.setdefault(_monoid_canonical(grid, n), grid)
    out = []
    for canon in sorted(reps):
        grid = tuple(tuple(canon[a * n + b] for b in range(n)) for a in range(n))
        out.append(grid)
    return tuple(out)


@lru_cache(maxsize=None)
def _orbit_layout(n: int, m: int) -> tuple:
    """Free ternary cells grouped into commutativity orbits.

    Returns (orbits, orbit_of) where orbits is a tuple of cell tuples ordered
    by their lexicographically least member and orbit_of maps cell -> index.
    """
    cells = [(al, be, a, b, c)
             for al in range(m) for be in range(m)
             for a in range(1, n) for b in range(1, n) for c in range(1, n)]
    orbit_of = {}
    orbits = []
    for cell in cells:
        if cell in orbit_of:
            continue
        seen = {cell}
        stack = [cell]
        while stack:
            al, be, a, b, c = stack.pop()
            for img in ((be, al, b, a, c), (al, be, c, b, a)):
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
        idx = len(orbits)
        orbits.append(tuple(sorted(seen)))
        for member in seen:
            orbit_of[member] = idx
    return tuple(orbits), orbit_of


def _cell_key(orbit_of, al, be, a, b, c) -> int:
    # -1 marks a cell pinned to 0 by zero absorption
    if a == 0 or b == 0 or c == 0:
        return -1
    return orbit_of[(al, be, a, b, c)]


def _distributivity_instances(add, n: int, m: int, orbit_of):
    """Constraint triples (lhs, r1, r2) bucketed by the last orbit involved.

    Each key is an orbit index or -1 for a forced-zero cell; the constraint
    reads val(lhs) == add[val(r1)][val(r2)].
    """
    orbit_count = len(set(orbit_of.values())) if orbit_of else 0
    buckets = [[] for _ in range(orbit_count)]
    for al in range(m):
        for be in range(m):
            for x in range(n):
                for y in range(x, n):
                    xy = add[x][y]
                    for u in range(n):
                        for v in range(n):
                            for pos in range(3):
                                if pos == 0:
                                    lhs = _cell_key(orbit_of, al, be, xy, u, v)
                                    r1 = _cell_key(orbit_of, al, be, x, u, v)
                                    r2 = _cell_key(orbit_of, al, be, y, u, v)
                                elif pos == 1:
                                    lhs = _cell_key(orbit_of, al, be, u, xy, v)
                                    r1 = _cell_key(orbit_of, al, be, u, x, v)
                                    r2 = _cell_key(orbit_of, al, be, u, y, v)
                                else:
                                    lhs = _cell_key(orbit_of, al, be, u, v, xy)
                                    r1 = _cell_key(orbit_of, al, be, u, v, x)
                                    r2 = _cell_key(orbit_of, al, be, u, v, y)
                                last = max(lhs, r1, r2)
                                if last >= 0:
                                    buckets[last].append((lhs, r1, r2))
    return buckets


def _structures_for_monoid(add, n: int, m: int,
                           first_value: Optional[int] = None) -> Iterator[GammaStructure]:
    orbits, orbit_of = _orbit_layout(n, m)
    if not orbits:
        if first_value in (None, 0):
            zero_cube = tuple(tuple(tuple(0 for _ in range(n))
                                    for _ in range(n)) for _ in range(n))
            tern = tuple(tuple(zero_cube for _ in range(m)) for _ in range(m))
            s = GammaStructure(order=n, gamma_size=m, addition=add, ternary=tern)
            if verify_axioms(s).passed:
                yield s
        return
    buckets = _distributivity_instances(add, n, m, orbit_of)
    vals = [0] * len(orbits)

    def value(key: int) -> int:
        return 0 if key < 0 else vals[key]

    def build() -> Optional[GammaStructure]:
        tern = [[[[ [0] * n for _ in range(n)] for _ in range(n)]
                 for _ in range(m)] for _ in range(m)]
        for idx, orbit in enumerate(orbits):
            for al, be, a, b, c in orbit:
                tern[al][be][a][b][c] = vals[idx]
        s = GammaStructure(order=n, gamma_size=m, addition=add,
                           ternary=tuple(
                               tuple(
                                   tuple(tuple(tuple(r) for r in plane)
                                         for plane in tern[al][be])
                                   for be in range(m))
                               for al in range(m)))
        return s if verify_axioms(s).passed else None

    def fill(k: int) -> Iterator[GammaStructure]:
        if k == len(orbits):
            s = build()
            if s is not None:
                yield s
            return
        choices = range(n) if not (k == 0 and first_value is not None) \
            else (first_value,)
        for v in choices:
            vals[k] = v
            if all(value(lhs) == add[value(r1)][value(r2)]
                   for lhs, r1, r2 in buckets[k]):
                yield from fill(k + 1)

    yield from fill(0)


def enumerate_structures(n: int, m: int = 1,
                         addition=None) -> Iterator[GammaStructure]:
    """Every axiom-passing commutative structure, not deduplicated.

    Streams over all additive monoid representatives unless a specific
    addition table is supplied.
    """
    _check_caps(n, m)
    if addition is not None:
        adds = (tuple(tuple(row) for row in addition),)
    else:
        adds = enumerate_additive_monoids(n)
    for add in adds:
        yield from _structures_for_monoid(add, n, m)


def _enumeration_worker(task) -> list:
    n, m, monoid_idx, first = task
    add = enumerate_additive_monoids(n)[monoid_idx]
    return [_serialize_tables(n, m, s.addition, s.ternary)
            for s in _structures_for_monoid(add, n, m, first_value=first)]


# ---------------------------------------------------------------------------
# classification

def _structure_summary(s: GammaStructure) -> dict:
    ideals = enumerate_ideals(s)
    top = full_mask(s.order)
    proper = [i for i in ideals if i != top]
    infos = [classify_ideal(s, i) for i in proper]
    return {
        "ideals": len(ideals),
        "primes": sum(1 for i in infos if i.prime.ok),
        "semiprimes": sum(1 for i in infos if i.semiprime.ok),
        "maximals": sum(1 for i in infos if i.maximal.ok),
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
    raw serializations and a single aggregation pass sorts and deduplicates.
    """
    _check_caps(n, m)
    if jobs < 1:
        raise InputError(f"jobs must be positive, got {jobs}")
    monoids = enumerate_additive_monoids(n)
    tasks = [(n, m, mi, v) for mi in range(len(monoids)) for v in range(n)]
    if jobs == 1:
        chunks = [_enumeration_worker(t) for t in tasks]
    else:
        with Pool(jobs) as pool:
            chunks = pool.map(_enumeration_worker, tasks)
    raw = [blob for chunk in chunks for blob in chunk]
    canon = {canonical_form(structure_from_bytes(blob)) for blob in raw}
    representatives = tuple(structure_from_bytes(cb) for cb in sorted(canon))
    summaries = tuple(_structure_summary(s) for s in representatives)
    return ClassificationReport(
        order=n,
        gamma_size=m,
        monoid_count=len(monoids),
        candidate_count=len(raw),
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
