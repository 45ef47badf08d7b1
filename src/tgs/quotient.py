"""Congruences and quotient structures.

A congruence is stored as a block-index-per-element tuple in restricted
growth form: block ids appear in order of each block's smallest member, so
the class of 0 is always block 0 and the form doubles as the projection map
onto the quotient's element indices.

One test decides whether a partition is a congruence, for is_congruence,
enumerate_congruences and quotient_structure alike: every addition and
ternary entry must lie in the class of the same entry taken at the block
representatives, the least member of each block (an equivalence is a
congruence iff each operation respects it; Burris and Sankappanavar, A
Course in Universal Algebra, 1981). The quotient's tables are then read at
those representatives.
"""

from __future__ import annotations

from .core import (ConsistencyError, GammaStructure, InputError, Verdict,
                   _INT, _check_bits, _first, _prevalidated, mask_elements,
                   mask_of, memo)

Partition = tuple


def normalize_partition(p) -> Partition:
    """Relabel block ids into restricted growth form (first occurrence order)."""
    # a float or bool label hashes equal to an int and would merge blocks
    if not _INT.issuperset(map(type, p)):
        raise InputError(f"partition labels must be integers, got {list(p)}")
    seen: dict = {}
    out = []
    for v in p:
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out)


def partition_blocks(p: Partition) -> tuple[tuple[int, ...], ...]:
    p = normalize_partition(p)
    blocks = [[] for _ in range(max(p) + 1)]
    for i, v in enumerate(p):
        blocks[v].append(i)
    return tuple(tuple(b) for b in blocks)


def _representative_clash(s: GammaStructure, p: Partition):
    """First entry whose class differs from the same entry taken at the block
    representatives (each block's least member), or None.

    An equivalence is a congruence iff each operation respects it, and that
    holds iff every entry agrees with its representative entry: then related
    arguments reach the same representative entry. One pass, addition first,
    each family in lexicographic argument order, parameters last.
    """
    # loops, not core._first: the parameter loop is skipped at a tuple of
    # representatives, and enumerate_congruences tests every partition
    n, m = s.order, s.gamma_size
    rep = [p.index(v) for v in p]
    add = s.addition
    for a in range(n):
        for b in range(n):
            ra, rb = rep[a], rep[b]
            if p[add[a][b]] != p[add[ra][rb]]:
                return ("add", ra, a, rb, b)
    cubes = [(al, be, s.ternary[al][be]) for al in range(m) for be in range(m)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ra, rb, rc = rep[a], rep[b], rep[c]
                if (ra, rb, rc) == (a, b, c):
                    continue
                for al, be, cube in cubes:
                    if p[cube[a][b][c]] != p[cube[ra][rb][rc]]:
                        return ("tern", ra, a, rb, b, rc, c, al, be)
    return None


def _checked_partition(s: GammaStructure, p) -> Partition:
    if len(p) != s.order:
        raise InputError(f"partition must label {s.order} elements, got {len(p)}")
    return normalize_partition(p)


def is_congruence(s: GammaStructure, p) -> Verdict:
    """Compatibility with addition and with every ternary argument position,
    decided by the representative test of _representative_clash.

    Witnesses name a representative and a member of the same block per
    argument: ("add", ra, a, rb, b) when a+b and ra+rb lie in different
    classes; ("tern", ra, a, rb, b, rc, c, al, be) likewise for the ternary
    product at parameters (al, be). The first clash in scan order is named:
    addition before ternary, arguments in lexicographic order, parameters
    last.
    """
    clash = _representative_clash(s, _checked_partition(s, p))
    return Verdict(True) if clash is None else Verdict(False, clash)


def _iter_rgs(n: int):
    """All restricted growth strings of length n, lexicographically."""
    def rec(prefix, mx):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(mx + 2):
            yield from rec(prefix + [v], max(mx, v))
    yield from rec([0], 0)


def enumerate_congruences(s: GammaStructure) -> tuple[Partition, ...]:
    """All congruences, in lexicographic restricted-growth order; once per structure."""
    return memo(s, "congruences", lambda: tuple(
        p for p in _iter_rgs(s.order) if _representative_clash(s, p) is None))


def bourne_congruence(s: GammaStructure, mask: int) -> Partition:
    """Smallest congruence-like relation identifying a and b when some
    a+i = b+j with i, j in the given ideal; closed transitively (union-find).
    Computed once per structure and mask."""
    _check_bits(s, mask, "subset")
    if not mask & 1:
        raise InputError("bourne congruence needs an ideal containing 0")
    return memo(s, ("bourne", mask), lambda: _bourne_classes(s, mask))


def _bourne_classes(s: GammaStructure, mask: int) -> Partition:
    n = s.order
    members = mask_elements(mask)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    add = s.addition
    for a in range(n):
        reach_a = {add[a][i] for i in members}
        for b in range(a + 1, n):
            if any(add[b][j] in reach_a for j in members):
                union(a, b)
    return normalize_partition(tuple(find(x) for x in range(n)))


def congruence_to_ideal(s: GammaStructure, p) -> int:
    """Bitmask of the class of 0. Whether it is an ideal is the caller's check."""
    p = _checked_partition(s, p)
    return mask_of(i for i, v in enumerate(p) if v == 0)


def roundtrip_failures(s: GammaStructure) -> list:
    """(congruence, bourne congruence of its zero class) for every congruence
    that does not come back to itself, in enumeration order."""
    out = []
    for rho in enumerate_congruences(s):
        back = bourne_congruence(s, congruence_to_ideal(s, rho))
        if back != rho:
            out.append((rho, back))
    return out


def quotient_structure(s: GammaStructure, p) -> GammaStructure:
    """Structure on the blocks: zero class is element 0, the rest ordered by
    smallest member. Raises ConsistencyError when p is not a congruence (the
    representative test of _representative_clash); otherwise every operation
    is read at the block representatives. Built once per structure and
    partition; a non-congruence is refused each time and never stored."""
    p = _checked_partition(s, p)
    return memo(s, ("quotient", p), lambda: _quotient(s, p))


def _quotient(s: GammaStructure, p: Partition) -> GammaStructure:
    clash = _representative_clash(s, p)
    if clash is not None:
        raise ConsistencyError(f"partition {list(p)} is not a congruence: {clash}")
    blocks = partition_blocks(p)
    reps = [block[0] for block in blocks]
    q_add = tuple(tuple(p[s.addition[a][b]] for b in reps) for a in reps)
    q_tern = tuple(tuple(tuple(tuple(tuple(p[cube[a][b][c]] for c in reps)
                                     for b in reps) for a in reps)
                         for cube in layer) for layer in s.ternary)
    names = tuple("{" + ",".join(s.names[i] for i in block) + "}" for block in blocks)
    return _prevalidated(GammaStructure, order=len(blocks), gamma_size=s.gamma_size,
                         addition=q_add, ternary=q_tern, names=names)


def has_nonzero_zero_divisors(s: GammaStructure) -> Verdict:
    """First all-nonzero triple (with parameters) whose product is 0."""
    nz, p = range(1, s.order), range(s.gamma_size)
    found = _first((nz, nz, nz, p, p),
                   lambda a, b, c, al, be: s.ternary[al][be][a][b][c] == 0)
    return Verdict(False) if found is None else Verdict(True, found)
