"""Congruences and quotient structures.

A congruence is stored as a block-index-per-element tuple in restricted
growth form: block ids appear in order of each block's smallest member, so
the class of 0 is always block 0 and the form doubles as the projection map
onto the quotient's element indices.
"""

from __future__ import annotations

from .core import (ConsistencyError, GammaStructure, InputError, Verdict,
                   mask_elements, memo)

Partition = tuple


def normalize_partition(p) -> Partition:
    """Relabel block ids into restricted growth form (first occurrence order)."""
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


def is_congruence(s: GammaStructure, p) -> Verdict:
    """Compatibility with addition and with every ternary argument position.

    Witnesses: ("add", a, a2, b, b2) for related pairs whose sums separate;
    ("tern", a, a2, b, b2, c, c2, al, be) for related triples whose products
    separate. Scan order is lexicographic within each family, addition first.
    """
    n, m = s.order, s.gamma_size
    if len(p) != n:
        raise InputError(f"partition must label {n} elements, got {len(p)}")
    p = normalize_partition(p)
    add = s.addition
    for a in range(n):
        for a2 in range(n):
            if p[a] != p[a2]:
                continue
            for b in range(n):
                for b2 in range(n):
                    if p[b] != p[b2]:
                        continue
                    if p[add[a][b]] != p[add[a2][b2]]:
                        return Verdict(False, ("add", a, a2, b, b2))
    for a in range(n):
        for a2 in range(n):
            if p[a] != p[a2]:
                continue
            for b in range(n):
                for b2 in range(n):
                    if p[b] != p[b2]:
                        continue
                    for c in range(n):
                        for c2 in range(n):
                            if p[c] != p[c2]:
                                continue
                            for al in range(m):
                                for be in range(m):
                                    if p[s.ternary[al][be][a][b][c]] != \
                                       p[s.ternary[al][be][a2][b2][c2]]:
                                        return Verdict(
                                            False,
                                            ("tern", a, a2, b, b2, c, c2, al, be))
    return Verdict(True)


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
        p for p in _iter_rgs(s.order) if is_congruence(s, p).ok))


def bourne_congruence(s: GammaStructure, mask: int) -> Partition:
    """Smallest congruence-like relation identifying a and b when some
    a+i = b+j with i, j in the given ideal; closed transitively (union-find).
    Computed once per structure and mask."""
    if not mask & 1:
        raise InputError("bourne congruence needs an ideal containing 0")
    if mask >> s.order:
        raise InputError(f"subset {bin(mask)} has bits beyond order {s.order}")
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
    p = normalize_partition(p)
    if len(p) != s.order:
        raise InputError(f"partition must label {s.order} elements, got {len(p)}")
    return sum(1 << i for i, v in enumerate(p) if v == 0)


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
    smallest member. Every operation is recomputed from all representatives;
    representative dependence raises ConsistencyError."""
    n, m = s.order, s.gamma_size
    if len(p) != n:
        raise InputError(f"partition must label {n} elements, got {len(p)}")
    p = normalize_partition(p)
    k = max(p) + 1
    blocks = partition_blocks(p)
    q_add = [[None] * k for _ in range(k)]
    for a in range(n):
        for b in range(n):
            v = p[s.addition[a][b]]
            cell = q_add[p[a]][p[b]]
            if cell is None:
                q_add[p[a]][p[b]] = v
            elif cell != v:
                raise ConsistencyError(
                    f"addition is representative-dependent at classes "
                    f"({p[a]},{p[b]}): {cell} vs {v}")
    q_tern = [[[[[None] * k for _ in range(k)] for _ in range(k)]
               for _ in range(m)] for _ in range(m)]
    for al in range(m):
        for be in range(m):
            cube = s.ternary[al][be]
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        v = p[cube[a][b][c]]
                        cell = q_tern[al][be][p[a]][p[b]][p[c]]
                        if cell is None:
                            q_tern[al][be][p[a]][p[b]][p[c]] = v
                        elif cell != v:
                            raise ConsistencyError(
                                f"ternary product is representative-dependent at "
                                f"classes ({p[a]},{p[b]},{p[c]}) params ({al},{be}): "
                                f"{cell} vs {v}")
    names = tuple("{" + ",".join(s.names[i] for i in block) + "}" for block in blocks)
    return GammaStructure(order=k, gamma_size=m, addition=q_add,
                          ternary=q_tern, names=names)


def kernel_partition(element_map) -> Partition:
    """Partition of the source by fibers of a map (tuple image-per-element)."""
    return normalize_partition(tuple(element_map))


def has_nonzero_zero_divisors(s: GammaStructure) -> Verdict:
    """First all-nonzero triple (with parameters) whose product is 0."""
    n, m = s.order, s.gamma_size
    for a in range(1, n):
        for b in range(1, n):
            for c in range(1, n):
                for al in range(m):
                    for be in range(m):
                        if s.ternary[al][be][a][b][c] == 0:
                            return Verdict(True, (a, b, c, al, be))
    return Verdict(False)
