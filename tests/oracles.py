"""Independent brute-force oracles.

Everything here is written as plain loops over the raw tables, on purpose:
these functions are the reference the optimized implementations are tested
against, so they must not share code with the package. Expected values in
the test files were frozen from these oracles before the implementations
were trusted.
"""

from itertools import permutations, product

from tgs.core import GammaStructure


# ---------------------------------------------------------------------------
# axioms

def naive_axiom_check(s) -> bool:
    n, m = s.order, s.gamma_size
    add, t = s.addition, s.ternary
    for a in range(n):
        if add[0][a] != a or add[a][0] != a:
            return False
        for b in range(n):
            if add[a][b] != add[b][a]:
                return False
            for c in range(n):
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    return False
    for al in range(m):
        for be in range(m):
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        v = t[al][be][a][b][c]
                        if (a == 0 or b == 0 or c == 0) and v != 0:
                            return False
                        if v != t[be][al][b][a][c] or v != t[al][be][c][b][a]:
                            return False
    for al in range(m):
        for be in range(m):
            for ga in range(m):
                for de in range(m):
                    for a in range(n):
                        for b in range(n):
                            for c in range(n):
                                for d in range(n):
                                    for e in range(n):
                                        lhs = t[ga][de][t[al][be][a][b][c]][d][e]
                                        rhs = t[al][be][a][b][t[ga][de][c][d][e]]
                                        if lhs != rhs:
                                            return False
    for al in range(m):
        for be in range(m):
            cube = t[al][be]
            for x in range(n):
                for y in range(n):
                    xy = add[x][y]
                    for b in range(n):
                        for c in range(n):
                            if cube[xy][b][c] != add[cube[x][b][c]][cube[y][b][c]]:
                                return False
                            if cube[b][xy][c] != add[cube[b][x][c]][cube[b][y][c]]:
                                return False
                            if cube[b][c][xy] != add[cube[b][c][x]][cube[b][c][y]]:
                                return False
    return True


# ---------------------------------------------------------------------------
# enumeration

def naive_monoid_tables(n):
    """Every commutative associative table on 0..n-1 with identity 0."""
    out = []
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    for values in product(range(n), repeat=len(cells)):
        add = [[0] * n for _ in range(n)]
        for a in range(n):
            add[0][a] = add[a][0] = a
        for (a, b), v in zip(cells, values):
            add[a][b] = add[b][a] = v
        ok = True
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(tuple(row) for row in add))
    return out


def naive_structures(n, dedup_monoids=False):
    """All axiom-passing (n, m=1) structures by free-cell filtering.

    Any table giving a zero-argument cell a nonzero value fails the zero
    absorption check, so pre-forcing those cells does not change the
    surviving set; the remaining (n-1)^3 cells are swept exhaustively.
    """
    monoids = naive_monoid_tables(n)
    if dedup_monoids:
        monoids = monoids[:1]
    out = []
    cells = [(a, b, c) for a in range(1, n) for b in range(1, n)
             for c in range(1, n)]
    for add in monoids:
        for values in product(range(n), repeat=len(cells)):
            cube = [[[0] * n for _ in range(n)] for _ in range(n)]
            for (a, b, c), v in zip(cells, values):
                cube[a][b][c] = v
            s = GammaStructure(order=n, gamma_size=1,
                               addition=[list(r) for r in add],
                               ternary=[[cube]])
            if naive_axiom_check(s):
                out.append(s)
    return out


def naive_structures_fully(n):
    """Every addition x ternary table pair, all cells free. Tiny n only."""
    out = []
    add_cells = [(a, b) for a in range(n) for b in range(n)]
    tern_cells = [(a, b, c) for a in range(n) for b in range(n)
                  for c in range(n)]
    for avals in product(range(n), repeat=len(add_cells)):
        add = [[0] * n for _ in range(n)]
        for (a, b), v in zip(add_cells, avals):
            add[a][b] = v
        for tvals in product(range(n), repeat=len(tern_cells)):
            cube = [[[0] * n for _ in range(n)] for _ in range(n)]
            for (a, b, c), v in zip(tern_cells, tvals):
                cube[a][b][c] = v
            s = GammaStructure(order=n, gamma_size=1, addition=add,
                               ternary=[[cube]])
            if naive_axiom_check(s):
                out.append(s)
    return out


def canonical_set(structures):
    return {naive_canonical_form(s) for s in structures}


def naive_canonical_form(s) -> bytes:
    """The least serialization over every relabeling that fixes 0, each
    relabeling built whole: the bytes n and m, the addition rows, then the
    rows of each ternary cube, parameter pairs in lexicographic order."""
    n, m = s.order, s.gamma_size
    best = None
    for tail in permutations(range(1, n)):
        sigma = (0,) + tail
        add = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                add[sigma[a]][sigma[b]] = sigma[s.addition[a][b]]
        out = [n, m] + [v for row in add for v in row]
        for al in range(m):
            for be in range(m):
                cube = [[[0] * n for _ in range(n)] for _ in range(n)]
                for a in range(n):
                    for b in range(n):
                        for c in range(n):
                            v = s.ternary[al][be][a][b][c]
                            cube[sigma[a]][sigma[b]][sigma[c]] = sigma[v]
                out += [v for plane in cube for row in plane for v in row]
        if best is None or bytes(out) < best:
            best = bytes(out)
    return best


# ---------------------------------------------------------------------------
# ideals

def naive_ideals(s):
    """Subset scan: additively closed, contains 0, one-argument absorption."""
    n, m = s.order, s.gamma_size
    found = []
    for mask in range(1, 1 << n):
        if not mask & 1:
            continue
        members = [x for x in range(n) if mask >> x & 1]
        ok = True
        for a in members:
            for b in members:
                if not mask >> s.addition[a][b] & 1:
                    ok = False
        for al in range(m):
            for be in range(m):
                cube = s.ternary[al][be]
                for i in members:
                    for x in range(n):
                        for y in range(n):
                            if not (mask >> cube[i][x][y] & 1
                                    and mask >> cube[x][i][y] & 1
                                    and mask >> cube[x][y][i] & 1):
                                ok = False
        if ok:
            found.append(mask)
    return sorted(found)


def naive_generated_ideal(s, seed):
    """Close the seed and 0 under sums and one-argument absorption until
    nothing new arrives."""
    n, m = s.order, s.gamma_size
    cur = seed | 1
    while True:
        nxt = cur
        members = [x for x in range(n) if cur >> x & 1]
        for a in members:
            for b in members:
                nxt |= 1 << s.addition[a][b]
        for al in range(m):
            for be in range(m):
                cube = s.ternary[al][be]
                for i in members:
                    for x in range(n):
                        for y in range(n):
                            nxt |= 1 << cube[i][x][y]
                            nxt |= 1 << cube[x][i][y]
                            nxt |= 1 << cube[x][y][i]
        if nxt == cur:
            return cur
        cur = nxt


def naive_is_prime(s, mask) -> bool:
    """Element form: abc in P implies one of a, b, c in P."""
    n, m = s.order, s.gamma_size
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for al in range(m):
                    for be in range(m):
                        if mask >> s.ternary[al][be][a][b][c] & 1:
                            if not (mask >> a & 1 or mask >> b & 1
                                    or mask >> c & 1):
                                return False
    return True


def naive_is_prime_ideal_triples(s, mask, all_ideals) -> bool:
    """Ideal-triple form: A.B.C inside P forces some factor inside P."""
    n, m = s.order, s.gamma_size
    for ia in all_ideals:
        for ib in all_ideals:
            for ic in all_ideals:
                inside = True
                for a in range(n):
                    if not ia >> a & 1:
                        continue
                    for b in range(n):
                        if not ib >> b & 1:
                            continue
                        for c in range(n):
                            if not ic >> c & 1:
                                continue
                            for al in range(m):
                                for be in range(m):
                                    if not mask >> s.ternary[al][be][a][b][c] & 1:
                                        inside = False
                if inside:
                    if not (ia & ~mask == 0 or ib & ~mask == 0
                            or ic & ~mask == 0):
                        return False
    return True


def naive_radical_by_primes(s, mask):
    n = s.order
    carrier = (1 << n) - 1
    ideals = naive_ideals(s)
    primes = [p for p in ideals if p != carrier and naive_is_prime(s, p)
              and p & mask == mask]
    if not primes:
        return carrier
    out = carrier
    for p in primes:
        out &= p
    return out


# ---------------------------------------------------------------------------
# congruences

def naive_partitions(n):
    """All partitions of 0..n-1 as canonical block-index tuples."""
    if n == 0:
        return [()]
    out = []

    def grow(prefix, used):
        i = len(prefix)
        if i == n:
            out.append(tuple(prefix))
            return
        for b in range(used + 1):
            grow(prefix + [b], used + (1 if b == used else 0))

    grow([], 0)
    return out


def naive_congruences(s):
    """Partition scan with the compatibility conditions written out."""
    n, m = s.order, s.gamma_size
    found = []
    for rho in naive_partitions(n):
        ok = True
        for a in range(n):
            for b in range(n):
                if rho[a] != rho[b]:
                    continue
                for c in range(n):
                    if rho[s.addition[a][c]] != rho[s.addition[b][c]]:
                        ok = False
                for x in range(n):
                    for y in range(n):
                        for al in range(m):
                            for be in range(m):
                                cube = s.ternary[al][be]
                                if (rho[cube[a][x][y]] != rho[cube[b][x][y]]
                                        or rho[cube[x][a][y]] != rho[cube[x][b][y]]
                                        or rho[cube[x][y][a]] != rho[cube[x][y][b]]):
                                    ok = False
        if ok:
            found.append(rho)
    return sorted(found)


def replays_clash(s, p, witness):
    """Whether the witness of a non-congruence p of s holds: its
    representatives are block minima, each paired element shares its
    representative's class, and the two results lie in different classes."""
    kind, *args = witness
    if kind == "add":
        pairs, (x, y) = args, (s.addition, s.addition)
    else:
        pairs, (al, be) = args[:6], args[6:]
        x = y = s.ternary[al][be]
    reps, elems = pairs[0::2], pairs[1::2]
    for r, e in zip(reps, elems):
        if r != p.index(p[r]) or p[r] != p[e]:
            return False
    for i in reps:
        x = x[i]
    for i in elems:
        y = y[i]
    return p[x] != p[y]


# ---------------------------------------------------------------------------
# modules

def naive_module_actions(s, k, madd):
    """All action tables over a carrier monoid, filtered by plain loops."""
    n, m = s.order, s.gamma_size
    # only scalar-zero slots are pinned; a zero in the carrier slot is free
    cells = [(al, be, a, mm, b) for al in range(m) for be in range(m)
             for a in range(1, n) for mm in range(k) for b in range(1, n)]
    out = []
    for values in product(range(k), repeat=len(cells)):
        act = [[[[[0] * n for _ in range(k)] for _ in range(n)]
                for _ in range(m)] for _ in range(m)]
        for (al, be, a, mm, b), v in zip(cells, values):
            act[al][be][a][mm][b] = v
        if _naive_action_ok(s, k, madd, act):
            out.append(act)
    return out


def _naive_action_ok(s, k, madd, act) -> bool:
    n, m = s.order, s.gamma_size
    for al in range(m):
        for be in range(m):
            for a in range(n):
                for mm in range(k):
                    for b in range(n):
                        v = act[al][be][a][mm][b]
                        if (a == 0 or b == 0) and v != 0:
                            return False
    for al in range(m):
        for be in range(m):
            for x in range(n):
                for y in range(n):
                    xy = s.addition[x][y]
                    for mm in range(k):
                        for b in range(n):
                            if act[al][be][xy][mm][b] != madd[act[al][be][x][mm][b]][act[al][be][y][mm][b]]:
                                return False
                            if act[al][be][b][mm][xy] != madd[act[al][be][b][mm][x]][act[al][be][b][mm][y]]:
                                return False
            for m1 in range(k):
                for m2 in range(k):
                    m12 = madd[m1][m2]
                    for a in range(n):
                        for b in range(n):
                            if act[al][be][a][m12][b] != madd[act[al][be][a][m1][b]][act[al][be][a][m2][b]]:
                                return False
    return True


def naive_module_check(a_) -> bool:
    """Every module law of an action, by plain loops: the exchange law
    a (b m c) d = b (a m d) c, which reads action entries only and fails
    most often, then the carrier monoid, additivity in all three slots and
    scalar-slot zero absorption."""
    s, k = a_.scalar, a_.carrier_order
    n, m = s.order, s.gamma_size
    madd, act = a_.carrier_addition, a_.action
    for al in range(m):
        for be in range(m):
            for ga in range(m):
                for de in range(m):
                    for a in range(n):
                        for b in range(n):
                            for c in range(n):
                                for d in range(n):
                                    for mm in range(k):
                                        lhs = act[al][be][a][act[ga][de][b][mm][c]][d]
                                        rhs = act[ga][de][b][act[al][be][a][mm][d]][c]
                                        if lhs != rhs:
                                            return False
    for x in range(k):
        if madd[0][x] != x:
            return False
        for y in range(k):
            if madd[x][y] != madd[y][x]:
                return False
            for z in range(k):
                if madd[madd[x][y]][z] != madd[x][madd[y][z]]:
                    return False
    return _naive_action_ok(s, k, madd, act)


def naive_submodules(a_) -> list:
    """Carrier subsets holding 0, closed under the carrier addition and
    under every a m b with m in the subset, by plain loops over each subset;
    as bitmasks sorted by size, then value."""
    s, k = a_.scalar, a_.carrier_order
    n, m = s.order, s.gamma_size
    madd, act = a_.carrier_addition, a_.action
    out = []
    for mask in range(1 << k):
        members = [x for x in range(k) if mask >> x & 1]
        if 0 not in members:
            continue
        closed = all(madd[x][y] in members for x in members for y in members)
        for al in range(m):
            for be in range(m):
                for a in range(n):
                    for mm in members:
                        for b in range(n):
                            if act[al][be][a][mm][b] not in members:
                                closed = False
        if closed:
            out.append(mask)
    return sorted(out, key=lambda mask: (bin(mask).count("1"), mask))
