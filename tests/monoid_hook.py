"""The associativity hook of the monoid search before its flat table, each
triple read through a holds() call on nested rows and the outer lookup a
walk over every pair of units; kept as the reference that the hook of
enumerate_additive_monoids is read against."""


def associativity_hook(n):
    """(cell count, ok) of the monoid search at order n, the cells (a, b)
    with 1 <= a <= b < n in lexicographic order: ok(vals, k) places cell k
    into a partial table, clears the later cells and checks every triple
    that reads the cell just placed, for _backtrack(count, range(n), ok)."""
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

    return len(cells), ok
