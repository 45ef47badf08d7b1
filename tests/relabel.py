"""The nested-tuple relabel the package used before its byte kernel; kept
as the reference that apply_permutation and the orbit count are read
against."""


def relabel_tables(sigma, addition, ternary=()) -> tuple:
    """(addition, ternary) relabeled by the bijection sigma as nested tuples:
    the entry at [a][b] moves to [sigma[a]][sigma[b]] and its value v becomes
    sigma[v], and likewise for every ternary cube. Leave ternary empty to
    relabel an addition table alone."""
    inv = [0] * len(sigma)
    for a, x in enumerate(sigma):
        inv[x] = a
    add = tuple(tuple(sigma[addition[a][b]] for b in inv) for a in inv)
    tern = tuple(tuple(tuple(tuple(tuple(sigma[cube[a][b][c]] for c in inv)
                                   for b in inv) for a in inv)
                       for cube in layer) for layer in ternary)
    return add, tern
