"""The ternary tables as the product of one cube's search solutions, the
composition the package used before a table became a join of its passing
cubes; kept as the reference that join and the frozen digests are read
against."""

from itertools import product

from tgs.enumeration import _cube_solutions, _orbit_layout, _pair_grid


def ternary_tables(add, n, m):
    """Every additive ternary table over add at m parameters, cube (al, be)
    the solution at position _pair_grid(m)[al][be]: the product of the
    solutions over the positions, the first position slowest, as nested
    tuples."""
    grid = _pair_grid(m)
    cubes = tuple(_cube_solutions(_orbit_layout(n), (n, n, n), (add,) * 3, add))
    for picks in product(cubes, repeat=1 + max(map(max, grid))):
        yield tuple(tuple(picks[p] for p in row) for row in grid)
