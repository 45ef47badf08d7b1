"""Differential tests of the byte kernel of tgs.core, the gathers and
translates that relabel, test and project whole tables: canonical forms and
congruences of random tables, which need not pass the axioms, against the
written-out oracles, and apply_permutation against the nested-tuple
relabel."""

import itertools
import random

import pytest

from tgs.core import (GammaStructure, _gather, apply_permutation, canonical_form,
                      zero_fixing_permutations)
from tgs.quotient import (enumerate_congruences, is_congruence, normalize_partition,
                          partition_blocks, quotient_structure)

from oracles import (naive_canonical_form, naive_congruences, naive_partitions,
                     replays_clash)
from relabel import relabel_tables

SHAPES = [(n, m) for n in range(1, 6) for m in (1, 2)]
KINDS = ("uniform", "lifted", "flat")


def random_structure(rng, n, m, kind) -> tuple:
    """(s, p): tables s of shape (n, m), every entry in 0..n-1 and no axiom
    asked for, and the partition p of the lifted kind, or None.

    uniform: every entry drawn alone. lifted: a random partition p is a
    congruence, each entry drawn from the block that a random table on the
    blocks gives the blocks of its arguments. flat: uniform ternary tables
    over the all-zero addition, which every relabeling fixes, so every
    relabeling ties on the addition.
    """
    p = normalize_partition([rng.randrange(n) for _ in range(n)])
    blocks = partition_blocks(p)
    on_blocks = {}

    def draw(key, args):
        if kind != "lifted":
            return rng.randrange(n)
        key += tuple(p[a] for a in args)
        if key not in on_blocks:
            on_blocks[key] = rng.choice(blocks)
        return rng.choice(on_blocks[key])

    r = range(n)
    add = [[0 if kind == "flat" else draw((), (a, b)) for b in r] for a in r]
    tern = [[[[[draw((al, be), (a, b, c)) for c in r] for b in r] for a in r]
             for be in range(m)] for al in range(m)]
    s = GammaStructure(order=n, gamma_size=m, addition=add, ternary=tern)
    return s, p if kind == "lifted" else None


def random_structures(seed: int, n: int, m: int, count: int):
    """count tables (s, p) of each kind, drawn from the seed."""
    rng = random.Random(seed)
    return [random_structure(rng, n, m, kind) for kind in KINDS for _ in range(count)]


@pytest.mark.parametrize("n, m", SHAPES)
def test_canonical_form_equals_oracle(n, m):
    for s, _ in random_structures(3001 + 10 * n + m, n, m, 10):
        assert canonical_form(s) == naive_canonical_form(s)


@pytest.mark.parametrize("n, m", SHAPES)
def test_congruences_equal_oracle(n, m):
    for s, lifted in random_structures(3101 + 10 * n + m, n, m, 10):
        congruences = enumerate_congruences(s)
        assert list(congruences) == naive_congruences(s)
        assert lifted is None or lifted in congruences
        for p in naive_partitions(n):
            verdict = is_congruence(s, p)
            assert verdict.ok == (p in congruences)
            if verdict.ok:
                quotient_structure(s, p)  # refuses a non-congruence
            else:
                assert replays_clash(s, p, verdict.witness), (p, verdict.witness)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_permutation_equals_nested_relabel(n):
    rng = random.Random(3003 + n)
    for m in (1, 2):
        for kind in KINDS:
            s, _ = random_structure(rng, n, m, kind)
            for sigma in zero_fixing_permutations(n):
                moved = apply_permutation(s, sigma)
                add, tern = relabel_tables(sigma, s.addition, s.ternary)
                assert (moved.addition, moved.ternary) == (add, tern)
                assert [moved.names[sigma[a]] for a in range(n)] == list(s.names)
                assert moved == GammaStructure(order=n, gamma_size=m, addition=add,
                                               ternary=tern, names=moved.names)


def test_gathers_read_every_cell_at_every_size():
    # a map of one element reads one addition cell, where an itemgetter of
    # one index returns the int alone; every gather returns bytes
    rng = random.Random(3201)
    for n in (1, 2, 3):
        for m in (0, 1, 2):
            body = bytes(rng.randrange(n) for _ in range(n * n + m * m * n ** 3))
            for k in (1, 2, n):
                for phi in itertools.product(range(n), repeat=k):
                    want = [body[x * n + y] for x, y in itertools.product(phi, repeat=2)]
                    want += [body[n * n + cube * n ** 3 + (x * n + y) * n + z]
                             for cube in range(m * m)
                             for x, y, z in itertools.product(phi, repeat=3)]
                    assert _gather(n, m, phi)(body) == bytes(want)
