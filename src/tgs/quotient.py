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
Course in Universal Algebra, 1981; Freese, "Computing congruences
efficiently", 2008), comparisons of bytes in _respects: the addition's n*n
entries first, as canonical_form does, and the whole body only for a
partition the addition respects, so most partitions cost no ternary gather.
The quotient's tables are read at those representatives. quotient_structure
skips the test for a partition already in the memoized congruence list,
which passed it. A partition already in restricted growth form, as every
listed congruence is, passes normalize_partition as it is.

The Bourne relation of a subset links a and b when the masks {a+i} and
{b+j}, i and j in the subset, meet; its classes are the linked components.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product

from .core import (ConsistencyError, GammaStructure, InputError, Verdict,
                   _INT, _body, _check_bits, _first, _from_body, _gather,
                   _translation, mask_elements, mask_of, memo, memoized)

Partition = tuple


def normalize_partition(p) -> Partition:
    """Relabel block ids into restricted growth form (first occurrence order).
    A tuple already in that form is returned as it is."""
    if not isinstance(p, (list, tuple)) or not p:
        raise InputError(f"a partition must be a nonempty list or tuple, got {p!r}")
    # a float or bool label hashes equal to an int and would merge blocks
    if not _INT.issuperset(map(type, p)):
        raise InputError(f"partition labels must be integers, got {list(p)}")
    if type(p) is tuple and _in_form(p):
        return p
    seen: dict = {}
    out = []
    for v in p:
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out)


def _in_form(p) -> bool:
    """Whether the int labels p are in restricted growth form: each label is
    at least 0 and at most one above every label before it."""
    top = -1
    for v in p:
        if v > top:
            if v != top + 1:
                return False
            top = v
        elif v < 0:
            return False
    return True


def partition_blocks(p: Partition) -> tuple[tuple[int, ...], ...]:
    p = normalize_partition(p)
    blocks = [[] for _ in range(max(p) + 1)]
    for i, v in enumerate(p):
        blocks[v].append(i)
    return tuple(tuple(b) for b in blocks)


def _projection(p: Partition) -> tuple:
    """(each element's block's least member, the translation of p)."""
    return tuple(map(p.index, p)), _translation(p)


def _respects(s: GammaStructure, p: Partition, projection: tuple) -> bool:
    """Whether every entry lies in the class of the same entry taken at the
    block representatives: the body of s and its gather at them, both
    projected through p, are equal. The addition, the first n*n bytes, is
    compared first, and the whole body only if the addition respects p.
    projection is _projection(p)."""
    (rep, onto), body, n = projection, _body(s), s.order
    return (body[:n * n].translate(onto) == _gather(n, 0, rep)(body).translate(onto)
            and body.translate(onto)
            == _gather(n, s.gamma_size, rep)(body).translate(onto))


def _representative_clash(s: GammaStructure, p: Partition) -> tuple:
    """The first entry of a partition that _respects refuses whose class
    differs from the same entry taken at the block representatives: addition
    pairs (a, b), then ternary (a, b, c, al, be), each in lexicographic
    order, parameters last."""
    rep = _projection(p)[0]
    r, q = range(s.order), range(s.gamma_size)

    def entry(args, at):  # the entry at args, each element x read at at[x]
        if len(args) == 2:
            return s.addition[at[args[0]]][at[args[1]]]
        a, b, c, al, be = args
        return s.ternary[al][be][at[a]][at[b]][at[c]]

    (args,) = _first((chain(product(r, r), product(r, r, r, q, q)),),
                     lambda args: p[entry(args, r)] != p[entry(args, rep)])
    moved = tuple(x for a in args[:3] for x in (rep[a], a))
    return ("add",) + moved if len(args) == 2 else ("tern",) + moved + args[3:]


def _checked_partition(s: GammaStructure, p) -> Partition:
    p = normalize_partition(p)
    if len(p) != s.order:
        raise InputError(f"partition must label {s.order} elements, got {len(p)}")
    return p


def is_congruence(s: GammaStructure, p) -> Verdict:
    """Compatibility with addition and with every ternary argument position,
    decided by the representative test of _respects.

    Witnesses name a representative and a member of the same block per
    argument: ("add", ra, a, rb, b) when a+b and ra+rb lie in different
    classes; ("tern", ra, a, rb, b, rc, c, al, be) likewise for the ternary
    product at parameters (al, be). The first clash in scan order is named:
    addition before ternary, arguments in lexicographic order, parameters
    last.
    """
    p = _checked_partition(s, p)
    ok = _respects(s, p, _projection(p))
    return Verdict(True) if ok else Verdict(False, _representative_clash(s, p))


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple:
    """(p, _projection(p)) per restricted growth string p of length n, in lex order."""
    strings = [(0,)]
    for _ in range(n - 1):
        strings = [p + (v,) for p in strings for v in range(max(p) + 2)]
    return tuple((p, _projection(p)) for p in strings)


def enumerate_congruences(s: GammaStructure) -> tuple[Partition, ...]:
    """All congruences, in lexicographic restricted-growth order; once per structure."""
    return memo(s, "congruences", lambda: tuple(
        p for p, projection in _partitions(s.order) if _respects(s, p, projection)))


def bourne_congruence(s: GammaStructure, mask: int) -> Partition:
    """Smallest congruence-like relation identifying a and b when some
    a+i = b+j with i, j in the given ideal; closed transitively.
    Computed once per structure and mask."""
    _check_bits(s, mask, "subset")
    if not mask & 1:
        raise InputError("bourne congruence needs an ideal containing 0")
    return memo(s, ("bourne", mask), lambda: _bourne_classes(s, mask))


def _bourne_classes(s: GammaStructure, mask: int) -> Partition:
    """a and b are linked when their masks {a+i} and {b+j}, i and j in the
    subset, meet; the classes are the linked components, each element
    labeled by the least member of its class until they are renumbered."""
    n = s.order
    members = mask_elements(mask)
    sums = [mask_of(map(row.__getitem__, members)) for row in s.addition]
    label = list(range(n))
    for a in range(n):
        for b in range(a + 1, n):
            if sums[a] & sums[b] and label[a] != label[b]:
                low, high = sorted((label[a], label[b]))
                label = [low if v == high else v for v in label]
    return normalize_partition(tuple(label))


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
    smallest member. Raises ConsistencyError, naming the first clash, when p
    is not a congruence (_respects); otherwise every operation is read at
    the block representatives. A partition in the memoized
    enumerate_congruences(s) is not tested again. Built once per structure
    and partition; a non-congruence is refused each time and never stored."""
    p = _checked_partition(s, p)
    return memo(s, ("quotient", p), lambda: _quotient(s, p))


def _quotient(s: GammaStructure, p: Partition) -> GammaStructure:
    # a partition in the memoized congruence list passed this test there
    if (p not in (memoized(s, "congruences") or ())
            and not _respects(s, p, _projection(p))):
        raise ConsistencyError(f"partition {list(p)} is not a congruence: "
                               f"{_representative_clash(s, p)}")
    blocks = partition_blocks(p)
    # the body of s read at the representatives, its values projected by p
    body = _gather(s.order, s.gamma_size, tuple(b[0] for b in blocks))(_body(s))
    names = tuple("{" + ",".join(s.names[i] for i in block) + "}" for block in blocks)
    return _from_body(len(blocks), s.gamma_size, body.translate(_translation(p)), names)


def has_nonzero_zero_divisors(s: GammaStructure) -> Verdict:
    """First all-nonzero triple (with parameters) whose product is 0."""
    nz, p = range(1, s.order), range(s.gamma_size)
    found = _first((nz, nz, nz, p, p),
                   lambda a, b, c, al, be: s.ternary[al][be][a][b][c] == 0)
    return Verdict(False) if found is None else Verdict(True, found)
