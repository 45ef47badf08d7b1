"""Ideals of a finite structure: recognition, generation, classification.

Subsets of the carrier travel as int bitmasks (bit i = element i). An ideal
must contain 0, be closed under addition, and absorb ternary products when
any single argument lies in it. Classification predicates return Verdicts
whose witness is the first counterexample in the documented scan order, so
outputs are reproducible.

is_ideal is the one statement of those axioms. enumerate_ideals(s) applies it
to every subset once per structure, and generated_ideal reads the least ideal
containing a seed from that list instead of closing the seed itself, so it
costs one ideal enumeration per structure (2^(n-1) subsets) the first time.

The four predicates (prime, semiprime, maximal, primary) run on the ideals of
a structure in one place: ideal_classes(s) classifies each ideal once per
structure, and the prime spectrum, the Jacobson radical, the summaries and
the analysis suites read their lists and verdicts from it. Elsewhere they run
only on subsets that need not be in that list: meets, radicals, pullbacks,
ideals of a quotient, and annihilators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (GammaStructure, InputError, Verdict, _check_bits, _first,
                   full_mask, mask_elements, memo, memoized, subset_sort_key)


def is_ideal(s: GammaStructure, mask: int) -> Verdict:
    """Membership, additive closure, and one-argument absorption checks.

    Witnesses: ("missing-zero",), ("additive-closure", a, b),
    ("absorption", a, b, c, al, be) with at least one argument in the subset.
    Once enumerate_ideals(s) is memoized a member of it is answered from the
    list; that list is never computed here, so only a non-ideal, or any
    subset before the list exists, is scanned.
    """
    _check_bits(s, mask, "subset")
    if mask == 0:
        raise InputError("subset is empty")
    if mask in (memoized(s, "ideals") or ()):
        return Verdict(True)
    if not mask & 1:
        return Verdict(False, ("missing-zero",))
    members = mask_elements(mask)
    add = s.addition
    for a in members:
        for b in members:
            if not mask >> add[a][b] & 1:
                return Verdict(False, ("additive-closure", a, b))
    n, m = s.order, s.gamma_size
    # loops, not core._first: the parameter loops are skipped at a tuple with
    # no argument in the subset, and enumerate_ideals tests every subset
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if not (mask >> a & 1 or mask >> b & 1 or mask >> c & 1):
                    continue
                for al in range(m):
                    for be in range(m):
                        if not mask >> s.ternary[al][be][a][b][c] & 1:
                            return Verdict(False, ("absorption", a, b, c, al, be))
    return Verdict(True)


def generated_ideal(s: GammaStructure, seed: int = 0) -> int:
    """Least ideal containing the seed subset, read from enumerate_ideals(s).

    Ideals are closed under intersection and the carrier is one, so the
    least ideal containing the seed exists and every ideal containing the
    seed contains it; the list is sorted by size, then mask, so it is the
    first one there that contains the seed. The first call on a structure
    enumerates its ideals (2^(n-1) subsets, memoized).
    """
    _check_bits(s, seed, "seed")
    return next(i for i in enumerate_ideals(s) if i & seed == seed)


def enumerate_ideals(s: GammaStructure) -> tuple[int, ...]:
    """Every ideal, ascending by size then bitmask. 2^n subset scan, once per structure."""
    return memo(s, "ideals", lambda: tuple(sorted(
        (mask for mask in range(1, 1 << s.order, 2) if is_ideal(s, mask).ok),
        key=subset_sort_key)))


def _require_proper(s: GammaStructure, mask: int, what: str) -> None:
    _check_bits(s, mask, "subset")
    if mask == 0:
        raise InputError("subset is empty")
    if mask == full_mask(s.order):
        raise InputError(f"{what} is only defined for proper subsets")


def is_prime(s: GammaStructure, mask: int) -> Verdict:
    """Products landing in the subset must have an argument in it.

    Witness (a, b, c, al, be): the product is in the subset, no argument is.
    Scan order: elements (a, b, c) lexicographic, then parameters (al, be).
    """
    _require_proper(s, mask, "primeness")
    n, m = s.order, s.gamma_size
    # loops, not core._first: the parameter loops are skipped at a tuple with
    # an argument in the subset, and every ideal of every structure is tested
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mask >> a & 1 or mask >> b & 1 or mask >> c & 1:
                    continue
                for al in range(m):
                    for be in range(m):
                        if mask >> s.ternary[al][be][a][b][c] & 1:
                            return Verdict(False, (a, b, c, al, be))
    return Verdict(True)


def is_semiprime(s: GammaStructure, mask: int) -> Verdict:
    """Cube in the subset forces the element in. Witness (a, al, be)."""
    _require_proper(s, mask, "semiprimeness")
    outside, p = [a for a in range(s.order) if not mask >> a & 1], range(s.gamma_size)
    found = _first((outside, p, p), lambda a, al, be: mask >> s.ternary[al][be][a][a][a] & 1)
    return Verdict(True) if found is None else Verdict(False, found)


def is_maximal(s: GammaStructure, mask: int) -> Verdict:
    """No ideal strictly between the subset and the carrier. Witness (between_mask,)."""
    _require_proper(s, mask, "maximality")
    top = full_mask(s.order)
    for other in enumerate_ideals(s):
        if other != mask and other != top and mask & other == mask:
            return Verdict(False, (other,))
    return Verdict(True)


def is_primary(s: GammaStructure, mask: int) -> Verdict:
    """Product in the subset with first argument outside forces a cube in.

    The cubes use the same (al, be) as the product, exactly as the condition
    is printed. Witness (a, b, c, al, be).
    """
    _require_proper(s, mask, "primariness")
    n, m = s.order, s.gamma_size
    # loops, not core._first: the inner loops are skipped when a lies in the
    # subset, and every ideal of every structure is tested
    for a in range(n):
        if mask >> a & 1:
            continue
        for b in range(n):
            for c in range(n):
                for al in range(m):
                    for be in range(m):
                        cube = s.ternary[al][be]
                        if not mask >> cube[a][b][c] & 1:
                            continue
                        if not (mask >> cube[b][b][b] & 1 or mask >> cube[c][c][c] & 1):
                            return Verdict(False, (a, b, c, al, be))
    return Verdict(True)


@dataclass(frozen=True)
class IdealInfo:
    """Classification of one ideal. Verdicts are None for the whole carrier."""

    mask: int
    proper: bool
    prime: Optional[Verdict]
    semiprime: Optional[Verdict]
    maximal: Optional[Verdict]
    primary: Optional[Verdict]

    def tags(self) -> tuple[str, ...]:
        # a Verdict is truthy iff it holds, and None (the carrier) is falsy
        out = []
        if self.prime:
            out.append("P")
        if self.semiprime:
            out.append("SP")
        if self.maximal:
            out.append("MAX")
        if self.primary:
            out.append("PRI")
        return tuple(out)


def classify_ideal(s: GammaStructure, mask: int) -> IdealInfo:
    proper = mask != full_mask(s.order)
    if not proper:
        return IdealInfo(mask, False, None, None, None, None)
    return IdealInfo(mask, True,
                     prime=is_prime(s, mask),
                     semiprime=is_semiprime(s, mask),
                     maximal=is_maximal(s, mask),
                     primary=is_primary(s, mask))


def ideal_classes(s: GammaStructure) -> tuple[IdealInfo, ...]:
    """classify_ideal over enumerate_ideals(s), in its order; once per structure."""
    return memo(s, "classes", lambda: tuple(
        classify_ideal(s, mask) for mask in enumerate_ideals(s)))


@dataclass(frozen=True)
class IdealLattice:
    """All ideals with covering pairs (indices into .ideals) and classifications."""

    ideals: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]
    info: tuple[IdealInfo, ...]


def ideal_lattice(s: GammaStructure) -> IdealLattice:
    ideals = enumerate_ideals(s)
    covers = []
    for i, lo in enumerate(ideals):
        for j, hi in enumerate(ideals):
            if lo == hi or lo & hi != lo:
                continue
            if any(k not in (i, j) and lo & mid == lo and mid & hi == mid
                   for k, mid in enumerate(ideals)):
                continue
            covers.append((i, j))
    return IdealLattice(ideals=ideals, covers=tuple(sorted(covers)),
                        info=ideal_classes(s))


def spectrum_points(s: GammaStructure) -> tuple[int, ...]:
    """All prime ideals, ascending by size then bitmask."""
    return tuple(info.mask for info in ideal_classes(s) if info.prime)


def _dot(graph: str, prefix: str, labels, edges) -> str:
    """A DOT digraph drawn bottom to top: node prefix<i> carries labels[i]
    with its quotes escaped, and each (i, j) in edges is an edge i -> j."""
    lines = [f"digraph {graph} {{", "  rankdir=BT;"]
    for i, label in enumerate(labels):
        label = label.replace('"', '\\"')
        lines.append(f'  {prefix}{i} [label="{label}"];')
    lines.extend(f"  {prefix}{i} -> {prefix}{j};" for i, j in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def lattice_dot(s: GammaStructure) -> str:
    """Hasse diagram of the ideal lattice in DOT, stable node order."""
    lat = ideal_lattice(s)
    labels = []
    for info in lat.info:
        badges = " ".join(info.tags())
        labels.append(s.set_label(info.mask) + (f"\\n{badges}" if badges else ""))
    return _dot("ideal_lattice", "n", labels, lat.covers)
