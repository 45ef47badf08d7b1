"""Ideals of a finite structure: recognition, generation, classification.

Subsets of the carrier travel as int bitmasks (bit i = element i). An ideal
must contain 0, be closed under addition, and absorb ternary products when
any single argument lies in it. Classification predicates return Verdicts
whose witness is the first counterexample in the documented scan order, so
outputs are reproducible; each witness is one core._first call, over the
ranges that give that order.

is_ideal states those axioms with witnesses. enumerate_ideals(s) decides the
same axioms once per structure on every subset containing 0 without a scan
per subset: one pass over the tables gives each element's reach, the mask of
every product it is an argument of, and a subset is an ideal when it holds
the reach of each member and the sum of any two. generated_ideal reads the
least ideal containing a seed from that list instead of closing the seed
itself, so it costs one ideal enumeration per structure (2^(n-1) subsets)
the first time.

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

from .core import (GammaStructure, InputError, Verdict, _check_bits,
                   _closed_subsets, _first, full_mask, mask_elements, mask_of,
                   memo, memoized)


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
    add, t = s.addition, s.ternary
    found = _first((members, members), lambda a, b: not mask >> add[a][b] & 1)
    if found is not None:
        return Verdict(False, ("additive-closure",) + found)
    r, p = range(s.order), range(s.gamma_size)

    def escapes(a, b, c, al, be):  # an argument is in the subset, the product not
        return ((mask >> a & 1 or mask >> b & 1 or mask >> c & 1)
                and not mask >> t[al][be][a][b][c] & 1)

    found = _first((r, r, r, p, p), escapes)
    return Verdict(True) if found is None else Verdict(False, ("absorption",) + found)


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
    """Every ideal, ascending by size then bitmask; once per structure."""
    return memo(s, "ideals", lambda: _ideal_masks(s))


def _ideal_masks(s: GammaStructure) -> tuple[int, ...]:
    """The subsets that contain 0 and pass is_ideal's closure and absorption
    tests, decided on masks: one pass over the tables gives reach[x], the
    mask of every product with x in some argument, at any parameters, and a
    subset absorbs products exactly when it holds the reach of each member."""
    reach = [0] * s.order
    for layer in s.ternary:
        for cube in layer:
            for a, plane in enumerate(cube):
                for b, row in enumerate(plane):
                    row_mask = mask_of(row)
                    reach[a] |= row_mask
                    reach[b] |= row_mask
                    for c, v in enumerate(row):
                        reach[c] |= 1 << v
    return _closed_subsets(reach, s.addition)


def _require_proper(s: GammaStructure, mask: int, what: str) -> list[int]:
    """Refuse a subset that is not a nonempty proper subset of s; else its
    complement, ascending."""
    _check_bits(s, mask, "subset")
    if mask == 0:
        raise InputError("subset is empty")
    if mask == full_mask(s.order):
        raise InputError(f"{what} is only defined for proper subsets")
    return [a for a in range(s.order) if not mask >> a & 1]


def is_prime(s: GammaStructure, mask: int) -> Verdict:
    """Products landing in the subset must have an argument in it.

    Witness (a, b, c, al, be): the product is in the subset, no argument is.
    Scan order: elements (a, b, c) lexicographic, then parameters (al, be).
    """
    out = _require_proper(s, mask, "primeness")
    p, t = range(s.gamma_size), s.ternary
    found = _first((out, out, out, p, p),
                   lambda a, b, c, al, be: mask >> t[al][be][a][b][c] & 1)
    return Verdict(True) if found is None else Verdict(False, found)


def is_semiprime(s: GammaStructure, mask: int) -> Verdict:
    """Cube in the subset forces the element in. Witness (a, al, be)."""
    out = _require_proper(s, mask, "semiprimeness")
    p, t = range(s.gamma_size), s.ternary
    found = _first((out, p, p), lambda a, al, be: mask >> t[al][be][a][a][a] & 1)
    return Verdict(True) if found is None else Verdict(False, found)


def is_maximal(s: GammaStructure, mask: int) -> Verdict:
    """No ideal strictly between the subset and the carrier. Witness (between_mask,)."""
    _require_proper(s, mask, "maximality")
    top = full_mask(s.order)
    found = _first((enumerate_ideals(s),),
                   lambda other: other not in (mask, top) and mask & other == mask)
    return Verdict(True) if found is None else Verdict(False, found)


def is_primary(s: GammaStructure, mask: int) -> Verdict:
    """Product in the subset with first argument outside forces a cube in.

    The cubes use the same (al, be) as the product, exactly as the condition
    is printed. Witness (a, b, c, al, be), in the scan order of is_prime.
    """
    out = _require_proper(s, mask, "primariness")
    r, p, t = range(s.order), range(s.gamma_size), s.ternary

    def bad(a, b, c, al, be):
        cube = t[al][be]
        return (mask >> cube[a][b][c] & 1
                and not (mask >> cube[b][b][b] & 1 or mask >> cube[c][c][c] & 1))

    found = _first((out, r, r, p, p), bad)
    return Verdict(True) if found is None else Verdict(False, found)


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
