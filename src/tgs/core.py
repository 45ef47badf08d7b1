"""Core representation of finite commutative ternary gamma-semirings.

A structure is a finite carrier {0..n-1} with a commutative monoid addition
(identity at index 0) and a family of ternary products indexed by ordered
parameter pairs (alpha, beta) drawn from a finite parameter set {0..m-1}:

    t(a, alpha, b, beta, c) -> element

Axioms checked by verify_axioms:

    additive_monoid     addition is commutative, associative, has identity 0
    ternary_assoc       t(t(a,al,b,be,c), ga, d, de, e) == t(a, al, b, be, t(c,ga,d,de,e))
    distributive        t is additive in each of the three element arguments
    absorbing_zero      any zero element argument forces the product to 0
    commutative         t(a,al,b,be,c) == t(b,be,a,al,c) == t(c,al,b,be,a)

Witnesses are always the first violating tuple in the documented scan order,
so repeated runs (and independent reimplementations of the same contract)
agree byte for byte. Each law scans its witness tuple lexicographically,
leftmost index slowest: ternary associativity (a, b, c, d, e, al, be, ga,
de); distributivity (x, y, b, c, al, be) at positions 0, 1, 2 in turn; zero
absorption and commutativity (a, b, c, al, be), commutativity testing
swap01 before swap02 at each tuple; the additive monoid tests identity (0 + a
before a + 0 at each a), then commutativity, then associativity.

One helper, _first, is that scan: the first tuple of a product of ranges,
leftmost range slowest, that a test picks out; _violation and
_monoid_violation wrap it, and every law's witness is one call of them, as
is every witness of the ideal predicates and of a partition that is not a
congruence (quotient._representative_clash). Whole tables are relabeled,
tested and projected as bytes, by one gather and one translate each.

verify_axioms returns a report that is evaluated as it is read. Its passed
decides each law on whole maps or planes, at most once per report: ternary
associativity first, the one law the cube searches do not build in, then
the others only if it holds. It stops at the first law that fails and never
scans for a witness. Each decision reads the structure alone; all but zero
absorption extract the distinct maps through the element slots they need,
with _slot_maps:

    ternary_assoc       L = t(a,al,b,be,-) and R = t(-,ga,d,de,e) as maps on
                        elements must commute; _non_commuting tests the
                        distinct Ls against the distinct Rs up to the first
                        L that fails
    distributive        each distinct map x -> t(..x..) through a slot must
                        be additive
    absorbing_zero      every cell with a zero argument must hold 0, read
                        off each cube's cells, no maps built
    commutative         whole planes must equal their transposes
    additive_monoid     decided on its rows as maps

A report holds its subject and the verdicts decided so far; the table
_LAWS of its class gives each law's decision and scan. A law's field is
computed when first read, and kept; its scan runs only if the law failed.
The ternary associativity scan finds the failing Ls again, in (a, b) order,
and starts at the first (a, b) with one, where its first witness lies;
every other scan runs its whole order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, permutations, product
from json.encoder import encode_basestring_ascii as _json_str
from operator import and_, itemgetter, ne
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

DEFAULT_MAX_ORDER = 5
DEFAULT_MAX_GAMMA = 2


class InputError(ValueError):
    """Malformed input: bad tables, bad indices, bad files."""


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds the configured size caps."""


class ConsistencyError(RuntimeError):
    """Internal invariant broke mid-computation (e.g. representative-dependent quotient)."""


def max_order() -> int:
    """Enumeration order cap; TGS_MAX_ORDER overrides the default of 5."""
    raw = os.environ.get("TGS_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"TGS_MAX_ORDER must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InputError(f"TGS_MAX_ORDER must be >= 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# element subsets as bitmasks

def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def mask_elements(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def mask_size(mask: int) -> int:
    return mask.bit_count()


def subset_sort_key(mask: int) -> tuple[int, int]:
    # ascending by size, ties by bitmask value
    return (mask.bit_count(), mask)


def _closed_subsets(reach, add) -> tuple:
    """The subsets of range(len(reach)) that contain 0, hold reach[x] for
    each member x and are closed under add, as bitmasks sorted by
    subset_sort_key."""
    out = []
    for mask in range(1, 1 << len(reach), 2):
        members = mask_elements(mask)
        if (all(reach[x] | mask == mask for x in members)
                and all(mask >> add[x][y] & 1 for x in members for y in members)):
            out.append(mask)
    return tuple(sorted(out, key=subset_sort_key))


def _meet(s, masks) -> int:
    """Intersection of the given subsets of s; the whole carrier if none."""
    return reduce(and_, masks, full_mask(s.order))


def _check_order(n: int, what: str = "order") -> None:
    """Refuse an order above max_order(): the exhaustive routines grow
    exponentially in it."""
    if n > max_order():
        raise ResourceLimitError(
            f"{what} {n} exceeds cap {max_order()} (set TGS_MAX_ORDER to raise)")


def _check_bits(s, mask: int, what: str) -> None:
    """Refuse a subset of s that is not an int bitmask (a bool or a float is
    not one) or that names elements beyond its order."""
    if type(mask) is not int:
        raise InputError(f"{what} must be an integer bitmask, got {mask!r}")
    if mask >> s.order:
        raise InputError(f"{what} {bin(mask)} has bits beyond order {s.order}")


# ---------------------------------------------------------------------------
# verdicts and witnesses

@dataclass(frozen=True)
class Violation:
    """One failed law instance. args is the scan tuple; lhs/rhs the two sides."""

    law: str
    args: tuple
    lhs: int
    rhs: int

    def to_dict(self) -> dict:
        return {"law": self.law, "args": list(self.args),
                "lhs": self.lhs, "rhs": self.rhs}


class Verdict(NamedTuple):
    """Boolean outcome plus the first counterexample tuple, if any."""

    ok: bool
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def _first(ranges, bad) -> Optional[tuple]:
    """The first args of product(*ranges), leftmost range slowest, for which
    bad(*args) holds, or None: the one first-witness scan."""
    return next((args for args in product(*ranges) if bad(*args)), None)


def _violation(law: str, ranges, sides) -> Optional[Violation]:
    """The Violation of law at the first args, in the order of _first, whose
    two sides, the pair sides(*args), differ; None if none do."""
    args = _first(ranges, lambda *args: ne(*sides(*args)))
    return None if args is None else Violation(law, args, *sides(*args))


class _LawReport:
    """Base of the per-law reports. _LAWS maps each law field, in to_dict
    order, to (decide, scan): decide(subject) reads maps only and returns
    whether the law fails, and scan(subject) then finds its first Violation.
    A field holds that Violation, or None; it is computed on its first read
    and kept in the instance dict. A report decides each law at most once.
    passed decides the laws in _ORDER, the law no constructor builds in
    first, stops at the first that fails and never scans for a witness.
    _KEYS is the to_dict key order, "passed" included. Reports are
    read-only."""

    def __init__(self, subject):
        vars(self).update(_subject=subject, _fails={})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def _decide(self, name: str) -> bool:
        fails = self._fails
        if name not in fails:
            fails[name] = self._LAWS[name][0](self._subject)
        return fails[name]

    def __getattr__(self, name):
        if name not in self._LAWS:
            raise AttributeError(name)
        value = self._LAWS[name][1](self._subject) if self._decide(name) else None
        self.__dict__[name] = value
        return value

    def failures(self) -> tuple:
        """The violations found, in the order of _LAWS."""
        return tuple(v for v in (getattr(self, name) for name in self._LAWS)
                     if v is not None)

    @property
    def passed(self) -> bool:
        return not any(map(self._decide, self._ORDER))

    def to_dict(self) -> dict:
        out = {}
        for name in self._KEYS:
            v = getattr(self, name)
            out[name] = v.to_dict() if isinstance(v, Violation) else v
        return out


# ---------------------------------------------------------------------------
# the structure itself

def memo(s, key, compute):
    """compute() once per structure; later calls return the stored value.

    The store lives in the structure's own __dict__ and is not a dataclass
    field, so ==, hash and repr ignore it and it is freed with the structure.
    Every caller shares the value, so it must be immutable.
    """
    store = s.__dict__.setdefault("_memo", {})
    if key not in store:
        store[key] = compute()
    return store[key]


def memoized(s, key):
    """The value memo(s, key, ...) stored, or None before its first call."""
    return s.__dict__.get("_memo", {}).get(key)


_INT = {int}  # exact type: bools and floats are not table entries


def _positive_int(v, what: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise InputError(f"{what} must be a positive integer, got {v!r}")
    return v


def _as_list(x, length: int, what: str, unit: str = "entries"):
    if not isinstance(x, (list, tuple)):
        raise InputError(f"{what} must be a list, got {type(x).__name__}")
    if len(x) != length:
        raise InputError(f"{what} must have {length} {unit}, got {len(x)}")
    return x


def _as_grid(rows, n: int, what: str,
             width: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    """n rows of width (default n) integers, each in 0..n-1, as nested tuples.

    Every table given from outside passes through here, through a
    constructor or as a search's given addition; the tables the searches
    build skip it through _prevalidated. A good row costs two set checks and
    formats no message.
    """
    _as_list(rows, n, what, "rows")
    width = n if width is None else width
    valid = set(range(n))
    out = []
    for i, row in enumerate(rows):
        if not (isinstance(row, (list, tuple)) and len(row) == width
                and _INT.issuperset(map(type, row)) and valid.issuperset(row)):
            _as_list(row, width, f"{what} row {i}")
            j = next(j for j, v in enumerate(row) if type(v) is not int or v not in valid)
            raise InputError(f"{what}[{i}][{j}] = {row[j]!r} is not an integer in 0..{n - 1}")
        out.append(tuple(row))
    return tuple(out)


def _as_layers(layers, m: int, n: int, k: int, what: str) -> tuple:
    """m x m parameter layers of n planes, each k rows of n entries in 0..k-1."""
    out = []
    for al, layer in enumerate(_as_list(layers, m, what, "alpha-layers")):
        cubes = []
        for be, cube in enumerate(_as_list(layer, m, f"{what}[{al}]", "beta-layers")):
            where = f"{what}[{al}][{be}]"
            cubes.append(tuple(_as_grid(plane, k, f"{where}[{a}]", width=n)
                               for a, plane in enumerate(_as_list(cube, n, where, "planes"))))
        out.append(tuple(cubes))
    return tuple(out)


def _prevalidated(cls, **fields):
    """An instance of the frozen dataclass cls with its fields set as given,
    skipping __post_init__. Only for tables already in the validated form:
    nested tuples of in-range ints, names filled in, as a search builds them
    or as they derive from validated tables (a quotient reads its parent's
    entries through a partition into range). Equal to what the validating
    constructor returns for the same tables."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _default_names(n: int) -> tuple:
    return tuple(str(i) for i in range(n))


@dataclass(frozen=True)
class GammaStructure:
    """Operation tables for one finite structure. Hashable; tables are nested tuples.

    addition[a][b] and ternary[alpha][beta][a][b][c] are element indices.
    Construction validates shapes and ranges only; axioms are a separate check.
    """

    order: int
    gamma_size: int
    addition: tuple
    ternary: tuple
    names: tuple = ()

    def __post_init__(self):
        n = _positive_int(self.order, "order")
        m = _positive_int(self.gamma_size, "gamma size")
        object.__setattr__(self, "addition", _as_grid(self.addition, n, "addition"))
        object.__setattr__(self, "ternary", _as_layers(self.ternary, m, n, n, "ternary"))
        if self.names in ((), []):
            names = _default_names(n)
        else:
            names = tuple(str(x) for x in _as_list(self.names, n, "names"))
        object.__setattr__(self, "names", names)

    def is_additive_group(self) -> bool:
        return all(0 in row for row in self.addition)

    def set_label(self, mask: int) -> str:
        return "{" + ",".join(self.names[i] for i in mask_elements(mask)) + "}"


def ternary_product(s: GammaStructure, a: int, alpha: int, b: int, beta: int, c: int) -> int:
    """Table lookup; every index must be an int in range."""
    n, m = s.order, s.gamma_size
    for name, v, hi in (("a", a, n), ("b", b, n), ("c", c, n),
                        ("alpha", alpha, m), ("beta", beta, m)):
        if type(v) is not int or not 0 <= v < hi:
            raise InputError(f"{name} = {v!r} is not an integer in 0..{hi - 1}")
    return s.ternary[alpha][beta][a][b][c]


# ---------------------------------------------------------------------------
# axiom verification

def _is_commutative_monoid(add) -> bool:
    """Whether the table add (nested tuples) is a commutative monoid with
    identity 0: row 0 is the identity, add equals its transpose, and row
    a + b is (a + -)∘(b + -), which holds already when a or b is 0."""
    k = len(add)
    return (add[0] == tuple(range(k)) and add == tuple(zip(*add))
            and all(add[add[a][b]] == tuple(map(add[a].__getitem__, add[b]))
                    for a in range(1, k) for b in range(1, k)))


def _given_monoid(rows, n: int, what: str) -> tuple:
    """A search's given addition; refused unless a commutative monoid with
    identity 0, where replaying additivity for y >= x covers y < x too."""
    add = _as_grid(rows, n, what)
    if not _is_commutative_monoid(add):
        raise InputError(f"{what} must be a commutative monoid with identity 0")
    return add


def _monoid_violation(add, prefix: str) -> Optional[Violation]:
    """The first commutativity, then associativity, violation of the addition
    table add over pairs (a, b) and triples (a, b, c), its law named
    f"{prefix}-commutativity" or f"{prefix}-associativity"."""
    r = range(len(add))
    return (_violation(f"{prefix}-commutativity", (r, r),
                       lambda a, b: (add[a][b], add[b][a]))
            or _violation(f"{prefix}-associativity", (r, r, r),
                          lambda a, b, c: (add[add[a][b]][c], add[a][add[b][c]])))


def _check_additive_monoid(s: GammaStructure) -> Violation:
    add = s.addition
    # at each a, 0 + a then a + 0, each of which must give a
    pairs = [xy for a in range(s.order) for xy in ((0, a), (a, 0))]
    hit = _first((pairs,), lambda xy: add[xy[0]][xy[1]] != sum(xy))
    if hit:
        (x, y), = hit
        return Violation("additive-identity", (x, y), add[x][y], x + y)
    return _monoid_violation(add, "additive")


def _moves_zero(layers, slots) -> bool:
    """Whether some cube in layers has a nonzero cell with a 0 in one of the
    given slots: in its plane cube[0] for slot 0, a row cube[x][0] for slot
    1, or at cube[x][y][0] for slot 2."""
    cubes = [cube for layer in layers for cube in layer]
    return any(any(map(any, cube[0])) if slot == 0
               else any(any(plane[0]) for plane in cube) if slot == 1
               else any(row[0] for plane in cube for row in plane)
               for slot in slots for cube in cubes)


def _check_absorbing_zero(s: GammaStructure) -> Violation:
    t = s.ternary
    r, p = range(s.order), range(s.gamma_size)
    return _violation("absorbing-zero", (r, r, r, p, p), lambda a, b, c, al, be: (
        0 if a and b and c else t[al][be][a][b][c], 0))


def _non_additive(maps, dom, cod) -> bool:
    """Whether some map f among maps (tuples indexed by the elements of dom)
    has f(x + y) != f(x) + f(y) for some x, y, the sums taken in the addition
    tables dom and cod; it stops at the first such f. f is additive when
    f∘dom[x] == cod[f(x)]∘f as maps of y, for every x."""
    shifts = [itemgetter(*row) for row in dom]  # shifts[x](f) is f∘dom[x]

    def additive(f) -> bool:
        after = itemgetter(*f)  # after(g) is g∘f
        return all(shift(f) == after(cod[fx]) for shift, fx in zip(shifts, f))

    return not all(map(additive, maps))


def _non_commuting(lefts, rights) -> Iterator[tuple]:
    """The maps f among lefts that fail to commute with some map g among
    rights, f∘g != g∘f; all are tuples indexed by one set. They are yielded
    as lefts is read, so next() stops at the first failing map. Ternary
    associativity is decided with it: lefts are t(a,al,b,be,-), rights
    t(-,ga,d,de,e)."""
    rights = [(g, itemgetter(*g)) for g in rights]  # (g, h with h(f) = f∘g)

    def commutes(f) -> bool:
        after = itemgetter(*f)  # after(g) is g∘f
        return all(before(f) == after(g) for g, before in rights)

    return (f for f in lefts if not commutes(f))


def _slot_maps(layers, slot: int) -> set:
    """The distinct maps through one slot of the cubes in the parameter
    layers: x -> cube[x][b][c] for slot 0, x -> cube[a][x][c] for slot 1
    and x -> cube[a][b][x] for slot 2."""
    cubes = [cube for layer in layers for cube in layer]
    if slot == 0:
        return {f for cube in cubes for rows in zip(*cube) for f in zip(*rows)}
    if slot == 1:
        return {f for cube in cubes for plane in cube for f in zip(*plane)}
    return {row for cube in cubes for plane in cube for row in plane}


def _check_distributive(s: GammaStructure) -> Violation:
    add = s.addition
    t = s.ternary

    def sides(pos, x, y, b, c, al, be):
        # position 0: t(x+y, b, c) == t(x,b,c) + t(y,b,c), then positions 1 and 2
        cube = t[al][be]
        lhs, fx, fy = ((cube[v][b][c], cube[b][v][c], cube[b][c][v])[pos]
                       for v in (add[x][y], x, y))
        return lhs, add[fx][fy]

    r, p = range(s.order), range(s.gamma_size)
    pos, *args = _first((range(3), r, r, r, r, p, p), lambda *args: ne(*sides(*args)))
    return Violation(f"distributivity-{pos}", tuple(args), *sides(pos, *args))


def _check_ternary_assoc(s: GammaStructure) -> Violation:
    t = s.ternary
    r, p = range(s.order), range(s.gamma_size)
    # With L = t(a,al,b,be,-) and R = t(-,ga,d,de,e) as maps on elements, the
    # law reads L∘R == R∘L. The verdict keeps no map, so the failing Ls are
    # found here, in (a, b) order: no (a, b) before the first with a failing
    # L has a witness, and that one has, so the scan starts there. Scanning
    # from (0, 0) instead finds the same witness, but it made the test
    # test_frozen_witnesses_at_gamma_2_and_order_5 take 4.5 s, against 1.7 s
    # (2-core Xeon, Python 3.11).
    rights = _slot_maps(t, 0)
    a, b = _first((r, r), lambda a, b: any(_non_commuting(
        (t[al][be][a][b] for al in p for be in p), rights)))
    return _violation("ternary-associativity", ((a,), (b,), r, r, r, p, p, p, p),
                      lambda a, b, c, d, e, al, be, ga, de: (
                          t[ga][de][t[al][be][a][b][c]][d][e],
                          t[al][be][a][b][t[ga][de][c][d][e]]))


def _asymmetric(s: GammaStructure) -> bool:
    """Whether t breaks commutativity. swap01 holds when cube (al, be) is cube
    (be, al) with its first two indices transposed; swap02 when, at each b,
    the plane (a, c) -> t(a,b,c) is symmetric."""
    n, m = s.order, s.gamma_size
    t = s.ternary
    at_b = [tuple(plane[b] for plane in cube) for layer in t for cube in layer
            for b in range(n)]
    return not (all(t[al][be] == tuple(zip(*t[be][al]))
                    for al in range(m) for be in range(m))
                and all(p == tuple(zip(*p)) for p in at_b))


def _check_commutative(s: GammaStructure) -> Violation:
    t = s.ternary

    def sides(a, b, c, al, be):  # t(a,b,c), its swap01 and its swap02
        return t[al][be][a][b][c], t[be][al][b][a][c], t[al][be][c][b][a]

    r, p = range(s.order), range(s.gamma_size)
    args = _first((r, r, r, p, p), lambda *args: len(set(sides(*args))) > 1)
    v, w01, w02 = sides(*args)
    # at one tuple swap01 is blamed before swap02
    if v != w01:
        return Violation("commutativity-swap01", args, v, w01)
    return Violation("commutativity-swap02", args, v, w02)


class AxiomReport(_LawReport):
    """Per-axiom verdicts; None means the axiom holds."""

    _LAWS = {
        "additive_monoid": (
            lambda s: not _is_commutative_monoid(s.addition), _check_additive_monoid),
        "ternary_assoc": (
            lambda s: any(_non_commuting(_slot_maps(s.ternary, 2), _slot_maps(s.ternary, 0))),
            _check_ternary_assoc),
        "distributive": (
            lambda s: _non_additive(_slot_maps(s.ternary, 0) | _slot_maps(s.ternary, 1)
                                    | _slot_maps(s.ternary, 2), s.addition, s.addition),
            _check_distributive),
        "absorbing_zero": (
            lambda s: _moves_zero(s.ternary, (0, 1, 2)), _check_absorbing_zero),
        "commutative": (_asymmetric, _check_commutative),
    }
    _ORDER = ("ternary_assoc", "additive_monoid", "distributive",
              "absorbing_zero", "commutative")
    _KEYS = ("passed", *_LAWS)

    def failures(self) -> list[Violation]:
        return list(super().failures())


def verify_axioms(s: GammaStructure) -> AxiomReport:
    """The axiom report of s: passed decides every axiom on maps; a field,
    the first lex witness of one axiom, is scanned when first read."""
    return AxiomReport(s)


# ---------------------------------------------------------------------------
# relabeling and canonical form: the byte kernel
#
# A structure's tables, serialized, are its body: the addition rows, then the
# rows of each ternary cube, parameter pairs in lexicographic order; bytes,
# one per entry. Every whole-table relabel and projection reads a body with
# one gather and maps its values with one translate: relabeling by sigma is
# the gather of sigma^-1, then the translate of sigma (canonical_form,
# apply_permutation, the monoid dedup of the search); a partition p is a
# congruence iff the body projected through p equals its gather at the block
# representatives, projected through p, and that gather at the
# representatives alone, projected, is the quotient (quotient._respects).

def _serialize_tables(order, gamma_size, addition, ternary) -> bytes:
    """The bytes order and gamma_size, then the body of the tables."""
    cells = chain.from_iterable
    return bytes(chain((order, gamma_size), cells(addition),
                       cells(cells(cells(cells(ternary))))))


def _body(s: GammaStructure) -> bytes:
    """The body of s's tables; once per structure."""
    return memo(s, "body", lambda: _serialize_tables(
        s.order, s.gamma_size, s.addition, s.ternary)[2:])


def _from_body(n: int, m: int, body: bytes, names: tuple) -> GammaStructure:
    """The structure of shape (n, m) whose tables serialize to body, built
    without validation: only for a body read from validated tables."""
    return _prevalidated(GammaStructure, order=n, gamma_size=m, names=names,
                         addition=_nest(body[:n * n], (n, n)),
                         ternary=_nest(body[n * n:], (m, m, n, n, n)))


# Keyed by shape and carrier map, never by a table. At the default caps,
# order 5 and gamma 2, every gather the package asks for fits, about 300;
# past them the least recently used are built again.
@lru_cache(maxsize=1024)
def _gather(n: int, m: int, phi: tuple):
    """The gather of the carrier map phi on bodies of shape (n, m), m = 0 for
    the addition alone: the body of shape (len(phi), m) whose entry at each
    argument tuple x is the entry at phi(x), as bytes."""
    cells = [x * n + y for x, y in product(phi, repeat=2)]
    for cube in range(m * m):
        base = n * n + cube * n ** 3
        cells += [base + (x * n + y) * n + z for x, y, z in product(phi, repeat=3)]
    get = itemgetter(*cells)
    if len(cells) == 1:  # an itemgetter of one index returns the int alone
        return lambda body: bytes((get(body),))
    return lambda body: bytes(get(body))


def _translation(phi) -> bytes:
    """The bytes.translate table that maps each value v < len(phi) to phi[v]."""
    return bytes(phi).ljust(256, b"\0")


@lru_cache(maxsize=None)
def _relabelings(n: int) -> tuple:
    """(sigma^-1, the translation of sigma) for each 0-fixing sigma of order n,
    in the order of zero_fixing_permutations: what a relabeling reads."""
    return tuple((tuple(sorted(range(n), key=sigma.__getitem__)), _translation(sigma))
                 for sigma in zero_fixing_permutations(n))


def apply_permutation(s: GammaStructure, sigma: Sequence[int]) -> GammaStructure:
    """Relabel elements by sigma (a bijection with sigma[0] == 0); names travel along."""
    n, m = s.order, s.gamma_size
    if not isinstance(sigma, (list, tuple)):
        raise InputError(f"sigma must be a list or tuple, got {sigma!r}")
    sigma = tuple(sigma)
    if (len(sigma) != n or not _INT.issuperset(map(type, sigma))
            or sorted(sigma) != list(range(n))):
        raise InputError(f"sigma must be a permutation of 0..{n - 1}, got {sigma}")
    if sigma[0] != 0:
        raise InputError("sigma must fix the zero element")
    inverse = tuple(sorted(range(n), key=sigma.__getitem__))
    return _from_body(n, m, _gather(n, m, inverse)(_body(s)).translate(_translation(sigma)),
                      tuple(s.names[a] for a in inverse))


def zero_fixing_permutations(n: int):
    for tail in permutations(range(1, n)):
        yield (0,) + tail


def canonical_form(s: GammaStructure) -> bytes:
    """Lexicographically minimal table serialization over all 0-fixing relabelings.

    Parameters are treated as labeled: gamma permutations do not act.

    The addition comes first in the serialization, after the header that
    every relabeling shares. So every relabeling gathers the addition alone,
    and only those whose addition is least, usually 1 or 2 of the (n-1)!,
    gather the whole body.
    """
    n, m, body = s.order, s.gamma_size, _body(s)
    relabelings = _relabelings(n)
    adds = [_gather(n, 0, inv)(body).translate(t) for inv, t in relabelings]
    least = min(adds)
    return bytes((n, m)) + min(_gather(n, m, inv)(body).translate(t)
                               for (inv, t), add in zip(relabelings, adds) if add == least)


def _nest(flat, shape) -> tuple:
    """The row-major sequence flat as nested tuples of the given shape, whose
    dimensions must be positive."""
    for d in reversed(shape[1:]):
        flat = zip(*[iter(flat)] * d)  # consecutive groups of d
    return tuple(flat)


def structure_from_bytes(data: bytes) -> GammaStructure:
    """Rebuild a structure from a table serialization (canonical_form output)."""
    if len(data) < 2:
        raise InputError("serialized structure too short")
    n, m = data[0], data[1]
    need = 2 + n * n + m * m * n * n * n
    if len(data) != need:
        raise InputError(f"serialized structure has {len(data)} bytes, expected {need}")
    _positive_int(n, "order")
    _positive_int(m, "gamma size")
    return GammaStructure(order=n, gamma_size=m, addition=_nest(data[2:2 + n * n], (n, n)),
                          ternary=_nest(data[2 + n * n:], (m, m, n, n, n)))


def structures_isomorphic(s1: GammaStructure, s2: GammaStructure) -> bool:
    if (s1.order, s1.gamma_size) != (s2.order, s2.gamma_size):
        return False
    return canonical_form(s1) == canonical_form(s2)


# ---------------------------------------------------------------------------
# JSON interchange

def structure_to_dict(s: GammaStructure) -> dict:
    return {
        "order": s.order,
        "gamma": s.gamma_size,
        "names": list(s.names),
        "addition": [list(row) for row in s.addition],
        "ternary": _param_dict(s.ternary),
    }


def _param_dict(layers) -> dict:
    """The cubes of m x m parameter layers keyed "alpha,beta", each as nested
    lists; the inverse of _param_grid."""
    return {f"{al},{be}": [[list(row) for row in plane] for plane in cube]
            for al, layer in enumerate(layers) for be, cube in enumerate(layer)}


def _param_grid(obj, m: int, what: str) -> list:
    """The values of an object keyed "alpha,beta", as an m x m grid.

    The key count is compared with m*m before any key is built, so a huge m
    costs nothing; a message names at most three keys of each kind.
    """
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be an object keyed by 'alpha,beta'")
    if len(obj) != m * m:
        raise InputError(f"{what} must have {m * m} 'alpha,beta' keys "
                         f"for gamma {m}, got {len(obj)}")
    keys = [f"{al},{be}" for al in range(m) for be in range(m)]
    missing = [key for key in keys if key not in obj]
    if missing:
        extra = sorted(set(obj).difference(keys), key=str)
        raise InputError(f"{what}: {len(missing)} missing keys, first {missing[:3]}; "
                         f"unexpected keys, first {extra[:3]}")
    return [[obj[f"{al},{be}"] for be in range(m)] for al in range(m)]


def structure_from_dict(d: dict) -> GammaStructure:
    if not isinstance(d, dict):
        raise InputError(f"structure document must be an object, got {type(d).__name__}")
    for key in ("order", "gamma", "addition", "ternary"):
        if key not in d:
            raise InputError(f"structure document missing key {key!r}")
    n = _positive_int(d["order"], "order")
    m = _positive_int(d["gamma"], "gamma")
    tern = _param_grid(d["ternary"], m, "ternary")
    names = d.get("names")
    return GammaStructure(order=n, gamma_size=m, addition=d["addition"],
                          ternary=tern, names=() if names is None else names)


def _json_text(doc) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline;
    the bytes of json.dumps(doc, indent=2, sort_keys=True) + "\n".

    Not json.dumps itself: CPython's C encoder runs only without indent, and
    the pure Python one it falls back to took about twice as long as this
    writer over the analysis reports of the order-4 corpus. The values are
    the ones the reports hold: str, int, bool, None, float, list, tuple and
    dict with str keys. Any other type, or any other key type, raises
    TypeError instead of being written some other way.
    """
    out: list = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


_INF = float("inf")


def _json_scalar(o) -> str:
    # the checks and spellings of json.encoder, in its order
    if isinstance(o, str):
        return _json_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


# the text of the scalars the documents hold, by exact type; containers,
# floats and subclasses take the general path of _write_json
_JSON_EXACT = {int: int.__repr__, str: _json_str, type(None): lambda o: "null",
               bool: lambda o: "true" if o else "false"}


def _write_json(o, newline: str, out: list) -> None:
    """Append the text of o to out; newline is the line break and indent
    of the line o starts on."""
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        sep = inner
        for v in o:
            text = _JSON_EXACT.get(type(v))
            if text is None:
                out.append(sep)
                _write_json(v, inner, out)
            else:
                out.append(sep + text(v))
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        sep = inner
        for k, v in sorted(o.items()):
            key = sep + _json_str(k) + ": "  # TypeError unless k is a str
            text = _JSON_EXACT.get(type(v))
            if text is None:
                out.append(key)
                _write_json(v, inner, out)
            else:
                out.append(key + text(v))
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(_json_scalar(o))


def dumps_structure(s: GammaStructure) -> str:
    return _json_text(structure_to_dict(s))


def parse_structure(text: str) -> GammaStructure:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError("JSON nested too deeply") from exc
    return structure_from_dict(doc)


def load_structure(path) -> GammaStructure:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    try:
        return parse_structure(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
