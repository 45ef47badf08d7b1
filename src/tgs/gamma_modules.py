"""Finite ternary module actions: scalars on the outside, carrier in the middle.

An action table assigns a carrier element to a m b for scalars a, b and
carrier m. Verification covers the carrier monoid, additivity in all three
slots, and scalar-slot zero absorption. The associativity axiom as printed
multiplies four scalars and the carrier in one expression, which has no
parse under a ternary product, so the law checked is its well-typed
surrogate, the exchange law a (b m c) d = b (a m d) c (parameters following
their scalars).

Witnesses are the first violating tuple in each law's scan order, as
written in its check, and each is one call of core._first, the package's
one first-witness scan. The report works as core's does for verify_axioms,
from its own law table and the action's memo: passed decides each law on
whole maps or planes, at most once per action, the exchange law first,
then the others only if it holds, and never scans for a witness. An action
the action search yields holds every verdict in its memo from the start;
for any other action, each decision extracts the distinct maps through the
slots it reads:

    carrier monoid      decided on its rows as maps, as the additive monoid
                        is in verify_axioms
    additivity          each distinct map through a slot must be additive
                        (x -> x m b and x -> a m x from the scalars,
                        m -> a m b on the carrier)
    absorbing zero      each distinct map through a scalar slot must send 0
                        to 0
    exchange law        with P = a (-) d and Q = b (-) c as carrier maps the
                        law reads P∘Q == Q∘P; every two distinct maps
                        m -> a m b must commute

A field scans only when its law failed, over the law's whole order.

Actions are enumerated by the table-completion engine of enumeration, with
additivity in all three slots replayed as cells land and the scalar-zero
cells pinned to 0, on a carrier that is a commutative monoid, so every
generated action holds three laws by construction; the engine yields the
solutions of one cube, and _actions_for_carrier takes their product over
the m*m cubes, deciding the exchange law once per pair of solutions. A
submodule test reads, for each carrier element m, the mask of every a m b,
once per action.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product as iproduct
from operator import itemgetter, ne
from typing import Iterator, Optional

from .core import (GammaStructure, InputError, ResourceLimitError, Verdict,
                   Violation, _as_grid, _as_layers, _check_order,
                   _closed_subsets, _first, _given_monoid,
                   _is_commutative_monoid, _LawReport, _monoid_violation,
                   _moves_zero, _non_additive, _non_commuting, _positive_int,
                   _prevalidated, _slot_maps, _violation, full_mask,
                   mask_elements, mask_of, max_order, subset_sort_key)
from .enumeration import _cube_solutions, _partners, enumerate_additive_monoids
from .ideals import is_ideal, is_prime

_SUBMODULE_SCAN_CAP = 16


@dataclass(frozen=True)
class ModuleAction:
    """Carrier monoid plus action tables indexed action[al][be][a][m][b]."""

    scalar: GammaStructure
    carrier_order: int
    carrier_addition: tuple
    action: tuple

    def __post_init__(self):
        n, m = self.scalar.order, self.scalar.gamma_size
        k = _positive_int(self.carrier_order, "carrier order")
        object.__setattr__(self, "carrier_addition",
                           _as_grid(self.carrier_addition, k, "carrier addition"))
        object.__setattr__(self, "action", _as_layers(self.action, m, n, k, "action"))


def regular_module(s: GammaStructure) -> ModuleAction:
    """The structure acting on itself through its own ternary product."""
    return _prevalidated(ModuleAction, scalar=s, carrier_order=s.order,
                         carrier_addition=s.addition, action=s.ternary)


def zero_module(s: GammaStructure, carrier_order: int = 1,
                carrier_addition=None) -> ModuleAction:
    """Every action result is 0; any carrier monoid works."""
    _positive_int(carrier_order, "carrier order")
    if carrier_addition is None:
        if carrier_order != 1:
            raise InputError("carrier addition required when carrier order > 1")
        carrier_addition = ((0,),)
    n, m, k = s.order, s.gamma_size, carrier_order
    zero_plane = tuple(tuple(0 for _ in range(n)) for _ in range(k))
    cube = tuple(zero_plane for _ in range(n))
    action = tuple(tuple(cube for _ in range(m)) for _ in range(m))
    return ModuleAction(scalar=s, carrier_order=k,
                        carrier_addition=carrier_addition, action=action)


# ---------------------------------------------------------------------------
# axioms

def _check_carrier_monoid(a_: ModuleAction) -> Violation:
    madd = a_.carrier_addition
    r = range(len(madd))
    return (_violation("carrier-identity", (r,), lambda a: (madd[0][a], a))
            or _monoid_violation(madd, "carrier"))


def _module_non_additive(a_: ModuleAction) -> bool:
    """Whether some map from the scalars, through slots 0 and 2, or some
    carrier map, through slot 1, is not additive."""
    s, madd, act = a_.scalar, a_.carrier_addition, a_.action
    return (_non_additive(_slot_maps(act, 0) | _slot_maps(act, 2), s.addition, madd)
            or _non_additive(_slot_maps(act, 1), madd, madd))


def _check_module_additivity(a_: ModuleAction) -> Violation:
    s, k = a_.scalar, a_.carrier_order
    n, p = s.order, range(s.gamma_size)
    madd, act = a_.carrier_addition, a_.action
    adds = (s.addition, madd, s.addition)
    # at each (al, be), slots 0, 1 and 2 in turn, each walking the cell's
    # coordinates with its own doubled in place into the pair (x, y):
    # (x, y, mm, b), (a, m1, m2, b) or (a, mm, x, y)
    dims = (n, k, n)
    cells = [(slot, args) for slot in range(3)
             for args in iproduct(*map(range, dims[:slot + 1] + dims[slot:]))]

    def sides(al, be, cell):
        slot, args = cell
        x, y = args[slot:slot + 2]
        lhs, fx, fy = (act[al][be][a][mm][b] for a, mm, b in (
            args[:slot] + (v,) + args[slot + 2:] for v in (adds[slot][x][y], x, y)))
        return lhs, madd[fx][fy]

    al, be, cell = _first((p, p, cells), lambda *args: ne(*sides(*args)))
    slot, args = cell
    return Violation(f"module-additivity-{slot}", args + (al, be), *sides(al, be, cell))


def _check_module_zero(a_: ModuleAction) -> Violation:
    # zero pins the scalar slots only; the printed law says nothing about
    # a zero in the middle
    s, k = a_.scalar, a_.carrier_order
    n, p = s.order, range(s.gamma_size)
    # at each (al, be), the cells (0, mm, b), then the cells (a, mm, 0)
    cells = [*iproduct((0,), range(k), range(n)), *iproduct(range(n), range(k), (0,))]
    act = a_.action
    al, be, (a, mm, b) = _first((p, p, cells), lambda al, be, c: act[al][be][c[0]][c[1]][c[2]])
    return Violation("module-absorbing-zero", (a, mm, b, al, be), act[al][be][a][mm][b], 0)


def _non_exchanging(a_: ModuleAction) -> bool:
    """Whether two carrier maps mm -> a mm b, at any parameters, fail to
    commute."""
    maps = _slot_maps(a_.action, 1)
    return any(_non_commuting(maps, maps))


def _check_module_assoc_surrogate(a_: ModuleAction) -> Violation:
    s, act = a_.scalar, a_.action
    r, p = range(s.order), range(s.gamma_size)

    def sides(al, be, ga, de, a, b, c, d, mm):
        # P = a (-) d at (al, be) and Q = b (-) c at (ga, de): P(Q(mm)), Q(P(mm))
        P, Q = act[al][be], act[ga][de]
        return P[a][Q[b][mm][c]][d], Q[b][P[a][mm][d]][c]

    al, be, ga, de, *args = _first((p, p, p, p, r, r, r, r, range(a_.carrier_order)),
                                   lambda *args: ne(*sides(*args)))
    return Violation("module-assoc-surrogate", (*args, al, be, ga, de),
                     *sides(al, be, ga, de, *args))


class ModuleAxiomReport(_LawReport):
    _LAWS = {
        "carrier_monoid": (lambda a_: not _is_commutative_monoid(a_.carrier_addition),
                           _check_carrier_monoid),
        "additivity": (_module_non_additive, _check_module_additivity),
        "absorbing_zero": (lambda a_: _moves_zero(a_.action, (0, 2)), _check_module_zero),
        "associativity": (_non_exchanging, _check_module_assoc_surrogate),
    }
    _ORDER = ("associativity", "carrier_monoid", "additivity", "absorbing_zero")
    _KEYS = (*_LAWS, "passed")


def verify_module_axioms(a_: ModuleAction) -> ModuleAxiomReport:
    """The module report of a_: passed decides every law on maps; a field,
    the first witness of one law in the scan order written in its check, is
    scanned when first read; both are kept in a_'s memo."""
    return ModuleAxiomReport(a_)


# ---------------------------------------------------------------------------
# submodules and annihilators

def enumerate_submodules(a_: ModuleAction) -> tuple:
    """Additively closed carrier subsets containing 0 and closed under the
    action, as bitmasks sorted by size then value."""
    k = a_.carrier_order
    if k > _SUBMODULE_SCAN_CAP:
        raise ResourceLimitError(
            f"carrier order {k} exceeds submodule scan cap {_SUBMODULE_SCAN_CAP}")
    # reach[mm]: the mask of every a mm b, at any scalars and parameters; a
    # subset is closed under the action when each member's reach lies in it
    planes = [plane for layer in a_.action for cube in layer for plane in cube]
    reach = [mask_of(set(chain.from_iterable(rows))) for rows in zip(*planes)]
    return _closed_subsets(reach, a_.carrier_addition)


def is_simple_module(a_: ModuleAction) -> bool:
    return a_.carrier_order > 1 and len(enumerate_submodules(a_)) == 2


@dataclass(frozen=True)
class AnnihilatorResult:
    """Scalars killing the whole carrier from the first slot."""

    mask: int
    proper: bool
    ideal: Verdict
    prime: Optional[Verdict]

    def to_dict(self) -> dict:
        return {
            "elements": list(mask_elements(self.mask)),
            "proper": self.proper,
            "ideal": self.ideal.ok,
            "ideal_witness": None if self.ideal.ok else list(self.ideal.witness),
            "prime": None if self.prime is None else self.prime.ok,
            "prime_witness": (None if self.prime is None or self.prime.ok
                              else list(self.prime.witness)),
        }


def _annihilator_mask(a_: ModuleAction) -> int:
    """The mask of the scalars a with a m b == 0 at every carrier m, scalar b
    and parameters."""
    s, k = a_.scalar, a_.carrier_order
    n, m = s.order, s.gamma_size
    return mask_of(a for a in range(n)
                   if all(a_.action[al][be][a][mm][b] == 0
                          for al in range(m) for be in range(m)
                          for mm in range(k) for b in range(n)))


def annihilator(a_: ModuleAction) -> AnnihilatorResult:
    """First-slot annihilator; primeness evaluated only for simple modules
    with a proper, nonempty annihilator, reported rather than assumed."""
    s = a_.scalar
    mask = _annihilator_mask(a_)
    proper = mask != full_mask(s.order)
    prime = None
    if mask and proper and is_simple_module(a_):
        prime = is_prime(s, mask)
    # an empty annihilator lacks 0; is_ideal refuses the empty subset, so its
    # witness for a subset without 0 is given here
    ideal = is_ideal(s, mask) if mask else Verdict(False, ("missing-zero",))
    return AnnihilatorResult(mask=mask, proper=proper, ideal=ideal, prime=prime)


# ---------------------------------------------------------------------------
# enumeration of actions

def _actions_for_carrier(s: GammaStructure, k: int, madd) -> Iterator[ModuleAction]:
    """The cells a m b of a cube with nonzero scalars a, b are the free cells
    of the one-cube search, the scalar-zero ones pinned to 0; every (al, be)
    cube is a solution of that search, and the actions are the product of
    the solutions over the m*m cubes, cube (al, be) at position al*m + be,
    the first position slowest.

    Each action carries its four law verdicts in a fresh memo. The carrier
    is a commutative monoid and the search builds in additivity and zero
    absorption; the exchange law holds iff the carrier maps of every two of
    its cubes, a cube with itself included, commute. At one parameter each
    cube is decided as it streams; at more, every pair of cube solutions is
    decided once, by _partners."""
    n, m = s.order, s.gamma_size
    cells = list(iproduct(range(n), range(k), range(n)))
    index = dict.fromkeys(cells, -1)
    index.update((c, i) for i, c in enumerate(c for c in cells if c[0] and c[2]))
    cubes = _cube_solutions(index, (n, k, n), (s.addition, madd, s.addition), madd)

    def action(act, ok: bool) -> ModuleAction:
        return _prevalidated(
            ModuleAction, scalar=s, carrier_order=k, carrier_addition=madd, action=act,
            _memo={("fails", "carrier_monoid"): False, ("fails", "additivity"): False,
                   ("fails", "absorbing_zero"): False, ("fails", "associativity"): not ok})

    if m == 1:  # product reads its input whole; one cube streams
        for cube in cubes:
            maps = _slot_maps(((cube,),), 1)
            yield action(((cube,),), not any(_non_commuting(maps, maps)))
        return
    cubes = list(cubes)
    partners = _partners([_slot_maps(((cube,),), 1) for cube in cubes])
    rows = [itemgetter(*range(al * m, al * m + m)) for al in range(m)]
    for picks, picked in zip(iproduct(range(len(cubes)), repeat=m * m),
                             iproduct(cubes, repeat=m * m)):
        yield action(tuple([row(picked) for row in rows]),
                     set.intersection(*[partners[p] for p in picks]).issuperset(picks))


def enumerate_module_actions(s: GammaStructure, carrier_order: int,
                             carrier_addition=None) -> Iterator[ModuleAction]:
    """All additivity-satisfying actions on carriers of the given order,
    each carrying its module law verdicts in its memo, so
    verify_module_axioms(action).passed decides nothing.

    The arguments and the order cap, max_order(), are checked at the call,
    before any search starts; a given carrier addition must be a commutative
    monoid with identity 0."""
    _positive_int(carrier_order, "carrier order")
    _check_order(carrier_order, "carrier order")
    if carrier_addition is not None:
        carriers = (_given_monoid(carrier_addition, carrier_order, "carrier addition"),)
    else:
        carriers = enumerate_additive_monoids(carrier_order)
    return (action for madd in carriers
            for action in _actions_for_carrier(s, carrier_order, madd))


def find_primitive_ideals(s: GammaStructure) -> tuple:
    """Proper annihilators of simple modules, deduplicated: an action's
    annihilator mask is taken only once it passes the module axioms and is
    simple.

    Carriers of order 2 up to the scalar order, and at most the order cap
    max_order(), are searched.
    """
    found = set()
    for k in range(2, min(s.order, max_order()) + 1):
        for action in enumerate_module_actions(s, k):
            if verify_module_axioms(action).passed and is_simple_module(action):
                found.add(_annihilator_mask(action))
    found.discard(full_mask(s.order))
    return tuple(sorted(found, key=subset_sort_key))
