"""Prime spectrum: points, closed sets, topology checks, connectedness.

Points are prime ideals (as bitmasks). closed_set(s, I) collects the primes
containing I. verify_topology re-proves the closed-set laws exhaustively for
one structure; connected components come from the clopen sets of the finite
topology and are cross-compared with idempotent decompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Optional

from .core import (GammaStructure, InputError, Verdict, _INT, _as_list,
                   _check_bits, _check_order, _first, _meet, full_mask,
                   mask_elements, mask_of, memo, subset_sort_key)
from .ideals import (_dot, enumerate_ideals, generated_ideal, ideal_classes,
                     is_ideal, spectrum_points)
from .quotient import bourne_congruence, quotient_structure


def closed_set(s: GammaStructure, mask: int) -> frozenset:
    """Primes containing the given subset."""
    _check_bits(s, mask, "subset")
    return frozenset(p for p in spectrum_points(s) if p & mask == mask)


def _closed_sets(s: GammaStructure) -> tuple:
    """(ideal, closed_set(s, ideal)) for each ideal, in the order of
    enumerate_ideals; once per structure."""
    return memo(s, "closed_sets", lambda: tuple(
        (i, closed_set(s, i)) for i in enumerate_ideals(s)))


@dataclass(frozen=True)
class TopologyCheck:
    name: str
    ok: bool
    witness: Optional[tuple] = None


def _closure_of_point(family: list, point: int, every: frozenset) -> frozenset:
    out = every
    for c in family:
        if point in c:
            out = out & c
    return out


def verify_topology(s: GammaStructure) -> list[TopologyCheck]:
    """Re-derive the closed-set laws for this structure, one named check each.

    The checks run once per structure; each call returns a fresh list.
    """
    return list(memo(s, "topology", lambda: _topology_checks(s)))


def _topology_checks(s: GammaStructure) -> tuple[TopologyCheck, ...]:
    ideals = enumerate_ideals(s)
    points = spectrum_points(s)
    every = frozenset(points)
    vmap = dict(_closed_sets(s))
    family = sorted(set(vmap.values()), key=lambda c: (len(c), sorted(c)))
    checks = []

    bottom = generated_ideal(s, 0)
    checks.append(TopologyCheck(
        "bottom-closed-set-is-all", vmap[bottom] == every,
        None if vmap[bottom] == every else (sorted(every - vmap[bottom]),)))
    top = full_mask(s.order)
    checks.append(TopologyCheck(
        "top-closed-set-is-empty", vmap[top] == frozenset(),
        None if not vmap[top] else (sorted(vmap[top]),)))

    def check(name: str, ranges, bad) -> None:
        found = _first(ranges, bad)
        checks.append(TopologyCheck(name, found is None, found))

    check("intersection-law", (ideals, ideals),
          lambda i, j: vmap[i & j] != vmap[i] | vmap[j])
    check("sum-law", (ideals, ideals),
          lambda i, j: vmap[generated_ideal(s, i | j)] != vmap[i] & vmap[j])

    fam_set = set(family)

    def missing(c1, c2) -> Optional[str]:
        if c1 | c2 not in fam_set:
            return "union"
        return "intersection" if c1 & c2 not in fam_set else None

    pair = _first((family, family), missing)
    bad = None if pair is None else (sorted(pair[0]), sorted(pair[1]), missing(*pair))
    checks.append(TopologyCheck("family-closed-under-union-intersection",
                                bad is None, bad))

    check("order-reversal", (ideals, ideals),
          lambda i, j: i & j == i and not vmap[j] <= vmap[i])

    closures = {p: _closure_of_point(family, p, every) for p in points}
    check("point-closure-is-containment-set", (points,),
          lambda p: closures[p] != vmap[p])
    check("t0-separation", (points, points),
          lambda p, q: p != q and closures[p] == closures[q])

    # the meet of the primes containing i against the least semiprime ideal
    # containing i, taken from the classification
    semiprimes = [c.mask for c in ideal_classes(s) if c.semiprime]
    check("closed-set-meet-is-radical", (ideals,), lambda i: _meet(s, vmap[i])
          != _meet(s, (j for j in semiprimes if j & i == i)))
    return tuple(checks)


def connected_components(s: GammaStructure) -> tuple[tuple[int, ...], ...]:
    """Quasi-components of the finite spectrum (equal to components here):
    intersect the clopen sets through each point. Once per structure."""
    return memo(s, "components", lambda: _components(s))


def _components(s: GammaStructure) -> tuple[tuple[int, ...], ...]:
    points = spectrum_points(s)
    every = frozenset(points)
    family = {c for _, c in _closed_sets(s)}
    clopen = [c for c in family if (every - c) in family]
    comp = {p: _closure_of_point(clopen, p, every) for p in points}
    seen = []
    for p in points:
        canon = tuple(sorted(comp[p], key=subset_sort_key))
        if canon not in seen:
            seen.append(canon)
    return tuple(seen)


def find_idempotents(s: GammaStructure) -> tuple[int, ...]:
    """Elements with e e e = e for every parameter pair."""
    n, m = s.order, s.gamma_size
    return tuple(e for e in range(n)
                 if all(s.ternary[al][be][e][e][e] == e
                        for al in range(m) for be in range(m)))


@dataclass(frozen=True)
class Decomposition:
    """Idempotent splitting attempt: left part and the complement search result."""

    idempotent: int
    left: int
    right: Optional[int]

    @property
    def mixed_products_zero(self) -> bool:
        # a complement is accepted only when every mixed product is 0
        return self.right is not None

    @property
    def nontrivial(self) -> bool:
        return (self.right is not None and self.left != 1
                and self.right != 1)

    def to_dict(self) -> dict:
        return {
            "idempotent": self.idempotent,
            "left": list(mask_elements(self.left)),
            "right": None if self.right is None else list(mask_elements(self.right)),
            "mixed_products_zero": self.mixed_products_zero,
            "nontrivial": self.nontrivial,
        }


def decompose_by_idempotent(s: GammaStructure, e: int) -> Decomposition:
    """Left ideal generated by the products a e e; complement found by search.

    The complement J must satisfy generated(left | J) = T, left & J = {0},
    and every mixed product x y t (x in left, y in J, t anywhere) equal 0.
    The printed complement construction uses an element 1 - e that a general
    structure does not have, so the search scans all ideals in size order.
    Each decomposition is computed once per structure and idempotent.
    """
    if type(e) is not int:
        raise InputError(f"idempotent must be an integer element, got {e!r}")
    if e not in find_idempotents(s):
        raise InputError(f"element {e} is not a ternary idempotent")
    return memo(s, ("decomposition", e), lambda: _decompose(s, e))


def _decompose(s: GammaStructure, e: int) -> Decomposition:
    n, m = s.order, s.gamma_size
    left = generated_ideal(s, mask_of(s.ternary[al][be][a][e][e] for a in range(n)
                                      for al in range(m) for be in range(m)))
    top = full_mask(n)

    def mixed_zero(j_mask: int) -> bool:
        p = range(m)
        return _first((mask_elements(left), mask_elements(j_mask), range(n), p, p),
                      lambda x, y, t, al, be: s.ternary[al][be][x][y][t]) is None

    for j in enumerate_ideals(s):
        if left & j != 1:
            continue
        if generated_ideal(s, left | j) != top:
            continue
        if mixed_zero(j):
            return Decomposition(e, left, j)
    return Decomposition(e, left, None)


def is_simple(s: GammaStructure) -> bool:
    """More than one element and no ideals besides {0} and the carrier."""
    if s.order < 2:
        return False
    return enumerate_ideals(s) == (1, full_mask(s.order))


# ---------------------------------------------------------------------------
# homomorphisms

@dataclass(frozen=True)
class HomomorphismMap:
    """Element map between structures; each parameter maps to itself."""

    source: GammaStructure
    target: GammaStructure
    element_map: tuple

    def _checked_map(self):
        """The element map, refused unless it holds one integer in the
        target's range per source element."""
        f = _as_list(self.element_map, self.source.order, "element map")
        if not (_INT.issuperset(map(type, f))
                and all(0 <= v < self.target.order for v in f)):
            raise InputError(f"element map image out of range: entries must be "
                             f"integers in 0..{self.target.order - 1}")
        return f

    def validate(self) -> Verdict:
        src, dst = self.source, self.target
        f = self._checked_map()
        if src.gamma_size > dst.gamma_size:
            raise InputError("target has fewer parameters than the source")
        if f[0] != 0:
            return Verdict(False, ("zero", 0))
        r, p = range(src.order), range(src.gamma_size)
        sa, da, st, dt = src.addition, dst.addition, src.ternary, dst.ternary
        args = _first((r, r), lambda a, b: f[sa[a][b]] != da[f[a]][f[b]])
        if args is not None:
            return Verdict(False, ("add",) + args)
        args = _first((r, r, r, p, p), lambda a, b, c, al, be:
                      f[st[al][be][a][b][c]] != dt[al][be][f[a]][f[b]][f[c]])
        if args is not None:
            return Verdict(False, ("tern",) + args)
        return Verdict(True)

    def is_surjective(self) -> bool:
        return len(set(self.element_map)) == self.target.order


def find_homomorphisms(src: GammaStructure, dst: GammaStructure,
                       surjective_only: bool = False) -> list[HomomorphismMap]:
    """Exhaustive scan over element maps fixing 0, identity parameter map,
    in lexicographic order; with surjective_only, the maps that are not onto
    are dropped before they are validated.

    Structures with different parameter set sizes share no maps here. Both
    orders must be within the order cap, max_order(), for the n^(n-1) maps.
    """
    _check_order(src.order, "source order")
    _check_order(dst.order, "target order")
    if src.gamma_size != dst.gamma_size:
        return []
    maps = (HomomorphismMap(src, dst, (0,) + tail)
            for tail in iproduct(range(dst.order), repeat=src.order - 1))
    return [h for h in maps
            if (not surjective_only or h.is_surjective()) and h.validate().ok]


def pullback_ideal(f: HomomorphismMap, mask: int) -> int:
    """Preimage of a target subset under the element map, which must hold
    one target element per source element; it need not be a homomorphism."""
    _check_bits(f.target, mask, "subset")
    return mask_of(a for a, v in enumerate(f._checked_map()) if mask >> v & 1)


# ---------------------------------------------------------------------------
# direct product comparison

@dataclass(frozen=True)
class CrtReport:
    """Outcome of mapping the structure into the product of its quotients."""

    ideals: tuple
    comaximal: Verdict
    quotient_orders: tuple
    image_size: int
    surjective: bool
    injective: bool
    kernel_zero_class: int
    intersection: int

    @property
    def bijective(self) -> bool:
        return self.surjective and self.injective

    @property
    def kernel_matches_intersection(self) -> bool:
        return self.kernel_zero_class == self.intersection

    def to_dict(self) -> dict:
        return {
            "ideals": [list(mask_elements(i)) for i in self.ideals],
            "comaximal": self.comaximal.ok,
            "comaximal_witness": None if self.comaximal.ok else list(self.comaximal.witness),
            "quotient_orders": list(self.quotient_orders),
            "image_size": self.image_size,
            "surjective": self.surjective,
            "injective": self.injective,
            "bijective": self.bijective,
            "kernel_zero_class": list(mask_elements(self.kernel_zero_class)),
            "intersection": list(mask_elements(self.intersection)),
            "kernel_matches_intersection": self.kernel_matches_intersection,
        }


def crt_check(s: GammaStructure, ideals) -> CrtReport:
    """Pairwise comaximality plus the canonical map into the quotient product."""
    if not isinstance(ideals, (list, tuple)):
        raise InputError(f"ideals must be a list or tuple, got {ideals!r}")
    ideals = tuple(ideals)
    top = full_mask(s.order)
    if len(ideals) < 2:
        raise InputError("need at least two ideals")
    for i in ideals:
        if i == top:
            raise InputError("ideals must be proper")
        verdict = is_ideal(s, i)
        if not verdict.ok:
            raise InputError(f"subset {s.set_label(i)} is not an ideal: {verdict.witness}")
    k = range(len(ideals))
    pair = _first((k, k), lambda a, b: a < b and
                  generated_ideal(s, ideals[a] | ideals[b]) != top)
    parts = [bourne_congruence(s, i) for i in ideals]  # restricted growth form
    orders = tuple(max(p) + 1 for p in parts)
    images = {tuple(p[a] for p in parts) for a in range(s.order)}
    zero_tuple = tuple(0 for _ in parts)
    kernel_zero = mask_of(a for a in range(s.order)
                          if tuple(p[a] for p in parts) == zero_tuple)
    return CrtReport(
        ideals=ideals,
        comaximal=Verdict(True) if pair is None else Verdict(False, pair),
        quotient_orders=orders,
        image_size=len(images),
        surjective=len(images) == math.prod(orders),
        injective=len(images) == s.order,
        kernel_zero_class=kernel_zero,
        intersection=_meet(s, ideals),
    )


def quotient_by_ideal(s: GammaStructure, mask: int) -> GammaStructure:
    """Quotient by the transitively closed relation the ideal induces."""
    return quotient_structure(s, bourne_congruence(s, mask))


# ---------------------------------------------------------------------------
# views and export

@dataclass(frozen=True)
class SpectrumView:
    points: tuple
    closed_sets: tuple          # (ideal_mask, sorted point masks) per ideal
    components: tuple

    def to_dict(self) -> dict:
        return {
            "points": [list(mask_elements(p)) for p in self.points],
            "closed_sets": [
                {"ideal": list(mask_elements(i)),
                 "points": [list(mask_elements(p)) for p in pts]}
                for i, pts in self.closed_sets
            ],
            "components": [[list(mask_elements(p)) for p in comp]
                           for comp in self.components],
        }


def prime_spectrum(s: GammaStructure) -> SpectrumView:
    points = spectrum_points(s)
    closed = tuple((i, tuple(sorted(c, key=subset_sort_key)))
                   for i, c in _closed_sets(s))
    return SpectrumView(points=points, closed_sets=closed,
                        components=connected_components(s))


def spectrum_dot(s: GammaStructure) -> str:
    """Points with containment edges, in DOT, stable node order."""
    points = spectrum_points(s)
    return _dot("spectrum", "p", [s.set_label(p) for p in points],
                [(i, j) for i, p in enumerate(points) for j, q in enumerate(points)
                 if p != q and p & q == p])
