"""Radicals: prime-intersection route, element-cube route, and their comparison.

The two routes are computed independently and never merged: the element
characterization has a known proof gap, so radical_report records agreement
or the exact symmetric difference instead of asserting equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GammaStructure, _check_bits, _meet, mask_elements, mask_of, memo
from .ideals import enumerate_ideals, generated_ideal, ideal_classes, is_ideal
from .spectrum import _closed_sets


def radical_by_primes(s: GammaStructure, mask: int) -> int:
    """Intersection of all prime ideals containing the subset, which are the
    closed set of the ideal it generates; carrier if none."""
    _check_bits(s, mask, "subset")
    return _meet(s, dict(_closed_sets(s))[generated_ideal(s, mask)])


def radical_by_elements(s: GammaStructure, mask: int) -> int:
    """Elements whose ternary cube, for some parameter pair, lands in the
    subset: exactly one self-cubing, as the characterization is printed."""
    _check_bits(s, mask, "subset")
    m = s.gamma_size
    return mask_of(a for a in range(s.order)
                   if any(mask >> s.ternary[al][be][a][a][a] & 1
                          for al in range(m) for be in range(m)))


@dataclass(frozen=True)
class RadicalReport:
    """Both radicals of one ideal, with the exact disagreement if any."""

    ideal: int
    by_primes: int
    by_elements: int
    # the element route can land outside the ideal lattice; flagged, not fixed
    by_elements_is_ideal: bool = True

    @property
    def agree(self) -> bool:
        return self.by_primes == self.by_elements

    @property
    def only_by_primes(self) -> tuple[int, ...]:
        return mask_elements(self.by_primes & ~self.by_elements)

    @property
    def only_by_elements(self) -> tuple[int, ...]:
        return mask_elements(self.by_elements & ~self.by_primes)

    def to_dict(self) -> dict:
        return {
            "ideal": list(mask_elements(self.ideal)),
            "by_primes": list(mask_elements(self.by_primes)),
            "by_elements": list(mask_elements(self.by_elements)),
            "agree": self.agree,
            "only_by_primes": list(self.only_by_primes),
            "only_by_elements": list(self.only_by_elements),
            "by_elements_is_ideal": self.by_elements_is_ideal,
        }


def radical_report(s: GammaStructure, mask: int) -> RadicalReport:
    by_elements = radical_by_elements(s, mask)
    # the empty element radical lacks 0, and is_ideal refuses the empty subset
    return RadicalReport(ideal=mask,
                         by_primes=radical_by_primes(s, mask),
                         by_elements=by_elements,
                         by_elements_is_ideal=bool(by_elements)
                         and is_ideal(s, by_elements).ok)


def ideal_radicals(s: GammaStructure) -> tuple[RadicalReport, ...]:
    """radical_report over enumerate_ideals(s), in its order; once per structure."""
    return memo(s, "radicals", lambda: tuple(
        radical_report(s, mask) for mask in enumerate_ideals(s)))


def jacobson_radical(s: GammaStructure) -> int:
    """Intersection of all maximal ideals; carrier if there are none."""
    return _meet(s, (info.mask for info in ideal_classes(s) if info.maximal))


def is_semisimple(s: GammaStructure) -> bool:
    return jacobson_radical(s) == 1
