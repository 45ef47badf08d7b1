"""Bundled example structures.

Two families ship with the package:

* DERIVED: axiom-valid structures used by the regression tests (modular
  multiplicative tables, the two-element boolean structure, a chain lattice,
  a saturating-addition structure with zero product).
* CLAIMED: tables that circulate with documented properties attached but
  fail the axioms as printed (additive ternary tables a+b+c mod n violate
  zero absorption). `tgs verify fixtures` re-evaluates every documented
  claim against the literal definitions and reports agreements and
  conflicts side by side.
"""

from __future__ import annotations

from .core import GammaStructure


def _structure(n: int, add, mul) -> GammaStructure:
    """Order n and one parameter, with addition add(a, b) and ternary
    product mul(a, b, c)."""
    r = range(n)
    return GammaStructure(order=n, gamma_size=1,
                          addition=[[add(a, b) for b in r] for a in r],
                          ternary=[[[[[mul(a, b, c) for c in r] for b in r]
                                     for a in r]]])


def mod_mul_structure(n: int) -> GammaStructure:
    """Addition mod n with ternary product a*b*c mod n."""
    return _structure(n, lambda a, b: (a + b) % n, lambda a, b, c: a * b * c % n)


def mod_add_structure(n: int) -> GammaStructure:
    """Addition mod n with ternary product a+b+c mod n. Violates zero absorption."""
    return _structure(n, lambda a, b: (a + b) % n, lambda a, b, c: (a + b + c) % n)


def bool_or_and() -> GammaStructure:
    """Two elements, addition = OR, ternary product = AND: the chain of two."""
    return chain_min_structure(2)


def chain_min_structure(n: int) -> GammaStructure:
    """Chain 0 < 1 < ... < n-1 with addition = max and ternary product = min."""
    return _structure(n, max, min)


def saturating_zero_structure(n: int) -> GammaStructure:
    """Saturating addition min(a+b, n-1) with the all-zero ternary product."""
    return _structure(n, lambda a, b: min(a + b, n - 1), lambda a, b, c: 0)


DERIVED = {
    "B2": bool_or_and(),
    "M3": mod_mul_structure(3),
    "M4": mod_mul_structure(4),
    "M6": mod_mul_structure(6),
    "L3": chain_min_structure(3),
    "N3": saturating_zero_structure(3),
}

CLAIMED = {
    "add2": mod_add_structure(2),
    "add3": mod_add_structure(3),
    "add4": mod_add_structure(4),
    "add5": mod_add_structure(5),
    "add6": mod_add_structure(6),
}


def claim_structure(name: str | None) -> GammaStructure | None:
    if name is None:
        return None
    if name in CLAIMED:
        return CLAIMED[name]
    return DERIVED.get(name)


def _c(fixture, cid, text, kind, **payload):
    row = {"fixture": fixture, "id": cid, "text": text, "kind": kind}
    row.update(payload)
    return row


# Documented claims attached to the CLAIMED tables (and two tables that come
# with no addition operation at all). Each row is re-evaluated literally by
# the verify command; none of these verdicts are assumed.
CLAIMS = [
    _c("add2", "add2-axioms", "a+b+c mod 2 is a valid structure", "axioms"),
    _c("add2", "add2-ideals", "the only ideals are {0} and T", "ideals-exactly",
       ideals=[[0], [0, 1]]),
    _c("add2", "add2-simple", "the structure is simple", "simple"),

    _c("add3", "add3-axioms", "a+b+c mod 3 is a valid structure", "axioms"),
    _c("add3", "add3-zero-not-prime", "{0} is not prime (1,1,1 multiplies into it)",
       "not-prime", elements=[0]),
    _c("add3", "add3-prime-01", "{0,1} is a prime ideal", "prime", elements=[0, 1]),
    _c("add3", "add3-prime-02", "{0,2} is a prime ideal", "prime", elements=[0, 2]),
    _c("add3", "add3-semiprime-0", "{0} is semiprime", "semiprime", elements=[0]),
    _c("add3", "add3-semiprime-01", "{0,1} is semiprime", "semiprime", elements=[0, 1]),
    _c("add3", "add3-semiprime-02", "{0,2} is semiprime", "semiprime", elements=[0, 2]),
    _c("add3", "add3-spectrum", "the spectrum is the discrete space {{0,1},{0,2}}",
       "primes-exactly", ideals=[[0, 1], [0, 2]]),

    _c("add4", "add4-axioms", "a+b+c mod 4 is a valid structure", "axioms"),
    _c("add4", "add4-maximal-02", "{0,2} is a maximal ideal", "maximal", elements=[0, 2]),
    _c("add4", "add4-maximal-01", "{0,1} is a maximal ideal", "maximal", elements=[0, 1]),
    _c("add4", "add4-jacobson-zero", "the maximal-ideal intersection is {0}",
       "jacobson", elements=[0]),
    _c("add4", "add4-semisimple", "the structure is semisimple", "semisimple", value=True),
    _c("add4", "add4-not-semisimple",
       "the only maximal ideal is {0,2}, so the structure is not semisimple",
       "semisimple", value=False),
    _c("add4", "add4-semiprime-02", "{0,2} is semiprime", "semiprime", elements=[0, 2]),
    _c("add4", "add4-02-not-prime", "{0,2} is not prime (1,1,2 multiplies into it)",
       "not-prime", elements=[0, 2]),
    _c("add4", "add4-spectrum", "the spectrum is the single point {0,2}",
       "primes-exactly", ideals=[[0, 2]]),
    _c("add4", "add4-quotient-simple", "the quotient by {0,2} is simple of order 2",
       "quotient-order", elements=[0, 2], order=2),

    _c("add5", "add5-axioms", "a+b+c mod 5 is a valid structure", "axioms"),
    _c("add5", "add5-maximal", "{0,1,2} is maximal", "maximal", elements=[0, 1, 2]),
    _c("add5", "add5-prime-not-maximal", "{0,2,4} is prime but not maximal",
       "prime-not-maximal", elements=[0, 2, 4]),
    _c("add5", "add5-primary-not-prime", "{0,4} is primary but not prime",
       "primary-not-prime", elements=[0, 4]),

    _c("add6", "add6-axioms", "a+b+c mod 6 is a valid structure", "axioms"),
    _c("add6", "add6-maximal-024", "{0,2,4} is maximal", "maximal", elements=[0, 2, 4]),
    _c("add6", "add6-maximal-03", "{0,3} is maximal", "maximal", elements=[0, 3]),
    _c("add6", "add6-jacobson", "the maximal-ideal intersection is {0}",
       "jacobson", elements=[0]),
    _c("add6", "add6-spectrum", "the spectrum is the discrete space {{0,2,4},{0,3}}",
       "primes-exactly", ideals=[[0, 2, 4], [0, 3]]),
    _c("add6", "add6-quotient-3", "the quotient by {0,2,4} has order 3",
       "quotient-order", elements=[0, 2, 4], order=3),
    _c("add6", "add6-quotient-2", "the quotient by {0,3} has order 2",
       "quotient-order", elements=[0, 3], order=2),
    _c("add6", "add6-idempotent-3", "3 is a ternary idempotent", "idempotent", element=3),
    _c("add6", "add6-decomposition", "idempotent 3 splits T into {0,3} and {0,2,4}",
       "decomposition", element=3, left=[0, 3], right=[0, 2, 4]),
    _c("add6", "add6-crt", "T maps bijectively onto the product of the quotients by "
       "{0,2,4} and {0,3}", "crt", ideals=[[0, 2, 4], [0, 3]]),

    _c(None, "min3-table", "ternary min on {0,1,2}: {0} is the only prime and the only "
       "semiprime ideal", "not-evaluable",
       note="no addition table is stated for this operation, so the axioms and the "
            "claim cannot be checked as printed"),
    _c(None, "max3-table", "ternary max on {0,1,2}: no proper prime ideals, {0} semiprime",
       "not-evaluable",
       note="no addition table is stated for this operation, so the axioms and the "
            "claim cannot be checked as printed"),
    _c(None, "nat-add", "nonnegative integers with a+b+c: even numbers form a prime ideal",
       "not-evaluable", note="infinite carrier; outside the enumerable scope"),
    _c(None, "nat-primary", "nonnegative integers with a+b+c: multiples of 4 are primary "
       "but not prime", "not-evaluable",
       note="infinite carrier; outside the enumerable scope"),
    _c(None, "matrix-ideal", "matrices over nonnegative integers under entrywise a+b+c: "
       "zero-diagonal matrices form an ideal", "not-evaluable",
       note="infinite carrier; outside the enumerable scope"),
]
