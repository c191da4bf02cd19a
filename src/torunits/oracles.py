"""Cross-check oracles for the case-analysis engine, kept off its path.

torunits.helpengine decides each case with a sparse sum of closed-formula
rows over bare class tuples.  The functions here recompute the same
quantities another way, for tests and for anyone re-checking a
certificate: patterns are wrapped in a validating EigenPattern, the power
constraints are tested for every divisor of n (not only the primes),
and deviation vectors are dense sums through
realbasis.decompose_combination.  Nothing on the command-line path
imports this module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from torunits.helpengine import InvariantViolationError
from torunits.numtheory import class_rep, divisors, prime_count, prime_divisors
from torunits.realbasis import basis_indices, decompose_combination


@dataclass(frozen=True)
class EigenPattern:
    """Candidate eigenvalue-exponent classes (v_1, ..., v_d), sorted ascending.

    The deviation formula and all constraints depend on the classes only
    as a multiset, so patterns are canonicalized to non-decreasing order
    and normalized into [0, n/2].
    """

    n: int
    d: int
    classes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(sorted(self.classes)))
        if len(self.classes) != self.d:
            raise ValueError(f"expected {self.d} classes, got {len(self.classes)}")


def bound_filtered_divisors(limit: int) -> tuple[int, ...]:
    """Odd d in [3, limit] with d <= 1 + 2^(#primes(d) + 2).

    The deviation-vector bound makes every other divisor impossible a
    priori; over any practical range the surviving set is {3,5,7,9,15}.
    """
    return tuple(
        d for d in range(3, limit + 1, 2) if d <= 1 + 2 ** (prime_count(d) + 2)
    )


def satisfies_power_constraints(pattern: EigenPattern) -> bool:
    """Full divisor-family check of the multiset constraints."""
    n, d = pattern.n, pattern.d
    for c in divisors(n):
        if c == 1:
            continue
        m = n // c
        want = sorted(class_rep(m, i) for i in range(1, d + 1))
        got = sorted(class_rep(m, v) for v in pattern.classes)
        if want != got:
            return False
    return True


def deviation_vector(pattern: EigenPattern) -> tuple[int, ...]:
    """Coordinatewise difference between the pattern's and g's character data.

    Entry k is the distinguished-basis coordinate at basis index k of
    (character value at the candidate) - (character value at g): the
    combination of real traces with +1 per pattern class and -1 per
    class of 1..d, decomposed densely by the closed formula.
    """
    n = pattern.n
    terms = Counter(pattern.classes)
    terms.subtract(class_rep(n, i) for i in range(1, pattern.d + 1))
    coords = decompose_combination(n, terms)
    return tuple(coords[b] for b in basis_indices(n))


def deviation(pattern: EigenPattern, b: int) -> int:
    """Deviation coordinate at one basis index b."""
    try:
        k = basis_indices(pattern.n).index(b)
    except ValueError:
        raise ValueError(f"{b} is not a basis index for n={pattern.n}") from None
    return deviation_vector(pattern)[k]


@dataclass(frozen=True)
class BoundCheck:
    max_abs_deviation: int
    bound: int


def bound_check(pattern: EigenPattern) -> BoundCheck:
    """The a-priori bound 2^(P+2), plus 1 with a class-0 slot, against |deviation|."""
    cap = 2 ** (prime_count(pattern.d) + 2)
    bound = cap + 1 if 0 in pattern.classes else cap
    out = BoundCheck(max(map(abs, deviation_vector(pattern))), bound)
    if out.max_abs_deviation > out.bound:
        raise InvariantViolationError(
            f"deviation {out.max_abs_deviation} exceeds bound {out.bound} on {pattern}"
        )
    return out


def weight_consistent(pattern: EigenPattern) -> bool:
    """Redundant cross-check of the class-0 slot rule.

    At most one entry may be the zero class, and only when n/d is the
    smallest prime dividing n; the enumeration constraints already
    imply this.
    """
    zeros = pattern.classes.count(0)
    if zeros == 0:
        return True
    if zeros > 1:
        return False
    return pattern.n // pattern.d == prime_divisors(pattern.n)[0]


__all__ = [
    "BoundCheck",
    "EigenPattern",
    "bound_check",
    "bound_filtered_divisors",
    "deviation",
    "deviation_vector",
    "satisfies_power_constraints",
    "weight_consistent",
]
