"""Integer-divisibility criteria for twisted coefficient sums.

Given integers A_0..A_{n-1}, write w(i) = sum_j A_j zeta_n^(i*j), i.e.
the value of the polynomial sum A_j X^j at the i-th power of a
primitive n-th root of unity.  Two facts drive the verifier:

* the (n*p^m)-th cyclotomic polynomial evaluated at zeta_n always lies
  in p*Z[zeta_n];
* if d | n and w(d/q) = 0 for every prime power q dividing d (q != 1),
  then w(d) lies in d*Z[zeta_n].

check_vanishing tests the second statement on a concrete instance, and
check_vanishing_real tests its real-subring analogue, where the data is
indexed by sign classes, w(i) = sum_x B_x * real_trace(n, i*x), and the
conclusion is membership in d*Z[zeta_n + zeta_n^-1] (every coordinate
in the distinguished basis divisible by d).

Membership in p*Z[zeta_n] is decided on reduced power-basis
coordinates, membership in the real subring on distinguished-basis
coordinates from the closed formula; both are exact integer
divisibility tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Sequence

from torunits.cyclotomic import CycInt, IntPoly, _fold, _fold_pairs, cyclotomic_poly, eval_at_root
from torunits.numtheory import class_reps, factorize, is_prime
from torunits.realbasis import decompose_combination


def cyclotomic_value_divisible(n: int, p: int, m: int) -> bool:
    """Whether the (n*p^m)-th cyclotomic polynomial at zeta_n lies in p*Z[zeta_n]."""
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    value = eval_at_root(cyclotomic_poly(n * p**m), n)
    return value.divisible_by(p)


@dataclass(frozen=True)
class PowerSums:
    """Instance data (n, A, d) for the vanishing criterion."""

    n: int
    coeffs: tuple[int, ...]
    d: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"modulus must be positive, got {self.n}")
        if len(self.coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(self.coeffs)}")
        if self.d < 1 or self.n % self.d:
            raise ValueError(f"{self.d} does not divide {self.n}")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    def value(self, i: int) -> CycInt:
        """w(i) = sum_j A_j zeta_n^(i*j) over the full modulus n."""
        return CycInt(self.n, _fold(self.coeffs, i, self.n))

    def _folded_value(self, i: int) -> CycInt:
        # zeta_n^i is a primitive (n/g)-th root for g = gcd(i, n); folding
        # into that smaller ring makes reductions much cheaper and tests
        # the same membership (the smaller ring is integrally closed).
        g = gcd(i, self.n)
        m = self.n // g
        return CycInt(m, _fold(self.coeffs, i // g, m))


@dataclass(frozen=True)
class VanishingVerdict:
    hypotheses_hold: bool
    conclusion_holds: bool


def prime_power_divisors(d: int) -> tuple[int, ...]:
    """All prime powers q > 1 dividing d, ascending."""
    out = [p**j for p, e in factorize(d) for j in range(1, e + 1)]
    return tuple(sorted(out))


def check_vanishing(inst: PowerSums) -> VanishingVerdict:
    """Hypotheses: w(d/q) = 0 for all prime powers q | d; conclusion: d | w(d)."""
    hyp = all(inst._folded_value(inst.d // q).is_zero() for q in prime_power_divisors(inst.d))
    concl = inst._folded_value(inst.d).divisible_by(inst.d)
    return VanishingVerdict(hyp, concl)


def fold_class_vector(n: int, B: Mapping[int, int]) -> tuple[int, ...]:
    """Expand sign-class data B into the coefficient vector A of its power sums.

    Each class x != 0 contributes B_x at both exponents x and n-x; the
    zero class contributes 2*B_0 at exponent 0 because both summands of
    its trace coincide there.
    """
    _check_class_data(n, B)
    return tuple(_fold_pairs(B.items(), 1, n))


def check_vanishing_real(n: int, B: Mapping[int, int], d: int) -> VanishingVerdict:
    """Real-subring analogue: w(i) = sum_x B_x real_trace(n, i*x).

    Same hypotheses as check_vanishing; the conclusion is that every
    distinguished-basis coordinate of w(d) is divisible by d.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError(f"need an odd modulus >= 3, got {n}")
    # fold_class_vector checks the keys of B, PowerSums that d divides n
    inst = PowerSums(n, fold_class_vector(n, B), d)
    hyp = all(inst.value(d // q).is_zero() for q in prime_power_divisors(d))
    # w(d) = sum_x B_x * real_trace(n, d*x): its coordinates are a sum of closed-formula rows
    coords = decompose_combination(n, {d * x: c for x, c in B.items()})
    concl = all(v % d == 0 for v in coords.coords.values())
    return VanishingVerdict(hyp, concl)


def _check_class_data(n: int, B: Mapping[int, int]) -> None:
    reps = set(class_reps(n))
    bad = [x for x in B if x not in reps]
    if bad:
        raise ValueError(f"keys must be sign-class representatives in [0, {n//2}], got {bad}")


def recipe_instance(n: int, d: int, rng, max_coeff: int = 9) -> PowerSums:
    """A seeded instance that satisfies the vanishing hypotheses by construction.

    Multiplies a random integer polynomial by the cyclotomic polynomials
    of (n/d)*q for every prime power q | d, then folds mod X^n - 1.
    """
    if n < 1 or d < 2 or n % d:
        raise ValueError(f"need d >= 2 dividing n, got n={n}, d={d}")
    g = IntPoly([rng.randint(-max_coeff, max_coeff) for _ in range(rng.randrange(1, n + 1))])
    f = g
    k = n // d
    for q in prime_power_divisors(d):
        f = f * cyclotomic_poly(k * q)
    return PowerSums(n, tuple(_fold(f.coeffs, 1, n)), d)


def fold_to_classes(n: int, A: Sequence[int]) -> dict[int, int]:
    """Inverse of fold_class_vector on symmetric vectors (A_j = A_{n-j})."""
    if len(A) != n:
        raise ValueError(f"expected {n} entries, got {len(A)}")
    B = {}
    for x in class_reps(n):
        if x == 0:
            if A[0] % 2:
                raise ValueError("entry at 0 must be even to fold to class data")
            B[0] = A[0] // 2
        else:
            if A[x] != A[(n - x) % n] and 2 * x != n:
                raise ValueError(f"vector not symmetric at {x}")
            B[x] = A[x]
    return B


__all__ = [
    "PowerSums",
    "VanishingVerdict",
    "check_vanishing",
    "check_vanishing_real",
    "cyclotomic_value_divisible",
    "fold_class_vector",
    "fold_to_classes",
    "prime_power_divisors",
    "recipe_instance",
]
