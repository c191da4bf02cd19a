"""Numerical model of PSL(2,q): orders, conjugacy data, character values.

Only conjugacy-invariant data is modeled.  For an element g of odd
order n coprime to the defining characteristic, the group has, for
every m >= 1, an irreducible modular representation of degree 1 + 2m
whose value at g is conjugate to diag(1, z, z^-1, ..., z^m, z^-m) for a
fixed primitive n-th root of unity z.  The associated Brauer character
at the i-th power of g is therefore

    1 + sum_{j=1..m} (zeta^(i*j) + zeta^(-i*j)),

and the eigenvalue exponents of the representation at g^i are the sign
classes of 0, i, 2i, ..., mi.  No matrices over finite fields are ever
constructed; the fixed identification between complex roots of unity
and roots of unity in characteristic t is sidestepped by working with
exponent classes only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from torunits.cyclotomic import CycInt, _fold_pairs
from torunits.numtheory import class_rep, divisors, factorize


def is_prime_power(m: int) -> bool:
    return m > 1 and len(factorize(m)) == 1


@dataclass(frozen=True)
class GroupProfile:
    """Numerical data of PSL(2, q) with q = t^f."""

    q: int
    t: int
    f: int
    d2: int
    order: int
    element_orders: tuple[int, ...]


def group_profile(q: int) -> GroupProfile:
    """Profile of PSL(2, q) for a prime power q >= 4 (the simple range)."""
    if q < 4:
        raise ValueError(f"need a prime power q >= 4, got {q}")
    fs = factorize(q)
    if len(fs) != 1:
        raise ValueError(f"{q} is not a prime power")
    t, f = fs[0]
    d2 = 1 if t == 2 else 2  # gcd(2, q - 1)
    order = (q - 1) * q * (q + 1) // d2
    orders = {t}
    orders.update(divisors((q - 1) // d2))
    orders.update(divisors((q + 1) // d2))
    return GroupProfile(q, t, f, d2, order, tuple(sorted(orders)))


def admissible_orders(q: int) -> tuple[int, ...]:
    """Element orders n > 1 coprime to 2q that are not prime powers.

    These are exactly the unit orders the case-analysis engine has to
    examine; prime-power orders and orders sharing a factor with 2q are
    covered by prior results taken as given.
    """
    profile = group_profile(q)
    return tuple(
        n
        for n in profile.element_orders
        if n > 1 and gcd(n, 2 * q) == 1 and not is_prime_power(n)
    )


def character_value(n: int, m: int, i: int) -> CycInt:
    """Brauer character of the degree-(1+2m) representation at the i-th power.

    Equals sum_{j=-m..m} zeta_n^(i*j); real, and equal to 1 + 2m when
    n divides i.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"need an odd modulus, got {n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    coeffs = _fold_pairs(((j, 1) for j in range(1, m + 1)), i, n)
    coeffs[0] += 1
    return CycInt(n, coeffs)


def eigenvalue_classes(m: int, i: int, n: int) -> tuple[int, ...]:
    """Sign classes of the eigenvalue exponents at the i-th power, sorted.

    The multiset {class(0)} + {class(i*j) : j = 1..m}; each class stands
    for the +- pair of eigenvalues zeta^(i*j), zeta^(-i*j), with the
    leading 1 contributing the zero class.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"need an odd modulus, got {n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return tuple(sorted([class_rep(n, 0)] + [class_rep(n, i * j) for j in range(1, m + 1)]))


__all__ = [
    "GroupProfile",
    "admissible_orders",
    "character_value",
    "eigenvalue_classes",
    "group_profile",
    "is_prime_power",
]
