"""Elementary number theory used throughout the verifier.

Besides the usual helpers (factorization, Moebius function, signed
residues) this module implements the sign-class combinatorics on Z/nZ:
residues are grouped by x ~ -x, and each residue is classified, prime
layer by prime layer, as lying in the "near-zero band" (signed residue
of absolute value below n_p/(2p), where n_p is the p-part of n) or
outside of it.  The residues that avoid the near-zero band at every
prime layer index the distinguished basis of the real cyclotomic
subring (see torunits.realbasis).

All band thresholds are compared through the integer inequality
2*p*|r| <=> n_p; no rationals or floats are involved.  Everything here
is a pure function of immutable values.
"""

from __future__ import annotations

import math
from functools import lru_cache


def is_prime(m: int) -> bool:
    """Whether m is prime: its factorization is m itself, once."""
    return m > 1 and factorize(m) == ((m, 1),)


@lru_cache(maxsize=None)
def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of m >= 1 as ((p, e), ...) with p ascending."""
    if m < 1:
        raise ValueError(f"cannot factor {m}: need a positive integer")
    out = []
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return tuple(out)


def prime_divisors(m: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(m))


def prime_count(m: int) -> int:
    """Number of distinct prime divisors of a nonzero integer."""
    if m == 0:
        raise ValueError("prime_count is undefined at 0")
    return len(factorize(abs(m)))


def radical(m: int) -> int:
    """Product of the distinct primes dividing m."""
    return math.prod(prime_divisors(m))


def moebius(m: int) -> int:
    """Moebius function: 0 unless m is squarefree, else (-1)^#primes."""
    if m < 1:
        raise ValueError(f"moebius is defined on positive integers, got {m}")
    fs = factorize(m)
    if any(e > 1 for _, e in fs):
        return 0
    return -1 if len(fs) % 2 else 1


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError(f"euler_phi is defined on positive integers, got {m}")
    out = 1
    for p, e in factorize(m):
        out *= (p - 1) * p ** (e - 1)
    return out


@lru_cache(maxsize=None)
def divisors(m: int) -> tuple[int, ...]:
    """All positive divisors of m >= 1, ascending."""
    out = [1]
    for p, e in factorize(m):
        out = [d * p**k for d in out for k in range(e + 1)]
    return tuple(sorted(out))


def signed_residue(x: int, n: int) -> int:
    """The representative of x mod n in the half-open interval (-n/2, n/2]."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    r = x % n
    return r - n if 2 * r > n else r


def near_zero_part(n: int, x: int) -> int:
    """Product of the primes p | n at which x falls in the near-zero band.

    p contributes iff |signed_residue(x, n_p)| < n_p / (2p), compared
    exactly as 2*p*|r| < n_p.  Always a squarefree divisor of rad(n).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    out = 1
    for p, e in factorize(n):
        np_ = p**e
        if 2 * p * abs(signed_residue(x, np_)) < np_:
            out *= p
    return out


def pair_weight(n: int, x: int) -> int:
    """Number of coinciding summands in zeta^x + zeta^-x: 2 iff n | x, else 1."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd modulus >= 3, got {n}")
    return 2 if x % n == 0 else 1


def same_class(n: int, x: int, y: int) -> bool:
    """Whether x and y agree up to sign mod n (x = y or x = -y mod n)."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return (x - y) % n == 0 or (x + y) % n == 0


def class_rep(n: int, x: int) -> int:
    """Canonical representative of the sign class of x: the value in [0, n/2]."""
    r = x % n
    return r if 2 * r <= n else n - r


def class_reps(n: int) -> tuple[int, ...]:
    """All sign-class representatives mod n, ascending: 0, 1, ..., floor(n/2)."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return tuple(range(n // 2 + 1))


def basis_exponents(n: int) -> tuple[int, ...]:
    """Residues mod n, for odd n >= 3, outside the near-zero band at every prime layer.

    These exponents b are exactly the ones for which {zeta_n^b} is a
    Z-basis of Z[zeta_n]; the set is closed under negation and has
    euler_phi(n) elements.  For squarefree n it is the set of units.
    The band is tested once, by near_zero_part: for odd p the bound
    2*p*|r| = n_p is never met, so a residue is outside the band at
    every layer exactly when it is near zero at no prime.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd modulus >= 3, got {n}")
    return tuple(x for x in range(n) if near_zero_part(n, x) == 1)
