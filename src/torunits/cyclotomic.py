"""Exact arithmetic in the rings Z[zeta_n] of cyclotomic integers.

An element is stored as a length-n integer vector indexed by
root-of-unity exponents (coefficient of zeta_n^j at index j).  This
representation makes the formulas of the verifier - which are naturally
exponent-indexed - cheap to build, while equality, zero tests and
integer divisibility go through the canonical form: the remainder
modulo the n-th cyclotomic polynomial, whose power basis 1, zeta, ...,
zeta^(phi(n)-1) is a Z-basis of Z[zeta_n].  The canonical form is
computed on each read and not stored, as an element is rarely read
twice.

A polynomial is its sequence of coefficients, lowest degree first;
cyclotomic_poly returns an immutable tuple.  All coefficients are
arbitrary-precision Python integers; cyclotomic polynomials are
products of the binomials X^e - 1 and exact quotients by them (the
Moebius product), never computed numerically.

Three private primitives on coefficient lists carry this arithmetic,
and that of divisibility, realbasis, augment and oracles: _fold
(sum c_j X^(s*j) modulo X^m - 1), _convolve (the product) and
_long_divide (quotient and remainder by a monic divisor).  _fold_pairs
is the fold of sign-class data, and _root_walk steps the canonical form
of a root of unity up or down one exponent at a time, with no division.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Sequence

from torunits.numtheory import divisors, euler_phi, moebius, radical


# -- the polynomial core: coefficient lists, lowest degree first -------


def _fold(coeffs: Iterable[int], s: int, m: int) -> list[int]:
    """The m coefficients of sum_j coeffs[j] X^(s*j) modulo X^m - 1."""
    out = [0] * m
    for j, c in enumerate(coeffs):
        if c:
            out[s * j % m] += c
    return out


def _fold_pairs(terms: Iterable[tuple[int, int]], s: int, m: int) -> list[int]:
    """The m coefficients of sum c * (X^(s*x) + X^(-s*x)) modulo X^m - 1 over the pairs (x, c).

    This is the fold of sign-class data: a class x stands for the pair
    of exponents +-x, and the class 0 (both exponents 0) counts twice.
    """
    out = [0] * m
    for x, c in terms:
        out[s * x % m] += c
        out[-s * x % m] += c
    return out


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of the product of a and b; empty when either is."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _long_divide(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic den over Z, by schoolbook long division.

    den must end in 1, so every quotient coefficient is an integer as it
    stands; any other leading coefficient raises ValueError.  Both
    callers divide by monic polynomials: Phi_n and the binomials
    X^e - 1.  The remainder has exactly len(den) - 1 coefficients.
    """
    if den[-1] != 1:
        raise ValueError(f"divisor must be monic, got leading coefficient {den[-1]}")
    dd = len(den) - 1
    terms = [(j, c) for j, c in enumerate(den[:dd]) if c]
    rem = list(num)
    quot = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            off = i - dd
            quot[off] = c
            for j, dc in terms:
                rem[off + j] -= c * dc
    del rem[dd:]
    rem.extend([0] * (dd - len(rem)))
    return quot, rem


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """The coefficients of the m-th cyclotomic polynomial, lowest degree first.

    For squarefree m > 1, Phi_m = prod over e | m of (X^e - 1)^mu(m/e):
    the binomials with mu = +1 are multiplied, and then those with
    mu = -1 are divided out exactly, each step one pass over the
    coefficients; a division that leaves a remainder raises ArithmeticError.
    For general m the squarefree core is inflated via the exponent
    substitution X -> X^(m/rad(m)).  Both steps are exact integer
    arithmetic and the result is checked to be monic of degree
    euler_phi(m).
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m == 1:
        return (-1, 1)
    rad = radical(m)
    if rad != m:
        core = cyclotomic_poly(rad)
        s = m // rad
        out = _fold(core, s, s * (len(core) - 1) + 1)
    else:
        out = [1]
        denominators = []
        for e in divisors(m):
            binomial = [-1] + [0] * (e - 1) + [1]
            if moebius(m // e) == 1:
                out = _convolve(out, binomial)
            else:
                denominators.append(binomial)
        for binomial in denominators:
            out, rem = _long_divide(out, binomial)
            if any(rem):
                raise ArithmeticError("inexact polynomial division: nonzero remainder")
    if out[-1] != 1 or len(out) - 1 != euler_phi(m):
        raise ArithmeticError(f"cyclotomic polynomial computation failed for m={m}")
    return tuple(out)


def _root_walk(m: int, e: int, step: int) -> Iterator[list[int]]:
    """Canonical forms of zeta_m^e, zeta_m^(e+step), zeta_m^(e+2*step), ..., endlessly.

    m >= 2, 0 <= e < phi(m) and step is 1 or -1.  Each step is one
    pass over phi(m) coefficients.  Up, the product with zeta pushes a
    coefficient h to degree phi(m), and h * Phi_m (monic) takes it
    back.  Down, the constant term c is first cleared with c * Phi_m,
    which is exact because Phi_m(0) = 1 for m >= 2; the rest then
    shifts down one place.
    """
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    low, high = phi[:deg], phi[1:]
    v = [0] * deg
    v[e] = 1
    while True:
        yield v
        if step == 1:
            h = v[-1]
            v = [0] + v[:-1]
            if h:
                v = [a - h * p for a, p in zip(v, low)]
        else:
            c = v[0]
            v = v[1:] + [0]
            if c:
                v = [a - c * p for a, p in zip(v, high)]


class CycInt:
    """An element of Z[zeta_n], stored as its exponent vector."""

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs: Sequence[int]):
        if n < 1:
            raise ValueError(f"modulus must be positive, got {n}")
        coeffs = tuple(coeffs)
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
        self.n = n
        self._coeffs = coeffs

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(n: int) -> "CycInt":
        return CycInt(n, (0,) * n)

    @staticmethod
    def integer(n: int, c: int) -> "CycInt":
        return CycInt(n, (c,) + (0,) * (n - 1))

    @staticmethod
    def one(n: int) -> "CycInt":
        return CycInt.integer(n, 1)

    @staticmethod
    def root(n: int, e: int = 1) -> "CycInt":
        """The root of unity zeta_n^e."""
        coeffs = [0] * n
        coeffs[e % n] = 1
        return CycInt(n, coeffs)

    # -- views -------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def reduced(self) -> tuple[int, ...]:
        """Coordinates in the power basis 1, zeta, ..., zeta^(phi(n)-1), computed on each read."""
        return tuple(_long_divide(self._coeffs, cyclotomic_poly(self.n))[1])

    def is_zero(self) -> bool:
        return not any(self.reduced)

    def __repr__(self) -> str:
        terms = [f"{c}*z^{e}" for e, c in enumerate(self._coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"CycInt(n={self.n}: {body})"

    # -- ring structure ----------------------------------------------

    def _check_same_ring(self, other: "CycInt") -> None:
        if self.n != other.n:
            raise ValueError(f"modulus mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "CycInt") -> "CycInt":
        self._check_same_ring(other)
        return CycInt(self.n, [a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._check_same_ring(other)
        return CycInt(self.n, [a - b for a, b in zip(self._coeffs, other._coeffs)])

    def __neg__(self) -> "CycInt":
        return CycInt(self.n, [-a for a in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.n, [other * a for a in self._coeffs])
        self._check_same_ring(other)
        return CycInt(self.n, _fold(_convolve(self._coeffs, other._coeffs), 1, self.n))

    def __rmul__(self, other: int) -> "CycInt":
        if not isinstance(other, int):
            return NotImplemented
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.n == other.n and self.reduced == other.reduced

    def __hash__(self) -> int:
        return hash((self.n, self.reduced))

    # -- Galois action and derived predicates ------------------------

    def galois(self, s: int) -> "CycInt":
        """Apply zeta^j -> zeta^(s*j); s must be invertible mod n."""
        n = self.n
        if gcd(s, n) != 1:
            raise ValueError(f"{s} is not invertible modulo {n}")
        return CycInt(n, _fold(self._coeffs, s, n))

    def conjugate(self) -> "CycInt":
        return self.galois(self.n - 1) if self.n > 1 else self

    def is_real(self) -> bool:
        """Whether the element is fixed by zeta -> zeta^-1."""
        return self == self.conjugate()

    def divisible_by(self, k: int) -> bool:
        """Membership in k*Z[zeta_n], tested on canonical coordinates."""
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        return all(c % k == 0 for c in self.reduced)


def eval_at_root(f: Sequence[int], n: int) -> CycInt:
    """The value at zeta_n of the polynomial with coefficients f, exponents folded mod n."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return CycInt(n, _fold(f, 1, n))


def real_trace(n: int, x: int) -> CycInt:
    """zeta_n^x + zeta_n^-x: the trace of zeta_n^x to the maximal real subfield.

    Defined for odd n >= 3; equals the integer 2 when n divides x.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd modulus >= 3, got {n}")
    return CycInt(n, _fold_pairs(((x, 1),), 1, n))


def rational_trace(a: CycInt) -> int:
    """Trace of a from Q(zeta_n) down to Q, as an exact integer."""
    n = a.n
    total = CycInt.zero(n)
    for s in range(n):
        if gcd(s, n) == 1:
            total = total + a.galois(s)
    red = total.reduced
    if any(red[1:]):
        raise ArithmeticError("trace did not reduce to a rational integer")
    return red[0] if red else 0


__all__ = [
    "CycInt",
    "cyclotomic_poly",
    "eval_at_root",
    "rational_trace",
    "real_trace",
]
