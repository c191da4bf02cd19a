"""Partial-augmentation tools for torsion units of odd order n.

Augmentation vectors indexed by sign classes, the augmentations of
powers, exact eigenvalue multiplicities of the degree-(1+2m)
representations, and an exploratory search over small augmentation
vectors.  The real trace values an augmentation vector implies, and
their exact Fourier inversion, are cross-checks in torunits.oracles.
None of this is on the verification path in torunits.helpengine; only
the explore-eps command imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping

from torunits.cyclotomic import CycInt, rational_trace
from torunits.numtheory import class_rep, class_reps, divisors
from torunits.psl2 import character_value


@dataclass(frozen=True)
class AugVector:
    """Partial augmentations of a normalized unit, indexed by sign classes.

    eps[x] is the partial augmentation at the class of the x-th power of
    the reference generator; the values must sum to 1.  For a unit
    different from 1 the entry at class 0 vanishes (Berman-Higman), but
    the constructor does not force this so the trivial unit can be
    represented too.
    """

    n: int
    eps: Mapping[int, int]

    def __post_init__(self):
        reps = class_reps(self.n)
        rep_set = set(reps)
        bad = [x for x in self.eps if x not in rep_set]
        if bad:
            raise ValueError(f"keys must be class representatives in [0, {self.n//2}]: {bad}")
        full = {x: int(self.eps.get(x, 0)) for x in reps}
        if sum(full.values()) != 1:
            raise ValueError(f"partial augmentations must sum to 1, got {sum(full.values())}")
        object.__setattr__(self, "eps", full)

    @staticmethod
    def indicator(n: int, x: int) -> "AugVector":
        return AugVector(n, {class_rep(n, x): 1})

    def __getitem__(self, x: int) -> int:
        return self.eps[class_rep(self.n, x)]


# -- eigenvalue multiplicities ------------------------------------------


def classwise_powers(eps: AugVector) -> dict[int, AugVector]:
    """Augmentations of the c-th powers under the class-power rule.

    Sends the class of x to the class of x modulo n/c; exact whenever
    the augmentations are the indicator of a single class (a genuine
    group element), and the natural default elsewhere.
    """
    n = eps.n
    out = {}
    for c in divisors(n):
        if c == 1:
            continue
        k = n // c
        folded: dict[int, int] = {}
        for x, v in eps.eps.items():
            if v:
                y = class_rep(k, x) if k > 1 else 0
                folded[y] = folded.get(y, 0) + v
        out[c] = AugVector(k, folded)
    return out


def induction_powers(n: int) -> dict[int, AugVector]:
    """Power augmentations under the hypothesis u^c ~ g^c for every c != 1."""
    return classwise_powers(AugVector.indicator(n, 1))


def _eigen_trace(pe: AugVector, m: int, l: int) -> int:
    """Rational trace of chi_m(pe) * zeta^(-l) in the ring of the pe.n-th roots."""
    k = pe.n
    value = CycInt.zero(k)
    for y, v in pe.eps.items():
        if v:
            value = value + v * character_value(k, m, y)
    return rational_trace(value * CycInt.root(k, -l))


def eigenvalue_multiplicity(
    eps: AugVector,
    m: int,
    l: int,
    powers: Mapping[int, AugVector] | None = None,
) -> Fraction:
    """Exact multiplicity of zeta^l as an eigenvalue of the degree-(1+2m) image.

    Uses the finite Fourier inversion over the subfield tower: the term
    for a divisor c of n is the rational trace of chi(u^c) * zeta^(-l)
    taken in the ring of the (n/c)-th roots of unity, where chi(u^c) is
    expanded through the supplied partial augmentations of u^c.  When
    `powers` is omitted they are derived by the class-power rule, which
    matches genuine group elements; explore_augmentations fixes them to
    induction_powers(n) instead.

    For an actual torsion unit the result is a nonnegative integer and
    the function l -> multiplicity is invariant under l -> -l.
    """
    n = eps.n
    if powers is None:
        powers = classwise_powers(eps)
    total = 0
    for c in divisors(n):
        pe = eps if c == 1 else powers[c]
        if pe.n != n // c:
            raise ValueError(f"power augmentations for c={c} must live at modulus {n // c}")
        total += _eigen_trace(pe, m, l)
    return Fraction(total, n)


def explore_size(n: int) -> int:
    """How many vectors explore_augmentations(n) tests.

    These are the vectors in {-1, 0, 1}^(n//2) with entry sum 1: b + 1
    entries 1 and b entries -1 for some b.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd order >= 3, got {n}")
    k = n // 2
    return sum(comb(k, b + 1) * comb(k - b - 1, b) for b in range(k))


def explore_augmentations(n: int, m_max: int = 3) -> list[AugVector]:
    """Exploratory search over small augmentation vectors for units of order n.

    Enumerates every vector with entries in {-1, 0, 1} over the
    nonzero classes (class 0 fixed at 0, total 1) and keeps those whose
    eigenvalue multiplicities, computed under the power hypothesis
    u^c ~ g^c, are nonnegative integers symmetric under l -> -l for all
    character indices m <= m_max.  Exploratory only: the filter is a
    relaxation, so the returned list over-approximates actual units.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd order >= 3, got {n}")
    if m_max < 1:
        raise ValueError(f"need m_max >= 1, got {m_max}")
    reps = class_reps(n)[1:]
    powers = induction_powers(n)

    # Multiplicities are linear in the augmentations with the power terms
    # fixed, so precompute one trace per (m, class, l) plus the constant.
    per_class = {
        (m, x): [_eigen_trace(AugVector.indicator(n, x), m, l) for l in range(n)]
        for m in range(1, m_max + 1)
        for x in reps
    }
    const = {
        m: [sum(_eigen_trace(pe, m, l) for pe in powers.values()) for l in range(n)]
        for m in range(1, m_max + 1)
    }

    found = []

    def walk(idx: int, total: int, values: list[int]):
        if idx == len(reps):
            if total != 1:
                return
            for m in range(1, m_max + 1):
                mults = []
                row = const[m]
                for l in range(n):
                    t = row[l]
                    for x, v in zip(reps, values):
                        if v:
                            t += v * per_class[(m, x)][l]
                    if t % n or t < 0:
                        return
                    mults.append(t // n)
                for l in range(1, n):
                    if mults[l] != mults[-l % n]:
                        return
            found.append(AugVector(n, dict(zip(reps, values))))
            return
        # the entries after this one can still move the total by `rest` either way
        rest = len(reps) - idx - 1
        for v in (-1, 0, 1):
            t = total + v
            if t - rest <= 1 <= t + rest:
                values.append(v)
                walk(idx + 1, t, values)
                values.pop()

    walk(0, 0, [])
    return found


__all__ = [
    "AugVector",
    "classwise_powers",
    "eigenvalue_multiplicity",
    "explore_augmentations",
    "explore_size",
    "induction_powers",
]
