"""Case-analysis engine for torsion units of odd composite order n.

This module is the verification path, candidate_divisors ->
enumerate_patterns -> check_case -> verify_order, and nothing else.
Patterns travel as bare sorted class tuples.  The independent
cross-check oracles (EigenPattern, dense deviation vectors, the bound
and weight checks) live in torunits.oracles and the augmentation-vector
tools in torunits.augment; this module imports neither.

Setting: u is a normalized torsion unit of order n (odd, coprime to the
group characteristic, not a prime power) in the integral group ring of
PSL(2,q), g is a group element of order n with the same image under the
degree-3 representation, and every proper power of u is rationally
conjugate to the corresponding power of g.  If u itself were NOT
rationally conjugate to g, there would be a minimal divisor d of n
(1 < d < n) such that the degree-(1+2d) character separates them, and
the eigenvalue exponents of the degree-(1+2d) representation at u would
form a tuple of sign classes (v_1, ..., v_d) satisfying, for every
divisor c != 1 of n, the multiset constraint

    {classes of v_i mod n/c}  ==  {classes of 1..d mod n/c}.

For each candidate tuple the engine computes the deviation vector: the
difference of distinguished-basis coordinates between the candidate's
character value and the group element's.  A counterexample tuple must
have every deviation coordinate divisible by d (the character values
differ by d times a real cyclotomic integer) while the vector itself is
nonzero.  A tuple meeting both conditions is a SURVIVOR; if no survivor
exists the case (n, d) is ELIMINATED, and eliminating every candidate d
proves that units of order n are rationally conjugate to group
elements.  Survivors over-approximate realizable counterexamples, so
only "eliminated" carries mathematical weight.

The enumeration is a backtracking search over non-decreasing class
tuples constrained by per-prime residue multisets (the constraints for
prime c imply those for composite c); its output order is canonical and
the engine runs in one process, so certificates are byte-stable.  Each
deviation is a sparse sum of the closed-formula rows of
realbasis.trace_coordinates over the positions those rows touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import gcd
from typing import Iterator, Mapping

from torunits.numtheory import class_rep, class_reps, divisors, prime_count, prime_divisors
from torunits.psl2 import group_profile, is_prime_power
from torunits.realbasis import basis_indices, trace_coordinates


class CaseInapplicableError(ValueError):
    """The requested (n, d) pair is outside the engine's case ledger."""


class InvariantViolationError(RuntimeError):
    """An internal bound or cross-check failed; indicates a bug, not a survivor."""


# -- candidate divisors --------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    d: int
    zero_slot_open: bool  # whether a class-0 eigenvalue slot is possible (n/d is the smallest prime of n)


@dataclass(frozen=True)
class CandidateDivisors:
    n: int
    applicable: bool
    reason: str | None
    retained: tuple[Candidate, ...]
    dropped: tuple[tuple[int, str], ...]

    @property
    def retained_ds(self) -> tuple[int, ...]:
        return tuple(c.d for c in self.retained)


def candidate_divisors(n: int) -> CandidateDivisors:
    """Divisors 1 < d < n that could separate a unit of order n from g.

    d = 1 is excluded by the choice of g, d = n by augmentation 1.  A
    divisor survives only if d <= 1 + 2^(#primes(d)+2); when no class-0
    eigenvalue slot is possible (n/d is not the smallest prime dividing
    n) the sharper bound 2^(#primes(d)+2) applies.  Dropped divisors
    are eliminated a priori: the deviation vector can never reach d.
    """
    if n % 2 == 0:
        return CandidateDivisors(n, False, "even order", (), ())
    if n < 3:
        return CandidateDivisors(n, False, "trivial order", (), ())
    if is_prime_power(n):
        return CandidateDivisors(n, False, "prime-power order", (), ())
    smallest = prime_divisors(n)[0]
    retained = []
    dropped = []
    for d in divisors(n):
        if d == 1 or d == n:
            continue
        cap = 2 ** (prime_count(d) + 2)
        zero_slot_open = n // d == smallest
        if d > 1 + cap:
            dropped.append((d, f"coefficient bound {1 + cap} < {d}"))
        elif not zero_slot_open and d > cap:
            dropped.append((d, f"coefficient bound {cap} < {d} with no class-0 slot"))
        else:
            retained.append(Candidate(d, zero_slot_open))
    return CandidateDivisors(n, True, None, tuple(retained), tuple(dropped))


# -- eigenvalue patterns -------------------------------------------------


def enumerate_patterns(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """All admissible patterns for the case (n, d), in lexicographic order.

    Each pattern is a tuple of d class representatives in [0, n/2], in
    non-decreasing order (the canonical form of its multiset).

    The constraints for prime divisors c = p (classes modulo n/p, the
    most restrictive moduli) imply those for composite c, so one residue
    counter per prime suffices.  Classes with the same residue class at
    every prime form a cell; the search first distributes the required
    counts over cells by backtracking (pruning on residue-class coverage
    of the remaining cells), then expands each cell count into the
    combinations of its classes.  The stream is sorted and free of
    duplicates up to reordering and sign normalization.
    """
    moduli = [n // p for p in prime_divisors(n)]
    nmod = len(moduli)
    counters: list[dict[int, int]] = []
    for m in moduli:
        want: dict[int, int] = {}
        for i in range(1, d + 1):
            y = class_rep(m, i)
            want[y] = want.get(y, 0) + 1
        counters.append(want)

    cells: dict[tuple[int, ...], list[int]] = {}
    for x in class_reps(n):
        cells.setdefault(tuple(class_rep(m, x) for m in moduli), []).append(x)
    cell_list = sorted(cells)
    # last[mi][y]: index of the last cell whose projection at modulus mi
    # is y, so y is still reachable from cell i iff last[mi][y] >= i
    last: list[dict[int, int]] = [{} for _ in range(nmod)]
    for i, proj in enumerate(cell_list):
        for mi, y in enumerate(proj):
            last[mi][y] = i

    assignments: list[list[tuple[tuple[int, ...], int]]] = []
    picked: list[tuple[tuple[int, ...], int]] = []

    def walk(i: int, remaining: int) -> None:
        if remaining == 0:
            assignments.append(picked.copy())
            return
        if i == len(cell_list):
            return
        for mi, counter in enumerate(counters):
            for y, c in counter.items():
                if c and last[mi].get(y, -1) < i:
                    return
        proj = cell_list[i]
        high = min(counters[mi].get(y, 0) for mi, y in enumerate(proj))
        low = 0
        for mi, y in enumerate(proj):
            need = counters[mi].get(y, 0)
            if need and last[mi][y] == i:
                low = max(low, need)
        if low > min(high, remaining):
            return
        for c in range(low, min(high, remaining) + 1):
            if c:
                for mi, y in enumerate(proj):
                    counters[mi][y] -= c
                picked.append((proj, c))
            walk(i + 1, remaining - c)
            if c:
                picked.pop()
                for mi, y in enumerate(proj):
                    counters[mi][y] += c

    walk(0, d)

    patterns: list[tuple[int, ...]] = []
    for assignment in assignments:
        pools = [
            list(combinations_with_replacement(cells[proj], c)) for proj, c in assignment
        ]
        for combo in product(*pools):
            flat: list[int] = []
            for group in combo:
                flat.extend(group)
            patterns.append(tuple(sorted(flat)))
    patterns.sort()
    yield from patterns


# -- case analysis -------------------------------------------------------


@dataclass(frozen=True)
class NearMiss:
    """A pattern that reaches the required deviation size but fails divisibility."""

    pattern: tuple[int, ...]
    max_abs_deviation: int
    basis_index: int
    deviation: int


@dataclass(frozen=True)
class CaseCertificate:
    n: int
    d: int
    zero_slot_open: bool
    verdict: str  # "eliminated" | "survivors_found"
    tuples_examined: int
    pruning_stats: Mapping[str, int]
    survivors: tuple[tuple[int, ...], ...]
    near_misses: tuple[NearMiss, ...]
    basis: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "zero_slot_open": self.zero_slot_open,
            "verdict": self.verdict,
            "tuples_examined": self.tuples_examined,
            "pruning_stats": dict(self.pruning_stats),
            "basis_indices": list(self.basis),
            "near_miss_witnesses": [
                {
                    "pattern": list(nm.pattern),
                    "max_abs_deviation": nm.max_abs_deviation,
                    "basis_index": nm.basis_index,
                    "deviation": nm.deviation,
                    "violated": "divisibility",
                }
                for nm in self.near_misses
            ],
            "survivors": [list(s) for s in self.survivors],
        }


def check_case(n: int, d: int) -> CaseCertificate:
    """Examine every admissible pattern for (n, d) and certify the outcome.

    A pattern survives iff its deviation vector is nonzero and divisible
    by d at every basis index; "eliminated" means no pattern survives.
    The patterns are classified one after another in this process, so
    the certificate is deterministic.
    """
    cands = candidate_divisors(n)
    if not cands.applicable:
        raise CaseInapplicableError(f"order {n} not applicable: {cands.reason}")
    by_d = {c.d: c for c in cands.retained}
    if d not in by_d:
        dropped = dict(cands.dropped)
        if d in dropped:
            raise CaseInapplicableError(f"divisor {d} of {n} excluded a priori: {dropped[d]}")
        raise CaseInapplicableError(f"{d} is not a candidate divisor of {n}")

    basis, rows = basis_indices(n), trace_coordinates(n)
    # g's character data, negated: the rows of the classes of 1..d
    neg_ident: dict[int, int] = {}
    for i in range(1, d + 1):
        for k, v in rows[class_rep(n, i)]:
            neg_ident[k] = neg_ident.get(k, 0) - v
    cap = 2 ** (prime_count(d) + 2)
    patterns = list(enumerate_patterns(n, d))

    stats = {
        "weight_filter_failures": 0,
        "deviation_zero": 0,
        "divisibility_failures": 0,
        "near_misses": 0,
        "survivors": 0,
    }
    survivors: list[tuple[int, ...]] = []
    near: list[NearMiss] = []

    smallest = prime_divisors(n)[0]
    # each deviation is summed sparsely from the negated identity, so only
    # the basis positions some row touches are visited; every other
    # coordinate is 0, which moves neither the maximum nor any test
    for classes in patterns:
        zeros = sum(1 for x in classes if x == 0)
        if zeros > 1 or (zeros == 1 and n // d != smallest):
            stats["weight_filter_failures"] += 1
        acc = dict(neg_ident)
        for x in classes:
            for k, v in rows[x]:
                acc[k] = acc.get(k, 0) + v
        max_abs = max(map(abs, acc.values()), default=0)
        bound = cap + 1 if zeros else cap
        if max_abs > bound:
            raise InvariantViolationError(
                f"deviation {max_abs} exceeds bound {bound} on pattern {classes} at (n={n}, d={d})"
            )
        if not max_abs:
            stats["deviation_zero"] += 1
            continue
        failing = [k for k, v in acc.items() if v % d]
        if not failing:
            stats["survivors"] += 1
            survivors.append(classes)
        else:
            stats["divisibility_failures"] += 1
            if max_abs >= d:
                stats["near_misses"] += 1
                k = min(failing)
                near.append(NearMiss(classes, max_abs, basis[k], acc[k]))
    if stats["weight_filter_failures"]:
        raise InvariantViolationError(
            f"enumeration emitted a pattern violating the class-0 slot rule at (n={n}, d={d})"
        )

    verdict = "eliminated" if not survivors else "survivors_found"
    return CaseCertificate(
        n=n,
        d=d,
        zero_slot_open=by_d[d].zero_slot_open,
        verdict=verdict,
        tuples_examined=len(patterns),
        pruning_stats=stats,
        survivors=tuple(survivors),
        near_misses=tuple(near),
        basis=basis,
    )


# -- order-level verdicts -------------------------------------------------


@dataclass(frozen=True)
class OrderVerdict:
    n: int
    q: int | None
    conclusion: str  # "verified" | "inconclusive"
    cases: tuple[CaseCertificate, ...]
    dropped_divisors: tuple[tuple[int, str], ...]
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "conclusion": self.conclusion,
            "notes": list(self.notes),
            "dropped_divisors": [{"d": d, "reason": r} for d, r in self.dropped_divisors],
            "cases": [c.to_json_dict() for c in self.cases],
        }


def verify_order(n: int, q: int | None = None) -> OrderVerdict:
    """Decide rational conjugacy for all normalized units of order n.

    For composite odd n every candidate divisor is examined with
    check_case, one case after another in this process; "verified" means
    each one was eliminated, which forces the full trace identity of a
    group generator and hence rational conjugacy.  Prime-power orders
    (and orders that are not element orders of the given group) are
    verified by prior results taken as given and carry an explanatory
    note instead of case certificates.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"order must be odd and positive, got {n}")
    notes: list[str] = []
    if q is not None:
        profile = group_profile(q)
        if gcd(n, 2 * q) != 1:
            raise ValueError(f"order {n} is not coprime to 2q = {2*q}")
        if n > 1 and n not in profile.element_orders:
            notes.append(
                f"PSL(2,{q}) has no elements of order {n}; no normalized torsion "
                "units of that order exist, so there is nothing to check"
            )
            return OrderVerdict(n, q, "verified", (), (), tuple(notes))
    if n == 1:
        notes.append("order 1: only the identity, trivially conjugate")
        return OrderVerdict(n, q, "verified", (), (), tuple(notes))
    if is_prime_power(n):
        notes.append(
            "prime-power order: rational conjugacy holds by established results taken as given"
        )
        return OrderVerdict(n, q, "verified", (), (), tuple(notes))

    cands = candidate_divisors(n)
    cases = tuple(check_case(n, c.d) for c in cands.retained)
    verified = all(c.verdict == "eliminated" for c in cases)
    if verified:
        notes.append(
            "every candidate divisor eliminated: the unit's trace values coincide "
            "with a group generator's at all indices, which forces the augmentation "
            "pattern of the generator and hence rational conjugacy"
        )
    else:
        notes.append("survivors found; no conclusion (the search over-approximates)")
    return OrderVerdict(
        n,
        q,
        "verified" if verified else "inconclusive",
        cases,
        cands.dropped,
        tuple(notes),
    )


__all__ = [
    "Candidate",
    "CandidateDivisors",
    "CaseCertificate",
    "CaseInapplicableError",
    "InvariantViolationError",
    "NearMiss",
    "OrderVerdict",
    "candidate_divisors",
    "check_case",
    "enumerate_patterns",
    "verify_order",
]
