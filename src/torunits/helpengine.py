"""Case-analysis engine for torsion units of odd composite order n.

This module is the verification path, candidate_divisors -> check_case
-> verify_order, and nothing else but enumerate_patterns, the sorted
pattern stream the tests hold check_case against.  Patterns travel as
bare sorted class tuples.  The independent cross-check oracles
(EigenPattern, dense deviation vectors, the bound and weight checks)
live in torunits.oracles and the augmentation-vector tools in
torunits.augment; this module imports neither.

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

The admissible tuples are those meeting per-prime residue multisets
(the constraints for prime c imply those for composite c).  One walk
builds them as a trie of per-cell class counts, memoized on the residue
counters packed into one int, so equal subtries are built once and
shared: the trie is a DAG.  A cell of one class offers one choice, so
the walk folds a node with a single edge from such a cell into the
edge above it: an edge carries a run of (cell, count) steps.
check_case searches the DAG depth first, adding the sparse
closed-formula rows of realbasis.trace_coordinates into a flat
deviation list, one entry per basis position, and classifies each
tuple when it reaches it, without listing the tuples.  Each entry is
stored plus an offset derived from the rows, so it indexes a list
tally of the two running counts directly.  It first resolves each DAG
node once, looking up the class groups of its edges' runs, each with
its rows summed, so a run costs one push.  It classifies in trie order
and sorts only the survivors and near misses, in one process, so
certificates are byte-stable.
enumerate_patterns expands the same trie into the sorted tuple stream
the tests check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, product
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

    An order outside the case ledger (not positive, even, 1 or a prime
    power) raises CaseInapplicableError naming the reason.
    """
    if n < 1:
        raise CaseInapplicableError(f"order {n} not applicable: non-positive order")
    if n % 2 == 0:
        raise CaseInapplicableError(f"order {n} not applicable: even order")
    if n < 3:
        raise CaseInapplicableError(f"order {n} not applicable: trivial order")
    if is_prime_power(n):
        raise CaseInapplicableError(f"order {n} not applicable: prime-power order")
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
    return CandidateDivisors(n, tuple(retained), tuple(dropped))


# -- eigenvalue patterns -------------------------------------------------

# A node of the assignment trie is a list of edges (run, child).  A run is
# a tuple of (cell, count) steps, `count` classes from cell `cell`: the
# edge's own step, then, while the node below has a single edge whose first
# cell has one class, that edge's steps, as such a node offers one choice.
# child is the node after the run, or None when the d classes are
# complete.  Equal subtries are one shared object, so the trie is a DAG;
# nothing mutates a node once it is built.
_Run = tuple[tuple[int, int], ...]
_Trie = list[tuple[_Run, "_Trie | None"]]


def _assignment_trie(n: int, d: int) -> tuple[list[tuple[int, ...]], _Trie]:
    """The cells usable at (n, d) and the trie of admissible per-cell class counts.

    The constraints for prime divisors c = p (classes modulo n/p, the
    most restrictive moduli) imply those for composite c, so one residue
    counter per prime suffices.  Classes with the same residue class at
    every prime form a cell, and a cell is usable when each of its
    residues is one the counters require.  A root-to-leaf path of the
    trie is one way to distribute the d classes over the usable cells,
    visited in order, that meets every counter exactly.  Cells taking no
    class add no edge, and subtrees with no leaf are dropped.  A child
    with a single edge from a one-class cell is folded into the edge
    above it, which takes its run, so a run holds one step from any cell
    and then only steps from one-class cells.

    The subtrie below cell i depends only on i and the counters, so each
    (i, counters) state is built once and shared by every path reaching
    it, which makes the trie a DAG.  The counters are packed into one
    int, d.bit_length() + 1 bits per (modulus, residue) slot, and the
    memo is keyed by (i, packed).  The number of classes still to place
    is implied, as the counters of each modulus sum to it.
    """
    moduli = [n // p for p in prime_divisors(n)]
    counters: list[dict[int, int]] = []
    for m in moduli:
        want: dict[int, int] = {}
        for i in range(1, d + 1):
            y = class_rep(m, i)
            want[y] = want.get(y, 0) + 1
        counters.append(want)

    by_proj: dict[tuple[int, ...], list[int]] = {}
    for x in class_reps(n):
        proj = tuple(class_rep(m, x) for m in moduli)
        if all(y in counter for counter, y in zip(counters, proj)):
            by_proj.setdefault(proj, []).append(x)
    projs = sorted(by_proj)
    cells = [tuple(by_proj[proj]) for proj in projs]
    # last[mi][y]: index of the last cell whose projection at modulus mi is y
    last: list[dict[int, int]] = [{} for _ in moduli]
    for i, proj in enumerate(projs):
        for mi, y in enumerate(proj):
            last[mi][y] = i
    # every required residue has a cell: class_rep(m, i) is the residue at
    # m of class class_rep(n, i), which is usable.  Nor can the walk strand
    # one: at its last cell it must take all it still needs (`low` below),
    # so no later cell needs it.
    # slot[mi, y]: the bit offset of counter (mi, y) in the packed state;
    # a count never exceeds d, so `width` bits hold it with one to spare
    width = d.bit_length() + 1
    mask = (1 << width) - 1
    keys = [(mi, y) for mi, want in enumerate(counters) for y in want]
    slot = {key: width * k for k, key in enumerate(keys)}
    packed = sum(counters[mi][y] << s for (mi, y), s in slot.items())
    # per cell, the offsets of the counters it draws on, those of them whose
    # residue has no later cell, and what taking one class subtracts
    draws = [[slot[mi, y] for mi, y in enumerate(proj)] for proj in projs]
    closes = [
        [slot[mi, y] for mi, y in enumerate(proj) if last[mi][y] == i]
        for i, proj in enumerate(projs)
    ]
    unit = [sum(1 << s for s in offsets) for offsets in draws]
    memo: dict[tuple[int, int], _Trie] = {}

    def build(i: int, remaining: int, packed: int) -> _Trie:
        if i == len(cells):
            return []
        key = (i, packed)
        edges = memo.get(key)
        if edges is not None:
            return edges
        high = remaining
        for s in draws[i]:
            v = packed >> s & mask
            if v < high:
                high = v
        low = 0
        for s in closes[i]:
            v = packed >> s & mask
            if v > low:
                low = v
        edges = []
        for c in range(low, high + 1):
            if not c:
                edges.extend(build(i + 1, remaining, packed))
            elif c == remaining:
                edges.append((((i, c),), None))
            else:
                child = build(i + 1, remaining - c, packed - c * unit[i])
                if len(child) == 1 and len(cells[child[0][0][0][0]]) == 1:
                    # one edge from a one-class cell: fold its run into this edge
                    ((run, child),) = child
                    edges.append((((i, c),) + run, child))
                elif child:
                    edges.append((((i, c),), child))
        memo[key] = edges
        return edges

    trie = build(0, d, packed)
    # build reaches itself through its closure; unbinding it breaks that
    # cycle, so the memo is freed on return, not at the next collection
    del build
    return cells, trie


def enumerate_patterns(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """All admissible patterns for the case (n, d), in lexicographic order.

    Each pattern is a tuple of d class representatives in [0, n/2], in
    non-decreasing order (the canonical form of its multiset).  The
    patterns are the expansions of the assignment trie that check_case
    searches: every path's (cell, count) steps, each expanded into the
    combinations of its cell's classes, over every step of each run.
    The stream is sorted and free of duplicates up to reordering and
    sign normalization; it is the reference the tests hold check_case's
    search against.
    """
    cells, trie = _assignment_trie(n, d)
    patterns: list[tuple[int, ...]] = []

    def expand(node: _Trie, prefix: tuple[int, ...]) -> None:
        for run, child in node:
            steps = [combinations_with_replacement(cells[i], c) for i, c in run]
            for picks in product(*steps):
                classes = prefix + tuple(chain(*picks))
                if child is None:
                    patterns.append(tuple(sorted(classes)))
                else:
                    expand(child, classes)

    expand(trie, ())
    del expand  # as in _assignment_trie: free the trie on return
    patterns.sort()
    yield from patterns


# -- case analysis -------------------------------------------------------

_Row = tuple[tuple[int, int], ...]  # sparse (basis position, value) pairs
# the classes of one choice along a run and their summed row
_Group = tuple[tuple[int, ...], _Row]
# a resolved trie node: per edge in trie order, the groups of its run and
# the resolved node after it, or None for a leaf
_Node = list[tuple[list[_Group], "_Node | None"]]


def _sum_rows(*rows: _Row) -> _Row:
    """The sum of sparse rows, at distinct positions, without zero entries."""
    total: dict[int, int] = {}
    get = total.get
    for row in rows:
        for k, v in row:
            total[k] = get(k, 0) + v
    return tuple([kv for kv in total.items() if kv[1]])


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
    One depth-first search over the assignment trie visits each pattern
    once, as a stack of per-cell class groups: pushing a group adds its
    summed row to the deviation and popping it subtracts the row, and a
    pattern is classified from two running counts, in time linear in the
    support of its last group.  The deviation is a flat list over the
    basis positions, each entry stored plus an offset, and the counts are
    read from a list indexed by that stored value.  No pattern list is
    built.  Only zero deviations are counted as they are met.  The
    pruning stats are built once, after the search: the survivor and
    near-miss counts are the lengths of their lists, and every other
    pattern is a plain divisibility failure.

    Each trie node is resolved once, on its identity, into its edges in
    trie order with the groups of their runs.  A group is one choice of
    classes from the run's first cell plus the fixed classes of its
    one-class steps, with the rows of all of them summed into distinct
    positions, so a run costs one push, and a leaf can score its row
    without writing the deviation.  Edges keep their trie order, leaf
    edges among inner ones, so a bound violation is reported on the
    first violating pattern in trie order.  tuples_examined counts
    patterns, not pushes.  Survivors and near misses are sorted by
    pattern at the end, so the certificate is the one the sorted pattern
    stream would give.

    The class-0 slot rule (class 0 at most once in a pattern, and only
    when the case's zero slot is open) is checked once per group, as
    groups_of builds it, not at each leaf.  That covers every pattern:
    - Class 0 is a cell of its own: its projection is 0 at every
      modulus n/p, and the n/p have lcm n when n is not a prime power.
    - Cell indices strictly increase along any path, so all of a
      pattern's class-0 picks lie in one step of one run, hence in one
      group, which holds as many of them as the pattern.
    - The trie has no edge that leads to no leaf, so every group lies
      on some pattern.
    A breach raises InvariantViolationError while the trie is resolved,
    before the search starts, so it is reported ahead of any deviation
    bound violation the search would meet.
    """
    cands = candidate_divisors(n)
    by_d = {c.d: c for c in cands.retained}
    if d not in by_d:
        dropped = dict(cands.dropped)
        if d in dropped:
            raise CaseInapplicableError(f"divisor {d} of {n} excluded a priori: {dropped[d]}")
        raise CaseInapplicableError(f"{d} is not a candidate divisor of {n}")

    basis, rows = basis_indices(n), trace_coordinates(n)
    cells, trie = _assignment_trie(n, d)
    cap = 2 ** (prime_count(d) + 2)
    zero_slot_open = by_d[d].zero_slot_open

    survivors: list[tuple[int, ...]] = []
    near: list[NearMiss] = []
    examined = zero = 0

    # acc: the deviation of the classes on the search path, one entry per
    # basis position, plus off, starting from g's character data negated
    # (the rows of the classes of 1..d).  Positions no row touches stay at
    # 0 + off, which moves neither the maximum nor any test.
    #
    # Why off = 2*d*m is large enough, with m the largest |row value| over
    # the classes of 1..d and every class of a usable cell: the start is
    # a sum of d such rows, so |acc[k]| <= d*m there.  A path places d
    # classes, each from a usable cell, and every value the search writes
    # or scores at k (after a push, part way through one, or a leaf's
    # old + v) is the start plus the row values at k of some of the
    # path's classes, since a group's row sums the rows of its classes
    # into distinct positions.  That adds at most d*m more, so
    # 0 <= acc[k] <= 2*off.  A negative list index wraps without an
    # error, so a smaller off would give wrong answers.
    identity = [class_rep(n, i) for i in range(1, d + 1)]
    m = max((abs(v) for x in chain(identity, *cells) for _, v in rows[x]), default=0)
    off = 2 * d * m
    acc = [off] * len(basis)
    for x in identity:
        for k, v in rows[x]:
            acc[k] -= v
    # The search state packs two counts over acc: the nonzero values in its
    # low `shift` bits and the values with |v| >= d above them, so updating
    # one position costs two list reads of tally[v + off], the entry for
    # value v.  Each count is below 2**shift, so neither spills into the
    # other.  A pattern with every |v| < d cannot break the bound, as
    # d <= cap + 1, nor be a nonzero multiple of d, so only the others take
    # the slow path that scans acc.
    shift = len(basis).bit_length()
    tally = [(v != 0) + ((abs(v) >= d) << shift) for v in range(-off, off + 1)]
    # run -> each combination of classes of its first cell plus the fixed
    # classes of its one-class steps, with their summed sparse row, built at
    # first use
    groups: dict[_Run, list[_Group]] = {}
    # trie node identity -> its resolved edges
    resolved: dict[int, _Node] = {}
    stack: list[tuple[int, ...]] = []  # the groups on the path above the current edge

    def groups_of(run: _Run) -> list[_Group]:
        out = groups.get(run)
        if out is None:
            (i, c), fixed = run[0], ()
            for j, k in run[1:]:
                fixed += cells[j] * k  # a one-class cell
            out = groups[run] = []
            for group in combinations_with_replacement(cells[i], c):
                group += fixed
                if group.count(0) > zero_slot_open:
                    raise InvariantViolationError(
                        f"enumeration emitted a pattern violating the class-0 slot rule at (n={n}, d={d})"
                    )
                out.append((group, _sum_rows(*(rows[x] for x in group))))
        return out

    def resolve(node: _Trie) -> _Node:
        out = resolved.get(id(node))
        if out is None:
            out = resolved[id(node)] = [(groups_of(run), child and resolve(child)) for run, child in node]
        return out

    def classify_slow(group: tuple[int, ...], delta: _Row) -> None:
        # some |v| >= d: the bound check, then a survivor or a near miss
        for k, v in delta:
            acc[k] += v
        classes = tuple(sorted(chain(*stack, group)))
        max_abs = max(max(acc) - off, off - min(acc))
        bound = cap + 1 if 0 in classes else cap
        if max_abs > bound:
            raise InvariantViolationError(
                f"deviation {max_abs} exceeds bound {bound} on pattern {classes} at (n={n}, d={d})"
            )
        k = next((k for k, v in enumerate(acc) if (v - off) % d), None)
        if k is None:
            survivors.append(classes)
        else:
            near.append(NearMiss(classes, max_abs, basis[k], acc[k] - off))
        for k, v in delta:
            acc[k] -= v

    def search(node: _Node, state: int) -> None:
        nonlocal examined, zero
        for gs, child in node:
            if child is None:
                # a leaf per group: score it without writing to acc
                examined += len(gs)
                for group, delta in gs:
                    s = state
                    for k, v in delta:
                        old = acc[k]
                        s += tally[old + v] - tally[old]
                    if s >> shift:
                        classify_slow(group, delta)
                    elif not s:
                        zero += 1
                continue
            for group, delta in gs:
                s = state
                for k, v in delta:
                    old = acc[k]
                    acc[k] = new = old + v
                    s += tally[new] - tally[old]
                stack.append(group)
                search(child, s)
                stack.pop()
                for k, v in delta:
                    acc[k] -= v

    search(resolve(trie), sum(tally[v] for v in acc))
    # as in _assignment_trie: unbinding the recursive closures frees the
    # groups, rows and resolved nodes on return
    del resolve, search
    stats = {
        "weight_filter_failures": 0,  # always 0: a class-0 slot breach raises in groups_of
        "deviation_zero": zero,
        # every other pattern, near misses included, fails divisibility
        "divisibility_failures": examined - zero - len(survivors),
        "near_misses": len(near),
        "survivors": len(survivors),
    }
    # patterns are unique, so sorting gives the order of the pattern stream
    survivors.sort()
    near.sort(key=lambda nm: nm.pattern)

    verdict = "eliminated" if not survivors else "survivors_found"
    return CaseCertificate(
        n=n,
        d=d,
        zero_slot_open=zero_slot_open,
        verdict=verdict,
        tuples_examined=examined,
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
