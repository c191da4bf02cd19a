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
check_case searches the DAG depth first and classifies each tuple
when it reaches it, without listing the tuples.  The deviation is one
int, a fixed-width field per basis position holding the entry plus an
offset derived from the rows, so a push adds a packed row and a leaf is
classified by a handful of int operations; only a tuple with some
entry of size at least d has its fields unpacked.  It first resolves
each DAG node once, looking up the class groups of its edges' runs,
each with the packed closed-formula rows (realbasis.trace_coordinates)
of its classes summed, so a run costs one push.  It classifies in trie
order and sorts only the survivors and near misses, in one process, so
certificates are byte-stable.
enumerate_patterns expands the same trie into the sorted tuple stream
the tests check against.

check_case runs that search once per signature.  Write n = s * P, P the
product of the k primes p || n with p > 2d.  Since d | s, every usable
class has, at each such p, a residue in +-{1..d}, with one sign shared
by all of them, and a prime > 2d keeps those residues distinct and
nonzero.  So replacing the primes of P by other primes > 2d that do not
divide s, with each residue kept, is a bijection of usable classes and
of admissible patterns, under which the rows agree up to a relabelling
of basis positions: basis membership, moebius(g), pair_weight and
zero_slot_open are the same on both sides (the proof is in check_case).
check_case therefore reads the verdict, the pattern count and the
pruning stats of (n, d) off the memoized search of its proxy, n with
the primes of P replaced by the smallest such primes, and searches n
itself only when the proxy's certificate names a survivor or a near
miss, whose pattern and basis index would need mapping back.  When n
is its own proxy (k = 0 included) the memoized search is n's own, so a
case met again, as when verify decides one order under several q,
costs a lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, combinations_with_replacement, count, islice, product
from math import gcd, prod
from typing import Iterator, Mapping

from torunits.numtheory import class_rep, class_reps, divisors, is_prime, prime_count, prime_divisors
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

    So every retained d is 3, 5, 7 or 15.  An odd d with one prime is a
    prime power at most 1 + 2^3 = 9: 3, 5, 7 or 9.  With two primes it
    is at most 17, which leaves 15 (the next, 21, exceeds it).  With
    w >= 3 primes it is at least 3 * 5 * 7 * 11^(w - 3), which exceeds
    1 + 2^(w + 2) (105 > 33, and each further prime multiplies the
    bound by 2 and d by at least 11).  d = 9 exceeds 8, so it needs the
    class-0 slot, n/9 = 3, and n = 27 is a prime power.  Likewise an
    open slot needs n = d * p0 with p0 the smallest prime of n, so at
    most the smallest prime of d: n in {15, 25} for d = 5, {21, 35, 49}
    for d = 7 and {45} for d = 15 (d = 3 gives 9).  Leaving out the
    prime powers, the slot is open in exactly (15, 5), (21, 7), (35, 7)
    and (45, 15).

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

# the classes of one choice along a run and their summed packed row
_Group = tuple[tuple[int, ...], int]
# a resolved trie node: per edge in trie order, the groups of its run and
# the resolved node after it, or None for a leaf
_Node = list[tuple[list[_Group], "_Node | None"]]


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


def _search(n: int, d: int, zero_slot_open: bool) -> CaseCertificate:
    """Search every admissible pattern of (n, d) itself and certify the outcome.

    The one search of the engine; check_case calls it after its checks,
    with zero_slot_open from candidate_divisors(n).  A pattern survives
    iff its deviation vector is nonzero and divisible by d at every
    basis index; "eliminated" means no pattern survives.
    One depth-first search over the assignment trie visits each pattern
    once, as a path of per-cell class groups.  The deviation is one int
    with a field per basis position, each entry stored plus an offset
    (the comment in the body proves the width), so pushing a group passes
    the deviation plus the group's packed row down the recursion, and
    nothing is undone on the way back.  A pattern is classified in a
    fixed number of int operations, whatever the basis length: equal to
    the packed offsets is a zero deviation, a set top bit in one of two
    shifted copies means some entry of size at least d, and anything
    else is a plain divisibility failure.  Only the second kind is
    unpacked, for the bound check and the survivor or near-miss test.
    No pattern list is built.  Only zero deviations are counted as they
    are met.  The pruning stats are built once, after the search: the
    survivor and near-miss counts are the lengths of their lists, and
    every other pattern is a plain divisibility failure.

    Each trie node is resolved once, on its identity, into its edges in
    trie order with the groups of their runs.  A group is one choice of
    classes from the run's first cell plus the fixed classes of its
    one-class steps, with the packed rows of all of them summed, so a run
    costs one push, and a leaf adds its group's sum without storing
    it.  Edges keep their trie order, leaf
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
    basis, rows = basis_indices(n), trace_coordinates(n)
    cells, trie = _assignment_trie(n, d)
    cap = 2 ** (prime_count(d) + 2)

    survivors: list[tuple[int, ...]] = []
    near: list[NearMiss] = []
    examined = zero = 0

    # The deviation of the classes on the search path is one int: field k,
    # `width` bits at bit k*width, holds the deviation v at basis position k
    # plus off.  It starts from g's character data negated (the rows of the
    # classes of 1..d), and a push adds a group's packed row.
    #
    # Why off = 2*d*m is large enough, with m the largest |row value| over
    # the classes of 1..d and every class of a usable cell: the start is a
    # sum of d such rows, so |v| <= d*m there.  A path places d classes,
    # each from a usable cell, and every deviation the search forms (after
    # a push, or at a leaf) is the start plus the rows of some of the
    # path's classes, which adds at most d*m more: |v| <= off.
    #
    # Why no field carries into the next.  half is the smallest power of
    # two >= off + d and a field holds [0, 2*half).  A packed row is a
    # signed sum of shifted values and integer addition is exact, so an int
    # whose true fields all lie in [0, 2*half) reads back field by field.
    # The deviation's fields, v + off, lie in [0, 2*off].  Field k of
    # z + up is v + half - d and field k of down - z is half - d - v; with
    # |v| <= off both lie in [half - off - d, half + off - d], inside
    # [0, 2*half) as half >= off + d.  So the top bit of the first is set
    # iff v >= d, that of the second iff v <= -d, and
    # (z + up | down - z) & high is nonzero iff some |v| >= d; z == offs
    # iff every v is 0.  A pattern with every |v| < d cannot break the
    # bound, as d <= cap + 1, nor be a nonzero multiple of d, so only the
    # others take the slow path, which unpacks the fields.
    identity = [class_rep(n, i) for i in range(1, d + 1)]
    usable = set(chain(identity, *cells))
    m = max((abs(v) for x in usable for _, v in rows[x]), default=0)
    off = 2 * d * m
    half = 1 << (off + d - 1).bit_length()
    width, size = half.bit_length(), len(basis)
    # one 1 in the low bit of every field, by one division, as a sum of
    # shifted ones would be quadratic in size
    ones = ((1 << size * width) - 1) // ((1 << width) - 1)
    offs, high = off * ones, half * ones
    up, down = (half - off - d) * ones, (half + off - d) * ones
    packed = {x: sum(v << k * width for k, v in rows[x]) for x in usable}
    start = offs - sum(packed[x] for x in identity)
    # run -> each combination of classes of its first cell plus the fixed
    # classes of its one-class steps, with their summed packed row, built at
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
                out.append((group, sum(packed[x] for x in group)))
        return out

    def resolve(node: _Trie) -> _Node:
        out = resolved.get(id(node))
        if out is None:
            out = resolved[id(node)] = [(groups_of(run), child and resolve(child)) for run, child in node]
        return out

    def classify_slow(group: tuple[int, ...], z: int) -> None:
        # some |v| >= d: the bound check, then a survivor or a near miss
        bits = format(z, f"0{size * width}b")  # the top field, size - 1, first
        dev = [int(bits[i : i + width], 2) - off for i in range(0, size * width, width)][::-1]
        classes = tuple(sorted(chain(*stack, group)))
        max_abs = max(max(dev), -min(dev))
        bound = cap + 1 if 0 in classes else cap
        if max_abs > bound:
            raise InvariantViolationError(
                f"deviation {max_abs} exceeds bound {bound} on pattern {classes} at (n={n}, d={d})"
            )
        k = next((k for k, v in enumerate(dev) if v % d), None)
        if k is None:
            survivors.append(classes)
        else:
            near.append(NearMiss(classes, max_abs, basis[k], dev[k]))

    def search(node: _Node, acc: int) -> None:
        nonlocal examined, zero
        for gs, child in node:
            if child is None:
                # a leaf per group
                examined += len(gs)
                for group, delta in gs:
                    z = acc + delta
                    if z == offs:
                        zero += 1
                    elif (z + up | down - z) & high:
                        classify_slow(group, z)
                continue
            for group, delta in gs:
                stack.append(group)
                search(child, acc + delta)
                stack.pop()

    search(resolve(trie), start)
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


def _proxy_order(n: int, d: int) -> int:
    """n with its primes p || n, p > 2d, replaced by the smallest primes > 2d coprime to the rest.

    Write n = s * P, P the product of the k primes p || n with p > 2d.
    The proxy is s times the k smallest primes > 2d that do not divide
    s, taking the place of the primes of P in increasing order, so it is
    at most n, and it is n when P is already those primes (k = 0
    included).  By the lemma in check_case, (n, d) and its proxy have
    the same verdict, pattern count and pruning stats.
    """
    large = [p for p in prime_divisors(n) if p > 2 * d and n % (p * p)]
    s = n // prod(large)
    primes = (p for p in count(2 * d + 1) if s % p and is_prime(p))
    return s * prod(islice(primes, len(large)))


# the search of a proxy order, shared by every order with its signature
# and by n itself when n is its own proxy; a module-level functools cache,
# so emptying every cache_clear of torunits empties it
_proxy_search = lru_cache(maxsize=None)(_search)


def check_case(n: int, d: int) -> CaseCertificate:
    """Examine every admissible pattern for (n, d) and certify the outcome.

    The patterns are searched once, by _search, on n itself or on a
    smaller order with the same signature, its proxy (_proxy_order).
    A proxy's search is memoized, so every order of one signature
    shares it, and it runs with n's class-0 slot.  When n is its own
    proxy, the memoized certificate is n's and is returned as it is,
    witnesses included.  Otherwise the certificate names n, that slot
    and n's basis indices; from the proxy it takes the verdict,
    tuples_examined and the pruning stats, which the lemma below shows
    are the same for n.  A survivor or near miss names a pattern and a
    basis index, which the lemma relabels, so when the proxy's
    certificate has any, or its search fails an invariant, check_case
    searches n itself instead of mapping them back.  A certificate read
    off a smaller proxy is thus one in which every pattern has a zero
    deviation or fails divisibility with every |v| < d.

    The lemma.  Write n = s * P, where P = p_1 ... p_k is the product of
    the primes p || n with p > 2d, and let P' = p'_1 ... p'_k be any k
    distinct primes > 2d that do not divide s, paired with the p_i in
    increasing order; n' = s * P'.  Then (n, d) and (n', d) have the
    same verdict, pattern count and pruning stats.
    - Residues at the large primes.  d | s, since d | n and no prime of
      d exceeds d.  Take a prime r | d: r | s, so P | n/r.  A usable
      class x has a wanted residue at the modulus n/r, x = e*j mod n/r
      for a sign e and some j in 1..d, so x = e*j mod P: at every
      large prime x has the residue +-j, with one shared sign.  As
      p_i > 2d, the residues +-1, ..., +-d are distinct and nonzero
      mod p_i, so x mod p_i alone fixes (e, j), and x is never 0 mod p_i.
    - Patterns.  Map x to the class x' with x' = x mod s and x' = e*j
      mod P' (s and P' are coprime).  -x maps to -x', so sign classes
      map to sign classes, and the classes 1..d map to themselves.  At
      a modulus n/p with p | s, the residue of x is that of
      (x mod s/p, e*j mod P), which is +-i exactly when i = j with the
      sign e and x = +-i mod s/p, and the same holds for x' at n'/p.
      At n/p_i it is (x mod s, e*j mod P/p_i), matched with n'/p'_i in
      the same way.  So x -> x' is a bijection of usable classes that
      keeps every residue counter, hence a bijection of admissible
      patterns, and the pattern counts agree.
    - Rows and basis.  At a large prime p (exponent 1) the near-zero
      band is the residue 0 alone, which no usable class takes, so
      g = near_zero_part(n, x) divides s, depends only on x mod s, and
      equals near_zero_part(n', x'); moebius(g) agrees.  pair_weight is
      1 on both sides, as x is not 0 mod n.  The row of x holds the
      value pair_weight * moebius(g) at the basis exponents b = +-x
      mod n/g.  P | n/g, so such a b is +-e*j mod P: nonzero at every
      large prime, which is where basis membership asks b = 0 mod p to
      fail, while at the primes of s membership depends on b mod s.
      The same CRT map sends these b one to one onto the basis
      exponents b' = +-x' mod n'/g, so the row of x' is the row of x
      with its basis positions relabelled, the same relabelling for
      every usable class.  Every position a row touches is such a b, so
      a pattern's deviation vector and its image's hold the same values,
      and the zero, divisibility and |v| >= d tests and the bound agree.
    - The class-0 slot.  Class 0 is not usable when k >= 1 (it is 0 mod
      p_1), and zero_slot_open is false on both sides: p_1 | n/d, so
      n/d could only be the smallest prime of n if it were p_1, but the
      primes of d are smaller.
    The threshold 2d is sharp for the argument: with a prime d < p <= 2d,
    some j != i in 1..d have j = -i mod p, and (91, 7) has 21600
    patterns where (77, 7) has 11592.
    """
    cands = candidate_divisors(n)
    by_d = {c.d: c for c in cands.retained}
    if d not in by_d:
        dropped = dict(cands.dropped)
        if d in dropped:
            raise CaseInapplicableError(f"divisor {d} of {n} excluded a priori: {dropped[d]}")
        raise CaseInapplicableError(f"{d} is not a candidate divisor of {n}")
    zero_slot_open = by_d[d].zero_slot_open
    proxy = _proxy_order(n, d)
    if proxy == n:
        return _proxy_search(n, d, zero_slot_open)
    try:
        cert = _proxy_search(proxy, d, zero_slot_open)
    except InvariantViolationError:
        pass  # the search of n raises it again, naming n's pattern
    else:
        if not cert.survivors and not cert.near_misses:
            return replace(cert, n=n, basis=basis_indices(n))
    return _search(n, d, zero_slot_open)


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
