import gc
import hashlib
import json
import random
from dataclasses import replace
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torunits.augment import (
    AugVector,
    classwise_powers,
    eigenvalue_multiplicity,
    explore_augmentations,
    induction_powers,
)
from torunits.cyclotomic import CycInt, real_trace
from torunits.helpengine import (
    CaseInapplicableError,
    NearMiss,
    candidate_divisors,
    check_case,
    enumerate_patterns,
    verify_order,
)
from torunits.numtheory import class_rep, class_reps, divisors, prime_divisors
from torunits.oracles import (
    EigenPattern,
    augmentations_from_traces,
    bound_check,
    bound_filtered_divisors,
    decompose,
    deviation,
    deviation_vector,
    satisfies_power_constraints,
    unit_trace,
    weight_consistent,
)
from torunits.psl2 import character_value
from torunits.realbasis import basis_indices

DATA = Path(__file__).parent / "data"


def random_aug_vector(n, rng, spread=3):
    values = {x: rng.randint(-spread, spread) for x in range(1, n // 2 + 1)}
    values[1] += 1 - sum(values.values())
    return AugVector(n, {0: 0, **values})


# -- augmentation vectors and traces ------------------------------------


def test_aug_vector_validation():
    with pytest.raises(ValueError):
        AugVector(15, {1: 2})  # sums to 2
    with pytest.raises(ValueError):
        AugVector(15, {9: 1})  # not a class representative
    av = AugVector(15, {2: 1})
    assert av[2] == 1 and av[13] == 1 and av[1] == 0


def test_unit_trace_examples():
    eps = AugVector.indicator(15, 1)
    for i in range(1, 16):
        assert unit_trace(eps, i) == real_trace(15, i)
    assert unit_trace(eps, 15) == CycInt.integer(15, 2)
    assert unit_trace(AugVector.indicator(15, 2), 1) == real_trace(15, 2)


def test_unit_trace_augmentation_identity():
    rng = random.Random(1)
    for _ in range(10):
        eps = random_aug_vector(15, rng)
        assert unit_trace(eps, 15) == CycInt.integer(15, 2)


def test_traces_round_trip():
    rng = random.Random(42)
    for n in (15, 21):
        for _ in range(20):
            eps = random_aug_vector(n, rng)
            lams = [unit_trace(eps, i) for i in range(n)]
            assert augmentations_from_traces(lams, n) == eps


def test_traces_round_trip_indicator():
    n = 15
    lams = [real_trace(n, i) for i in range(n)]
    assert augmentations_from_traces(lams, n) == AugVector.indicator(n, 1)
    eps2 = AugVector.indicator(n, 2)
    lams = [unit_trace(eps2, i) for i in range(n)]
    assert augmentations_from_traces(lams, n) == eps2


def test_traces_constant_two_is_the_trivial_unit():
    n = 15
    lams = [CycInt.integer(n, 2)] * n
    assert augmentations_from_traces(lams, n) == AugVector.indicator(n, 0)


def test_traces_inconsistent_input_rejected():
    n = 15
    lams = [CycInt.integer(n, 3)] * n  # augmentation would be 3/2
    with pytest.raises(ValueError):
        augmentations_from_traces(lams, n)
    lams = [real_trace(n, i) for i in range(n)]
    lams[3] = real_trace(n, 4)  # breaks consistency
    with pytest.raises(ValueError):
        augmentations_from_traces(lams, n)


def test_power_derivations():
    eps = AugVector.indicator(15, 2)
    cw = classwise_powers(eps)
    assert cw[3] == AugVector.indicator(5, 2)
    assert cw[5] == AugVector.indicator(3, 2 % 3)
    assert cw[15] == AugVector.indicator(1, 0)
    ind = induction_powers(15)
    assert ind[3] == AugVector.indicator(5, 1)
    assert ind[15] == AugVector.indicator(1, 0)
    # the direct definition of the power hypothesis u^c ~ g^c as the oracle
    for n in range(3, 106, 2):
        ind = induction_powers(n)
        assert set(ind) == set(divisors(n)) - {1}
        for c in ind:
            k = n // c
            assert ind[c] == AugVector.indicator(k, 1 if k > 1 else 0), (n, c)


# -- candidate divisors --------------------------------------------------


def test_bound_filtered_divisors():
    assert bound_filtered_divisors(10_000) == (3, 5, 7, 9, 15)


def test_candidate_divisors_examples():
    assert candidate_divisors(15).retained_ds == (3, 5)
    c45 = candidate_divisors(45)
    assert c45.retained_ds == (3, 5, 15)
    assert dict(c45.dropped).keys() == {9}
    with pytest.raises(CaseInapplicableError, match="^order 27 not applicable: prime-power order$"):
        candidate_divisors(27)
    with pytest.raises(CaseInapplicableError, match="^order 12 not applicable: even order$"):
        candidate_divisors(12)


def test_candidate_divisors_zero_slot_flags():
    flags = {c.d: c.zero_slot_open for c in candidate_divisors(15).retained}
    assert flags == {3: False, 5: True}
    flags = {c.d: c.zero_slot_open for c in candidate_divisors(21).retained}
    assert flags == {3: False, 7: True}
    flags = {c.d: c.zero_slot_open for c in candidate_divisors(35).retained}
    assert flags == {5: False, 7: True}


def test_retained_divisors_are_3_5_7_or_15():
    # the d lemma of candidate_divisors, on every odd composite n < 20,000:
    # every retained d is 3, 5, 7 or 15, and the class-0 slot is open in
    # exactly four cases
    ds, open_slots = set(), []
    for n in _odd_composites(20_000):
        for c in candidate_divisors(n).retained:
            ds.add(c.d)
            if c.zero_slot_open:
                open_slots.append((n, c.d))
    assert ds == {3, 5, 7, 15}
    assert open_slots == [(15, 5), (21, 7), (35, 7), (45, 15)]


# -- pattern enumeration ---------------------------------------------------


def test_enumerate_patterns_15_3():
    pats = list(enumerate_patterns(15, 3))
    assert pats == sorted(pats)
    assert (1, 2, 3) in pats
    assert (2, 6, 7) in pats  # one entry ~ 1 mod 5, two ~ 2 mod 5
    assert len(pats) == len(set(pats))


def test_enumerate_patterns_satisfy_all_divisor_constraints():
    for n, d in ((15, 3), (15, 5), (21, 7), (45, 5), (75, 3)):
        pats = list(enumerate_patterns(n, d))
        assert pats
        for p in pats:
            # check_case relies on this form without a type to enforce it
            assert type(p) is tuple and len(p) == d
            assert all(a <= b for a, b in zip(p, p[1:])), p
            assert satisfies_power_constraints(EigenPattern(n, d, p))


def test_enumerate_patterns_is_complete():
    # brute force over all multisets, including repeated-prime moduli
    from itertools import combinations_with_replacement

    for n, d in ((15, 3), (21, 3), (45, 5), (75, 3), (45, 3)):
        want = set()
        for combo in combinations_with_replacement(class_reps(n), d):
            p = EigenPattern(n, d, combo)
            if satisfies_power_constraints(p):
                want.add(p.classes)
        got = set(enumerate_patterns(n, d))
        assert got == want, (n, d)


def _reference_trie(n, d, reverse=False):
    # the assignment-trie walk before memoization: a plain recursion over
    # residue-counter dicts, with no state shared between calls.  With
    # reverse=True the cells are visited in the opposite order, which gives
    # another trie of the same patterns.
    moduli = [n // p for p in prime_divisors(n)]
    counters = []
    for m in moduli:
        want = {}
        for i in range(1, d + 1):
            y = class_rep(m, i)
            want[y] = want.get(y, 0) + 1
        counters.append(want)
    by_proj = {}
    for x in class_reps(n):
        proj = tuple(class_rep(m, x) for m in moduli)
        if all(y in counter for counter, y in zip(counters, proj)):
            by_proj.setdefault(proj, []).append(x)
    projs = sorted(by_proj, reverse=reverse)
    cells = [tuple(by_proj[proj]) for proj in projs]
    last = [{} for _ in moduli]
    for i, proj in enumerate(projs):
        for mi, y in enumerate(proj):
            last[mi][y] = i
    if any(y not in last[mi] for mi, want in enumerate(counters) for y in want):
        return cells, []
    draws = [[(counters[mi], y) for mi, y in enumerate(proj)] for proj in projs]
    closes = [
        [(counters[mi], y) for mi, y in enumerate(proj) if last[mi][y] == i]
        for i, proj in enumerate(projs)
    ]

    def build(i, remaining):
        if i == len(cells):
            return []
        high = remaining
        for counter, y in draws[i]:
            if counter[y] < high:
                high = counter[y]
        low = 0
        for counter, y in closes[i]:
            if counter[y] > low:
                low = counter[y]
        edges = []
        for c in range(low, high + 1):
            if not c:
                edges.extend(build(i + 1, remaining))
                continue
            for counter, y in draws[i]:
                counter[y] -= c
            if c == remaining:
                edges.append((i, c, None))
            else:
                child = build(i + 1, remaining - c)
                if child:
                    edges.append((i, c, child))
            for counter, y in draws[i]:
                counter[y] += c
        return edges

    return cells, build(0, d)


def _unfold(node):
    # a trie of runs written as the reference builder's trie: each run
    # becomes a chain of one (cell, count, child) edge per step
    out = []
    for run, child in node:
        child = child and _unfold(child)
        for i, c in reversed(run[1:]):
            child = [(i, c, child)]
        out.append((*run[0], child))
    return out


def _as_runs(cells, node):
    # the reference builder's trie with runs folded, read from the top: an
    # edge's run goes on down while the node below it has a single edge,
    # from a cell of one class
    out = []
    for i, c, child in node:
        run = ((i, c),)
        while child is not None and len(child) == 1 and len(cells[child[0][0]]) == 1:
            ((j, k, child),) = child
            run += ((j, k),)
        out.append((run, child and _as_runs(cells, child)))
    return out


def _fold_faults(cells, node, seen):
    # the runs of a trie DAG that break the fold rule: a step after the
    # first from a cell of two or more classes, or a child left unfolded
    # that is a single edge whose first cell has one class
    if node is None or id(node) in seen:
        return []
    seen.add(id(node))
    found = [
        run
        for run, child in node
        if any(len(cells[i]) > 1 for i, _ in run[1:])
        or (child and len(child) == 1 and len(cells[child[0][0][0][0]]) == 1)
    ]
    for _, child in node:
        found += _fold_faults(cells, child, seen)
    return found


def _node_count(node, seen):
    # distinct nodes of a trie DAG reachable from node, node included
    if node is not None and id(node) not in seen:
        seen.add(id(node))
        for _, child in node:
            _node_count(child, seen)
    return len(seen)


def _odd_composites(below):
    from torunits.psl2 import is_prime_power

    return [n for n in range(15, below, 2) if not is_prime_power(n)]


def test_assignment_trie_matches_the_reference_builder():
    from torunits.helpengine import _assignment_trie

    largest = 0
    for n in _odd_composites(400):
        for d in candidate_divisors(n).retained_ds:
            largest = max(largest, d)
            cells, trie = _assignment_trie(n, d)
            ref_cells, ref_trie = _reference_trie(n, d)
            assert cells == ref_cells, (n, d)
            # equal nested edge lists once every run is a chain of steps:
            # the same (cell, count) paths, in order
            assert _unfold(trie) == ref_trie, (n, d)
            # and the fold is maximal and takes only one-class steps
            assert not _fold_faults(cells, trie, set()), (n, d)
            # the packed state gives each counter d.bit_length() + 1 bits;
            # a counter starts at its residue's count among 1..d and only falls
            for p in prime_divisors(n):
                counts = [class_rep(n // p, i) for i in range(1, d + 1)]
                assert max(map(counts.count, counts)) < 2 ** (d.bit_length() + 1) // 2
    assert largest == 15


def test_assignment_trie_shares_equal_subtries():
    # (75, 15): the memo builds each (cell, counters) state once, so the DAG
    # holds far fewer distinct nodes than the tree it stands for
    from torunits.helpengine import _assignment_trie

    def tree_size(node):
        return 1 + sum(tree_size(child) for _, _, child in node if child is not None)

    _, trie = _assignment_trie(75, 15)
    _, ref = _reference_trie(75, 15)
    assert tree_size(_unfold(trie)) == tree_size(ref)
    assert _node_count(trie, set()) * 10 < tree_size(ref)


def test_pattern_streams_match_fixture():
    # sha256 of repr(list(enumerate_patterns(n, d))) for every odd composite
    # n <= 200 and every retained d, recorded in tests/data/pattern_streams.json
    digests = json.loads((DATA / "pattern_streams.json").read_text())
    keys = [f"{n},{d}" for n in _odd_composites(201) for d in candidate_divisors(n).retained_ds]
    assert sorted(digests) == sorted(keys)
    for key, want in digests.items():
        n, d = map(int, key.split(","))
        blob = repr(list(enumerate_patterns(n, d))).encode()
        assert hashlib.sha256(blob).hexdigest() == want, key


_ORDERS_WITH_CASES = [n for n in _odd_composites(600) if candidate_divisors(n).retained]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_assignment_trie_matches_the_reference_builder_property(data):
    from torunits.helpengine import _assignment_trie

    n = data.draw(st.sampled_from(_ORDERS_WITH_CASES), label="n")
    d = data.draw(st.sampled_from(candidate_divisors(n).retained_ds), label="d")
    cells, trie = _assignment_trie(n, d)
    ref_cells, ref = _reference_trie(n, d)
    # the same cells, and the reference trie with its runs folded
    assert (cells, trie) == (ref_cells, _as_runs(ref_cells, ref))


def test_assignment_trie_folds_one_class_runs():
    # (273, 7): every cell on its one path has one class, so the whole trie
    # is one leaf edge whose run has a step per cell.  The wide d = 15 DAGs
    # keep 356 and 85 nodes, where a node per cell step would make 1,729
    # and 807
    from torunits.helpengine import _assignment_trie

    cells, trie = _assignment_trie(273, 7)
    assert len(trie) == 1
    run, child = trie[0]
    assert child is None and len(run) == 7
    assert all(len(cells[i]) == 1 for i, _ in run)
    assert _node_count(_assignment_trie(105, 15)[1], set()) == 356
    assert _node_count(_assignment_trie(165, 15)[1], set()) == 85


def test_enumerate_patterns_and_check_case_leave_no_cycles():
    # their self-recursive closures are unbound on return, so with automatic
    # collection off nothing they built is left for the collector
    gc.collect()
    gc.disable()
    try:
        assert len(list(enumerate_patterns(75, 15))) == 20412
        assert gc.collect() == 0
        check_case(75, 15)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_patterns_21_3_zero_count():
    # the constraint modulo 7 forces exactly one entry divisible by 3
    for p in enumerate_patterns(21, 3):
        assert sum(1 for x in p if x % 3 == 0) == 1


def test_zero_slot_only_when_smallest_prime_cofactor():
    for n, d in ((15, 3), (15, 5), (21, 7), (35, 7), (45, 15)):
        for p in enumerate_patterns(n, d):
            if 0 in p:
                assert n // d == prime_divisors(n)[0]
                assert sum(1 for x in p if x == 0) == 1


# -- deviations -------------------------------------------------------------


def test_deviation_identity_pattern_is_zero():
    for n, d in ((15, 3), (21, 7), (45, 5)):
        ident = EigenPattern(n, d, tuple(class_rep(n, i) for i in range(1, d + 1)))
        assert not any(deviation_vector(ident))
        assert bound_check(ident).max_abs_deviation == 0


def test_deviation_near_miss_witness():
    near = EigenPattern(15, 3, (6, 7, 7))
    assert deviation(near, 1) == -2
    assert deviation_vector(near) == (-2, 0, -1, 3)
    bc = bound_check(near)
    assert bc.max_abs_deviation == 3 and bc.bound == 8


def test_deviation_emitted_example():
    pat = EigenPattern(15, 3, (7, 2, 6))
    assert pat.classes == (2, 6, 7)
    assert deviation_vector(pat) == (-2, 1, -1, 2)
    assert bound_check(pat).max_abs_deviation == 2


def test_deviation_matches_decomposition_oracle():
    # closed formula against the exact solver, full elements
    for n, d in ((15, 3), (15, 5), (21, 7), (45, 15)):
        base = decompose(character_value(n, d, 1) - CycInt.one(n))
        idx = basis_indices(n)
        for p in list(enumerate_patterns(n, d))[:40]:
            elem = CycInt.zero(n)
            for x in p:
                elem = elem + real_trace(n, x)
            coords = decompose(elem)
            want = tuple(coords[b] - base[b] for b in idx)
            assert deviation_vector(EigenPattern(n, d, p)) == want, (n, d, p)


def test_bound_never_violated_and_weights_consistent():
    for n, d in ((15, 3), (15, 5), (21, 3), (21, 7), (35, 7), (45, 5), (75, 3)):
        for classes in enumerate_patterns(n, d):
            p = EigenPattern(n, d, classes)
            bc = bound_check(p)
            assert bc.max_abs_deviation <= bc.bound
            assert weight_consistent(p)


def test_weight_consistent_rejects_bad_patterns():
    # a zero entry at (15, 3) would need 15/3 = 5 to be the smallest prime
    assert not weight_consistent(EigenPattern(15, 3, (0, 1, 2)))
    assert weight_consistent(EigenPattern(21, 7, (0, 1, 2, 3, 4, 5, 6)))


def test_deviation_rejects_foreign_basis_index():
    with pytest.raises(ValueError):
        deviation(EigenPattern(15, 3, (1, 2, 3)), 3)


# -- case analysis ----------------------------------------------------------


def test_check_case_verdicts():
    for n, d in ((15, 3), (15, 5), (21, 3), (21, 7), (35, 7), (45, 5), (45, 15), (75, 3)):
        cert = check_case(n, d)
        assert cert.verdict == "eliminated", (n, d)
        assert cert.tuples_examined == len(list(enumerate_patterns(n, d)))
        stats = cert.pruning_stats
        assert (
            stats["deviation_zero"] + stats["divisibility_failures"] + stats["survivors"]
            == cert.tuples_examined
        )
        assert stats["survivors"] == 0 and stats["weight_filter_failures"] == 0


def test_check_case_near_miss_witness():
    cert = check_case(15, 3)
    assert cert.pruning_stats["near_misses"] == 1
    nm = cert.near_misses[0]
    assert nm.pattern == (6, 7, 7)
    assert nm.basis_index == 1
    assert nm.deviation == -2
    assert nm.max_abs_deviation == 3


def test_check_case_45_15_has_no_near_misses():
    cert = check_case(45, 15)
    assert cert.pruning_stats["near_misses"] == 0
    assert all(
        max(abs(v) for v in deviation_vector(EigenPattern(45, 15, p))) <= 14
        for p in enumerate_patterns(45, 15)
    )


def test_check_case_matches_deviation_vector_oracle():
    # the sparse classifier against dense deviation vectors, pattern by pattern
    for n, d in ((15, 3), (21, 7), (35, 7), (45, 15), (75, 3)):
        cert = check_case(n, d)
        basis = basis_indices(n)
        stats = dict.fromkeys(cert.pruning_stats, 0)
        near = []
        for p in enumerate_patterns(n, d):
            dev = deviation_vector(EigenPattern(n, d, p))
            max_abs = max(abs(v) for v in dev)
            if max_abs == 0:
                stats["deviation_zero"] += 1
            elif all(v % d == 0 for v in dev):
                stats["survivors"] += 1
            else:
                stats["divisibility_failures"] += 1
                if max_abs >= d:
                    stats["near_misses"] += 1
                    k = next(k for k, v in enumerate(dev) if v % d)
                    near.append(NearMiss(p, max_abs, basis[k], dev[k]))
        assert dict(cert.pruning_stats) == stats, (n, d)
        assert cert.near_misses == tuple(near), (n, d)


def test_check_case_is_symmetric_under_negated_rows(monkeypatch):
    # negating every closed-formula row negates every deviation, so the same
    # patterns are near misses with negated witnesses; (6, 7, 7) of (15, 3)
    # then reaches |v| = 3 only through a negative coordinate
    from torunits import helpengine
    from torunits.realbasis import trace_coordinates

    for n, d in ((15, 3), (15, 5), (21, 7)):
        cert = check_case(n, d)
        rows = {x: tuple((k, -v) for k, v in row) for x, row in trace_coordinates(n).items()}
        monkeypatch.setattr(helpengine, "trace_coordinates", lambda m: rows)
        # check_case memoizes its search: search the flipped rows afresh
        helpengine._proxy_search.cache_clear()
        flipped = helpengine.check_case(n, d)
        monkeypatch.undo()
        helpengine._proxy_search.cache_clear()
        assert flipped.pruning_stats == cert.pruning_stats, (n, d)
        assert flipped.near_misses == tuple(
            replace(nm, deviation=-nm.deviation) for nm in cert.near_misses
        ), (n, d)
    assert check_case(15, 3).near_misses


class _DictTally(dict):
    # tally[v]: what an accumulator value v adds to the reference search's
    # packed state (nonzero values in the low `shift` bits, values with
    # |v| >= d above them), built at first use
    def __init__(self, d, shift):
        super().__init__()
        self.d, self.shift = d, shift

    def __missing__(self, v):
        w = self[v] = (v != 0) + ((abs(v) >= self.d) << self.shift)
        return w


def _reference_check_case(n, d):
    # check_case as it was before one-class cells were folded into runs and
    # before its deviation became one packed int: one push per group of
    # every cell step, a dict accumulator keyed by basis position, a dict
    # tally keyed by value whose two running counts (nonzero entries and
    # entries with |v| >= d) classify each leaf, and a count per plain
    # divisibility failure.  It reads the rows and the trie through the
    # helpengine module, so a test that patches them patches both sides,
    # and writes each run of the trie as a chain of one edge per step.
    from itertools import chain, combinations_with_replacement

    from torunits import helpengine
    from torunits.helpengine import CaseCertificate, InvariantViolationError
    from torunits.numtheory import prime_count

    zero_slot_open = {c.d: c.zero_slot_open for c in candidate_divisors(n).retained}[d]
    basis, rows = basis_indices(n), helpengine.trace_coordinates(n)
    cells, runs = helpengine._assignment_trie(n, d)
    trie = _unfold(runs)
    cap = 2 ** (prime_count(d) + 2)
    stats = {
        "weight_filter_failures": 0,
        "deviation_zero": 0,
        "divisibility_failures": 0,
        "near_misses": 0,
        "survivors": 0,
    }
    survivors = []
    near = []
    examined = 0
    acc = {}
    for i in range(1, d + 1):
        for k, v in rows[class_rep(n, i)]:
            acc[k] = acc.get(k, 0) - v
    shift = len(basis).bit_length()
    tally = _DictTally(d, shift)
    groups = {}
    stack = []

    def groups_of(edge):
        out = []
        for group in combinations_with_replacement(cells[edge[0]], edge[1]):
            row = {}
            for x in group:
                for k, v in rows[x]:
                    row[k] = row.get(k, 0) + v
            delta = tuple((k, v) for k, v in row.items() if v)
            for k, _ in delta:
                acc.setdefault(k, 0)
            out.append((group, delta, group.count(0)))
        groups[edge] = out
        return out

    def classify_slow(group, delta, zeros):
        for k, v in delta:
            acc[k] += v
        classes = tuple(sorted(chain(*stack, group)))
        max_abs = max(map(abs, acc.values()))
        bound = cap + 1 if zeros else cap
        if max_abs > bound:
            raise InvariantViolationError(
                f"deviation {max_abs} exceeds bound {bound} on pattern {classes} at (n={n}, d={d})"
            )
        failing = [k for k, v in acc.items() if v % d]
        if not failing:
            stats["survivors"] += 1
            survivors.append(classes)
        else:
            stats["divisibility_failures"] += 1
            stats["near_misses"] += 1
            k = min(failing)
            near.append(NearMiss(classes, max_abs, basis[k], acc[k]))
        for k, v in delta:
            acc[k] -= v

    def search(node, state, zeros):
        nonlocal examined
        for i, c, child in node:
            gs = groups.get((i, c)) or groups_of((i, c))
            if child is None:
                examined += len(gs)
                for group, delta, z in gs:
                    s = state
                    for k, v in delta:
                        old = acc[k]
                        s += tally[old + v] - tally[old]
                    zs = zeros + z
                    if zs > 1 or (zs and not zero_slot_open):
                        stats["weight_filter_failures"] += 1
                    if s >> shift:
                        classify_slow(group, delta, zs)
                    elif s:
                        stats["divisibility_failures"] += 1
                    else:
                        stats["deviation_zero"] += 1
                continue
            for group, delta, z in gs:
                s = state
                for k, v in delta:
                    old = acc[k]
                    acc[k] = new = old + v
                    s += tally[new] - tally[old]
                stack.append(group)
                search(child, s, zeros + z)
                stack.pop()
                for k, v in delta:
                    acc[k] -= v

    search(trie, sum(tally[v] for v in acc.values()), 0)
    del search
    if stats["weight_filter_failures"]:
        raise InvariantViolationError(
            f"enumeration emitted a pattern violating the class-0 slot rule at (n={n}, d={d})"
        )
    survivors.sort()
    near.sort(key=lambda nm: nm.pattern)
    return CaseCertificate(
        n=n,
        d=d,
        zero_slot_open=zero_slot_open,
        verdict="eliminated" if not survivors else "survivors_found",
        tuples_examined=examined,
        pruning_stats=stats,
        survivors=tuple(survivors),
        near_misses=tuple(near),
        basis=basis,
    )


def _certificate_json(cert):
    return json.dumps(cert.to_json_dict(), indent=2)


def test_check_case_matches_the_reference_search():
    # one push per run changes how the search pushes, not what it finds:
    # byte-equal certificates on every retained case of odd composite n < 400
    cases = [(n, d) for n in _odd_composites(400) for d in candidate_divisors(n).retained_ds]
    assert len(cases) == 137
    for n, d in cases:
        want = _certificate_json(_reference_check_case(n, d))
        assert _certificate_json(check_case(n, d)) == want, (n, d)


# cases whose tries hold folded runs: (21, 3), (45, 5) and (175, 7) have
# runs that end at a leaf, (45, 5), (75, 5) and (105, 7) runs of three or
# more steps, and (195, 15) inner edges ahead of leaf edges in one node.
# With the cells reversed, class 0 is the last cell, so it is a later step
# of a leaf run in the class-0 slot cases (15, 5) and (21, 7).  In (273, 7)
# the whole trie is one run of seven steps from the root to its leaf, and
# its classes share positions, so the run's row must be summed.
_LINKED_CASES = [
    (15, 3),
    (15, 5),
    (21, 3),
    (21, 7),
    (35, 5),
    (45, 5),
    (63, 7),
    (75, 5),
    (105, 7),
    (175, 7),
    (195, 15),
    (273, 7),
]


def _run_on(n, d, rows, built):
    # check_case and the reference on the given rows and on the cells and
    # trie of a reference build, its runs folded here: each side's
    # certificate JSON, or the message of the InvariantViolationError it
    # stopped at
    from torunits import helpengine
    from torunits.helpengine import InvariantViolationError

    cells, trie = built
    folded = cells, _as_runs(cells, trie)

    def run(search):
        try:
            return _certificate_json(search(n, d))
        except InvariantViolationError as exc:
            return f"raised: {exc}"

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helpengine, "trace_coordinates", lambda m: rows)
        mp.setattr(helpengine, "_assignment_trie", lambda m, e: folded)
        helpengine._proxy_search.cache_clear()
        return run(helpengine.check_case), run(_reference_check_case)


def _run_with_rows(n, d, reverse, scale):
    # _run_on with the rows scaled per class (scale[x]) and the trie with its
    # cells in the given order
    from torunits.realbasis import trace_coordinates

    rows = {x: tuple((k, scale[x] * v) for k, v in row) for x, row in trace_coordinates(n).items()}
    return _run_on(n, d, rows, _reference_trie(n, d, reverse))


_SCALED_ROWS = st.sampled_from(_LINKED_CASES).flatmap(
    lambda case: st.tuples(
        st.just(case),
        st.booleans(),
        st.sampled_from([1, 2, case[1], 1000]),
        st.lists(st.integers(-1, 1), min_size=case[0] // 2 + 1, max_size=case[0] // 2 + 1),
    )
)


# the pinned examples run first on every run: reversed, class 0 is a later
# step of a leaf run, and doubled rows break its bound cap + 1
@example(((15, 5), True, 2, [1] * 8))
@example(((21, 7), True, 2, [1] * 11))
@settings(max_examples=60, deadline=None)
@given(_SCALED_ROWS)
def test_joined_links_match_the_reference_on_scaled_rows(drawn):
    # each class's row times a drawn factor, and all of them times 1, 2, d
    # or 1000: the bound, divisibility and zero tests then meet values the
    # real rows never reach (survivors, near misses, bound violations), and
    # they meet them through folded runs; 1000 widens the accumulator's
    # offset far past the real rows'.  The certificates must be equal, or
    # both searches must stop at the same first violation.
    (n, d), reverse, unit, factors = drawn
    got, want = _run_with_rows(n, d, reverse, [unit * f for f in factors])
    assert got == want


@pytest.mark.parametrize(
    "n, d, reverse, scale, first",
    [
        # class 0 is a later step of a leaf run, so its bound is cap + 1
        (15, 5, True, 2, "raised: deviation 10 exceeds bound 9 on pattern (0, 1, 1, 2, 2)"),
        (21, 7, True, 2, "raised: deviation 10 exceeds bound 9 on pattern (0, 1, 1, 2, 2, 3, 4)"),
        # an inner edge ahead of a leaf edge: the inner edge's patterns come first
        (195, 15, False, 5, "raised: deviation 20 exceeds bound 16 on pattern (50, 51, 52,"),
        (255, 15, False, 5, "raised: deviation 20 exceeds bound 16 on pattern (1, 6, 11,"),
    ],
)
def test_joined_links_stop_at_the_reference_violation(n, d, reverse, scale, first):
    # every row times `scale`: many patterns break the bound, and the error
    # names the first one the search meets
    got, want = _run_with_rows(n, d, reverse, [scale] * (n // 2 + 1))
    assert got == want
    assert got.startswith(first)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n, d", [(15, 3), (21, 3), (45, 3), (35, 5), (45, 5), (63, 7)])
def test_extreme_rows_reach_the_offset_bound(n, d, sign):
    # check_case packs each deviation entry v as v + off, off = 2*d*m with m
    # the largest |row value|, into a field sized from off and d.  Here
    # every row is empty but at position 0, with m = 1: +sign for the
    # classes of a pattern P that shares none of the classes of 1..d, so P
    # adds sign*d to v, and two choices of start.
    # - -sign for every class of 1..d: v starts at sign*d, so |v| reaches
    #   exactly 2*d*m, the bound off is derived from: the field holds 2*off
    #   at sign = 1 and 0 at sign = -1.  For d = 3, 6 <= cap, so the search
    #   runs to the end and P is a survivor; for larger d both searches
    #   stop at the same bound violation.
    # - +sign for one class of 1..d: v starts at -sign, so |v| = d - 1 at P,
    #   a plain divisibility failure, not a near miss.
    # A field one bit narrower than check_case's overflows at (35, 5) and
    # (45, 5) in the first, and borrows from the next field and flags P in
    # the second.
    identity = [class_rep(n, i) for i in range(1, d + 1)]
    p = next(p for p in enumerate_patterns(n, d) if not set(identity) & set(p))
    certs = []
    for start in ({x: -sign for x in identity}, {identity[0]: sign}):
        value = start | {x: sign for x in p}
        rows = {x: ((0, value[x]),) if x in value else () for x in class_reps(n)}
        got, want = _run_on(n, d, rows, _reference_trie(n, d))
        assert got == want, start
        certs.append(got)
    if d == 3:
        assert list(p) in json.loads(certs[0])["survivors"]
    below = json.loads(certs[1])
    assert list(p) not in below["survivors"]
    assert list(p) not in [nm["pattern"] for nm in below["near_miss_witnesses"]]


def test_every_retained_case_below_2000_matches_the_recorded_digest():
    # one sha256 over the certificate JSON of every retained case of odd
    # composite n < 2000, in order of n and then d, recorded in
    # tests/data/retained_cases_below_2000.json before the search state was
    # packed into one int
    want = json.loads((DATA / "retained_cases_below_2000.json").read_text())
    digest = hashlib.sha256()
    cases = 0
    for n in _odd_composites(2000):
        for d in candidate_divisors(n).retained_ds:
            digest.update(json.dumps(check_case(n, d).to_json_dict(), indent=2).encode() + b"\n")
            cases += 1
    assert {"cases": cases, "sha256": digest.hexdigest()} == want


@pytest.mark.parametrize(
    "n, d, zeros, ones, ok",
    [
        # the slot is closed at (15, 3): one class 0 breaks it
        (15, 3, 1, 2, False),
        # the slot is open at (15, 5): one class 0 fits it, two do not
        (15, 5, 2, 3, False),
        (15, 5, 1, 4, True),
    ],
)
def test_class_zero_slot_rule_on_a_hand_made_trie(n, d, zeros, ones, ok):
    # the trie builder never emits a pattern that breaks the class-0 slot
    # rule, so this trie is made by hand: one path that takes `zeros`
    # classes 0 and `ones` classes 1.  With cells (0,), (1,) class 0 is the
    # first step of the folded run; with cells (1,), (0,) it is a fixed
    # later step.  Both searches must raise on a broken slot and agree
    # where it holds.
    from torunits.realbasis import trace_coordinates

    broken = "raised: enumeration emitted a pattern violating the class-0 slot rule"
    for built in [
        ([(0,), (1,)], [(0, zeros, [(1, ones, None)])]),
        ([(1,), (0,)], [(0, ones, [(1, zeros, None)])]),
    ]:
        got, want = _run_on(n, d, trace_coordinates(n), built)
        assert got == want, built
        assert got.startswith(broken) != ok, built


def _class_zero_faults(cells, node, seen):
    # the premise of check_case's per-group class-0 check, on a trie DAG:
    # the faults found below node, as strings
    if id(node) in seen:
        return []
    seen.add(id(node))
    faults = [] if node else ["an empty child"]
    for run, child in node:
        steps = [i for i, _ in run]
        after = [below[0][0] for below, _ in child or ()]
        if steps != sorted(set(steps)) or any(j <= steps[-1] for j in after):
            faults.append(f"cells not strictly increasing along {run}")
        for i, c in run:
            if 0 in cells[i] and (cells[i] != (0,) or c > 1):
                faults.append(f"class 0 in step {(i, c)} of cell {cells[i]}")
        if child is not None:
            faults += _class_zero_faults(cells, child, seen)
    return faults


def test_class_zero_lies_in_one_group_of_every_pattern():
    # check_case checks the class-0 slot rule once per group, which covers
    # every pattern only if class 0 is usable only where the slot is open,
    # is then the one-class cell (0,) taken at most once per step, cell
    # indices strictly increase along every path, and no child is empty
    from torunits.helpengine import _assignment_trie

    cases = [(n, c) for n in _odd_composites(400) for c in candidate_divisors(n).retained]
    assert len(cases) == 137
    open_with_zero = []
    for n, cand in cases:
        cells, trie = _assignment_trie(n, cand.d)
        usable = any(0 in cell for cell in cells)
        assert not usable or cand.zero_slot_open, (n, cand.d)
        assert _class_zero_faults(cells, trie, set()) == [], (n, cand.d)
        if usable:
            open_with_zero.append((n, cand.d))
    assert open_with_zero == [(15, 5), (21, 7), (35, 7), (45, 15)]


def test_check_case_rejects_inapplicable():
    with pytest.raises(CaseInapplicableError):
        check_case(27, 3)
    with pytest.raises(CaseInapplicableError):
        check_case(45, 9)
    with pytest.raises(CaseInapplicableError):
        check_case(45, 2)


def test_verify_order_examples():
    for q, n in ((16, 15), (31, 15), (127, 21)):
        verdict = verify_order(n, q=q)
        assert verdict.conclusion == "verified"
        assert all(c.verdict == "eliminated" for c in verdict.cases)
    assert [c.d for c in verify_order(15, q=16).cases] == [3, 5]
    assert [c.d for c in verify_order(21, q=127).cases] == [3, 7]


def test_verify_order_every_small_composite_order():
    # the engine eliminates every case for every odd composite order in range,
    # not just the hand-checked ones, and each certificate is byte-identical to
    # the one recorded in tests/data/order_certificates.json
    from torunits.psl2 import is_prime_power

    digests = json.loads((DATA / "order_certificates.json").read_text())
    for n in range(9, 106, 2):
        if is_prime_power(n):
            continue
        verdict = verify_order(n)
        assert verdict.conclusion == "verified", n
        assert verdict.cases, n
        blob = json.dumps(verdict.to_json_dict(), indent=2).encode()
        assert hashlib.sha256(blob).hexdigest() == digests[str(n)], n


def test_check_case_certificates_match_fixture():
    # the benchmark's case draw pool: (135, 15) and (7p, 7) for primes
    # 23 <= p <= 73, each byte-identical to the certificate recorded in
    # tests/data/case_certificates.json
    digests = json.loads((DATA / "case_certificates.json").read_text())
    assert len(digests) == 14
    for key, want in digests.items():
        n, d = map(int, key.split(","))
        blob = json.dumps(check_case(n, d).to_json_dict(), indent=2).encode()
        assert hashlib.sha256(blob).hexdigest() == want, key


# -- the proxy order ----------------------------------------------------------


def test_proxy_order_examples():
    from torunits.helpengine import _proxy_order

    # 7 * 73 -> 7 * 17, 17 the smallest prime > 14
    assert _proxy_order(7 * 73, 7) == 119
    # 13 and 11 are not above 2d = 14: (91, 7) and (77, 7) are their own proxies
    assert _proxy_order(91, 7) == 91 and _proxy_order(77, 7) == 77
    # k = 2: 7 and 17 exceed 6 in 1785 = 3 * 5 * 7 * 17, and 5 does not
    assert _proxy_order(1785, 3) == 15 * 7 * 11
    assert _proxy_order(1785, 5) == 105 * 11
    # a prime > 2d that divides the rest s is not a proxy prime: its square
    # stays in s, and the proxy takes the next prime
    assert _proxy_order(3 * 7**2 * 41, 3) == 3 * 7**2 * 11
    assert _proxy_order(7 * 17**2 * 29, 7) == 7 * 17**2 * 19
    assert _proxy_order(7 * 17**2 * 19, 7) == 7 * 17**2 * 19
    # the proxy primes are at most n's own, so the proxy is at most n
    for n in _odd_composites(2000):
        for d in candidate_divisors(n).retained_ds:
            assert _proxy_order(n, d) <= n, (n, d)


def _signature_case(s, d, p):
    # the direct search of (s * p, d), which has no class-0 slot
    from torunits.helpengine import _search

    return _search(s * p, d, False)


def _counts(cert):
    return cert.verdict, cert.tuples_examined, dict(cert.pruning_stats)


_PRIMES_UNDER_100 = [p for p in range(3, 100, 2) if all(p % r for r in range(3, p, 2))]


def _lemma_draw(d):
    # s = d * t, t <= 2d with every prime of t at most 2d, so no prime of s
    # is a large prime of s * p; p1, p2: two of the six smallest primes > 2d
    # that do not divide s
    small = [r for r in _PRIMES_UNDER_100 if r <= 2 * d]
    ts = st.lists(st.sampled_from(small), max_size=2).map(prod).filter(lambda t: t <= 2 * d)
    return ts.flatmap(
        lambda t: st.tuples(
            st.just((d, d * t)),
            st.lists(
                st.sampled_from([p for p in _PRIMES_UNDER_100 if p > 2 * d and t % p][:6]),
                min_size=2,
                max_size=2,
            ),
        )
    )


@example(((7, 7), [73, 19]))
@example(((15, 15), [31, 37]))
@settings(max_examples=12, deadline=None)
@given(st.sampled_from([3, 5, 7, 15]).flatmap(_lemma_draw))
def test_check_case_equals_the_direct_search_on_any_large_prime(drawn):
    # the lemma of check_case: (s * p1, d) and (s * p2, d) have the same
    # verdict, counts and stats for any primes p1, p2 > 2d coprime to s, and
    # check_case, which reads them off the smallest such proxy, gives the
    # direct search's certificate
    (d, s), (p1, p2) = drawn
    got = check_case(s * p1, d)
    direct = _signature_case(s, d, p1)
    assert _certificate_json(got) == _certificate_json(direct)
    assert _counts(got) == _counts(_signature_case(s, d, p2))


@pytest.mark.parametrize("fault", ["near miss", "survivor", "invariant"])
def test_proxy_with_a_witness_sends_check_case_to_the_direct_search(monkeypatch, fault):
    # a proxy's near misses and survivors name its own patterns and basis
    # indices, and a failed invariant names its own pattern, so check_case
    # searches n itself rather than map them back
    from torunits import helpengine
    from torunits.helpengine import InvariantViolationError

    n, d = 7 * 73, 7
    real = helpengine._proxy_search(119, d, False)
    pattern = (1, 2, 3, 4, 5, 6, 8)
    calls = []

    def proxy_search(*key):
        calls.append(key)
        if fault == "invariant":
            raise InvariantViolationError(f"deviation 9 exceeds bound 8 on pattern {pattern}")
        if fault == "survivor":
            return replace(real, survivors=(pattern,), verdict="survivors_found")
        return replace(real, near_misses=(NearMiss(pattern, 7, 1, 3),))

    monkeypatch.setattr(helpengine, "_proxy_search", proxy_search)
    got = helpengine.check_case(n, d)
    assert calls == [(119, d, False)]
    assert _certificate_json(got) == _certificate_json(_signature_case(7, d, 73))


def test_proxy_search_is_memoized_per_divisor():
    # 1785 = 3 * 5 * 7 * 17: d = 3 and d = 5 share the proxy 1155, which the
    # memo holds twice, once per d; for d = 7 (17 is the smallest prime > 14)
    # and d = 15 (17 < 30) 1785 is its own proxy, memoized too.  Each
    # certificate is the direct search's, and a case met again is a lookup
    from torunits import helpengine

    for d in (3, 5, 7, 15):
        assert _certificate_json(check_case(1785, d)) == _certificate_json(
            helpengine._search(1785, d, False)
        ), d
    assert helpengine._proxy_search.cache_info().currsize == 4
    hits = helpengine._proxy_search.cache_info().hits
    assert check_case(1785, 15) is check_case(1785, 15)
    assert helpengine._proxy_search.cache_info().hits == hits + 2


def test_emptying_every_cache_of_torunits_empties_the_proxy_memo():
    # how a fresh pass of a benchmark resets the engine: every cache_clear
    # attribute of every torunits module
    import sys

    from torunits import helpengine

    check_case(7 * 73, 7)
    assert helpengine._proxy_search.cache_info().currsize == 1
    for name, module in list(sys.modules.items()):
        if name == "torunits" or name.startswith("torunits."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    assert helpengine._proxy_search.cache_info().currsize == 0


def test_verify_order_prime_power_and_trivial():
    v = verify_order(9)
    assert v.conclusion == "verified" and not v.cases
    assert verify_order(1).conclusion == "verified"


def test_verify_order_validates():
    with pytest.raises(ValueError):
        verify_order(15, q=5)  # 15 shares the factor 5 with q
    with pytest.raises(ValueError):
        verify_order(10)


def test_verify_order_no_elements_of_that_order():
    v = verify_order(15, q=13)  # 15 divides neither 6 nor 7
    assert v.conclusion == "verified" and not v.cases
    assert any("no elements of order" in note for note in v.notes)


def test_explore_augmentations_n15():
    found = explore_augmentations(15, m_max=3)
    nonzero = [{x: v for x, v in av.eps.items() if v} for av in found]
    # exactly the generator classes consistent with the power constraints
    assert {1: 1} in nonzero
    for sol in nonzero:
        ((x, v),) = sol.items()
        assert v == 1
        # every solution is a generator class whose powers match g's powers
        assert all(class_rep(15, x * c) == class_rep(15, c) for c in (3, 5))


def test_explore_augmentations_validates():
    with pytest.raises(ValueError, match="m_max"):
        explore_augmentations(15, m_max=0)
    with pytest.raises(ValueError, match="odd order"):
        explore_augmentations(16)


def test_explore_augmentations_agrees_with_eigenvalue_multiplicity():
    # the search's precomputed per-class traces against the direct formula
    n, m_max = 15, 3
    powers = induction_powers(n)

    def passes(av):
        for m in range(1, m_max + 1):
            mults = [eigenvalue_multiplicity(av, m, l, powers) for l in range(n)]
            if any(v.denominator != 1 or v < 0 for v in mults):
                return False
            if any(mults[l] != mults[-l % n] for l in range(n)):
                return False
        return True

    found = explore_augmentations(n, m_max=m_max)
    assert found and all(passes(av) for av in found)
    reps = class_reps(n)[1:]
    vectors = [v for v in product((-1, 0, 1), repeat=len(reps)) if sum(v) == 1]
    assert len(vectors) == 357
    for values in random.Random(15).sample(vectors, 40):
        av = AugVector(n, dict(zip(reps, values)))
        assert passes(av) == (av in found), values
