import gc
import hashlib
import json
import random
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torunits.augment import (
    AugVector,
    augmentations_from_traces,
    classwise_powers,
    eigenvalue_multiplicity,
    explore_augmentations,
    induction_powers,
    unit_trace,
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
    bound_check,
    bound_filtered_divisors,
    decompose,
    deviation,
    deviation_vector,
    satisfies_power_constraints,
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
    c27 = candidate_divisors(27)
    assert not c27.applicable and c27.reason == "prime-power order"
    assert not candidate_divisors(12).applicable


def test_candidate_divisors_zero_slot_flags():
    flags = {c.d: c.zero_slot_open for c in candidate_divisors(15).retained}
    assert flags == {3: False, 5: True}
    flags = {c.d: c.zero_slot_open for c in candidate_divisors(21).retained}
    assert flags == {3: False, 7: True}
    flags = {c.d: c.zero_slot_open for c in candidate_divisors(35).retained}
    assert flags == {5: False, 7: True}


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


def _reference_trie(n, d):
    # the assignment-trie walk before memoization: a plain recursion over
    # residue-counter dicts, with no state shared between calls
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
    projs = sorted(by_proj)
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


def _trie_paths(node, prefix=()):
    # every root-to-leaf sequence of (cell, count) edges, in trie order
    for i, c, child in node:
        path = prefix + ((i, c),)
        if child is None:
            yield path
        else:
            yield from _trie_paths(child, path)


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
            # equal nested edge lists: the same (cell, count) paths, in order
            assert trie == ref_trie, (n, d)
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

    def count(node, seen):
        if node is not None and id(node) not in seen:
            seen.add(id(node))
            for _, _, child in node:
                count(child, seen)
        return len(seen)

    def tree_size(node):
        return 1 + sum(tree_size(child) for _, _, child in node if child is not None)

    _, trie = _assignment_trie(75, 15)
    _, ref = _reference_trie(75, 15)
    assert tree_size(trie) == tree_size(ref)
    assert count(trie, set()) * 10 < tree_size(trie)


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
    _, trie = _assignment_trie(n, d)
    _, ref = _reference_trie(n, d)
    assert list(_trie_paths(trie)) == list(_trie_paths(ref))


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
        flipped = helpengine.check_case(n, d)
        monkeypatch.undo()
        assert flipped.pruning_stats == cert.pruning_stats, (n, d)
        assert flipped.near_misses == tuple(
            replace(nm, deviation=-nm.deviation) for nm in cert.near_misses
        ), (n, d)
    assert check_case(15, 3).near_misses


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
