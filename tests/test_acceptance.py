"""Acceptance suite: one pass/fail line per criterion, exact arithmetic only.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import functools
import json
import random
import time

from torunits.augment import AugVector, augmentations_from_traces, unit_trace
from torunits.cli import main
from torunits.cyclotomic import CycInt, real_trace
from torunits.divisibility import check_vanishing, cyclotomic_value_divisible, recipe_instance
from torunits.helpengine import candidate_divisors, check_case, enumerate_patterns, verify_order
from torunits.numtheory import (
    basis_exponents,
    divisors,
    euler_phi,
    moebius,
    near_zero_part,
)
from torunits.oracles import (
    EigenPattern,
    bound_check,
    bound_filtered_divisors,
    decompose,
    deviation_vector,
)
from torunits.psl2 import character_value
from torunits.realbasis import basis_change_det, basis_coeff, basis_indices

CASE_LEDGER = [(15, 3), (15, 5), (21, 3), (21, 7), (35, 7), (45, 5), (45, 15), (75, 3)]
ORDER_LEDGER = [(16, 15), (31, 15), (127, 21), (127, 63)]
RANDOM_SEED = 20240501


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_cyclotomic_value_divisibility_suite():
    t0 = time.perf_counter()
    failures = [
        (n, p, m)
        for n in range(1, 46)
        for p in (2, 3, 5, 7)
        for m in (1, 2)
        if not cyclotomic_value_divisible(n, p, m)
    ]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60
    report(
        "cyclotomic values at lower-order roots divisible by p",
        ok,
        f"360 checks, n<=45, {elapsed:.1f}s < 60s",
    )
    assert not failures
    assert elapsed < 60


def test_vanishing_criterion_random_suite():
    t0 = time.perf_counter()
    rng = random.Random(RANDOM_SEED)
    count = 0
    failures = []
    for n in range(3, 106, 2):
        for d in divisors(n):
            if d == 1:
                continue
            for _ in range(100):
                verdict = check_vanishing(recipe_instance(n, d, rng))
                count += 1
                if not (verdict.hypotheses_hold and verdict.conclusion_holds):
                    failures.append((n, d))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120
    report(
        "vanishing criterion on seeded recipe instances",
        ok,
        f"{count} instances, seed {RANDOM_SEED}, {elapsed:.1f}s < 120s",
    )
    assert not failures
    assert count == 11400
    assert elapsed < 120


def test_real_basis_suite():
    t0 = time.perf_counter()
    checked = 0
    for n in range(3, 106, 2):
        idx = basis_indices(n)
        assert len(idx) == euler_phi(n) // 2, n
        assert basis_change_det(n) in (1, -1), n
        for i in range(n):
            oracle = decompose(real_trace(n, i))
            for b in idx:
                assert oracle[b] == basis_coeff(n, b, i), (n, b, i)
            g = near_zero_part(n, i)
            acc = [0] * n
            for b in basis_exponents(n):
                if (b - i) % (n // g) == 0:
                    acc[b] += 1
            assert CycInt.root(n, i) == moebius(g) * CycInt(n, acc), (n, i)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120
    report(
        "real-subring basis: sizes, unimodularity, closed formula vs solver, expansion identity",
        ok,
        f"odd n<=105, {checked} indices, {elapsed:.1f}s < 120s",
    )
    assert elapsed < 120


def test_case_analysis_reproduction():
    t0 = time.perf_counter()
    details = []
    worst = 0.0
    for n, d in CASE_LEDGER:
        t1 = time.perf_counter()
        cert = check_case(n, d)
        dt = time.perf_counter() - t1
        worst = max(worst, dt)
        assert cert.verdict == "eliminated", (n, d)
        assert dt < 60, (n, d, dt)
        details.append(f"({n},{d})={cert.tuples_examined}")

    # prime-power orders fall outside the case analysis
    assert not candidate_divisors(27).applicable

    # the recorded witness of the hardest small case: the single pattern
    # that reaches the required deviation size still fails divisibility,
    # with value -2 at basis index 1
    cert = check_case(15, 3)
    (nm,) = cert.near_misses
    assert (nm.basis_index, nm.deviation, nm.pattern) == (1, -2, (6, 7, 7))

    # the divisor bound admits exactly 3, 5, 7, 9, 15 over any odd range
    assert bound_filtered_divisors(10_000) == (3, 5, 7, 9, 15)

    elapsed = time.perf_counter() - t0
    report(
        "case-analysis reproduction with witnesses and divisor filter",
        True,
        f"{' '.join(details)}, worst case {worst:.1f}s < 60s, total {elapsed:.1f}s",
    )


def test_end_to_end_order_verdicts():
    t0 = time.perf_counter()
    for q, n in ORDER_LEDGER:
        verdict = verify_order(n, q=q)
        assert verdict.conclusion == "verified", (q, n)
        assert all(c.verdict == "eliminated" for c in verdict.cases)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300
    report(
        "end-to-end order verdicts",
        ok,
        f"(q,n) in {ORDER_LEDGER}, {elapsed:.1f}s < 300s",
    )
    assert elapsed < 300


@functools.cache
def _class_coords(n: int, x: int) -> tuple[int, ...]:
    # the decomposition of one real trace, solved once per class of n
    coords = decompose(real_trace(n, x))
    return tuple(coords[b] for b in basis_indices(n))


def test_engine_invariants():
    t0 = time.perf_counter()
    tuples = 0
    for n, d in CASE_LEDGER:
        base = decompose(character_value(n, d, 1) - CycInt.one(n))
        idx = basis_indices(n)
        for k, classes in enumerate(enumerate_patterns(n, d)):
            tuples += 1
            pattern = EigenPattern(n, d, classes)
            bc = bound_check(pattern)  # raises if the deviation bound is violated
            assert bc.max_abs_deviation <= bc.bound
            # decompose is linear: a pattern's coordinates are the sum of its
            # classes' solved coordinates; the first pattern of each case
            # also decomposes the summed element itself
            coords = dict(zip(idx, map(sum, zip(*(_class_coords(n, x) for x in classes)))))
            if not k:
                elem = CycInt.zero(n)
                for x in pattern.classes:
                    elem = elem + real_trace(n, x)
                assert decompose(elem).coords == coords
            assert deviation_vector(pattern) == tuple(coords[b] - base[b] for b in idx)

    rng = random.Random(RANDOM_SEED)
    trips = 0
    for n in (15, 21, 35, 45):
        for _ in range(100):
            values = {x: rng.randint(-3, 3) for x in range(1, n // 2 + 1)}
            values[1] += 1 - sum(values.values())
            eps = AugVector(n, {0: 0, **values})
            lams = [unit_trace(eps, i) for i in range(n)]
            assert augmentations_from_traces(lams, n) == eps
            trips += 1
    elapsed = time.perf_counter() - t0
    report(
        "engine invariants: deviation bound, formula vs decomposition, trace inversion",
        True,
        f"{tuples} tuples cross-checked, {trips} trace round trips, {elapsed:.1f}s",
    )
    assert trips == 400


def test_certificate_determinism(tmp_path):
    t0 = time.perf_counter()
    for n, d in CASE_LEDGER:
        outs = {}
        for workers in (1, 4):
            out = tmp_path / f"case_{n}_{d}_w{workers}.json"
            code = main(
                [
                    "case",
                    "--n",
                    str(n),
                    "--d",
                    str(d),
                    "--workers",
                    str(workers),
                    "--output",
                    str(out),
                ]
            )
            assert code == 0, (n, d, workers)
            outs[workers] = out.read_bytes()
        assert outs[1] == outs[4], (n, d)
        assert b"workers" not in outs[1]
    elapsed = time.perf_counter() - t0
    report(
        "byte-identical certificates across worker counts",
        True,
        f"{len(CASE_LEDGER)} cases x workers in (1, 4), {elapsed:.1f}s",
    )


def test_full_report_is_reproducible(tmp_path):
    # same config and seed, fresh process-independent content
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"verify_{tag}.json"
        assert main(["verify", "--q", "127", "--seed", "3", "--output", str(out)]) == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]
    payload = json.loads(paths[0])
    assert payload["parameters"]["seed"] == 3
    report("identical config and seed give identical report bytes", True, "verify --q 127")
