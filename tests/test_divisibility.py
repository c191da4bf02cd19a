import random

import pytest

from torunits.cyclotomic import CycInt, cyclotomic_poly, eval_at_root
from torunits.divisibility import (
    PowerSums,
    VanishingVerdict,
    _cyclotomic_value,
    check_vanishing,
    check_vanishing_real,
    cyclotomic_value_divisible,
    fold_class_vector,
    fold_to_classes,
    prime_power_divisors,
    recipe_instance,
)
from torunits.numtheory import class_rep, class_reps, divisors
from torunits.oracles import decompose


def padded(poly, n):
    A = [0] * n
    for j, c in enumerate(poly):
        A[j % n] += c
    return tuple(A)


def ref_product(a, b):
    # the polynomial product, by the schoolbook double loop
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_value_divisible_examples():
    assert cyclotomic_value_divisible(1, 5, 1)
    assert eval_at_root(cyclotomic_poly(5), 1) == CycInt.integer(1, 5)
    assert cyclotomic_value_divisible(3, 2, 1)
    assert eval_at_root(cyclotomic_poly(6), 3) == -2 * CycInt.root(3)
    assert cyclotomic_value_divisible(5, 5, 1)
    assert eval_at_root(cyclotomic_poly(25), 5) == CycInt.integer(5, 5)


def test_cyclotomic_value_matches_the_full_polynomial():
    # the radical fold against Phi_(n*p^m) built in full (uncached) and
    # evaluated at zeta_n: equal reduced values, so equal verdicts
    for n in range(1, 46):
        for p in (2, 3, 5, 7, 11, 13):
            for m in (1, 2, 3):
                direct = eval_at_root(cyclotomic_poly.__wrapped__(n * p**m), n)
                assert _cyclotomic_value(n, p, m).reduced == direct.reduced, (n, p, m)
                assert cyclotomic_value_divisible(n, p, m) == direct.divisible_by(p), (n, p, m)


def test_cyclotomic_value_divisible_validates():
    with pytest.raises(ValueError):
        cyclotomic_value_divisible(3, 4, 1)
    with pytest.raises(ValueError):
        cyclotomic_value_divisible(3, 2, 0)


def test_prime_power_divisors():
    assert prime_power_divisors(45) == (3, 5, 9)
    assert prime_power_divisors(7) == (7,)
    assert prime_power_divisors(1) == ()


def test_value_examples():
    inst = PowerSums(15, (0,) * 15, 15)
    assert inst.value(3).is_zero()
    f35 = ref_product(cyclotomic_poly(3), cyclotomic_poly(5))
    inst = PowerSums(15, padded(f35, 15), 15)
    assert inst.value(5).is_zero()  # the cubic factor kills zeta_3
    assert inst.value(15) == CycInt.integer(15, 15)


def test_check_vanishing_examples():
    f35 = ref_product(cyclotomic_poly(3), cyclotomic_poly(5))
    v = check_vanishing(PowerSums(15, padded(f35, 15), 15))
    assert v.hypotheses_hold and v.conclusion_holds

    e1 = tuple(1 if j == 1 else 0 for j in range(15))
    v = check_vanishing(PowerSums(15, e1, 15))
    assert not v.hypotheses_hold

    v = check_vanishing(PowerSums(9, padded(cyclotomic_poly(9), 9), 3))
    assert v.hypotheses_hold and v.conclusion_holds


def test_instance_validation():
    with pytest.raises(ValueError):
        PowerSums(15, (0,) * 15, 2)
    with pytest.raises(ValueError):
        PowerSums(15, (0,) * 14, 3)


def test_folded_value_matches_full_modulus():
    rng = random.Random(11)
    for n, d in ((15, 15), (45, 9), (105, 21)):
        inst = recipe_instance(n, d, rng)
        for q in prime_power_divisors(d):
            i = d // q
            assert inst.value(i).is_zero() == inst._folded_value(i).is_zero()
        assert inst.value(d).divisible_by(d) == inst._folded_value(d).divisible_by(d)


def test_recipe_instances_sample():
    rng = random.Random(99)
    for n in (15, 21, 45, 75):
        for d in divisors(n):
            if d == 1:
                continue
            for _ in range(10):
                v = check_vanishing(recipe_instance(n, d, rng))
                assert v.hypotheses_hold and v.conclusion_holds, (n, d)


def test_check_vanishing_real_examples():
    B0 = {x: 0 for x in class_reps(15)}
    v = check_vanishing_real(15, B0, 3)
    assert v.hypotheses_hold and v.conclusion_holds

    # fold a full instance to class data and compare verdicts and values
    rng = random.Random(4)
    for n, d in ((15, 3), (45, 5), (45, 15)):
        inst = recipe_instance(n, d, rng)
        # symmetrize the coefficient vector so it folds to class data
        A = list(inst.coeffs)
        sym = [A[j] + A[(n - j) % n] for j in range(n)]
        B = fold_to_classes(n, sym)
        folded = fold_class_vector(n, B)
        assert tuple(folded) == tuple(sym)
        vr = check_vanishing_real(n, B, d)
        vn = check_vanishing(PowerSums(n, folded, d))
        assert vr.hypotheses_hold == vn.hypotheses_hold
        if vr.hypotheses_hold:
            assert vr.conclusion_holds and vn.conclusion_holds


def _check_vanishing_real_by_solve(n, B, d):
    # the same verdict with w(d) built as an element and solved in the power basis
    inst = PowerSums(n, fold_class_vector(n, B), d)
    hyp = all(inst.value(d // q).is_zero() for q in prime_power_divisors(d))
    concl = all(v % d == 0 for v in decompose(inst.value(d)).coords.values())
    return VanishingVerdict(hyp, concl)


def _random_class_data(n, d, rng):
    # nonzero values at class 0, at two classes x, y with d*x and d*y in one
    # sign class, and at a few more
    reps = class_reps(n)
    while True:
        x = rng.choice(reps)
        y = class_rep(n, x + n // d)
        if y != x:
            break
    keys = {0, x, y, *rng.sample(reps, 3)}
    return {k: rng.choice((-1, 1)) * rng.randint(1, 5) for k in keys}, (x, y)


def test_check_vanishing_real_matches_the_solver_route():
    rng = random.Random(1409)
    seen = set()
    for n in (9, 15, 45, 63, 105):
        for d in divisors(n)[1:]:
            draws = []
            for _ in range(2):
                B, (x, y) = _random_class_data(n, d, rng)
                assert 0 in B and class_rep(n, d * x) == class_rep(n, d * y)
                draws += [B, {k: d * c for k, c in B.items()}]
            # symmetrized recipe data: every class, hypotheses true by construction
            A = recipe_instance(n, d, rng, max_coeff=3).coeffs
            draws.append(fold_to_classes(n, [A[j] + A[-j % n] for j in range(n)]))
            for B in draws:
                got = check_vanishing_real(n, B, d)
                assert got == _check_vanishing_real_by_solve(n, B, d), (n, d, B)
                seen.add((got.hypotheses_hold, got.conclusion_holds))
    assert {(False, False), (False, True), (True, True)} <= seen


def test_fold_class_vector_weights_zero_class_twice():
    n = 15
    B = {x: 0 for x in class_reps(n)}
    B[0] = 3
    B[2] = 1
    A = fold_class_vector(n, B)
    assert A[0] == 6
    assert A[2] == A[13] == 1
    assert sum(A) == 2 * sum(B.values())


def test_check_vanishing_real_validates():
    with pytest.raises(ValueError):
        check_vanishing_real(15, {9: 1}, 3)  # 9 is not a class representative
    with pytest.raises(ValueError):
        check_vanishing_real(15, {1: 1}, 2)  # 2 does not divide 15
