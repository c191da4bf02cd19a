from fractions import Fraction

import pytest

from torunits.augment import AugVector, eigenvalue_multiplicity
from torunits.cyclotomic import CycInt, real_trace
from torunits.psl2 import (
    admissible_orders,
    character_value,
    eigenvalue_classes,
    group_profile,
    is_prime_power,
)
from torunits.realbasis import decompose


def test_group_profile_q7():
    p = group_profile(7)
    assert p.order == 168
    assert p.element_orders == (1, 2, 3, 4, 7)
    assert (p.t, p.f, p.d2) == (7, 1, 2)


def test_group_profile_q16():
    p = group_profile(16)
    assert p.order == 4080
    assert p.element_orders == (1, 2, 3, 5, 15, 17)
    assert p.d2 == 1


def test_group_profile_q31():
    p = group_profile(31)
    assert p.order == 14880
    want = {31} | {d for d in range(1, 16) if 15 % d == 0} | {1, 2, 4, 8, 16}
    assert set(p.element_orders) == want


def test_group_profile_rejects():
    for q in (2, 3, 6, 12):
        with pytest.raises(ValueError):
            group_profile(q)


def test_admissible_orders():
    assert admissible_orders(16) == (15,)
    assert admissible_orders(7) == ()
    assert admissible_orders(127) == (21, 63)
    for q in (16, 31, 127):
        profile = group_profile(q)
        for n in admissible_orders(q):
            halves = ((q - 1) // profile.d2, (q + 1) // profile.d2)
            assert any(h % n == 0 for h in halves)
            assert n % 2 and n % profile.t and not is_prime_power(n)


def test_character_value_examples():
    assert character_value(15, 1, 1) == CycInt.one(15) + real_trace(15, 1)
    assert character_value(15, 3, 0) == CycInt.integer(15, 7)
    coords = decompose(character_value(15, 3, 1) - CycInt.one(15)).coords
    assert coords == {1: 1, 2: 0, 4: 0, 7: -1}


def test_character_value_is_real_and_periodic():
    for m in (1, 2, 5):
        for i in range(-3, 18):
            v = character_value(15, m, i)
            assert v.is_real()
            assert v == character_value(15, m, -i) == character_value(15, m, i + 15)
    assert character_value(45, 4, 0) == CycInt.integer(45, 9)


def test_eigenvalue_classes_examples():
    assert eigenvalue_classes(3, 1, 15) == (0, 1, 2, 3)
    assert eigenvalue_classes(3, 5, 15) == (0, 0, 5, 5)
    assert eigenvalue_classes(1, 0, 15) == (0, 0)


def test_eigenvalue_classes_match_character_value():
    # the character value is the sum of the traces of the eigenvalue classes,
    # counting the zero class once as the fixed eigenvalue 1
    for m in (1, 2, 3, 7):
        for i in range(8):
            classes = eigenvalue_classes(m, i, 15)
            total = CycInt.zero(15)
            first_zero = True
            for c in classes:
                if c == 0 and first_zero:
                    total = total + CycInt.one(15)
                    first_zero = False
                elif c == 0:
                    total = total + CycInt.integer(15, 2)
                else:
                    total = total + real_trace(15, c)
            assert total == character_value(15, m, i)


def test_multiplicity_examples():
    eps = AugVector.indicator(15, 1)
    assert eigenvalue_multiplicity(eps, 1, 1) == Fraction(1)
    assert eigenvalue_multiplicity(eps, 1, 7) == Fraction(0)
    assert eigenvalue_multiplicity(eps, 1, 0) == Fraction(1)


def test_multiplicity_matches_unfolded_eigenvalues():
    n = 15
    for m in range(1, 8):
        for x in range(n // 2 + 1):
            eps = AugVector.indicator(n, x)
            signed = [0] + [e for j in range(1, m + 1) for e in ((x * j) % n, (-x * j) % n)]
            for l in range(n):
                want = sum(1 for e in signed if e == l)
                assert eigenvalue_multiplicity(eps, m, l) == Fraction(want), (m, x, l)


def test_is_prime_power():
    assert is_prime_power(27) and is_prime_power(7)
    assert not is_prime_power(1) and not is_prime_power(15)


def _character_value_by_scatter(n, m, i):
    # the scatter loop character_value used before it became a _fold_pairs
    coeffs = [0] * n
    for j in range(-m, m + 1):
        coeffs[(i * j) % n] += 1
    return CycInt(n, coeffs)


def test_character_value_matches_the_scatter_loop():
    for n in range(1, 46, 2):
        for m in range(1, 7):
            for i in range(-n, 2 * n + 1):
                want = _character_value_by_scatter(n, m, i)
                assert character_value(n, m, i).coeffs == want.coeffs, (n, m, i)
