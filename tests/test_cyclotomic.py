import cmath
import functools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torunits import cyclotomic
from torunits.cyclotomic import (
    CycInt,
    _convolve,
    _fold,
    _fold_pairs,
    _long_divide,
    _root_walk,
    cyclotomic_poly,
    eval_at_root,
    rational_trace,
    real_trace,
)
from torunits.numtheory import divisors, euler_phi, is_prime, moebius


def poly_remainder(num, den):
    """Independent long-division oracle on coefficient lists (monic divisor)."""
    rem = list(num)
    dd = len(den) - 1
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        c = rem[-1]
        off = len(rem) - 1 - dd
        for j, dc in enumerate(den):
            rem[off + j] -= c * dc
    rem = rem[:dd]
    rem.extend([0] * (dd - len(rem)))
    return tuple(rem)


# -- the polynomial core against the loops it replaced ------------------
# Each reference is a copy of one of the hand-written loops that _fold,
# _fold_pairs, _convolve and _long_divide replaced.


def ref_scatter(coeffs, s, m):
    # PowerSums.value / _folded_value, CycInt.galois, eval_at_root
    out = [0] * m
    for j, c in enumerate(coeffs):
        if c:
            out[(s * j) % m] += c
    return out


def ref_pairs(terms, s, m):
    # oracles.unit_trace; fold_class_vector and oracles.recompose are the case s = 1
    out = [0] * m
    for x, c in terms:
        if c:
            out[(s * x) % m] += c
            out[(-s * x) % m] += c
    return out


def ref_product(a, b):
    # the polynomial product
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def ref_cyclic_product(a, b, n):
    # CycInt.__mul__
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % n] += x * y
    return out


def ref_divide(num, den):
    # the exact division of cyclotomic_poly, without its remainder check
    rem = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ValueError("inexact polynomial division")
        quot[i - dd] = q
        for j, dc in enumerate(den):
            if dc:
                rem[i - dd + j] -= q * dc
    rem = rem[:dd]
    rem.extend([0] * (dd - len(rem)))
    return quot, rem


def ref_reduce(raw, n):
    # _reduce_mod_cyclotomic
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rem = list(raw)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            off = i - deg
            for j in range(deg):
                pj = phi[j]
                if pj:
                    rem[off + j] -= c * pj
    rem = rem[:deg]
    rem.extend([0] * (deg - len(rem)))
    return tuple(rem)


def random_coeffs(rng, length, zeros=0.4, spread=9):
    # signed and sparse, ending in a run of zeros about a third of the time
    out = [0 if rng.random() < zeros else rng.randint(-spread, spread) for _ in range(length)]
    if rng.random() < 0.3:
        k = min(length, rng.randint(1, 4))
        out[length - k :] = [0] * k
    return out


def test_fold_matches_the_scatter_loops():
    rng = random.Random(11)
    for _ in range(600):
        m = rng.choice([1, 2, 3, 5, 6, 9, 12, 15, 21, 45])
        s = rng.choice([0, 1, -1, m, 2 * m + 1, rng.randint(-60, 60), 3, 5])
        coeffs = random_coeffs(rng, rng.randint(0, 3 * m + 2))
        assert _fold(coeffs, s, m) == ref_scatter(coeffs, s, m), (coeffs, s, m)
        terms = [(rng.randint(0, m), rng.randint(-4, 4)) for _ in range(rng.randint(0, 6))]
        assert _fold_pairs(terms, s, m) == ref_pairs(terms, s, m), (terms, s, m)
    # s = 0 and s not coprime to m collapse exponents; m = 1 sums everything
    assert _fold([1, 2, 3], 0, 4) == [6, 0, 0, 0]
    assert _fold([1, 2, 3, 4], 2, 4) == [4, 0, 6, 0]
    assert _fold([5, -2, 0, 7], 3, 1) == [10]
    assert _fold_pairs([(0, 1), (2, 3)], 1, 5) == [2, 0, 3, 3, 0]


def test_convolve_matches_the_product_loops():
    rng = random.Random(12)
    for _ in range(400):
        a = random_coeffs(rng, rng.randint(0, 20))
        b = random_coeffs(rng, rng.randint(0, 20))
        assert _convolve(a, b) == ref_product(a, b), (a, b)
        n = rng.randint(1, 30)
        a, b = random_coeffs(rng, n), random_coeffs(rng, n)
        assert _fold(_convolve(a, b), 1, n) == ref_cyclic_product(a, b, n), (a, b)
    assert _convolve([], [1, 2]) == _convolve([1, 2], []) == []
    assert _convolve([0, 0], [0, 3]) == [0, 0, 0]


def test_long_divide_matches_the_division_loops():
    rng = random.Random(13)
    for _ in range(600):
        den = random_coeffs(rng, rng.randint(1, 8)) + [1]
        num = random_coeffs(rng, rng.randint(0, 24))
        assert _long_divide(num, den) == ref_divide(num, den), (num, den)
    # a divisor that is not monic is refused, whether or not it would divide
    for lead in (-1, 2, -3):
        den = [3, 0, lead]
        with pytest.raises(ValueError, match="monic"):
            _long_divide(_convolve([1, -1, 4], den), den)
    for n in (1, 2, 7, 15, 24, 45, 105):
        for _ in range(10):
            raw = random_coeffs(rng, rng.randint(0, 2 * n))
            assert tuple(_long_divide(raw, cyclotomic_poly(n))[1]) == ref_reduce(raw, n)


def test_root_walk_matches_the_reduced_roots():
    # both directions run for more than two full turns, so the walk folds
    # through Phi_n at every exponent, against the long-division route
    for n in (2, 3, 7, 9, 15, 24, 45, 105, 165):
        phi = euler_phi(n)
        for e in sorted({0, (phi - 1) // 2, phi - 1}):
            for step in (1, -1):
                walk = _root_walk(n, e, step)
                for j in range(2 * n + 3):
                    want = CycInt.root(n, e + step * j).reduced
                    assert next(walk) == list(want), (n, e, step, j)


# -- ring laws ---------------------------------------------------------


@st.composite
def ring_elements(draw, count):
    n = draw(st.integers(1, 36), label="n")
    elems = [
        CycInt(n, draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
        for _ in range(count)
    ]
    return n, elems


@settings(max_examples=60, deadline=None)
@given(ring_elements(3))
def test_mul_is_commutative_associative_and_distributive(drawn):
    _, (a, b, c) = drawn
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(ring_elements(2), st.data())
def test_galois_is_a_ring_homomorphism(drawn, data):
    n, (a, b) = drawn
    s = data.draw(st.sampled_from([s for s in range(1, n + 1) if gcd(s, n) == 1]), label="s")
    assert (a + b).galois(s) == a.galois(s) + b.galois(s)
    assert (a * b).galois(s) == a.galois(s) * b.galois(s)
    assert CycInt.one(n).galois(s) == CycInt.one(n)


@settings(max_examples=60, deadline=None)
@given(ring_elements(2))
def test_cyclic_product_is_the_polynomial_product_reduced(drawn):
    n, (a, b) = drawn
    prod = ref_product(a.coeffs, b.coeffs)
    assert (a * b).reduced == poly_remainder(prod, cyclotomic_poly(n))


# -- cyclotomic polynomials -------------------------------------------


def test_small_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert len(cyclotomic_poly(15)) - 1 == 8
    assert cyclotomic_poly(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)


def test_cyclotomic_poly_is_a_tuple():
    # one immutable value is shared by every caller of the cache; m = 1,
    # squarefree m, inflated m, and the uncached computation
    for m in (1, 2, 15, 45, 225):
        assert type(cyclotomic_poly(m)) is tuple, m
        assert type(cyclotomic_poly.__wrapped__(m)) is tuple, m


def test_cyclotomic_product_identity():
    for n in range(1, 201):
        prod = [1]
        for d in divisors(n):
            prod = ref_product(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_cyclotomic_is_monic_of_degree_phi():
    for n in list(range(1, 130)) + [105 * 4, 45 * 49]:
        f = cyclotomic_poly(n)
        assert f[-1] == 1 and len(f) - 1 == euler_phi(n)


def test_cyclotomic_vanishes_at_its_root():
    for n in range(1, 201):
        assert eval_at_root(cyclotomic_poly(n), n).is_zero(), n


@functools.cache
def ref_cyclotomic(m):
    # squarefree m: X^m - 1 divided in turn by the polynomial of every
    # proper divisor, each division checked to leave no remainder
    out = [-1] + [0] * (m - 1) + [1]
    for e in divisors(m)[:-1]:
        out, rem = ref_divide(out, ref_cyclotomic(e))
        assert not any(rem), (m, e)
    return tuple(out)


def test_cyclotomic_matches_the_iterated_division():
    # the Moebius product against the iterated division, coefficient by
    # coefficient: every squarefree m <= 400, and 15 * p for the primes
    # 7 <= p <= 251, whose polynomials grow with p
    squarefree = [m for m in range(1, 401) if moebius(m)]
    fifteen_p = [15 * p for p in range(7, 252) if is_prime(p)]
    assert len(fifteen_p) == 51
    for m in squarefree + fifteen_p:
        assert cyclotomic_poly(m) == ref_cyclotomic(m), m


def test_inexact_division_raises(monkeypatch):
    # with every Moebius sign flipped, Phi_15 would be
    # (X^3 - 1)(X^5 - 1) / ((X - 1)(X^15 - 1)): the last division leaves
    # a remainder, which must raise rather than be dropped
    monkeypatch.setattr(cyclotomic, "moebius", lambda k: -moebius(k))
    with pytest.raises(ArithmeticError, match="inexact polynomial division: nonzero remainder"):
        cyclotomic_poly.__wrapped__(15)


def test_wrong_degree_raises(monkeypatch):
    # without the divisor 5, the product is (X - 1)(X^15 - 1) / (X^3 - 1):
    # every division is exact, and the degree 13 is not phi(15) = 8
    monkeypatch.setattr(cyclotomic, "divisors", lambda m: [1, 3, 15])
    with pytest.raises(ArithmeticError, match="cyclotomic polynomial computation failed for m=15"):
        cyclotomic_poly.__wrapped__(15)


# -- ring operations ---------------------------------------------------


def test_add_and_mul_examples():
    z = CycInt.root(5)
    assert z + z.conjugate() == real_trace(5, 1)
    assert CycInt.root(5, 2) * CycInt.root(5, 3) == CycInt.one(5)
    # 1 + z3 + z3^2 = 0
    s = CycInt.one(3) + CycInt.root(3, 1) + CycInt.root(3, 2)
    assert s.is_zero()


def test_reduce_examples():
    assert CycInt.root(3, 2).reduced == (-1, -1)
    assert CycInt.zero(9).reduced == (0,) * 6
    want = poly_remainder([0] * 14 + [1], cyclotomic_poly(15))
    assert CycInt.root(15, 14).reduced == want


def test_eval_at_root_examples():
    assert eval_at_root((1, 1, 1), 3).is_zero()
    assert eval_at_root(cyclotomic_poly(6), 3) == -2 * CycInt.root(3)
    assert eval_at_root((-1, 1), 1).is_zero()


def test_mul_matches_polynomial_multiplication():
    rng = random.Random(2024)
    for n in (7, 15, 24, 45, 105):
        for _ in range(8):
            a = CycInt(n, [rng.randint(-9, 9) for _ in range(n)])
            b = CycInt(n, [rng.randint(-9, 9) for _ in range(n)])
            prod = [0] * (2 * n - 1)
            for i, ai in enumerate(a.coeffs):
                for j, bj in enumerate(b.coeffs):
                    prod[i + j] += ai * bj
            want = poly_remainder(prod, cyclotomic_poly(n))
            assert (a * b).reduced == want


def test_galois_examples_and_homomorphism():
    assert CycInt.root(5).galois(2) == CycInt.root(5, 2)
    assert real_trace(15, 1).galois(4) == real_trace(15, 4)
    assert CycInt.one(15).galois(7) == CycInt.one(15)
    rng = random.Random(5)
    for n, s in ((15, 2), (45, 7), (21, 5)):
        a = CycInt(n, [rng.randint(-5, 5) for _ in range(n)])
        b = CycInt(n, [rng.randint(-5, 5) for _ in range(n)])
        assert (a + b).galois(s) == a.galois(s) + b.galois(s)
        assert (a * b).galois(s) == a.galois(s) * b.galois(s)
        sinv = pow(s, -1, n)
        assert a.galois(s).galois(sinv) == a


def test_galois_rejects_noninvertible():
    with pytest.raises(ValueError):
        CycInt.root(15).galois(3)


def test_real_trace_examples():
    assert real_trace(15, 0) == CycInt.integer(15, 2)
    assert real_trace(15, 3) == -real_trace(15, 2) - real_trace(15, 7)
    assert real_trace(5, 1) == CycInt.root(5, 1) + CycInt.root(5, 4)
    for n, x in ((15, 4), (45, 11), (9, 2)):
        assert real_trace(n, x) == real_trace(n, -x) == real_trace(n, x + n)
        assert real_trace(n, x).is_real()


def test_divisible_by():
    assert eval_at_root(cyclotomic_poly(6), 3).divisible_by(2)
    assert not CycInt.root(5).divisible_by(2)
    assert CycInt.zero(7).divisible_by(11)


def test_modulus_mismatch_raises():
    with pytest.raises(ValueError):
        CycInt.one(5) + CycInt.one(7)


def test_equality_is_representation_independent():
    # same element via different raw exponent vectors
    a = CycInt(3, (1, 0, 0))
    b = CycInt(3, (0, -1, -1))
    assert a == b
    assert hash(a) == hash(b)


def test_rational_trace():
    # trace of 1 is phi(n); trace of a primitive root is the moebius value
    assert rational_trace(CycInt.one(15)) == 8
    assert rational_trace(CycInt.root(15)) == 1
    assert rational_trace(CycInt.root(9)) == 0
    assert rational_trace(CycInt.root(5)) == -1
    assert rational_trace(CycInt.integer(1, 3)) == 3


def test_complex_embedding_cross_check():
    rng = random.Random(77)
    for n in (9, 15, 28, 45, 105):
        for _ in range(6):
            a = CycInt(n, [rng.randint(-100, 100) for _ in range(n)])
            w = 2j * cmath.pi / n
            raw = sum(c * cmath.exp(w * j) for j, c in enumerate(a.coeffs))
            red = sum(c * cmath.exp(w * j) for j, c in enumerate(a.reduced))
            assert abs(raw - red) <= 1e-9 * (1 + abs(raw))
