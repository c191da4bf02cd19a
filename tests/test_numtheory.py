import pytest

from torunits.numtheory import (
    basis_exponents,
    class_rep,
    class_reps,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    moebius,
    near_zero_part,
    pair_weight,
    prime_count,
    radical,
    same_class,
    signed_residue,
)


def test_is_prime_matches_a_sieve():
    # a sieve of Eratosthenes, independent of factorize; negatives, 0 and 1 are not prime
    limit = 10_000
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, limit, p))
    for m in range(-5, limit):
        assert is_prime(m) == (m >= 0 and sieve[m]), m


def test_moebius():
    assert moebius(1) == 1
    assert moebius(9) == 0
    assert moebius(15) == 1
    assert moebius(30) == -1
    with pytest.raises(ValueError):
        moebius(0)


def test_prime_count():
    assert prime_count(15) == 2
    assert prime_count(9) == 1
    assert prime_count(1) == 0


def test_signed_residue():
    assert signed_residue(8, 15) == -7
    assert signed_residue(3, 5) == -2
    assert signed_residue(0, 9) == 0
    # boundary: n/2 itself is kept, just above wraps negative
    assert signed_residue(4, 8) == 4
    assert signed_residue(5, 8) == -3


def test_signed_residue_is_a_residue():
    for n in range(1, 40):
        for x in range(-2 * n, 2 * n):
            r = signed_residue(x, n)
            assert (r - x) % n == 0
            assert -n < 2 * r <= n


def test_near_zero_part_values():
    assert near_zero_part(15, 3) == 3
    assert near_zero_part(75, 1) == 5
    assert near_zero_part(75, 2) == 5
    assert near_zero_part(75, 3) == 3
    assert near_zero_part(15, 1) == 1
    assert near_zero_part(15, 2) == 1


def test_near_zero_part_symmetries():
    for n in (15, 45, 75, 63):
        for x in range(n):
            g = near_zero_part(n, x)
            assert radical(n) % g == 0
            assert g == near_zero_part(n, -x) == near_zero_part(n, x + n)


def test_pair_weight():
    assert pair_weight(15, 15) == 2
    assert pair_weight(15, 7) == 1
    assert pair_weight(15, 30) == 2
    with pytest.raises(ValueError):
        pair_weight(10, 3)


def test_same_class():
    assert same_class(5, 2, 3)
    assert not same_class(15, 1, 2)
    assert same_class(7, 0, 7)


def test_class_reps():
    assert class_reps(15) == tuple(range(8))
    assert class_reps(5) == (0, 1, 2)
    assert class_reps(1) == (0,)
    for n in (9, 14, 15):
        for x in range(-n, 2 * n):
            assert same_class(n, x, class_rep(n, x))
            assert 0 <= 2 * class_rep(n, x) <= n


def test_basis_exponents_15():
    assert basis_exponents(15) == (1, 2, 4, 7, 8, 11, 13, 14)


def test_basis_exponents_9():
    assert basis_exponents(9) == (2, 3, 4, 5, 6, 7)


def test_basis_exponents_45():
    # layer characterization: mod 9 restricted to 2..7, mod 5 to 1..4
    want = tuple(x for x in range(45) if x % 9 in {2, 3, 4, 5, 6, 7} and x % 5 in {1, 2, 3, 4})
    got = basis_exponents(45)
    assert got == want
    assert len(got) == 24


def test_basis_exponents_negation_closed_and_sized():
    for n in range(3, 106, 2):
        bs = set(basis_exponents(n))
        assert len(bs) == euler_phi(n)
        assert all((n - b) % n in bs for b in bs)


def test_basis_exponents_rejects_even_and_small_moduli():
    # the band argument needs odd primes only; 12 would give (2, 10), half
    # of phi(12), and 36 six exponents
    for n in (1, 2, 4, 12, 36):
        with pytest.raises(ValueError, match="odd modulus"):
            basis_exponents(n)


def test_basis_exponents_squarefree_are_units():
    import math

    for n in (15, 21, 33, 35, 105):
        assert set(basis_exponents(n)) == {x for x in range(n) if math.gcd(x, n) == 1}


def test_divisors_and_phi():
    assert divisors(45) == (1, 3, 5, 9, 15, 45)
    assert euler_phi(45) == 24
    assert factorize(1) == ()


def test_band_membership_is_exhaustive():
    # every residue is on exactly one side of each layer threshold (n odd)
    for n in range(3, 106, 2):
        layers = [(p, p**e) for p, e in factorize(n)]
        for x in range(n):
            for p, np_ in layers:
                r = 2 * p * abs(signed_residue(x, np_))
                assert r != np_  # odd vs even: ties are impossible


def test_elementary_residue_property_one():
    # if p divides the near-zero part then the signed residue one layer
    # down is congruent to x modulo the full p-layer
    for n in range(2, 201):
        layers = {p: p**e for p, e in factorize(n)}
        for x in range(n):
            g = near_zero_part(n, x)
            for p, np_ in layers.items():
                if g % p == 0:
                    assert (signed_residue(x, np_ // p) - x) % np_ == 0


def test_elementary_residue_property_two():
    # congruence mod n/e plus e dividing both near-zero parts lifts to mod n
    for n in range(2, 201):
        for e in divisors(radical(n)):
            if e == 1:
                continue
            step = n // e
            for x in range(n):
                if near_zero_part(n, x) % e:
                    continue
                for t in range(1, e):
                    y = x + t * step
                    if near_zero_part(n, y) % e == 0:
                        assert (x - y) % n == 0, (n, e, x, y)
