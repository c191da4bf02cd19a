import random
from itertools import permutations

import pytest

from torunits.cyclotomic import CycInt, real_trace
from torunits.numtheory import (
    basis_exponents,
    class_reps,
    euler_phi,
    moebius,
    near_zero_part,
    pair_weight,
    same_class,
)
from torunits.realbasis import (
    DecompositionError,
    RealCoords,
    _Bareiss,
    basis_change_det,
    basis_coeff,
    basis_indices,
    decompose,
    decompose_combination,
    recompose,
    trace_coordinates,
)


def test_basis_indices_examples():
    assert basis_indices(15) == (1, 2, 4, 7)
    assert basis_indices(9) == (2, 3, 4)
    assert len(basis_indices(45)) == 12
    with pytest.raises(ValueError):
        basis_indices(10)


def test_basis_indices_sizes():
    for n in range(3, 106, 2):
        assert len(basis_indices(n)) == euler_phi(n) // 2


def test_basis_coeff_examples():
    assert basis_coeff(15, 2, 3) == -1
    assert basis_coeff(15, 1, 1) == 1
    # real_trace(45, 5) has near-zero part 5 and coefficient -1 exactly
    # at the basis indices congruent to +-5 mod 9
    assert near_zero_part(45, 5) == 5
    for b in basis_indices(45):
        want = -1 if b % 9 in (4, 5) else 0
        assert basis_coeff(45, b, 5) == want


def test_sparse_rows_match_a_dense_scan():
    # the closed formula tested at every basis index, against the rows
    # built by stepping through b = +-x mod n/g
    for n in range(3, 400, 2):
        basis = basis_indices(n)
        rows = trace_coordinates(n)
        assert sorted(rows) == list(class_reps(n))
        for x in class_reps(n):
            g = near_zero_part(n, x)
            value = pair_weight(n, x) * moebius(g)
            dense = [(k, value) for k, b in enumerate(basis) if same_class(n // g, b, x)]
            assert rows[x] == tuple(dense), (n, x)


def test_basis_coeff_rejects_non_basis_index():
    with pytest.raises(ValueError):
        basis_coeff(15, 3, 1)
    with pytest.raises(ValueError):
        basis_coeff(45, 5, 5)


def test_decompose_examples():
    x = real_trace(15, 1) + real_trace(15, 2) + real_trace(15, 3)
    assert decompose(x).coords == {1: 1, 2: 0, 4: 0, 7: -1}
    assert decompose(CycInt.integer(15, 2)).coords == {1: 2, 2: 2, 4: 2, 7: 2}
    assert decompose(CycInt.zero(15)).coords == {1: 0, 2: 0, 4: 0, 7: 0}


def test_decompose_combination_agrees_with_solver():
    rng = random.Random(31)
    for n in (9, 15, 21, 45, 75):
        for _ in range(10):
            terms = {rng.randrange(n): rng.randint(-4, 4) for _ in range(5)}
            elem = CycInt.zero(n)
            for i, c in terms.items():
                elem = elem + c * real_trace(n, i)
            fast = decompose_combination(n, terms)
            assert decompose(elem).coords == fast.coords
            assert recompose(fast) == elem


def test_decompose_rejects_non_real():
    with pytest.raises(ValueError):
        decompose(CycInt.root(15))


def test_recompose_round_trips():
    assert recompose(decompose(real_trace(15, 7))) == real_trace(15, 7)
    zero = RealCoords(15, {b: 0 for b in basis_indices(15)})
    assert recompose(zero).is_zero()
    x = real_trace(15, 1) + real_trace(15, 2) + real_trace(15, 3)
    assert recompose(decompose(x)) == x


def test_coords_round_trip_on_basis():
    for n in (9, 15, 33, 45):
        for b in basis_indices(n):
            coords = decompose(real_trace(n, b)).coords
            assert coords == {c: (1 if c == b else 0) for c in basis_indices(n)}


def test_change_of_basis_det_is_unimodular_sample():
    for n in (9, 15, 21, 25, 45, 63, 75):
        assert basis_change_det(n) in (1, -1), n


def test_expansion_identity_sample():
    # zeta^i = moebius(g) * sum of zeta^b over basis exponents b = i mod n/g
    for n in (9, 15, 45, 75):
        for i in range(n):
            g = near_zero_part(n, i)
            acc = [0] * n
            for b in basis_exponents(n):
                if (b - i) % (n // g) == 0:
                    acc[b] += 1
            assert CycInt.root(n, i) == moebius(g) * CycInt(n, acc)


def test_real_coords_validation():
    with pytest.raises(ValueError):
        RealCoords(15, {1: 1, 2: 0})  # missing indices
    with pytest.raises(ValueError):
        RealCoords(15, {1: 1, 2: 0, 4: 0, 7: 0, 3: 5})  # foreign index


def test_formula_vs_oracle_all_indices_small():
    for n in (9, 15, 21, 45):
        idx = basis_indices(n)
        for i in range(n):
            oracle = decompose(real_trace(n, i))
            for b in idx:
                assert oracle[b] == basis_coeff(n, b, i), (n, b, i)


def test_decomposition_error_type():
    assert issubclass(DecompositionError, ArithmeticError)


# -- the fraction-free elimination kernel -------------------------------


def _leibniz_det(rows):
    size = len(rows)
    total = 0
    for perm in permutations(range(size)):
        inversions = sum(1 for a in range(size) for b in range(a + 1, size) if perm[a] > perm[b])
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            term *= rows[r][c]
        total += term
    return total


def test_kernel_rejects_non_integral_solution():
    with pytest.raises(DecompositionError, match="non-integral"):
        _Bareiss([[2]]).solve([1])
    assert _Bareiss([[2]]).solve([6]) == [3]


def test_kernel_rejects_inconsistent_tall_system():
    tall = _Bareiss([[1, 0], [0, 1], [1, 1]])
    assert tall.solve([2, 3, 5]) == [2, 3]
    with pytest.raises(DecompositionError, match="inconsistent"):
        tall.solve([2, 3, 6])


def test_kernel_rejects_rank_deficient_matrix():
    for rows in ([[1, 2], [2, 4]], [[1, 2], [2, 4], [3, 6]], [[0, 1], [0, 2]]):
        with pytest.raises(ValueError, match="full column rank"):
            _Bareiss(rows).solve([0] * len(rows))


def test_kernel_rejects_wrong_rhs_length():
    with pytest.raises(ValueError):
        _Bareiss([[1, 0], [0, 1]]).solve([1])


def test_kernel_determinant_sign_follows_row_swaps():
    assert _Bareiss([[0, 1], [1, 0]]).det == -1
    assert _Bareiss([[1, 0], [0, 1]]).det == 1
    assert _Bareiss([[0, 2, 1], [3, 1, 0], [1, 1, 1]]).det == -4
    assert _Bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det == -1


def test_kernel_determinant_of_singular_matrix_is_zero():
    assert _Bareiss([[1, 2], [2, 4]]).det == 0
    assert _Bareiss([[0, 0], [0, 0]]).det == 0
    assert _Bareiss([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).det == 0
    with pytest.raises(ValueError):
        _Bareiss([[1], [2]]).det


def test_kernel_matches_leibniz_and_round_trips():
    rng = random.Random(7)
    for size in (1, 2, 3, 4, 5):
        for _ in range(40):
            rows = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
            elim = _Bareiss(rows)
            assert elim.det == _leibniz_det(rows), rows
            if elim.det:
                x = [rng.randint(-9, 9) for _ in range(size)]
                rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
                assert elim.solve(rhs) == x
