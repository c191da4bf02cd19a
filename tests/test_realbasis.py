import random
from fractions import Fraction
from itertools import permutations

import pytest

from torunits import realbasis
from torunits.cyclotomic import CycInt, IntPoly, cyclotomic_poly, real_trace
from torunits.numtheory import (
    basis_exponents,
    class_reps,
    euler_phi,
    moebius,
    near_zero_part,
    pair_weight,
    same_class,
)
from torunits.oracles import decompose
from torunits.realbasis import (
    DecompositionError,
    RealCoords,
    _Bareiss,
    _chebyshev_rows,
    basis_change_det,
    basis_coeff,
    basis_indices,
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


def _power_solver(n):
    """Elimination of the system whose columns are reduced powers of real_trace(n, 1)."""
    powers = [CycInt.one(n)]
    a = real_trace(n, 1)
    for _ in range(len(basis_indices(n)) - 1):
        powers.append(powers[-1] * a)
    return _Bareiss(list(zip(*(p.reduced for p in powers))))


def _power_basis_det(n):
    """The determinant over the power basis 1, a, ..., a^(N-1): one solve per basis element."""
    solver = _power_solver(n)
    return _Bareiss([solver.solve(real_trace(n, b).reduced) for b in basis_indices(n)]).det


def test_change_of_basis_det_matches_the_power_basis_route():
    for n in range(3, 156, 2):
        assert basis_change_det(n) == _power_basis_det(n), n


def test_chebyshev_rows_recompose_to_the_basis_elements():
    for n in range(3, 400, 2):
        size = euler_phi(n) // 2
        for b, row in zip(basis_indices(n), _chebyshev_rows(n)):
            assert len(row) == size
            if b < size:
                assert row == [int(k == b) for k in range(size)], (n, b)
            # row[0] + sum row[k] * (zeta^k + zeta^-k) - (zeta^b + zeta^-b) must be 0
            coeffs = [0] * n
            coeffs[0] = row[0]
            for k in range(1, size):
                coeffs[k] += row[k]
                coeffs[n - k] += row[k]
            coeffs[b] -= 1
            coeffs[n - b] -= 1
            assert CycInt(n, coeffs).is_zero(), (n, b)


def test_wrong_t_n_coefficient_is_caught(monkeypatch):
    # Phi_15 = 1 - X + X^3 - X^4 + X^5 - X^7 + X^8; N = 4, so t_4 reads c_4..c_7
    # and the basis indices 4 and 7 of n = 15 are reached through it
    coeffs = list(cyclotomic_poly(15).coeffs)
    coeffs[5] += 1
    monkeypatch.setattr(realbasis, "cyclotomic_poly", lambda m: IntPoly(coeffs))
    with pytest.raises(DecompositionError, match="basis element 4 over n=15"):
        basis_change_det(15)


def test_wrong_chebyshev_row_is_caught(monkeypatch):
    honest = realbasis._chebyshev_rows

    def tampered(n):
        rows = honest(n)
        rows[-1][0] += 1
        return rows

    monkeypatch.setattr(realbasis, "_chebyshev_rows", tampered)
    with pytest.raises(DecompositionError, match="basis element 7 over n=15"):
        basis_change_det(15)


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


def test_real_trace_is_the_same_for_i_and_minus_i():
    # why the basis command checks once per sign class, not once per residue
    for n in range(3, 106, 2):
        for i in range(1, n):
            assert real_trace(n, i) == real_trace(n, n - i), (n, i)


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


def test_kernel_tampered_step_is_caught():
    elim = _Bareiss([[2, 1], [1, 1]])
    assert elim.solve([3, 2]) == [1, 1]
    swap, pivot, prev, mults = elim.steps[0]
    elim.steps[0] = (swap, pivot, 3, mults)  # 3 does not divide 2 * 2 - 1 * 3
    with pytest.raises(DecompositionError, match="inexact fraction-free step"):
        elim.solve([3, 2])


def _fraction_rank_and_det(rows):
    """Rank and (for a square matrix) determinant by Gaussian elimination over Q."""
    m = [[Fraction(a) for a in row] for row in rows]
    ncols = len(m[0])
    det = Fraction(1)
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            det = Fraction(0)
            continue
        if p != r:
            m[p], m[r] = m[r], m[p]
            det = -det
        det *= m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r, (det if len(m) == ncols else None)


def _fraction_solve(rows, rhs):
    """Gauss-Jordan over Q of a full-column-rank system: its solution, or None if inconsistent."""
    ncols = len(rows[0])
    aug = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(ncols):
        p = next(i for i in range(c, len(aug)) if aug[i][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [a / aug[c][c] for a in aug[c]]
        for i in range(len(aug)):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    if any(row[-1] for row in aug[ncols:]):
        return None
    return [aug[c][-1] for c in range(ncols)]


def _random_system(rng):
    """A sparse tall or square integer A = B * T; T is the identity with one entry 2, 3 or -2."""
    ncols = rng.randint(1, 6)
    nrows = ncols + rng.choice([0, 0, 1, 2, 3])
    entries = [0, 0, 0, 1, -1, 2, -2, 3]
    b = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
    t = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    t[rng.randrange(ncols)][rng.randrange(ncols)] = rng.choice([2, 3, -2])
    a = [[sum(row[k] * t[k][j] for k in range(ncols)) for j in range(ncols)] for row in b]
    return a, b


def test_kernel_matches_fraction_gauss_jordan():
    rng = random.Random(2016)
    kinds = {"integral": 0, "non-integral": 0, "inconsistent": 0, "rank-deficient": 0}
    branches = {"pivot other than +-1": 0, "division by a pivot other than +-1": 0, "scaled zero row": 0}
    for _ in range(300):
        a, b = _random_system(rng)
        nrows, ncols = len(a), len(a[0])
        elim = _Bareiss(a)
        rank, det = _fraction_rank_and_det(a)
        if det is not None:
            assert elim.det == det, a
        if rank < ncols:
            kinds["rank-deficient"] += 1
            with pytest.raises(ValueError, match="full column rank"):
                elim.solve([0] * nrows)
            continue
        for _, pivot, prev, mults in elim.steps:
            branches["pivot other than +-1"] += pivot not in (1, -1)
            branches["division by a pivot other than +-1"] += prev not in (1, -1) and any(mults)
            if pivot % prev == 0 and abs(pivot // prev) > 1:
                branches["scaled zero row"] += mults.count(0)
        x = [rng.randint(-5, 5) for _ in range(ncols)]
        z = [rng.randint(-5, 5) for _ in range(ncols)]
        candidates = [
            [sum(p * q for p, q in zip(row, x)) for row in a],
            [sum(p * q for p, q in zip(row, z)) for row in b],
            [sum(p * q for p, q in zip(row, x)) + rng.choice([-1, 1]) for row in a],
        ]
        for rhs in candidates:
            want = _fraction_solve(a, rhs)
            if want is None:
                kinds["inconsistent"] += 1
                with pytest.raises(DecompositionError, match="inconsistent"):
                    elim.solve(rhs)
            elif all(w.denominator == 1 for w in want):
                kinds["integral"] += 1
                assert elim.solve(rhs) == want, (a, rhs)
            else:
                kinds["non-integral"] += 1
                with pytest.raises(DecompositionError, match="non-integral"):
                    elim.solve(rhs)
    assert all(kinds.values()), kinds
    assert all(branches.values()), branches
