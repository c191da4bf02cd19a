"""The distinguished integral basis of the real cyclotomic subring.

For odd n, the ring Z[zeta_n + zeta_n^-1] of real cyclotomic integers
has a Z-basis consisting of the elements real_trace(n, b) where b runs
over the basis exponents of torunits.numtheory (one representative per
sign pair).  The coordinate of a real trace element in this basis has a
closed form:

    coeff of b in real_trace(n, i)
        = pair_weight(n, i) * moebius(g) * [b ~ i mod n/g],   g = near_zero_part(n, i)

This module holds the only copy of the closed formula: one sparse
coordinate row per sign class (trace_coordinates), listing the
(basis position, value) pairs where the coordinate is nonzero.  A row
is built by stepping through the b ~ x mod n/g, about g steps rather
than one test per basis index.  The inverse map, recompose, is a
cross-check and lives in torunits.oracles.

Every check here runs over the Chebyshev basis 1, t_1, ..., t_(N-1) of
the real subring, t_k = zeta^k + zeta^-k and N = phi(n)/2.  One walk,
t_(k+1) = t_1 * t_k - t_(k-1) with t_N rewritten through the
palindromic Phi_n, gives the coordinates of t_k for every class k in
O(N) per step (_chebyshev_rows), and each row is checked as it comes
(chebyshev_coordinates).  The check needs no long division: times
zeta^(N-1), a row's exponents k + N - 1 and N - 1 - k all lie in
[0, phi(n) - 2], so the product is already in canonical form.  It
must equal the sum of the canonical forms of zeta^(N-1+k) and
zeta^(N-1-k), which two running monomials step up and down modulo
Phi_n (_root_walk).
zeta^(N-1) is a unit, so a row that passes is exactly t_k.

The checked rows carry both facts that the basis command certifies.
The change-of-basis determinant (basis_change_det) is taken over the
basis rows.  Over the power basis 1, a, ..., a^(N-1) of a = t_1 the
change to the Chebyshev basis is unitriangular (t_k = D_k(a), a monic
Dickson polynomial of degree k), so the determinant is the same
integer.  The closed formula holds (closed_formula_holds) when, for
every class i, the rows of the basis elements weighted by the
closed-form row of i sum to the row of t_i; 1, t_1, ..., t_(N-1) is a
basis, so equal coordinates mean equal elements.  Once the
determinant is +-1 the basis is independent and coordinates are
unique, so this proves the formula with no solve.  The power-basis
solve that cross-checks it independently is torunits.oracles.decompose.

All linear algebra is one fraction-free integer elimination (Bareiss):
it takes the determinant here, and torunits.oracles.decompose solves
with it.  It updates a whole row per step, with one exact division
over the row; the division checks every remainder, and is skipped only
where it is the identity or a negation, or where the row is a plain
multiple.  A non-integral coordinate for an integral element would
contradict the basis property and raises DecompositionError rather
than being rounded.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Mapping, Sequence

from torunits.cyclotomic import _root_walk, cyclotomic_poly
from torunits.numtheory import (
    class_rep,
    class_reps,
    moebius,
    near_zero_part,
    pair_weight,
)


class DecompositionError(ArithmeticError):
    """An exact solve produced something the basis property forbids."""


@lru_cache(maxsize=None)
def basis_indices(n: int) -> tuple[int, ...]:
    """One representative in [1, n/2] per sign pair of basis exponents.

    These are the b in [1, n/2] with near_zero_part(n, b) == 1, as in
    torunits.numtheory.basis_exponents.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd modulus >= 3, got {n}")
    return tuple(b for b in range(1, n // 2 + 1) if near_zero_part(n, b) == 1)


@lru_cache(maxsize=None)
def trace_coordinates(n: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """Closed-form coordinates of real_trace(n, x) for every class x, as sparse rows.

    The row of x lists, in ascending order of the position k of b in
    basis_indices(n), the pairs (k, value) with a nonzero coordinate
    value = pair_weight(n, x) * moebius(g) at the basis indices
    b ~ x mod n/g, g = near_zero_part(n, x); every other coordinate is 0.
    g is squarefree, so the value is never 0.  The rows are found by
    stepping through the two progressions b = +-x mod n/g in [1, n/2],
    and each b is looked up in a dict of basis positions built here,
    once per n, as the rows are cached.  The dict of rows is shared; do
    not mutate it.
    """
    position = {b: k for k, b in enumerate(basis_indices(n))}
    half = n // 2
    rows = {}
    for x in class_reps(n):
        g = near_zero_part(n, x)
        m = n // g
        value = pair_weight(n, x) * moebius(g)
        hits = set()
        for start in {x % m, -x % m}:
            for b in range(start, half + 1, m):
                k = position.get(b)
                if k is not None:
                    hits.add(k)
        rows[x] = tuple((k, value) for k in sorted(hits))
    return rows


def basis_coeff(n: int, b: int, i: int) -> int:
    """Closed-form coordinate of real_trace(n, i) at basis index b."""
    basis = basis_indices(n)
    k = bisect_left(basis, b)
    if k == len(basis) or basis[k] != b:
        raise ValueError(f"{b} is not a basis index for n={n}")
    row = trace_coordinates(n)[class_rep(n, i)]
    j = bisect_left(row, (k,))
    return row[j][1] if j < len(row) and row[j][0] == k else 0


@dataclass(frozen=True)
class RealCoords:
    """Coordinates of a real cyclotomic integer in the distinguished basis."""

    n: int
    coords: Mapping[int, int]

    def __post_init__(self):
        expected = basis_indices(self.n)
        if set(self.coords.keys()) != set(expected):
            raise ValueError("coordinate keys must be exactly the basis indices")
        object.__setattr__(self, "coords", {b: int(self.coords[b]) for b in expected})

    def __getitem__(self, b: int) -> int:
        return self.coords[b]


def decompose_combination(n: int, terms: Mapping[int, int]) -> RealCoords:
    """Coordinates of sum(c_i * real_trace(n, i)) via the closed formula."""
    basis = basis_indices(n)
    rows = trace_coordinates(n)
    acc = [0] * len(basis)
    for i, c in terms.items():
        for k, v in rows[class_rep(n, i)]:
            acc[k] += c * v
    return RealCoords(n, dict(zip(basis, acc)))


def chebyshev_coordinates(n: int) -> list[list[int]]:
    """Checked coordinates of t_k = real_trace(n, k) over 1, t_1, ..., t_(N-1), N = phi(n)/2.

    Entry k is the row of class k, for k = 0, 1, ..., n//2, as
    _chebyshev_rows walks it.  Each row is checked before it is
    returned: times zeta^(N-1) its exponents lie in [0, phi(n) - 2], so
    the product, read straight off the row, must equal the canonical
    forms of zeta^(N-1+k) + zeta^(N-1-k) that two _root_walk monomials
    supply, one stepped up and one stepped down.  A mismatch raises
    DecompositionError.  Each row costs O(phi(n)); nothing is cached.
    """
    rows = _chebyshev_rows(n)
    start = len(basis_indices(n)) - 1
    walks = zip(rows, _root_walk(n, start, 1), _root_walk(n, start, -1))
    for k, (row, up, down) in enumerate(walks):
        if row[:0:-1] + row + [0] != [u + d for u, d in zip(up, down)]:
            what = f"basis element {k}" if k in basis_indices(n) else f"class {k}"
            raise DecompositionError(
                f"the Chebyshev row of {what} over n={n} does not recompose to it"
            )
    return rows


def basis_change_det(n: int, rows: Sequence[Sequence[int]] | None = None) -> int:
    """Determinant of the matrix expressing the basis in real power-basis terms.

    The determinant is +-1 exactly when the distinguished set is a
    Z-basis of Z[a], a = real_trace(n, 1).  Its rows express each basis
    element real_trace(n, b) in the Chebyshev basis 1, t_1, ...,
    t_(N-1) of Z[a], t_k = real_trace(n, k), N = phi(n)/2: the checked
    rows of chebyshev_coordinates, walked here unless the caller passes
    them in.  This is the same integer as over the power basis 1, a,
    ..., a^(N-1): t_k = D_k(a) for the Dickson polynomial D_k, which is
    monic of degree k, so the change between the two bases is
    unitriangular.  A row that fails its check raises
    DecompositionError.
    """
    if rows is None:
        rows = chebyshev_coordinates(n)
    return _Bareiss([rows[b] for b in basis_indices(n)]).det


def closed_formula_holds(n: int, rows: Sequence[Sequence[int]]) -> bool:
    """Whether every closed-form row recomposes its real trace over the checked Chebyshev rows.

    rows is chebyshev_coordinates(n).  For each class i the test is
    sum_b R_i[b] * C_b == C_i in Z^N, where R_i is the closed-form row
    of i (trace_coordinates) and C_k the Chebyshev row of t_k.  The
    Chebyshev basis is a basis, so this is the identity
    sum_b R_i[b] * real_trace(n, b) == real_trace(n, i) itself.
    """
    basis_rows = [rows[b] for b in basis_indices(n)]
    for i, coords in trace_coordinates(n).items():
        acc = [0] * len(rows[i])
        for k, v in coords:
            acc = [a + v * c for a, c in zip(acc, basis_rows[k])]
        if acc != rows[i]:
            return False
    return True


def _chebyshev_rows(n: int) -> list[list[int]]:
    """Coordinates of real_trace(n, k) over 1, t_1, ..., t_(N-1), for k = 0, 1, ..., n//2.

    t_k = zeta^k + zeta^-k and N = phi(n)/2.  Phi_n is palindromic of
    degree 2N, so zeta^-N * Phi_n(zeta) = 0 gives
    t_N = -(c_N + sum_{0<k<N} c_(N+k) t_k) for its coefficients c.  The
    walk t_(k+1) = t_1 * t_k - t_(k-1), t_0 = 2, runs over every sign
    class; multiplying by t_1 shifts each coordinate up and down one
    place (t_1 * t_j = t_(j+1) + t_(j-1)), and t_N is replaced by the
    vector above.  Every step is O(N).  The rows are unchecked; use
    chebyshev_coordinates.
    """
    size = len(basis_indices(n))
    top = [-c for c in cyclotomic_poly(n)[size : 2 * size]]

    def fold_top(v: list[int]) -> list[int]:
        h = v.pop()
        return [a + h * t for a, t in zip(v, top)] if h else v

    rows = [[2] + [0] * (size - 1), fold_top([0, 1] + [0] * (size - 1))]
    for _ in range(n // 2 - 1):
        prev, cur = rows[-2], rows[-1]
        down = cur[1:] + [0, 0]
        down[0] *= 2
        rows.append(fold_top([u + d - p for u, d, p in zip([0] + cur, down, prev + [0])]))
    return rows


# -- exact linear algebra ---------------------------------------------


def _divide_row(row: list[int], prev: int) -> list[int]:
    """row / prev entry by entry; a nonzero remainder breaks the Bareiss invariant."""
    if prev == 1:
        return row
    if prev == -1:
        return [-a for a in row]
    if any(map(prev.__rmod__, row)):
        a = next(a for a in row if a % prev)
        raise DecompositionError(f"inexact fraction-free step {a} / {prev}")
    return list(map(prev.__rfloordiv__, row))


class _Bareiss:
    """Fraction-free Gaussian elimination of an integer matrix (Bareiss 1968).

    The matrix is given by rows (more rows than columns is fine).  Step r
    multiplies each row below the pivot by the pivot, subtracts the pivot
    row times the row's column-r entry and divides exactly by the
    previous pivot; by Sylvester's identity every entry stays an integer
    minor of the input, and the last pivot of a square matrix is its
    determinant up to the sign of the row swaps.  The steps are recorded,
    so each right-hand side is reduced in one integer pass and then
    back-substituted.  Elimination stops at the first column without a
    pivot: the rank is then short, det is 0 and solve refuses.

    Each step updates a whole row at once: one list comprehension forms
    pivot * row - f * pivot_row, and one pass over the result divides by
    the previous pivot, raising DecompositionError on any remainder.
    Two shortcuts skip work that exact arithmetic makes redundant, so
    they give the same integers as the full step: dividing by a previous
    pivot of 1 or -1 is the identity or a negation, and a row whose
    multiplier f is 0 (in solve: whose pivot-row entry is 0) becomes
    pivot * row / prev, which is the row times pivot // prev whenever
    prev divides pivot.  On the basis systems of odd n <= 105 the
    previous pivot is +-1 in 78 % of the steps (the other pivots are +-2
    or +-4) and 88 % of the multipliers are 0; on the Chebyshev rows of
    basis_change_det for the same n, 99.5 % and 98 %.  So the shortcuts
    carry most of the work; everything else takes the full step.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        m = [list(row) for row in rows]
        self.nrows = len(m)
        self.ncols = len(m[0]) if m else 0
        self.sign = 1
        # per step: (swap row, pivot, previous pivot, column entries below the pivot)
        self.steps: list[tuple[int, int, int, list[int]]] = []
        prev = 1
        for r in range(self.ncols):
            swap = next((i for i in range(r, self.nrows) if m[i][r]), None)
            if swap is None:
                break
            if swap != r:
                m[swap], m[r] = m[r], m[swap]
                self.sign = -self.sign
            top = m[r]
            pivot = top[r]
            scale = pivot // prev if pivot % prev == 0 else None
            tail = top[r + 1 :]
            mults = []
            for row in m[r + 1 :]:
                f = row[r]
                mults.append(f)
                if f == 0 and scale is not None:
                    if scale != 1:
                        row[r + 1 :] = [scale * a for a in row[r + 1 :]]
                    continue
                row[r] = 0
                row[r + 1 :] = _divide_row(
                    [pivot * a - f * b for a, b in zip(row[r + 1 :], tail)], prev
                )
            self.steps.append((swap, pivot, prev, mults))
            prev = pivot
        self.rank = len(self.steps)
        self.m = m

    @property
    def det(self) -> int:
        """Determinant of a square matrix; 0 when it is singular."""
        if self.nrows != self.ncols:
            raise ValueError(f"no determinant for a {self.nrows}x{self.ncols} matrix")
        if self.rank < self.ncols:
            return 0
        return self.sign * self.m[-1][-1] if self.ncols else 1

    def solve(self, rhs: Sequence[int]) -> list[int]:
        """The integer vector x with matrix * x == rhs.

        Raises DecompositionError when the system has no solution or only
        a non-integral one.
        """
        if self.rank < self.ncols:
            raise ValueError(f"matrix does not have full column rank (column {self.rank})")
        if len(rhs) != self.nrows:
            raise ValueError(f"expected {self.nrows} right-hand entries, got {len(rhs)}")
        v = list(rhs)
        for r, (swap, pivot, prev, mults) in enumerate(self.steps):
            v[swap], v[r] = v[r], v[swap]
            top = v[r]
            if top == 0 and pivot % prev == 0:
                scale = pivot // prev
                if scale != 1:
                    v[r + 1 :] = [scale * a for a in v[r + 1 :]]
                continue
            v[r + 1 :] = _divide_row([pivot * a - f * top for a, f in zip(v[r + 1 :], mults)], prev)
        for i in range(self.ncols, self.nrows):
            if v[i]:
                raise DecompositionError(f"inconsistent system: residual {v[i]} in row {i}")
        x = [0] * self.ncols
        for col in range(self.ncols - 1, -1, -1):
            row = self.m[col]
            acc = v[col] - sum(map(mul, row[col + 1 :], x[col + 1 :]))
            x[col], rem = divmod(acc, row[col])
            if rem:
                raise DecompositionError(f"non-integral solution {acc}/{row[col]} at column {col}")
        return x


def __getattr__(name: str):
    # perfbench/tracing.py still looks decompose up here by name; only that
    # lookup loads torunits.oracles, which the command line never imports
    if name == "decompose":
        from torunits.oracles import decompose

        return decompose
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DecompositionError",
    "RealCoords",
    "basis_change_det",
    "basis_coeff",
    "basis_indices",
    "chebyshev_coordinates",
    "closed_formula_holds",
    "decompose_combination",
    "trace_coordinates",
]
