from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pfzero.errors import DegenerateInput, DivisionByZeroPolynomial, Inconsistent
from pfzero.linalg import (
    RHS,
    PolyMatrix,
    RatFunc,
    first_dependence,
    solve_sparse_exact,
)
from pfzero.poly import MultiPoly, parse_polynomial

P = parse_polynomial
t = MultiPoly.var("t")
x, y = MultiPoly.var("x"), MultiPoly.var("y")


def sparse_rows(M, v):
    """Dense rows and right-hand side as the sparse rows of solve_sparse_exact."""
    return [{j: Fraction(c) for j, c in enumerate(r) if c} | {RHS: Fraction(b)} for r, b in zip(M, v)]


def const_matrix(M):
    return PolyMatrix([[MultiPoly.const(c) for c in r] for r in M])


def mat_mul(A, B):
    """A B for PolyMatrix factors, as rows of MultiPoly."""
    return [
        [sum((A[i, k] * B[k, j] for k in range(A.cols)), MultiPoly.zero()) for j in range(B.cols)]
        for i in range(A.rows)
    ]


def laplace_det(M):
    """Reference determinant: cofactor expansion along the first row."""
    if not M:
        return MultiPoly.const(1)
    acc = MultiPoly.zero()
    for j, e in enumerate(M[0]):
        term = e * laplace_det([row[:j] + row[j + 1 :] for row in M[1:]])
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


tpolys = st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), max_size=3).map(
    lambda cs: MultiPoly.from_univariate_coeffs("t", cs)
)


@st.composite
def tpoly_matrices(draw):
    """Square 2x2 to 4x4 matrices over Q[t]; optionally with a zero first
    pivot (a row swap) or a last row that combines the others (singular)."""
    n = draw(st.integers(2, 4))
    M = [[draw(tpolys) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        M[0][0] = MultiPoly.zero()
    if draw(st.booleans()):
        c = [draw(tpolys) for _ in range(n - 1)]
        M[-1] = [sum((c[i] * M[i][j] for i in range(n - 1)), MultiPoly.zero()) for j in range(n)]
    return M


class TestExactSolve:
    def test_scalar(self):
        sol, pivots = solve_sparse_exact(sparse_rows([[2]], [4]), 1)
        assert sol == [Fraction(2)] and pivots == [0]

    def test_2x2_determinant(self):
        assert const_matrix([[1, 2], [3, 4]]).determinant() == MultiPoly.const(-2)
        assert const_matrix([[Fraction(1, 2), 1], [3, 4]]).determinant() == MultiPoly.const(-1)

    def test_rank_deficient_inconsistent(self):
        with pytest.raises(Inconsistent):
            solve_sparse_exact(sparse_rows([[1, 1], [2, 2]], [1, 3]), 2)

    def test_underdetermined_minimal_support(self):
        sol, pivots = solve_sparse_exact(sparse_rows([[1, 1]], [5]), 2)
        assert sol == [Fraction(5), Fraction(0)] and pivots == [0]

    @given(st.integers(1, 4), st.data())
    def test_residual_is_zero(self, n, data):
        M = [
            [Fraction(data.draw(st.integers(-5, 5))) for _ in range(n)]
            for _ in range(n + data.draw(st.integers(0, 2)))
        ]
        u = [Fraction(data.draw(st.integers(-3, 3))) for _ in range(n)]
        v = [sum(row[j] * u[j] for j in range(n)) for row in M]
        sol, _ = solve_sparse_exact(sparse_rows(M, v), n)
        for row, b in zip(M, v):
            assert sum(c * s for c, s in zip(row, sol)) == b


class TestSparseSolver:
    def test_matches_dense(self, rng):
        for _ in range(30):
            n = rng.randint(1, 6)
            m = rng.randint(n, n + 2)
            M = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
            u = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            v = [sum(r[j] * u[j] for j in range(n)) for r in M]
            sol, _ = solve_sparse_exact(sparse_rows(M, v), n)
            for r, b in zip(M, v):
                assert sum(c * s for c, s in zip(r, sol)) == b

    def test_inconsistent(self):
        rows = [{0: Fraction(1), RHS: Fraction(1)}, {0: Fraction(1), RHS: Fraction(2)}]
        with pytest.raises(Inconsistent):
            solve_sparse_exact(rows, 1)


class TestRatFunc:
    def test_cancel_common_factor(self):
        r = RatFunc(2 * t**2 + 2 * t, 2 * t)
        assert r.num == t + 1 and r.den == MultiPoly.const(1)

    def test_identity_cancellation(self):
        r = RatFunc(t, t)
        assert r.num == MultiPoly.const(1) and r.den == MultiPoly.const(1)

    def test_gcd_reduction_monic_denominator(self):
        # (t^2-1)/(2t-2) reduces by t-1; the denominator is normalized monic
        r = RatFunc(t**2 - 1, 2 * t - 2)
        assert r.den == MultiPoly.const(1)
        assert r.num == Fraction(1, 2) * t + Fraction(1, 2)

    def test_normalize_idempotent(self):
        r = RatFunc(t**2 - 1, 2 * t - 2)
        again = RatFunc(r.num, r.den)
        assert again == r

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZeroPolynomial):
            RatFunc(t, MultiPoly.zero())


class TestPolyMatrix:
    @given(tpoly_matrices())
    def test_determinant_matches_laplace_expansion(self, M):
        assert PolyMatrix(M).determinant() == laplace_det(M)

    def test_adjugate_identity(self, rng):
        from tests.conftest import random_poly

        for _ in range(10):
            n = rng.randint(1, 3)
            M = PolyMatrix(
                [[random_poly(rng, ("t",), 2) for _ in range(n)] for _ in range(n)]
            )
            det = M.determinant()
            if det.is_zero:
                continue
            prod = mat_mul(M.adjugate(), M)
            for i in range(n):
                for j in range(n):
                    assert prod[i][j] == (det if i == j else MultiPoly.zero())

    def test_adjugate_with_row_swap(self):
        # the zero top-left entry forces a swap; adj [[0, t], [1, 1]] = [[1, -t], [-1, 0]]
        one, zero = MultiPoly.const(1), MultiPoly.zero()
        M = PolyMatrix([[zero, t], [one, one]])
        assert M.adjugate() == PolyMatrix([[one, -t], [-one, zero]])
        prod = mat_mul(M.adjugate(), M)
        det = M.determinant()
        assert det == -t
        assert prod == [[det, zero], [zero, det]]

    def test_adjugate_of_singular_matrix_raises(self):
        with pytest.raises(DegenerateInput):
            PolyMatrix([[t, t + 1], [2 * t, 2 * t + 2]]).adjugate()

    def test_rank(self):
        # rank 1: the second row is the first again; rank 2: no dependence at all
        assert first_dependence([[x, y], [x, y]])[0] == 1
        assert first_dependence([[x, y], [y, x]]) is None

    def test_dependence_solves_for_the_last_row(self):
        # t*w0 + w1 = t^2 + 1 and t*w1 = t: (t^2 + 1, t) = t*(t, 0) + 1*(1, t)
        one, zero = MultiPoly.const(1), MultiPoly.zero()
        k, D, num = first_dependence([[t, zero], [one, t], [t * t + 1, t]])
        assert k == 2
        assert [RatFunc(c, D) for c in num] == [RatFunc(t, one), RatFunc(one, one)]

    def test_no_dependence_when_inconsistent(self):
        # t*w = t and t*w = t + 1 have no common solution w
        assert first_dependence([[t, t], [t, t + 1]]) is None

