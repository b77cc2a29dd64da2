from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pfzero import linalg
from pfzero.errors import DegenerateInput, DivisionByZeroPolynomial, Inconsistent
from pfzero.linalg import (
    RHS,
    PolyMatrix,
    RatFunc,
    first_dependence,
    solve_sparse_exact,
)
from pfzero.poly import MultiPoly, _Dense, parse_polynomial
from tests.conftest import laplace_det, tpoly

P = parse_polynomial
t = MultiPoly.var("t")
x = MultiPoly.var("x")


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


def dense_rows(rows):
    """Rows of polynomials in t on the dense kernel."""
    return [[_Dense.from_poly(e) for e in row] for row in rows]


nonzero = st.builds(Fraction, st.integers(1, 3) | st.integers(-3, -1), st.integers(1, 3))
tpolys = st.lists(nonzero, min_size=1, max_size=3).map(tpoly)  # nonzero, degree <= 2


@st.composite
def tpoly_matrices(draw):
    """Square 2x2 to 4x4 matrices over Q[t], 2x2 one draw in seven, with t^3
    added on the diagonal so that the diagonal product leads the
    determinant: nonsingular, and in practice still so with the optional
    zero first pivot (a row swap), unless the last row is replaced by a
    combination of the others (singular, one draw in three)."""
    n = draw(st.sampled_from([2, 3, 4, 3, 4, 3, 4]))
    M = [[draw(tpolys) + (t**3 if i == j else 0) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        M[0][0] = MultiPoly.zero()
    if draw(st.integers(0, 2)) == 2:
        c = [draw(tpolys) for _ in range(n - 1)]
        M[-1] = [sum((c[i] * M[i][j] for i in range(n - 1)), MultiPoly.zero()) for j in range(n)]
    return M


@st.composite
def sparse_systems(draw):
    """(rows, ncols, nrhs): small sparse rational systems with 1-4
    right-hand sides, each consistent by construction or drawn freely, and
    with optional rank-deficient rows and columns, a duplicate row, an empty
    row, a row of right-hand-side keys only and explicit zero entries."""
    n = draw(st.integers(1, 5))
    nrhs = draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))  # zero one draw in nine
    M = draw(st.lists(st.dictionaries(st.integers(0, n - 1), entry, max_size=n), max_size=7))
    if len(M) > 1 and draw(st.booleans()):  # a row that combines two others
        a, b = M[0], M[-1]
        M.append({j: 2 * a.get(j, 0) - b.get(j, 0) for j in a.keys() | b.keys()})
    if n > 1 and draw(st.booleans()):  # a column that combines two others
        for row in M:
            row[n - 1] = row.get(0, 0) + row.get(1, 0)
    rhss = []
    for _ in range(nrhs):
        if draw(st.integers(0, 4)):  # consistent four draws in five
            u = [draw(entry) for _ in range(n)]
            rhss.append([sum(c * u[j] for j, c in row.items()) for row in M])
        else:
            rhss.append([draw(entry) for _ in M])
    rows = [row | {RHS - r: v[i] for r, v in enumerate(rhss)} for i, row in enumerate(M)]
    if rows and draw(st.booleans()):
        rows.append(dict(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.append({})
    if draw(st.booleans()):  # right-hand-side keys only: vanishes if all are zero, else inconsistent
        rows.append({RHS - r: draw(st.sampled_from([Fraction(0), Fraction(r + 1, 2)])) for r in range(nrhs)})
    return rows, n, nrhs


def gauss_jordan(rows, ncols, nrhs):
    """Dense reference for solve_sparse_exact: the reduced row echelon form
    of [M | B] over Fraction, columns swept left to right; the free columns
    are zero. (solutions, pivot columns), or None when a right-hand side has
    no solution."""
    width = ncols + nrhs
    keys = list(range(ncols)) + [RHS - r for r in range(nrhs)]
    A = [[Fraction(row.get(k, 0)) for k in keys] for row in rows]
    pivots = []
    for col in range(ncols):
        i = next((i for i in range(len(pivots), len(A)) if A[i][col]), None)
        if i is None:
            continue
        k = len(pivots)
        A[k], A[i] = A[i], A[k]
        A[k] = [c / A[k][col] for c in A[k]]
        for i, row in enumerate(A):
            if i != k and row[col]:
                A[i] = [a - row[col] * b for a, b in zip(row, A[k])]
        pivots.append(col)
    if any(A[i][j] for i in range(len(pivots), len(A)) for j in range(ncols, width)):
        return None
    sols = [[Fraction(0)] * ncols for _ in range(nrhs)]
    for k, col in enumerate(pivots):
        for r, sol in enumerate(sols):
            sol[col] = A[k][ncols + r]
    return sols, pivots


class TestExactSolve:
    def test_scalar(self):
        (sol,), pivots = solve_sparse_exact(sparse_rows([[2]], [4]), 1)
        assert sol == [Fraction(2)] and pivots == [0]

    def test_2x2_determinant(self):
        assert const_matrix([[1, 2], [3, 4]]).determinant() == MultiPoly.const(-2)
        assert const_matrix([[Fraction(1, 2), 1], [3, 4]]).determinant() == MultiPoly.const(-1)

    def test_rank_deficient_inconsistent(self):
        with pytest.raises(Inconsistent):
            solve_sparse_exact(sparse_rows([[1, 1], [2, 2]], [1, 3]), 2)

    def test_underdetermined_minimal_support(self):
        (sol,), pivots = solve_sparse_exact(sparse_rows([[1, 1]], [5]), 2)
        assert sol == [Fraction(5), Fraction(0)] and pivots == [0]

    @given(st.integers(1, 4), st.data())
    def test_residual_is_zero(self, n, data):
        M = [
            [Fraction(data.draw(st.integers(-5, 5))) for _ in range(n)]
            for _ in range(n + data.draw(st.integers(0, 2)))
        ]
        u = [Fraction(data.draw(st.integers(-3, 3))) for _ in range(n)]
        v = [sum(row[j] * u[j] for j in range(n)) for row in M]
        (sol,), _ = solve_sparse_exact(sparse_rows(M, v), n)
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
            (sol,), _ = solve_sparse_exact(sparse_rows(M, v), n)
            for r, b in zip(M, v):
                assert sum(c * s for c, s in zip(r, sol)) == b

    def test_inconsistent(self):
        rows = [{0: Fraction(1), RHS: Fraction(1)}, {0: Fraction(1), RHS: Fraction(2)}]
        with pytest.raises(Inconsistent):
            solve_sparse_exact(rows, 1)

    @given(st.data())
    def test_many_right_hand_sides_match_single_solves(self, data):
        # sparse rational systems, often rank deficient (a row or a column
        # that combines others); each right-hand side is consistent (M u) or
        # drawn freely, so it may be inconsistent
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, 8))
        entry = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
        M = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
        if m > 1 and data.draw(st.booleans()):
            M[-1] = [M[0][j] * 2 - M[1 % (m - 1)][j] for j in range(n)]
        if n > 1 and data.draw(st.booleans()):
            for row in M:
                row[-1] = row[0] + row[1 % (n - 1)]
        rhss = []
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()):
                u = [data.draw(entry) for _ in range(n)]
                rhss.append([sum(c * s for c, s in zip(row, u)) for row in M])
            else:
                rhss.append([data.draw(entry) for _ in range(m)])
        singles = []
        for v in rhss:
            try:
                singles.append(solve_sparse_exact(sparse_rows(M, v), n))
            except Inconsistent:
                singles.append(None)
        rows = [
            {j: c for j, c in enumerate(row) if c} | {RHS - r: v[i] for r, v in enumerate(rhss) if v[i]}
            for i, row in enumerate(M)
        ]
        if None in singles:
            with pytest.raises(Inconsistent):
                solve_sparse_exact(rows, n, len(rhss))
            return
        sols, pivots = solve_sparse_exact(rows, n, len(rhss))
        assert sols == [sol for (sol,), _ in singles]
        assert all(pivots == p for _, p in singles)
        for sol, v in zip(sols, rhss):
            for row, b in zip(M, v):
                assert sum(c * s for c, s in zip(row, sol)) == b

    @settings(max_examples=200)
    @given(sparse_systems(), st.randoms(use_true_random=False))
    def test_row_order_and_dense_reference(self, system, rnd):
        # the echelon takes the rows in its own order; neither the order
        # given nor a shuffle of it may change the solutions or the pivots
        rows, n, nrhs = system
        expected = gauss_jordan(rows, n, nrhs)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        for order in (rows, shuffled):
            if expected is None:
                with pytest.raises(Inconsistent):
                    solve_sparse_exact(order, n, nrhs)
            else:
                assert solve_sparse_exact(order, n, nrhs) == expected


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

    @given(tpoly_matrices())
    @example([[MultiPoly.zero(), t, MultiPoly.const(1)], [t + 1, t * t, t], [t, MultiPoly.zero(), 2 * t - 1]])
    def test_adjugate_identity(self, M):
        # entry (i, j) of adj(M) is the cofactor of M's entry (j, i)
        n = len(M)
        if laplace_det(M).is_zero:
            with pytest.raises(DegenerateInput):
                PolyMatrix(M).adjugate()
            return
        minor = lambda i, j: [row[:j] + row[j + 1 :] for r, row in enumerate(M) if r != i]
        cofactors = [[(-1) ** (i + j) * laplace_det(minor(j, i)) for j in range(n)] for i in range(n)]
        assert PolyMatrix(M).adjugate() == PolyMatrix(cofactors)

    def test_adjugate_of_empty_and_1x1(self):
        assert PolyMatrix([]).adjugate() == PolyMatrix([])
        assert PolyMatrix([[t + 2]]).adjugate() == PolyMatrix([[MultiPoly.const(1)]])

    def test_adjugate_with_row_swap(self):
        # the zero top-left entry moves the first pivot; adj [[0, t], [1, 1]] = [[1, -t], [-1, 0]]
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

    @pytest.mark.parametrize(
        "entries, det",
        [
            ([[t, MultiPoly.const(1)], [MultiPoly.const(2), t]], t * t - 2),
            ([[t, t + 1], [2 * t, 2 * t + 2]], MultiPoly.zero()),
            ([], MultiPoly.const(1)),
        ],
        ids=["nonsingular", "singular", "0x0"],
    )
    def test_one_echelon_per_matrix(self, monkeypatch, entries, det):
        # determinant and adjugate share the echelon of the columns
        calls = []
        echelon = linalg._echelon
        monkeypatch.setattr(linalg, "_echelon", lambda vectors: calls.append(1) or echelon(vectors))
        M = PolyMatrix(entries)
        assert M.determinant() == det
        if det.is_zero:
            with pytest.raises(DegenerateInput):
                M.adjugate()
        else:
            zero = MultiPoly.zero()
            assert mat_mul(M.adjugate(), M) == [[det if i == j else zero for j in range(M.cols)] for i in range(M.rows)]
        assert len(calls) == 1

    def test_determinant_in_two_variables_raises(self):
        with pytest.raises(ValueError):
            PolyMatrix([[x, t], [MultiPoly.const(1), x]]).determinant()

    def test_rank(self):
        # rank 1: the second row is the first again; rank 2: no dependence at all
        one = MultiPoly.const(1)
        assert first_dependence(dense_rows([[t, one], [t, one]]))[0] == 1
        assert first_dependence(dense_rows([[t, one], [one, t]])) is None

    def test_dependence_solves_for_the_last_row(self):
        # t*w0 + w1 = t^2 + 1 and t*w1 = t: (t^2 + 1, t) = t*(t, 0) + 1*(1, t)
        one, zero = MultiPoly.const(1), MultiPoly.zero()
        k, D, num = first_dependence(dense_rows([[t, zero], [one, t], [t * t + 1, t]]))
        assert k == 2
        assert [RatFunc(c.to_poly("t"), D.to_poly("t")) for c in num] == [RatFunc(t, one), RatFunc(one, one)]

    def test_zero_first_vector(self):
        zero = MultiPoly.zero()
        assert first_dependence(dense_rows([[zero, zero], [t, t]])) == (0, _Dense.const(1), [])

    def test_dependence_with_pivots_out_of_position_order(self):
        # (0, t) pivots at position 1, then (1, 1) at position 0; (1, t + 1) is their sum
        one, zero = MultiPoly.const(1), MultiPoly.zero()
        k, D, num = first_dependence(dense_rows([[zero, t], [one, one], [one, t + 1]]))
        assert k == 2
        assert [RatFunc(c.to_poly("t"), D.to_poly("t")) for c in num] == [RatFunc(one, one)] * 2

    def test_no_dependence_when_inconsistent(self):
        # t*w = t and t*w = t + 1 have no common solution w
        assert first_dependence(dense_rows([[t, t], [t, t + 1]])) is None

