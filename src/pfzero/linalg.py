"""Exact linear algebra: the sparse rational solver, polynomial matrices,
rational functions in t.

`solve_sparse_exact` is an integer cross-multiplication eliminator with
row-content stripping for the large, very sparse coefficient-matching systems
that the decomposition routines produce and for the Macaulay matrices of the
staircase; it is exact and deterministic, sweeps the columns in a fixed order
and chooses each pivot row by fill. Over polynomial rings,
`PolyMatrix.determinant`, `PolyMatrix.adjugate` and `first_dependence` are
fraction-free Bareiss eliminations that share the one update step
`poly._bareiss_step`. Matrices whose entries share one variable are
eliminated on the dense kernel `poly._Dense` and handed back as `MultiPoly`;
`first_dependence` works in the ring of the vectors it is given. `RatFunc`
reduces its parts on the dense kernel too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CertificateFailed, DegenerateInput, DivisionByZeroPolynomial, Inconsistent
from .poly import MultiPoly, _bareiss_det_poly, _bareiss_step, _Dense, _kernel_rows, _zgcd


# -- sparse exact solver --------------------------------------------------------

RHS = -1  # column key of the right-hand side inside a sparse row


def _strip_row(row: dict) -> dict:
    g = 0
    for c in row.values():
        g = math.gcd(g, c)
        if g == 1:
            return row
    if g > 1:
        return {j: c // g for j, c in row.items()}
    return row


def solve_sparse_exact(rows: list[dict], ncols: int):
    """Solve a sparse rational system given as rows {col: Fraction, RHS: Fraction}.

    Pivoting prefers sparse rows and sweeps the columns 0..ncols-1 in order;
    unpivoted columns are free and set to zero. Row updates are integer
    cross-multiplications with content stripping, so everything stays exact.
    Returns (solution list, pivot columns in sweep order); the pivot columns
    are the leading columns of the row space, and their count is the rank.
    Raises Inconsistent.
    """
    work = []
    for row in rows:
        den = math.lcm(*(Fraction(c).denominator for c in row.values()))
        introw = {j: int(Fraction(c) * den) for j, c in row.items() if Fraction(c) != 0}
        if introw:
            work.append(_strip_row(introw))
    col_index: dict[int, set[int]] = {}
    for i, row in enumerate(work):
        for j in row:
            if j != RHS:
                col_index.setdefault(j, set()).add(i)
    active = set(range(len(work)))
    pivots: list[tuple[int, int]] = []  # (row id, col)
    for col in range(ncols):
        cand = [i for i in col_index.get(col, ()) if i in active]
        if not cand:
            continue
        piv = min(cand, key=lambda i: (len(work[i]), i))
        active.discard(piv)
        pr = work[piv]
        pc = pr[col]
        for i in list(col_index.get(col, ())):
            if i == piv or i not in active:
                continue
            ri = work[i]
            f = ri[col]
            new = {}
            for j, c in ri.items():
                new[j] = pc * c
            for j, c in pr.items():
                s = new.get(j, 0) - f * c
                if s:
                    new[j] = s
                elif j in new:
                    del new[j]
            new.pop(col, None)
            new = _strip_row(new)
            # update the column index
            for j in ri:
                if j != RHS and j != col and j not in new:
                    col_index[j].discard(i)
            for j in new:
                if j != RHS:
                    col_index.setdefault(j, set()).add(i)
            col_index[col].discard(i)
            work[i] = new
            if set(new) <= {RHS}:
                if new.get(RHS, 0) != 0:
                    raise Inconsistent("no solution")
                active.discard(i)
        pivots.append((piv, col))
    for i in active:
        row = work[i]
        if set(row) <= {RHS} and row.get(RHS, 0) != 0:
            raise Inconsistent("no solution")
        if any(j != RHS for j in row):
            raise CertificateFailed("unswept column left nonzero")
    sol = [Fraction(0)] * ncols
    for piv, col in reversed(pivots):
        row = work[piv]
        acc = Fraction(row.get(RHS, 0))
        for j, c in row.items():
            if j in (RHS, col):
                continue
            if sol[j]:
                acc -= c * sol[j]
        sol[col] = acc / row[col]
    return sol, [col for _, col in pivots]


# -- polynomial matrices ---------------------------------------------------------


class PolyMatrix:
    """Rectangular matrix of MultiPoly entries over a shared variable context."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[MultiPoly]]):
        entries = [list(r) for r in entries]
        if entries:
            w = len(entries[0])
            if any(len(r) != w for r in entries):
                raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", len(entries[0]) if entries else 0)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> list[MultiPoly]:
        return list(self.entries[i])

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def max_degree(self) -> int:
        degs = [e.degree() for row in self.entries for e in row]
        return max(degs) if degs else -1

    def determinant(self) -> MultiPoly:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _bareiss_det_poly(self.entries)

    def adjugate(self) -> "PolyMatrix":
        """Transposed cofactor matrix: adj(M) * M = det(M) * Id, exactly.

        One fraction-free (Bareiss) Gauss-Jordan elimination of [M | Id]; every
        division is exact. The left block ends as D * Id with D the last
        pivot, and the right block as D * M^(-1) = sign * adj(M), where sign
        is the parity of the row swaps. Requires det(M) != 0: a singular
        matrix raises DegenerateInput.
        """
        n = self.rows
        if n != self.cols:
            raise ValueError("adjugate of a non-square matrix")
        var, m = _kernel_rows(self.entries)
        ring = MultiPoly if var is None else _Dense
        zero, one = ring.zero(), ring.const(1)
        m = [m[i] + [one if j == i else zero for j in range(n)] for i in range(n)]
        sign = 1
        prev = one
        for k in range(n):
            sel = next((i for i in range(k, n) if not m[i][k].is_zero), None)
            if sel is None:
                raise DegenerateInput("adjugate of a singular matrix")
            if sel != k:
                m[k], m[sel] = m[sel], m[k]
                sign = -sign
            for i in range(n):
                if i != k:
                    _bareiss_step(m[i], m[k], k, prev, range(k + 1, 2 * n))
            prev = m[k][k]
        out = [[e if sign == 1 else -e for e in row[n:]] for row in m]
        return PolyMatrix(out if var is None else [[e.to_poly(var) for e in row] for row in out])


def _mat_mul(a: list[list], b: list[list]) -> list[list]:
    """Product of two matrices of `_Dense` entries given as lists of rows;
    zero entries are skipped."""
    out = []
    for row in a:
        new = []
        for j in range(len(b[0]) if b else 0):
            acc = _Dense.zero()
            for e, brow in zip(row, b):
                f = brow[j]
                if not e.is_zero and not f.is_zero:
                    acc = acc + e * f
            new.append(acc)
        out.append(new)
    return out


def first_dependence(vectors: Iterable[Sequence]) -> tuple | None:
    """First vector that depends on the vectors before it over the fraction field.

    One incremental fraction-free (Bareiss) elimination of the matrix whose
    columns are the vectors r_0, r_1, ...: each arriving column goes through
    the elimination steps taken so far and either gives a new pivot or, at
    the first dependent r_k, stops the scan. Fraction-free back-substitution
    over the pivot rows, with the last pivot D as common denominator, then
    gives every c_l = D w_l of r_k = sum_{l<k} w_l r_l by exact division. The
    relation D r_k = sum_l c_l r_l is checked exactly (CertificateFailed).
    Returns (k, D, [c_0, ..., c_{k-1}]), or None when the vectors run out and
    all of them are independent. The entries are MultiPoly, or _Dense for the
    scalar reduction; the result is in the same ring.
    """
    seen: list[list] = []  # the vectors as given
    cols: list[list] = []  # column l after elimination steps 0..l-1
    piv_rows: list[int] = []  # pivot row of each step
    for k, r in enumerate(vectors):
        r = list(r)
        ring = type(r[0]) if r else MultiPoly
        seen.append(r)
        n = len(r)
        col = list(r)
        prev = ring.const(1)
        for s, p_row in enumerate(piv_rows):
            below = [i for i in range(n) if i not in piv_rows[: s + 1]]
            _bareiss_step(col, cols[s], p_row, prev, below)
            prev = cols[s][p_row]
        cols.append(col)
        sel = next((i for i in range(n) if i not in piv_rows and not col[i].is_zero), None)
        if sel is not None:
            piv_rows.append(sel)
            continue
        D = prev  # the last pivot, cols[k - 1][piv_rows[k - 1]]
        c = [ring.zero()] * k
        for l in range(k - 1, -1, -1):
            row = piv_rows[l]
            if l == k - 1:
                c[l] = col[row]  # D col[row] / D
                continue
            acc = D * col[row]
            for m in range(l + 1, k):
                if not cols[m][row].is_zero and not c[m].is_zero:
                    acc = acc - cols[m][row] * c[m]
            c[l] = acc.exact_div(cols[l][row])
        for i in range(n):
            acc = ring.zero()
            for cl, rl in zip(c, seen):
                if not cl.is_zero and not rl[i].is_zero:
                    acc = acc + cl * rl[i]
            if acc != D * r[i]:
                raise CertificateFailed(f"vector {k} is not the combination the elimination found")
        return k, D, c
    return None


# -- rational functions in t -----------------------------------------------------


class RatFunc:
    """Reduced rational function in t: gcd(num, den) = 1, den monic.

    A container for the coefficients of the scalar equations, which the
    pipeline only compares, negates, evaluates and prints; it has no other
    arithmetic. The reduction runs on the dense kernel.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero:
            raise DivisionByZeroPolynomial("denominator is the zero polynomial")
        for p in (num, den):
            if any(v != "t" for v in p.vars):
                raise ValueError("RatFunc components must be polynomials in t only")
        num, den = _reduced(_Dense.from_poly(num), _Dense.from_poly(den))
        object.__setattr__(self, "num", num.to_poly("t"))
        object.__setattr__(self, "den", den.to_poly("t"))

    @classmethod
    def _of_reduced(cls, num: MultiPoly, den: MultiPoly) -> "RatFunc":
        """A RatFunc of parts already in lowest terms with den monic."""
        r = object.__new__(cls)
        object.__setattr__(r, "num", num)
        object.__setattr__(r, "den", den)
        return r

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return RatFunc._of_reduced(-self.num, self.den)

    def to_text(self) -> str:
        if self.den == MultiPoly.const(1):
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"


def _reduced(num: _Dense, den: _Dense) -> tuple[_Dense, _Dense]:
    """num / den in lowest terms with den monic (den nonzero)."""
    if num.is_zero:
        return num, _Dense.const(1)
    _, pn, pd = _zgcd(num.p, den.p)
    return _Dense(num.c / (den.c * pd[-1]), pn), _Dense(Fraction(1, pd[-1]), pd)


def _lcm(a: _Dense, b: _Dense) -> _Dense:
    """Monic least common multiple of two nonzero polynomials."""
    _, _, pb = _zgcd(a.p, b.p)
    return (a * _Dense(Fraction(1), pb)).monic()

