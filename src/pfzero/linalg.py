"""Exact linear algebra: the sparse rational solver, polynomial matrices,
rational functions in t.

`solve_sparse_exact` is one incremental sparse echelon, with integer
cross-multiplication and row-content stripping, for the large, very sparse
coefficient-matching systems that the decomposition routines produce and for
the Macaulay matrices of the staircase: the rows arrive sparsest first and
each is reduced on arrival by the pivot rows so far, like `poly._reduce`
over Q[t]. It is exact and deterministic, and it carries any number of
right-hand sides through the one elimination. Over Q[t],
`PolyMatrix.determinant`, `PolyMatrix.adjugate` and `first_dependence` are
one fraction-free (Bareiss) echelon, `poly._reduce` and `poly._add_pivot`,
on the dense kernel `poly._Dense`; the adjugate and the dependence end in
the one back-substitution `poly._back_substitute`. A matrix takes the
echelon of its columns once and keeps it, so its determinant and its
adjugate share one elimination. The two `PolyMatrix` methods take
`MultiPoly` entries in one shared variable (ValueError otherwise) and hand
back `MultiPoly`; `first_dependence` takes and returns `_Dense`. `RatFunc`
reduces its parts on the dense kernel too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CertificateFailed, DegenerateInput, DivisionByZeroPolynomial, Inconsistent
from .poly import MultiPoly, _Dense, _kernel_rows, _zgcd
from .poly import _add_pivot, _back_substitute, _echelon, _reduce


# -- sparse exact solver --------------------------------------------------------

RHS = -1  # key of the first right-hand side inside a sparse row; the r-th is at RHS - r


def _strip_row(row: dict) -> dict:
    g = 0
    for c in row.values():
        g = math.gcd(g, c)
        if g == 1:
            return row
    if g > 1:
        return {j: c // g for j, c in row.items()}
    return row


def solve_sparse_exact(rows: list[dict], ncols: int, nrhs: int = 1):
    """Solve a sparse rational system for nrhs right-hand sides at once.

    Each row is {col: Fraction, RHS - r: Fraction}: columns 0..ncols-1 and
    right-hand side r < nrhs at key RHS - r (absent keys are zero).
    One incremental echelon: the rows arrive sparsest first, and each is
    reduced at its leading column (its smallest column key) by the pivot
    row of that column until it leads a column without a pivot, whose pivot
    it becomes, or has no column left. Row updates are integer
    cross-multiplications with content stripping, so everything stays exact.
    The pivot columns are the leading columns of the row space, and with the
    free columns at zero each solution is unique, so neither depends on the
    order of the rows or on the other right-hand sides: one solve with k
    right-hand sides returns what k solves with one would. Returns
    (one solution list per right-hand side, pivot columns ascending); the
    count of pivot columns is the rank. Raises Inconsistent when any
    right-hand side has no solution.
    """
    pivots: dict[int, dict] = {}  # leading column -> pivot row
    # Sparsest rows first: the pivots they leave are short, so the rows
    # reduced by them fill in less; in the order given, H4's solves take
    # twice as long.
    for row in sorted(rows, key=len):
        den = math.lcm(*(c.denominator for c in row.values()))
        row = _strip_row({j: c.numerator * (den // c.denominator) for j, c in row.items() if c})
        while True:
            col = min((j for j in row if j >= 0), default=None)
            if col is None:
                if row:
                    raise Inconsistent("no solution")
                break
            pr = pivots.get(col)
            if pr is None:
                pivots[col] = row
                break
            pc, f = pr[col], row[col]
            new = {j: pc * c for j, c in row.items()}
            for j, c in pr.items():
                s = new.get(j, 0) - f * c
                if s:
                    new[j] = s
                elif j in new:
                    del new[j]
            row = _strip_row(new)
    sols = [[Fraction(0)] * ncols for _ in range(nrhs)]
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        rest = [(j, c) for j, c in row.items() if j > col]
        for r, sol in enumerate(sols):
            acc = Fraction(row.get(RHS - r, 0))
            for j, c in rest:
                if sol[j]:
                    acc -= c * sol[j]
            sol[col] = acc / row[col]
    return sols, sorted(pivots)


# -- polynomial matrices ---------------------------------------------------------


class PolyMatrix:
    """Rectangular matrix of MultiPoly entries over a shared variable context.

    `_columns` keeps the fraction-free echelon of the columns of a square
    matrix once `determinant` or `adjugate` has taken it, so the two share it.
    """

    __slots__ = ("rows", "cols", "entries", "_columns")

    def __init__(self, entries: Sequence[Sequence[MultiPoly]]):
        entries = [list(r) for r in entries]
        if entries:
            w = len(entries[0])
            if any(len(r) != w for r in entries):
                raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", len(entries[0]) if entries else 0)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_columns", None)

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    def max_degree(self) -> int:
        degs = [e.degree() for row in self.entries for e in row]
        return max(degs) if degs else -1

    def _column_echelon(self):
        """(var, echelon) with echelon the `poly._echelon` of the columns,
        None for a singular matrix; taken once per matrix. A non-square
        matrix raises ValueError."""
        if self.rows != self.cols:
            raise ValueError("determinant or adjugate of a non-square matrix")
        if self._columns is None:
            var, m = _kernel_rows(self.entries)
            object.__setattr__(self, "_columns", (var, _echelon(zip(*m))))
        return self._columns

    def determinant(self) -> MultiPoly:
        """det(M), from the echelon of the columns; 1 for 0 x 0."""
        var, echelon = self._column_echelon()
        return MultiPoly.zero() if echelon is None else echelon[1].to_poly(var)

    def adjugate(self) -> "PolyMatrix":
        """Transposed cofactor matrix: adj(M) * M = det(M) * Id, exactly.

        One fraction-free echelon of the columns m_l of M gives det(M); the
        back-substitution of each unit vector e_j then gives the c with
        det(M) e_j = sum_l c_l m_l, column j of adj(M). Requires
        det(M) != 0: a singular matrix raises DegenerateInput.
        """
        var, echelon = self._column_echelon()
        if echelon is None:
            raise DegenerateInput("adjugate of a singular matrix")
        pivots, det = echelon
        n = self.rows
        zero, one = _Dense.zero(), _Dense.const(1)
        units = ([one if i == j else zero for i in range(n)] for j in range(n))
        cols = [_back_substitute(_reduce(e, pivots)[0], det, pivots) for e in units]
        return PolyMatrix([[e.to_poly(var) for e in row] for row in zip(*cols)])


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

    One incremental fraction-free echelon of the vectors r_0, r_1, ...: each
    arriving vector goes through `poly._reduce` and either gives a new pivot
    or, at the first dependent r_k, stops the scan. `poly._back_substitute`
    with the last pivot D as common denominator then gives every
    c_l = D w_l of r_k = sum_{l<k} w_l r_l. The relation D r_k = sum_l c_l r_l
    is checked exactly (CertificateFailed). Returns (k, D, [c_0, ..., c_{k-1}]),
    or None when the vectors run out and all of them are independent. Entries
    and results are `_Dense`.
    """
    seen: list[list] = []  # the vectors as given
    pivots: list = []
    for k, r in enumerate(vectors):
        seen.append(list(r))
        reduced, D = _reduce(seen[-1], pivots)
        if _add_pivot(reduced, pivots):
            continue
        c = _back_substitute(reduced, D, pivots)
        if any(not e.is_zero for e in _mat_mul([c + [-D]], seen)[0]):
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

