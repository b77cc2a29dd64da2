"""Sparse multivariate polynomials over exact rationals.

Variables are drawn from the fixed alphabet x, y, t (in that order of
precedence). Coefficients are `fractions.Fraction`; no floating point enters
any symbolic path. Term order everywhere is graded reverse lexicographic with
x > y > t, which also fixes the canonical text serialization.

The text grammar (round-trips bit-exactly):

    poly   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := coef | var ('^' int)?
    coef   := int | int '/' int

Whitespace is ignored; exponent 1 and coefficient 1 may be elided.
Example: ``3*x^2*y - 1/2*y^3 + t``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DegenerateInput, ParseError

CANONICAL_VARS = ("x", "y", "t")


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be exact (int or Fraction), got {type(c)!r}")


def grevlex_key(expo: Sequence[int]):
    """Sort key: larger key = larger monomial in grevlex."""
    return (sum(expo),) + tuple(-expo[i] for i in range(len(expo) - 1, -1, -1))


class MultiPoly:
    """Immutable sparse polynomial. Do not mutate `terms` after construction."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Fraction]):
        variables = tuple(variables)
        for v in variables:
            if v not in CANONICAL_VARS:
                raise ValueError(f"unknown variable {v!r}")
        if tuple(sorted(variables, key=CANONICAL_VARS.index)) != variables:
            raise ValueError("variables must be listed in canonical order x, y, t")
        clean = {}
        for expo, coef in terms.items():
            coef = _as_fraction(coef)
            if coef == 0:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(variables) or any(e < 0 for e in expo):
                raise ValueError("bad exponent vector")
            clean[expo] = clean.get(expo, Fraction(0)) + coef
        clean = {e: c for e, c in clean.items() if c != 0}
        # prune variables that never appear, so equal polynomials compare equal
        used = [i for i in range(len(variables)) if any(e[i] for e in clean)]
        if len(used) != len(variables):
            variables = tuple(variables[i] for i in used)
            clean = {tuple(e[i] for i in used): c for e, c in clean.items()}
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly((), {})

    @staticmethod
    def const(c) -> "MultiPoly":
        c = _as_fraction(c)
        return MultiPoly((), {(): c} if c else {})

    @staticmethod
    def var(name: str, power: int = 1) -> "MultiPoly":
        return MultiPoly((name,), {(power,): Fraction(1)})

    @staticmethod
    def monomial(c, **powers) -> "MultiPoly":
        names = tuple(v for v in CANONICAL_VARS if v in powers)
        expo = tuple(int(powers[v]) for v in names)
        return MultiPoly(names, {expo: _as_fraction(c)})

    # -- context handling --------------------------------------------------

    def _aligned(self, other: "MultiPoly"):
        """Return (vars, terms_self, terms_other) over the union context."""
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        union = tuple(v for v in CANONICAL_VARS if v in self.vars or v in other.vars)

        def lift(p):
            idx = [p.vars.index(v) if v in p.vars else None for v in union]
            out = {}
            for e, c in p.terms.items():
                out[tuple(e[i] if i is not None else 0 for i in idx)] = c
            return out

        return union, lift(self), lift(other)

    def extended(self, variables: Sequence[str]) -> dict:
        """Terms re-indexed over the given (super)context."""
        variables = tuple(variables)
        idx = [self.vars.index(v) if v in self.vars else None for v in variables]
        return {tuple(e[i] if i is not None else 0 for i in idx): c for e, c in self.terms.items()}

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other)
        union, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return MultiPoly(union, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other)
        union, a, b = self._aligned(other)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return MultiPoly(union, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction)):
                other = MultiPoly.const(other)
            else:
                return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r})"

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0 if self.terms else -1
        if not self.terms:
            return -1
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.terms.values()))

    def leading(self):
        """(exponent, coefficient) of the grevlex-leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def leading_coeff(self) -> Fraction:
        return self.leading()[1]

    def homogeneous_part(self, deg: int) -> "MultiPoly":
        return MultiPoly(self.vars, {e: c for e, c in self.terms.items() if sum(e) == deg})

    def coeff_in_var(self, var: str, k: int) -> "MultiPoly":
        """Coefficient of var**k, a polynomial in the remaining variables."""
        if var not in self.vars:
            return self if k == 0 else MultiPoly.zero()
        i = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                out[tuple(e[j] for j in range(len(e)) if j != i)] = c
        return MultiPoly(rest, out)

    def univariate_coeffs(self, var: str) -> list:
        """Dense coefficient list [c0, c1, ...]; requires all other vars absent."""
        if any(v != var for v in self.vars):
            raise ValueError(f"polynomial is not univariate in {var}")
        n = self.degree_in(var)
        out = [Fraction(0)] * (max(n, 0) + 1)
        if var in self.vars:
            for e, c in self.terms.items():
                out[e[0]] = c
        elif self.terms:
            out[0] = self.constant_value()
        return out

    @staticmethod
    def from_univariate_coeffs(var: str, coeffs: Iterable) -> "MultiPoly":
        return MultiPoly((var,), {(i,): _as_fraction(c) for i, c in enumerate(coeffs) if c})

    def monic(self) -> "MultiPoly":
        """Divide by the grevlex-leading coefficient."""
        if not self.terms:
            return self
        lc = self.leading_coeff()
        return MultiPoly(self.vars, {e: c / lc for e, c in self.terms.items()})

    # -- calculus ------------------------------------------------------------

    def derive(self, var: str) -> "MultiPoly":
        if var not in self.vars:
            return MultiPoly.zero()
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
        return MultiPoly(self.vars, out)

    def integrate(self, var: str) -> "MultiPoly":
        """Antiderivative in var with zero constant part."""
        if var not in self.vars:
            if not self.terms:
                return self
            return self * MultiPoly.var(var)
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            ne = list(e)
            ne[i] += 1
            out[tuple(ne)] = c / (e[i] + 1)
        return MultiPoly(self.vars, out)

    def substitute(self, var: str, value: "MultiPoly") -> "MultiPoly":
        """Exact substitution var := value (value may involve any variables)."""
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        nmax = self.degree_in(var)
        powers = [MultiPoly.const(1)]
        for _ in range(nmax):
            powers.append(powers[-1] * value)
        acc = MultiPoly.zero()
        for k in range(nmax + 1):
            coef = self.coeff_in_var(var, k)
            if coef.is_zero:
                continue
            acc = acc + coef * powers[k]
        return acc

    # -- evaluation ------------------------------------------------------------

    def eval_complex(self, point: Mapping[str, complex]) -> complex:
        """Evaluate at a complex point, nested Horner over the sparse support."""
        for v in self.vars:
            if v not in point:
                raise ValueError(f"unbound variable {v}")
        return self._horner({v: complex(point[v]) for v in self.vars})

    def _horner(self, vals) -> complex:
        if not self.terms:
            return 0j
        if not self.vars:
            return 0j + complex(self.constant_value())
        var = self.vars[0]
        acc = 0j
        x = vals[var]
        for k in range(self.degree_in(var), -1, -1):
            acc = acc * x + self.coeff_in_var(var, k)._horner(vals)
        return acc

    # -- exact division ----------------------------------------------------------

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises if the divisor does not divide."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if divisor.is_constant():
            c = divisor.constant_value()
            return MultiPoly(self.vars, {e: k / c for e, k in self.terms.items()})
        union, a, b = self._aligned(divisor)
        rem = dict(a)
        lead_b = max(b, key=grevlex_key)
        cb = b[lead_b]
        quo = {}
        while rem:
            lead_r = max(rem, key=grevlex_key)
            diff = tuple(i - j for i, j in zip(lead_r, lead_b))
            if any(d < 0 for d in diff):
                raise ValueError("not exactly divisible")
            q = rem[lead_r] / cb
            quo[diff] = q
            for e, c in b.items():
                te = tuple(i + j for i, j in zip(e, diff))
                s = rem.get(te, Fraction(0)) - q * c
                if s:
                    rem[te] = s
                elif te in rem:
                    del rem[te]
        return MultiPoly(union, quo)

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True)
        pieces = []
        for e, c in items:
            mono = "*".join(
                v if k == 1 else f"{v}^{k}" for v, k in zip(self.vars, e) if k
            )
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            pieces.append((c < 0, body))
        out = ("-" if pieces[0][0] else "") + pieces[0][1]
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out


# -- parsing ----------------------------------------------------------------


def parse_polynomial(text: str) -> MultiPoly:
    """Parse the canonical text grammar; raises ParseError with the offset."""
    s = text
    n = len(s)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and s[pos].isspace():
            pos += 1

    def parse_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and s[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected integer", pos)
        return int(s[start:pos])

    def parse_coef() -> Fraction:
        nonlocal pos
        num = parse_int()
        skip_ws()
        if pos < n and s[pos] == "/":
            pos += 1
            skip_ws()
            den = parse_int()
            if den == 0:
                raise ParseError("zero denominator", pos)
            return Fraction(num, den)
        return Fraction(num)

    def parse_factor():
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise ParseError("expected factor", pos)
        ch = s[pos]
        if ch.isdigit():
            return parse_coef(), None
        if ch in ("x", "y", "t"):
            pos += 1
            skip_ws()
            power = 1
            if pos < n and s[pos] == "^":
                pos += 1
                skip_ws()
                power = parse_int()
            return None, (ch, power)
        raise ParseError(f"unexpected character {ch!r}", pos)

    def parse_term() -> MultiPoly:
        nonlocal pos
        coef = Fraction(1)
        powers: dict[str, int] = {}
        while True:
            c, vp = parse_factor()
            if c is not None:
                coef *= c
            else:
                v, p = vp
                powers[v] = powers.get(v, 0) + p
            skip_ws()
            if pos < n and s[pos] == "*":
                pos += 1
                continue
            break
        return MultiPoly.monomial(coef, **powers) if powers else MultiPoly.const(coef)

    skip_ws()
    if pos >= n:
        raise ParseError("empty input", pos)
    sign = 1
    if s[pos] in "+-":
        sign = -1 if s[pos] == "-" else 1
        pos += 1
    acc = parse_term() * sign
    skip_ws()
    while pos < n:
        op = s[pos]
        if op not in "+-":
            raise ParseError(f"expected '+' or '-', got {op!r}", pos)
        pos += 1
        term = parse_term()
        acc = acc + (term if op == "+" else -term)
        skip_ws()
    return acc


# -- gcd ---------------------------------------------------------------------


def _univ_int_coeffs(p: MultiPoly, var: str):
    """Clear denominators: integer coefficient list of a univariate polynomial."""
    coeffs = p.univariate_coeffs(var)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = math.gcd(*ints)
    if g > 1:
        ints = [c // g for c in ints]
    return ints


def _int_poly_prem(a, b):
    """Pseudo remainder lc(b)^(deg a - deg b + 1) * a mod b, integer lists."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    e = (len(a) - 1) - db + 1
    while r and len(r) - 1 >= db:
        if r[-1] == 0:
            r.pop()
            continue
        lr = r[-1]
        shift = (len(r) - 1) - db
        r = [c * lb for c in r]
        for i, c in enumerate(b):
            r[i + shift] -= lr * c
        while r and r[-1] == 0:
            r.pop()
        e -= 1
    if e > 0:
        f = lb**e
        r = [c * f for c in r]
    return r


def _univariate_gcd(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Monic gcd via the subresultant polynomial remainder sequence over Z."""
    a = _univ_int_coeffs(p, var)
    b = _univ_int_coeffs(q, var)
    if len(a) < len(b):
        a, b = b, a
    g, h = 1, 1
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        r = _int_poly_prem(a, b)
        if not any(r):
            break
        if len(r) - 1 == 0:
            return MultiPoly.const(1)
        divisor = g * h**delta
        a, b = b, [c // divisor for c in r]
        g = a[-1]
        h = h if delta == 0 else (g**delta) // (h ** (delta - 1)) if delta > 1 else g
    cont = math.gcd(*b)
    b = [c // cont for c in b]
    return MultiPoly.from_univariate_coeffs(var, b).monic()


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic greatest common divisor of two polynomials in one shared
    variable; gcd(a, 0) is a made monic and gcd(a, c) = 1 for a nonzero
    constant c. Input in more than one variable raises ValueError.
    """
    variables = set(a.vars) | set(b.vars)
    if len(variables) > 1:
        raise ValueError(f"poly_gcd takes polynomials in one shared variable, got {sorted(variables)}")
    if a.is_zero and b.is_zero:
        raise DegenerateInput("gcd(0, 0) is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.is_constant() or b.is_constant():
        return MultiPoly.const(1)
    return _univariate_gcd(a, b, variables.pop())


# -- resultant -----------------------------------------------------------------


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant eliminating var, exact over the remaining variables.

    Layout puts the g coefficient rows first, so for linear pairs
    resultant(x - a, x - b, x) = b - a. When one argument has degree zero in
    var the convention value other**deg is returned.
    """
    if f.is_zero or g.is_zero:
        raise DegenerateInput("resultant of the zero polynomial")
    m = f.degree_in(var)
    n = g.degree_in(var)
    if m == 0 and n == 0:
        return MultiPoly.const(1)
    if m == 0:
        return f**n
    if n == 0:
        return g**m
    fc = [f.coeff_in_var(var, k) for k in range(m, -1, -1)]
    gc = [g.coeff_in_var(var, k) for k in range(n, -1, -1)]
    size = m + n
    rows = []
    for i in range(m):  # g rows first
        row = [MultiPoly.zero()] * size
        for j, c in enumerate(gc):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [MultiPoly.zero()] * size
        for j, c in enumerate(fc):
            row[i + j] = c
        rows.append(row)
    return _bareiss_det_poly(rows)


def _bareiss_step(vec, pivot_vec, k, prev, idx) -> None:
    """vec[i] = (p * vec[i] - vec[k] * pivot_vec[i]) / prev for i in idx, in
    place, with p = pivot_vec[k]; exact when prev is the pivot before p.

    The one fraction-free (Bareiss) update of the exact core: determinants,
    the adjugate and the first dependence all run through it."""
    p, f = pivot_vec[k], vec[k]
    for i in idx:
        a, b = vec[i], pivot_vec[i]
        if f.is_zero or b.is_zero:
            if not a.is_zero:
                vec[i] = (p * a).exact_div(prev)
        else:
            vec[i] = (p * a - f * b).exact_div(prev)


def _bareiss_det_poly(rows: list[list[MultiPoly]]) -> MultiPoly:
    """Fraction-free determinant over the polynomial ring; 1 for 0 x 0."""
    n = len(rows)
    if n == 0:
        return MultiPoly.const(1)
    m = [row[:] for row in rows]
    sign = 1
    prev = MultiPoly.const(1)
    for k in range(n - 1):
        sel = next((i for i in range(k, n) if not m[i][k].is_zero), None)
        if sel is None:
            return MultiPoly.zero()
        if sel != k:
            m[k], m[sel] = m[sel], m[k]
            sign = -sign
        for i in range(k + 1, n):
            _bareiss_step(m[i], m[k], k, prev, range(k + 1, n))
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det

