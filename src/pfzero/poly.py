"""Exact polynomials: sparse multivariate `MultiPoly` and a dense kernel in
one variable.

`MultiPoly` is the public type. Variables are drawn from the fixed alphabet
x, y, t (in that order of precedence), and every term is keyed by its
exponent triple (i, j, k) of x^i y^j t^k, whatever variables occur: sums and
products add keys directly, and `vars` (the variables that occur) is read off
the keys. Coefficients are `fractions.Fraction`; no floating point enters any
symbolic path. Term order everywhere is graded reverse lexicographic with
x > y > t, which also fixes the canonical text serialization; an absent
variable adds the same zero to every key, so the order over the triples is
the order over the variables that occur.

The private `_Dense` holds a polynomial in one variable as a Fraction content
times a primitive integer coefficient tuple. Products and exact quotients go
through Kronecker substitution (one big-integer multiplication or division),
gcds through the heuristic GCDHEU with the subresultant sequence as fallback.
Determinants, resultants, the adjugate and the first dependence run on it
as one incremental fraction-free (Bareiss) echelon: `_reduce`, `_add_pivot`
and `_back_substitute`. A resultant whose Sylvester entries hold two
variables gets there by the Kronecker substitution of `_kronecker_det`.

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
from typing import Mapping, Sequence

from .errors import DegenerateInput, ParseError

CANONICAL_VARS = ("x", "y", "t")


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be exact (int or Fraction), got {type(c)!r}")


def _nested_plan(p: MultiPoly):
    """p as nested Horner lists: a float constant, or (variable, plans of
    the coefficients of its powers from the top down), the first variable
    outermost."""
    if not p.terms:
        return 0.0
    if not p.vars:
        return float(p.constant_value())
    var = p.vars[0]
    return var, [_nested_plan(p.coeff_in_var(var, k)) for k in range(p.degree_in(var), -1, -1)]


def _eval_plan(plan, vals: Mapping[str, complex]):
    if plan.__class__ is float:
        return plan
    var, kids = plan
    x = vals[var]
    kids = iter(kids)
    acc = _eval_plan(next(kids), vals)
    for kid in kids:
        acc = acc * x
        v = _eval_plan(kid, vals)
        try:
            acc += v  # in place on arrays: one temporary less
        except TypeError:  # a real array meets a complex value
            acc = acc + v
    return acc


def grevlex_key(expo: Sequence[int]):
    """Sort key: larger key = larger monomial in grevlex."""
    return (sum(expo),) + tuple(-expo[i] for i in range(len(expo) - 1, -1, -1))


class MultiPoly:
    """Immutable sparse polynomial. Do not mutate `terms` after construction.

    `terms` maps the exponent triple (i, j, k) of x^i y^j t^k to its nonzero
    coefficient, whatever variables occur. `_plan` holds the variables that
    occur and the nested-Horner plan of `eval_complex`, built on first use;
    it is derived from `terms` and takes no part in == or hash."""

    __slots__ = ("terms", "_plan")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Fraction]):
        """Terms over the listed variables, in any order: each exponent
        vector holds one power per variable and maps onto its triple by
        name. Coefficients must be exact; zeros are dropped."""
        variables = tuple(variables)
        for v in variables:
            if v not in CANONICAL_VARS:
                raise ValueError(f"unknown variable {v!r}")
        if len(set(variables)) != len(variables):
            raise ValueError(f"a variable is listed twice in {variables!r}")
        slots = [CANONICAL_VARS.index(v) for v in variables]
        clean = {}
        for expo, coef in terms.items():
            coef = _as_fraction(coef)
            if coef == 0:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(slots) or any(e < 0 for e in expo):
                raise ValueError("bad exponent vector")
            triple = [0, 0, 0]
            for i, e in zip(slots, expo):
                triple[i] = e
            clean[tuple(triple)] = coef  # distinct vectors give distinct triples
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_plan", None)

    @staticmethod
    def _of(terms: dict) -> "MultiPoly":
        """A MultiPoly of exponent triples mapped to nonzero Fractions, as is."""
        p = object.__new__(MultiPoly)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_plan", None)
        return p

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    @property
    def vars(self) -> tuple:
        """The variables that occur, in the order x, y, t."""
        return tuple(v for i, v in enumerate(CANONICAL_VARS) if any(e[i] for e in self.terms))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly._of({})

    @staticmethod
    def const(c) -> "MultiPoly":
        c = _as_fraction(c)
        return MultiPoly._of({(0, 0, 0): c} if c else {})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): Fraction(1)})

    @staticmethod
    def monomial(c, **powers) -> "MultiPoly":
        return MultiPoly(tuple(powers), {tuple(powers.values()): c})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return MultiPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other)
        out = {}
        b = other.terms.items()
        for (i, j, k), c1 in self.terms.items():
            for (u, v, w), c2 in b:
                e = (i + u, j + v, k + w)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return MultiPoly._of(out)

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
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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
        i = CANONICAL_VARS.index(var)
        return max((e[i] for e in self.terms), default=-1)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.terms.values()))

    def homogeneous_part(self, deg: int) -> "MultiPoly":
        return MultiPoly._of({e: c for e, c in self.terms.items() if sum(e) == deg})

    def coeff_in_var(self, var: str, k: int) -> "MultiPoly":
        """Coefficient of var**k, a polynomial in the remaining variables."""
        i = CANONICAL_VARS.index(var)
        return MultiPoly._of({e[:i] + (0,) + e[i + 1 :]: c for e, c in self.terms.items() if e[i] == k})

    def univariate_coeffs(self, var: str) -> list:
        """Dense coefficient list [c0, c1, ...]; requires all other vars absent."""
        i = CANONICAL_VARS.index(var)
        if any(sum(e) != e[i] for e in self.terms):
            raise ValueError(f"polynomial is not univariate in {var}")
        out = [Fraction(0)] * (max(self.degree_in(var), 0) + 1)
        for e, c in self.terms.items():
            out[e[i]] = c
        return out

    # -- calculus ------------------------------------------------------------

    def derive(self, var: str) -> "MultiPoly":
        i = CANONICAL_VARS.index(var)
        return MultiPoly._of({e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in self.terms.items() if e[i]})

    def integrate(self, var: str) -> "MultiPoly":
        """Antiderivative in var with zero constant part."""
        i = CANONICAL_VARS.index(var)
        return MultiPoly._of({e[:i] + (e[i] + 1,) + e[i + 1 :]: c / (e[i] + 1) for e, c in self.terms.items()})

    def substitute(self, var: str, value: "MultiPoly") -> "MultiPoly":
        """Exact substitution var := value (value may involve any variables)."""
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

    def eval_complex(self, point: Mapping[str, complex]):
        """Evaluate by nested Horner over the sparse support, at Python
        numbers or at numpy arrays of one shape (a constant polynomial gives
        its float value, which broadcasts). The plan's coefficients are
        floats and the accumulator starts from the leading one, so a real
        point gives a real value, computed in real arithmetic. A point with a
        complex coordinate gives a complex value with the bits of an
        all-complex evaluation, up to the sign of a zero imaginary part.
        numpy may fuse the multiply-adds of a complex product, so a complex
        array can differ from the scalar results in the last bits."""
        if self._plan is None:
            object.__setattr__(self, "_plan", (self.vars, _nested_plan(self)))
        variables, plan = self._plan
        for v in variables:
            if v not in point:
                raise ValueError(f"unbound variable {v}")
        return _eval_plan(plan, point)

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True)
        pieces = []
        for e, c in items:
            mono = "*".join(
                v if k == 1 else f"{v}^{k}" for v, k in zip(CANONICAL_VARS, e) if k
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


# -- dense integer kernel ------------------------------------------------------
#
# Polynomials in one variable as integer coefficient sequences, lowest degree
# first. Products and exact quotients go through Kronecker substitution: a
# sequence is packed into one integer p(2^(8w)) by joining w-byte words, the
# integers are multiplied or divided, and the result is unpacked into balanced
# digits in [-2^(8w-1), 2^(8w-1)). The unpacking is exact whenever every
# coefficient of the result is smaller than 2^(8w-1) in absolute value. Both
# directions shift every word by 2^(8w-1), so one join or one split suffices.


def _bits(p) -> int:
    """Bit length of the largest coefficient (in absolute value)."""
    return max(max(p), -min(p)).bit_length()


def _ones(n: int, w: int) -> int:
    """sum_{i<n} 2^(8wi): the packed sequence of n ones."""
    return int.from_bytes((b"\x01" + bytes(w - 1)) * n, "little")


def _pack(p, w: int) -> int:
    """p(2^(8w)) for an integer coefficient sequence p."""
    k = 8 * w
    if _bits(p) >= k:  # coefficients wider than a word: Horner by shifts
        n = 0
        for c in reversed(p):
            n = (n << k) + c
        return n
    half = 1 << (k - 1)
    n = int.from_bytes(b"".join((c + half).to_bytes(w, "little") for c in p), "little")
    return n - (_ones(len(p), w) << (k - 1))


def _unpack(n: int, w: int) -> list:
    """Balanced base-2^(8w) digits of n, lowest first, no trailing zeros."""
    k = 8 * w
    count = abs(n).bit_length() // k + 2
    half = 1 << (k - 1)
    raw = (n + (_ones(count, w) << (k - 1))).to_bytes(count * w, "little")
    out = [int.from_bytes(raw[i : i + w], "little") - half for i in range(0, count * w, w)]
    while out and not out[-1]:
        out.pop()
    return out


def _zmul(p: tuple, q: tuple) -> tuple:
    """Product in Z[t] by one big-integer multiplication."""
    if len(p) == 1 or len(q) == 1:
        (c,), f = (p, q) if len(p) == 1 else (q, p)
        return f if c == 1 else tuple(c * x for x in f)
    w = (_bits(p) + _bits(q) + min(len(p), len(q)).bit_length()) // 8 + 1
    return tuple(_unpack(_pack(p, w) * _pack(q, w), w))


def _zdiv(p: tuple, q: tuple) -> tuple:
    """Exact quotient p / q in Z[t] (q nonzero); ValueError unless q divides p.

    If q divides p, q(xi) divides p(xi) for every integer xi, so a nonzero
    remainder disproves divisibility at once. The word is sized for the
    quotient, about ||p|| / ||q||: the balanced digits r of p(xi) / q(xi) are
    the quotient once xi > 2 ||r||, and r q = p is checked by one product.
    A true quotient is below 2^(deg r) sqrt(deg p + 1) ||p|| (Mignotte), so
    the word grows at most to that size, where a failed check proves that q
    does not divide p. The word also stays above ||q||, so xi > 1 + ||q|| lies
    beyond every root of q (Cauchy) and q(xi) is never zero.
    """
    if not p:
        return ()
    lp, lq = len(p), len(q)
    if lq == 1:
        c = q[0]
        if any(x % c for x in p):
            raise ValueError("not exactly divisible")
        return p if c == 1 else tuple(x // c for x in p)
    if lp < lq:
        raise ValueError("not exactly divisible")
    bp, bq = _bits(p), _bits(q)
    lr = lp - lq + 1
    mignotte = max(bp + lr + lp.bit_length() + 1, bq)
    bits = max(min(max(bp - bq, 0) + min(lr, lq).bit_length() + 16, mignotte), bq)
    while True:
        w = bits // 8 + 1
        quo, rem = divmod(_pack(p, w), _pack(q, w))
        if rem:
            raise ValueError("not exactly divisible")
        r = tuple(_unpack(quo, w))
        if len(r) == lr and _zmul(r, q) == p:
            return r
        if bits == mignotte:
            raise ValueError("not exactly divisible")
        bits = min(2 * bits, mignotte)


def _primitive(s) -> tuple[int, tuple]:
    """(g, s / g) with the quotient primitive and its leading entry positive;
    s has no trailing zeros and is nonempty."""
    g = math.gcd(*s)
    if s[-1] < 0:
        g = -g
    return g, tuple(s) if g == 1 else tuple(c // g for c in s)


def _prs_gcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd by the subresultant polynomial remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    g, h = 1, 1
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        r = _int_poly_prem(a, b)
        if not any(r):
            break
        if len(r) - 1 == 0:
            return (1,)
        divisor = g * h**delta
        a, b = b, [c // divisor for c in r]
        g = a[-1]
        h = h if delta == 0 else (g**delta) // (h ** (delta - 1)) if delta > 1 else g
    return _primitive(b)[1]


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


_HEU_TRIES = 4


def _heu_bytes(p: tuple, q: tuple) -> int:
    """Word size of the first evaluation point: xi = 2^(8w) >= 2 min(||p||, ||q||) + 2."""
    return (min(_bits(p), _bits(q)) + 2) // 8 + 1


def _heu_gcd_at(p: tuple, q: tuple, w: int):
    """GCDHEU at xi = 2^(8w): (h, p / h, q / h) with h the primitive part of
    the balanced xi-adic digits of gcd(p(xi), q(xi)), or None when h fails to
    divide both. For xi >= 2 min(||p||, ||q||) + 2 a dividing h is the gcd of
    the primitive p and q (Char, Geddes & Gonnet 1989)."""
    h = _primitive(_unpack(math.gcd(_pack(p, w), _pack(q, w)), w))[1]
    try:
        return h, _zdiv(p, h), _zdiv(q, h)
    except ValueError:
        return None


def _zgcd(p: tuple, q: tuple) -> tuple[tuple, tuple, tuple]:
    """(g, p / g, q / g) with g the primitive gcd of primitive p and q: GCDHEU
    at a few growing points, then the subresultant sequence."""
    if len(p) == 1 or len(q) == 1:
        return (1,), p, q
    w = _heu_bytes(p, q)
    for _ in range(_HEU_TRIES):
        got = _heu_gcd_at(p, q, w)
        if got is not None:
            return got
        w *= 2
    g = _prs_gcd(p, q)
    return g, _zdiv(p, g), _zdiv(q, g)


class _Dense:
    """A polynomial in one variable: content c (a Fraction) times the
    primitive integer coefficient tuple p (lowest degree first, p[-1] > 0).

    The form is unique, so equality is plain comparison; zero is (0, ()).
    Products of primitive tuples are primitive (Gauss's lemma), so `*` and
    `exact_div` need no gcd; `+` and `-` take one `math.gcd` for the new
    content. The variable's name lives with the caller, in `from_poly` and
    `to_poly`.
    """

    __slots__ = ("c", "p")

    def __init__(self, c: Fraction, p: tuple):
        self.c = c
        self.p = p

    @staticmethod
    def zero() -> "_Dense":
        return _ZERO

    @staticmethod
    def const(c) -> "_Dense":
        return _Dense(Fraction(c), (1,)) if c else _ZERO

    @staticmethod
    def of(c: Fraction, s) -> "_Dense":
        """c times the integer sequence s, normalised."""
        s = list(s)
        while s and not s[-1]:
            s.pop()
        if not s or not c:
            return _ZERO
        g, p = _primitive(s)
        return _Dense(c * g, p)

    @staticmethod
    def from_poly(f: MultiPoly) -> "_Dense":
        """f, a MultiPoly in at most one variable."""
        if not f.terms:
            return _ZERO
        coeffs = f.univariate_coeffs(f.vars[0]) if f.vars else [f.constant_value()]
        den = math.lcm(*(c.denominator for c in coeffs))
        return _Dense.of(Fraction(1, den), [c.numerator * (den // c.denominator) for c in coeffs])

    def to_poly(self, var: str) -> MultiPoly:
        c, v = self.c, CANONICAL_VARS.index(var)
        return MultiPoly._of({(0,) * v + (i,) + (0,) * (2 - v): c * k for i, k in enumerate(self.p) if k})

    @property
    def is_zero(self) -> bool:
        return not self.p

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.p) - 1

    def is_constant(self) -> bool:
        return len(self.p) <= 1

    def leading_coeff(self) -> Fraction:
        return self.c * self.p[-1]

    def monic(self) -> "_Dense":
        return _Dense(Fraction(1, self.p[-1]), self.p) if self.p else self

    def __eq__(self, other):
        if not isinstance(other, _Dense):
            return NotImplemented
        return self.c == other.c and self.p == other.p

    def __repr__(self):
        return f"_Dense({self.c!r}, {self.p!r})"

    def __neg__(self):
        return _Dense(-self.c, self.p) if self.p else self

    def __add__(self, other: "_Dense") -> "_Dense":
        if not other.p:
            return self
        if not self.p:
            return other
        a, b = self.c, other.c
        g = math.gcd(a.numerator, b.numerator)
        den = math.lcm(a.denominator, b.denominator)
        u = a.numerator // g * (den // a.denominator)
        v = b.numerator // g * (den // b.denominator)
        p, q = self.p, other.p
        if len(p) < len(q):
            p, q, u, v = q, p, v, u
        s = [u * c for c in p]
        for i, c in enumerate(q):
            s[i] += v * c
        return _Dense.of(Fraction(g, den), s)

    def __sub__(self, other: "_Dense") -> "_Dense":
        return self + (-other)

    def __mul__(self, other: "_Dense") -> "_Dense":
        if not self.p or not other.p:
            return _ZERO
        return _Dense(self.c * other.c, _zmul(self.p, other.p))

    def exact_div(self, divisor: "_Dense") -> "_Dense":
        """Exact quotient; ValueError if the divisor does not divide."""
        if not divisor.p:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.p:
            return self
        return _Dense(self.c / divisor.c, _zdiv(self.p, divisor.p))

    def derive(self) -> "_Dense":
        return _Dense.of(self.c, [i * c for i, c in enumerate(self.p)][1:])

    def gcd(self, other: "_Dense") -> "_Dense":
        """Monic gcd; gcd(f, 0) is f made monic, gcd(0, 0) raises."""
        if not self.p and not other.p:
            raise DegenerateInput("gcd(0, 0) is undefined")
        if not other.p:
            return self.monic()
        if not self.p:
            return other.monic()
        return _Dense(Fraction(1), _zgcd(self.p, other.p)[0]).monic()


_ZERO = _Dense(Fraction(0), ())


def _kernel_rows(rows):
    """(var, rows over _Dense) for MultiPoly entries in one shared variable
    or constants (var "t" then); ValueError for more variables."""
    names = {v for row in rows for e in row for v in e.vars}
    if len(names) > 1:
        raise ValueError(f"entries must share one variable, got {sorted(names)}")
    return (names.pop() if names else "t"), [[_Dense.from_poly(e) for e in row] for row in rows]


# -- gcd ---------------------------------------------------------------------


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic greatest common divisor of two polynomials in one shared
    variable; gcd(a, 0) is a made monic and gcd(a, c) = 1 for a nonzero
    constant c. Input in more than one variable raises ValueError.
    """
    var, ((da, db),) = _kernel_rows([[a, b]])
    return da.gcd(db).to_poly(var)


# -- resultant -----------------------------------------------------------------


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant eliminating var, exact over the remaining (at most
    two) variables.

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
    zero = MultiPoly.zero()
    rows = [[zero] * i + gc + [zero] * (m - 1 - i) for i in range(m)]  # g rows first
    rows += [[zero] * i + fc + [zero] * (n - 1 - i) for i in range(n)]
    return _kronecker_det(rows)


def _kronecker_det(rows: list[list[MultiPoly]]) -> MultiPoly:
    """Determinant of a matrix over Q[u] or Q[u, w] (u before w in the
    alphabet) on the dense kernel; more variables raise ValueError.

    The u-degree of the determinant is below D = 1 + the sum over the rows of
    the largest u-degree in the row. So the substitution w = u^D, a ring map
    into Q[u], sends distinct monomials u^i w^j (i < D) to distinct powers
    u^(i + D j): the determinant over Q[u] of the substituted matrix gives
    back every coefficient, at u^(k mod D) w^(k div D) for its power k
    (Kronecker substitution; von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 8).
    """
    used = [i for i in range(3) if any(e[i] for row in rows for p in row for e in p.terms)]
    if len(used) < 2:
        return _bareiss_det_poly(rows)
    if len(used) > 2:
        raise ValueError("determinant in more than two variables: x, y, t")
    u, w = used

    def expo(i, j):  # the triple of u^i w^j
        e = [0, 0, 0]
        e[u], e[w] = i, j
        return tuple(e)

    D = 1 + sum(max((e[u] for p in row for e in p.terms), default=0) for row in rows)
    z = [[MultiPoly._of({expo(e[u] + D * e[w], 0): c for e, c in p.terms.items()}) for p in row] for row in rows]
    det = _bareiss_det_poly(z)
    return MultiPoly._of({expo(e[u] % D, e[u] // D): c for e, c in det.terms.items()})


def _reduce(r, pivots) -> tuple[list, "_Dense"]:
    """A copy of r taken through the fraction-free (Bareiss) steps of the
    pivots, and the last pivot (1 before any). A pivot (v, k, free) holds a
    reduced vector v, its pivot position k and the free positions after k;
    its step sets r[i] = (v[k] r[i] - r[k] v[i]) / prev on those, exactly."""
    r = list(r)
    prev = _Dense.const(1)
    for v, k, free in pivots:
        p, f = v[k], r[k]
        for i in free:
            a, b = r[i], v[i]
            if f.is_zero or b.is_zero:
                if not a.is_zero:
                    r[i] = (p * a).exact_div(prev)
            else:
                r[i] = (p * a - f * b).exact_div(prev)
        prev = p
    return r, prev


def _add_pivot(r, pivots) -> bool:
    """Append r from `_reduce` as a pivot at its first nonzero free position;
    False, appending nothing, when r depends on the pivots' vectors."""
    free = pivots[-1][2] if pivots else range(len(r))
    k = next((i for i in free if not r[i].is_zero), None)
    if k is not None:
        pivots.append((r, k, [i for i in free if i != k]))
    return k is not None


def _back_substitute(r, D, pivots) -> list:
    """c with D u = sum_l c_l u_l, for (r, _) = _reduce(u, pivots), u in the
    span of the pivots' vectors u_l and D plus or minus the last pivot: the
    fraction-free back-substitution, every division exact."""
    c = [_Dense.zero()] * len(pivots)
    last = len(pivots) - 1
    for l in range(last, -1, -1):
        v, k, _ = pivots[l]
        if l == last:  # D r[k] / v[k] with D = +-v[k]
            c[l] = r[k] if D == v[k] else -r[k]
            continue
        acc = D * r[k]
        for m in range(l + 1, last + 1):
            u = pivots[m][0][k]
            if not u.is_zero and not c[m].is_zero:
                acc = acc - u * c[m]
        c[l] = acc.exact_div(v[k])
    return c


def _echelon(vectors) -> tuple[list, "_Dense"] | None:
    """The pivots of independent vectors and the determinant of the square
    matrix they form, the last pivot times the parity of the pivot
    positions; None at the first vector that depends on those before it."""
    pivots: list = []
    for u in vectors:
        if not _add_pivot(_reduce(u, pivots)[0], pivots):
            return None
    pos = [k for _, k, _ in pivots]
    det = pivots[-1][0][pos[-1]] if pivots else _Dense.const(1)
    odd = sum(a > b for i, a in enumerate(pos) for b in pos[i + 1 :]) % 2
    return pivots, -det if odd else det


def _bareiss_det_poly(rows: list[list[MultiPoly]]) -> MultiPoly:
    """Fraction-free determinant on the dense kernel of a matrix whose
    entries share one variable (ValueError otherwise); 1 for 0 x 0."""
    var, m = _kernel_rows(rows)
    echelon = _echelon(m)
    return MultiPoly.zero() if echelon is None else echelon[1].to_poly(var)
