"""Assembly of the period system a(t) I' = A(t) I and its scalar reductions.

Row l of the system comes from decomposing (x Hx + y Hy)^2 omega_l (matrix K)
and the derivative-of-period form of the same integrand (matrix L). The 2n
decompositions are one batch, one elimination with a right-hand side per
row; the derivative forms come from the gradient ideal, one elimination per
distinct cofactor degree. Then
A / a = K^(-1) (L - K') over the rational functions, cleared to a polynomial
matrix over a single monic denominator a(t). The result is certified by the
polynomial identity K A = a (L - K').

Every scalar equation comes from the iterated rows a^j y^(j) = r_j I of a
combination y = r_0 I, generated lazily by the row recurrence
r_{j+1} = a r_j' + r_j (A - j a' Id). Each row is divided by the gcd of its
entries, which keeps the pivots of the elimination small, and one incremental
fraction-free elimination of these primitive rows stops at the first row that
depends on the earlier ones over the rational functions; with the contents
folded back in, it yields the monic equation. A component I_m starts at
e_m. A combination I0 = mu . I starts at mu and drops that row, since the
constants leave I0 free: the rows from r_1 on give the equation of I0', and
raising every derivative by one gives that of I0.

Everything after the Petrov solves is a polynomial in t alone, so it runs on
the dense kernel `poly._Dense`: the product adj(K) (L - K'), the content
cancellation, the certificate, the iterated rows and their contents, the
dependence and the reduction of the coefficients. `MultiPoly` stays at the
boundaries: `PFSystem.A/a/K/L` and `RatFunc.num/den`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import CertificateFailed, DegenerateK
from .hamiltonian import (
    CriticalValue,
    Hamiltonian,
    MonomialBasis,
    SingularSet,
    critical_values,
    isolate_roots,
    monomial_basis,
)
from .linalg import PolyMatrix, RatFunc, _lcm, _mat_mul, _reduced, first_dependence
from .petrov import OneForm, ideal_representation, petrov_decompose
from .poly import MultiPoly, _Dense, _zgcd


@dataclass(frozen=True)
class PFSystem:
    dim: int
    A: PolyMatrix  # entries in t
    a: MultiPoly  # monic, in t
    K: PolyMatrix
    L: PolyMatrix
    basis: MonomialBasis
    forms: tuple[OneForm, ...]
    hamiltonian: Hamiltonian
    singular: SingularSet
    # cofactor degrees of the derivative forms per row; the classical d(d-1)
    # heuristic is only a starting point and overruns are flagged in reports
    gl_cofactor_degrees: tuple[int, ...] = ()

    def pole_candidates(self) -> list[CriticalValue]:
        return isolate_roots(self.a, "t")

    def gl_degree_overruns(self) -> list[int]:
        cap = self.hamiltonian.degree * (self.hamiltonian.degree - 1)
        return [i for i, g in enumerate(self.gl_cofactor_degrees) if g > cap]


@dataclass(frozen=True)
class ScalarODE:
    """Monic linear equation y^(n) + coeffs[0] y^(n-1) + ... + coeffs[n-1] y = 0
    of order n = len(coeffs); pole_set holds the roots of the coefficient
    denominators. The singular set belongs to the system (`PFSystem.singular`)."""

    coeffs: tuple[RatFunc, ...]
    pole_set: tuple[CriticalValue, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def to_text(self) -> str:
        def dname(k: int) -> str:
            if k == 0:
                return "y"
            if k <= 2:
                return "y" + "'" * k
            return f"y^({k})"

        out = dname(self.order)
        for i, c in enumerate(self.coeffs):
            k = self.order - 1 - i
            if c.is_zero:
                continue
            neg = (-c).to_text()
            pos = c.to_text()
            if pos.startswith("-") or pos.startswith("(-"):
                out += f" - ({neg}) {dname(k)}"
            else:
                out += f" + ({pos}) {dname(k)}"
        return out + " = 0"


def make_basis_forms(basis: MonomialBasis) -> list[OneForm]:
    """For the monomial x^a y^b return (x^(a+1) y^b / (a+1)) dy, so the
    exterior derivative is exactly the monomial times dx ^ dy."""
    forms = []
    for a, b in basis.monomials:
        coef = Fraction(1, a + 1)
        forms.append(OneForm(MultiPoly.zero(), MultiPoly.monomial(coef, x=a + 1, y=b)))
    return forms


def euler_multiplier(H: Hamiltonian) -> MultiPoly:
    """x Hx + y Hy; equals d * H plus lower order terms, and d * H exactly
    for homogeneous H."""
    return MultiPoly.var("x") * H.hx + MultiPoly.var("y") * H.hy


def gelfand_leray_rhs(H: Hamiltonian, omegas: Sequence[OneForm]) -> list[OneForm]:
    """alpha with dH ^ alpha = d((x Hx + y Hy)^2 omega), exactly, for every omega.

    The right side's dx^dy coefficient lies in the gradient ideal by
    construction, so the representation always exists; failure indicates an
    internal error and surfaces as NotInIdeal.
    """
    f2 = euler_multiplier(H) ** 2
    gs = [omega.scale(f2).exterior_coeff() for omega in omegas]
    return [OneForm(a, b) for a, b in ideal_representation(gs, H)]


def assemble_pf_system(H: Hamiltonian) -> PFSystem:
    """Build the polynomial system a(t) I' = A(t) I for the basis periods.

    The K and L rows are one batch of Petrov decompositions, each certified
    by its reconstruction identity and degree bound. K^(-1) goes through the
    exact adjugate over Q[t] (one fraction-free echelon of the columns of K,
    which also gives det K, and a back-substitution per unit vector); the
    common polynomial content of det K and the numerator matrix is cancelled
    and a(t) is made monic. The result is checked against K A = a (L - K')
    and a failure raises CertificateFailed.
    """
    basis = monomial_basis(H)
    forms = make_basis_forms(basis)
    n = len(forms)
    f2 = euler_multiplier(H) ** 2
    alphas = gelfand_leray_rhs(H, forms)
    decs = petrov_decompose([w.scale(f2) for w in forms] + alphas, H, forms)
    k_rows = [[_as_tpoly(c) for c in dec.coeffs] for dec in decs[:n]]
    l_rows = [[_as_tpoly(c) for c in dec.coeffs] for dec in decs[n:]]
    K = PolyMatrix(k_rows)
    L = PolyMatrix(l_rows)
    detK = K.determinant()
    if detK.is_zero:
        raise DegenerateK("period coefficient matrix is singular")
    # from here on every entry is a polynomial in t on the dense kernel
    Kd = _dense(K)
    rhs = [[l - k.derive() for l, k in zip(lrow, krow)] for lrow, krow in zip(_dense(L), Kd)]
    M = _mat_mul(_dense(K.adjugate()), rhs)
    # cancel the common polynomial content, then normalize a to monic
    g = _Dense.from_poly(detK).p
    for e in (e for row in M for e in row if not e.is_zero):
        if len(g) == 1:
            break
        g = _zgcd(g, e.p)[0]
    g = _Dense(Fraction(1), g)
    a = _Dense.from_poly(detK).exact_div(g)
    inv_lc = _Dense.const(1 / a.leading_coeff())
    A = [[e.exact_div(g) * inv_lc for e in row] for row in M]
    a = a.monic()
    if _mat_mul(Kd, A) != [[a * e for e in row] for row in rhs]:
        raise CertificateFailed("the period system fails K A = a (L - K')")
    singular = critical_values(H)
    return PFSystem(
        dim=n,
        A=PolyMatrix([[e.to_poly("t") for e in row] for row in A]),
        a=a.to_poly("t"),
        K=K,
        L=L,
        basis=basis,
        forms=tuple(forms),
        hamiltonian=H,
        singular=singular,
        gl_cofactor_degrees=tuple(alpha.degree for alpha in alphas),
    )


def _as_tpoly(p: MultiPoly) -> MultiPoly:
    if any(v not in ("t",) for v in p.vars):
        raise CertificateFailed("module coefficient involves x or y")
    return p


def _dense(M: PolyMatrix) -> list[list[_Dense]]:
    return [[_Dense.from_poly(e) for e in row] for row in M.entries]


def _iterated_rows(A: PolyMatrix, a: MultiPoly, start: Sequence[Fraction]) -> Iterator[list[_Dense]]:
    """Rows r_j with a^j y^(j) = r_j I for y = start . I and j = 0, 1, ...,
    generated lazily and without end: r_0 = start,
    r_{j+1} = a r_j' + r_j (A - j a' Id)."""
    Ad = _dense(A)
    ad = _Dense.from_poly(a)
    ap = ad.derive()
    r = [_Dense.const(v) for v in start]
    j = 0
    while True:
        yield r
        jap = ap * _Dense.const(j)
        r = [ad * e.derive() - jap * e + f for e, f in zip(r, _mat_mul([r], Ad)[0])]
        j += 1


def _primitive_rows(rows: Iterator[list[_Dense]], contents: list) -> Iterator[list[_Dense]]:
    """The rows r_j / g_j, lazily, with g_j the gcd of the entries of r_j
    (their polynomial gcd times the rational gcd of their contents; 1 for a
    zero row), appended to contents as its row is yielded."""
    for r in rows:
        nonzero = [e for e in r if not e.is_zero]
        g = _Dense.const(1)
        if nonzero:
            p = nonzero[0].p
            for e in nonzero[1:]:
                if len(p) == 1:
                    break
                p = _zgcd(p, e.p)[0]
            num = math.gcd(*(e.c.numerator for e in nonzero))
            den = math.lcm(*(e.c.denominator for e in nonzero))
            g = _Dense(Fraction(num, den), p)
        contents.append(g)
        yield [e.exact_div(g) for e in r]


def _scalar_from_rows(rows: Iterator[list[_Dense]], a: MultiPoly) -> ScalarODE:
    """The monic equation of z from rows a^(j+s) z^(j) = r_j I, any fixed s.

    The elimination runs on the primitive rows p_j = r_j / g_j, whose
    entries share no factor: `first_dependence` gives D p_k = sum_l num_l p_l,
    so r_k = sum_l (num_l g_k / (D g_l)) r_l and
    z^(k) = sum_l (num_l g_k / (D g_l a^(k-l))) z^(l)."""
    contents: list[_Dense] = []
    k, D, num = first_dependence(_primitive_rows(rows, contents))
    ad = _Dense.from_poly(a)
    coeffs = []
    a_power = ad
    pole_poly = ad.monic()
    for l in range(k - 1, -1, -1):
        c_num, c_den = _reduced(-(num[l] * contents[k]), D * contents[l] * a_power)
        coeffs.append(RatFunc._of_reduced(c_num.to_poly("t"), c_den.to_poly("t")))
        if not c_num.is_zero:
            pole_poly = _lcm(pole_poly, c_den)
        a_power = a_power * ad
    return ScalarODE(coeffs=tuple(coeffs), pole_set=tuple(isolate_roots(pole_poly.to_poly("t"), "t")))


def derive_scalar_ode(sys: PFSystem, m: int) -> ScalarODE:
    """Monic scalar equation for the m-th basis period (m is 1-based)."""
    if not 1 <= m <= sys.dim:
        raise ValueError(f"component {m} out of range 1..{sys.dim}")
    rows = _iterated_rows(sys.A, sys.a, [1 if i == m - 1 else 0 for i in range(sys.dim)])
    return _scalar_from_rows(rows, sys.a)


def augment_and_reduce(sys: PFSystem, mu: list[Fraction]) -> ScalarODE:
    """Scalar equation for I0 = sum mu_l I_l: that of I0', from the rows after
    r_0 = mu, with every derivative raised by one. Its order is at most
    dim + 1 and its coefficient of y is zero, so the constants solve it."""
    if len(mu) != sys.dim:
        raise ValueError(f"mu must have {sys.dim} entries")
    rows = _iterated_rows(sys.A, sys.a, mu)
    next(rows)
    ode = _scalar_from_rows(rows, sys.a)
    zero = RatFunc(MultiPoly.zero(), MultiPoly.const(1))
    return replace(ode, coeffs=ode.coeffs + (zero,))
