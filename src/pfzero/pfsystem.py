"""Assembly of the period system a(t) I' = A(t) I and its scalar reductions.

Row l of the system comes from decomposing (x Hx + y Hy)^2 omega_l (matrix K)
and the derivative-of-period form of the same integrand (matrix L); then
A / a = K^(-1) (L - K') over the rational functions, cleared to a polynomial
matrix over a single monic denominator a(t). The result is certified by the
polynomial identity K A = a (L - K').

Scalar equations for single components use the iterated rows
a^j I_m^(j) = r_j I, generated lazily by the row recurrence r_0 = e_m,
r_{j+1} = a r_j' + r_j (A - j a' Id) (row m of the matrix recurrence; the
other rows are never needed). One incremental fraction-free elimination
stops at the first row that depends on the earlier ones over the rational
functions and yields the monic equation. Appending the row
I0' = mu^T (A/a) I gives the equation satisfied by an arbitrary combination
of the basis periods, whose solutions always include the constants.

Everything after the Petrov solves is a polynomial in t alone, so it runs on
the dense kernel `poly._Dense`: the product adj(K) (L - K'), the content
cancellation, the certificate, the iterated rows, the dependence and the
reduction of the coefficients. `MultiPoly` stays at the boundaries:
`PFSystem.A/a/K/L` and `RatFunc.num/den`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

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
    """Monic linear equation y^(n) + coeffs[0] y^(n-1) + ... + coeffs[n-1] y = 0."""

    order: int
    coeffs: tuple[RatFunc, ...]
    pole_set: tuple[CriticalValue, ...]
    true_singularities: SingularSet | None = None

    def __post_init__(self):
        if len(self.coeffs) != self.order:
            raise ValueError("coefficient count must equal the order")

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


def gelfand_leray_rhs(H: Hamiltonian, omega: OneForm) -> OneForm:
    """alpha with dH ^ alpha = d((x Hx + y Hy)^2 omega), exactly.

    The right side's dx^dy coefficient lies in the gradient ideal by
    construction, so the representation always exists; failure indicates an
    internal error and surfaces as NotInIdeal.
    """
    f2 = euler_multiplier(H) ** 2
    g = omega.scale(f2).exterior_coeff()
    a, b = ideal_representation(g, H)
    return OneForm(a, b)


def assemble_pf_system(H: Hamiltonian) -> PFSystem:
    """Build the polynomial system a(t) I' = A(t) I for the basis periods.

    K^(-1) goes through the exact adjugate over Q[t] (one fraction-free
    Gauss-Jordan elimination); the common polynomial content of det K and the
    numerator matrix is cancelled and a(t) is made monic. The result is
    checked against K A = a (L - K') and a failure raises CertificateFailed.
    """
    basis = monomial_basis(H)
    forms = make_basis_forms(basis)
    n = len(forms)
    d = H.degree
    f2 = euler_multiplier(H) ** 2

    k_rows = []
    l_rows = []
    gl_degrees = []
    for ell in range(n):
        dec_k = petrov_decompose(forms[ell].scale(f2), H, forms)
        for c in dec_k.coeffs:
            if c.degree_in("t") > d:
                raise CertificateFailed("module coefficient exceeds the degree bound")
        k_rows.append([_as_tpoly(c) for c in dec_k.coeffs])
        alpha = gelfand_leray_rhs(H, forms[ell])
        gl_degrees.append(alpha.degree)
        dec_l = petrov_decompose(alpha, H, forms)
        l_rows.append([_as_tpoly(c) for c in dec_l.coeffs])
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
        gl_cofactor_degrees=tuple(gl_degrees),
    )


def _as_tpoly(p: MultiPoly) -> MultiPoly:
    if any(v not in ("t",) for v in p.vars):
        raise CertificateFailed("module coefficient involves x or y")
    return p


def _dense(M: PolyMatrix) -> list[list[_Dense]]:
    return [[_Dense.from_poly(e) for e in row] for row in M.entries]


def _iterated_rows(A: PolyMatrix, a: MultiPoly, m_index: int) -> Iterator[list[_Dense]]:
    """Rows r_j with a^j I_m^(j) = r_j I for j = 0, 1, ..., generated lazily
    and without end: r_0 = e_m, r_{j+1} = a r_j' + r_j (A - j a' Id)."""
    n = A.rows
    Ad = _dense(A)
    ad = _Dense.from_poly(a)
    ap = ad.derive()
    r = [_Dense.const(1 if i == m_index else 0) for i in range(n)]
    j = 0
    while True:
        yield r
        jap = ap * _Dense.const(j)
        nxt = []
        for c in range(n):
            acc = ad * r[c].derive() - jap * r[c]
            for i in range(n):
                if not r[i].is_zero and not Ad[i][c].is_zero:
                    acc = acc + r[i] * Ad[i][c]
            nxt.append(acc)
        r = nxt
        j += 1


def _scalar_from_matrix(
    A: PolyMatrix,
    a: MultiPoly,
    m_index: int,
    singular: SingularSet | None,
) -> ScalarODE:
    # D r_k = sum_l num_l r_l, so I^(k) = sum_l (num_l / (D a^(k-l))) I^(l)
    k, D, num = first_dependence(_iterated_rows(A, a, m_index))
    ad = _Dense.from_poly(a)
    coeffs = []
    a_power = ad
    pole_poly = ad.monic()
    for l in range(k - 1, -1, -1):
        c_num, c_den = _reduced(-num[l], D * a_power)
        coeffs.append(RatFunc._of_reduced(c_num.to_poly("t"), c_den.to_poly("t")))
        if not c_num.is_zero:
            pole_poly = _lcm(pole_poly, c_den)
        a_power = a_power * ad
    poles = tuple(isolate_roots(pole_poly.to_poly("t"), "t"))
    return ScalarODE(order=k, coeffs=tuple(coeffs), pole_set=poles, true_singularities=singular)


def derive_scalar_ode(sys: PFSystem, m: int) -> ScalarODE:
    """Monic scalar equation for the m-th basis period (m is 1-based)."""
    if not 1 <= m <= sys.dim:
        raise ValueError(f"component {m} out of range 1..{sys.dim}")
    return _scalar_from_matrix(sys.A, sys.a, m - 1, sys.singular)


def augment_and_reduce(sys: PFSystem, mu: list[Fraction]) -> ScalarODE:
    """Scalar equation for I0 = sum mu_l I_l via the augmented system.

    The augmented matrix carries I0 in component 0; its equation has order at
    most dim + 1 and constants are always solutions (the coefficient of y in
    the result vanishes identically).
    """
    n = sys.dim
    if len(mu) != n:
        raise ValueError(f"mu must have {n} entries")
    mu = [Fraction(v) for v in mu]
    zero = MultiPoly.zero()
    top = [zero] + [
        sum(
            (MultiPoly.const(mu[l]) * sys.A[l, j] for l in range(n)),
            start=zero,
        )
        for j in range(n)
    ]
    rows = [top]
    for i in range(n):
        rows.append([zero] + sys.A.row(i))
    Ahat = PolyMatrix(rows)
    ode = _scalar_from_matrix(Ahat, sys.a, 0, sys.singular)
    const_coeff = ode.coeffs[-1]
    if not const_coeff.is_zero:
        raise CertificateFailed("constants are not annihilated by the augmented equation")
    return ode
