"""Decomposition of polynomial 1-forms modulo exact forms and multiples of dH.

Every form is written as

    omega = sum_i c_i(H) * omega_i  +  dA  +  B dH

with the basis forms omega_i attached to the standard monomials of the top
Jacobian quotient. The dx component determines A up to a function of y once B
is fixed (A = int_x(P - B Hx) + phi(y)), so only B, phi and the c_i survive
into the linear system, which is solved exactly.

The companion problem g = Hx * b - Hy * a (membership in the gradient ideal)
is solved the same way and feeds the derivative-of-period construction.
Both are one coefficient-matching solve at the degree that regularity at
infinity fixes; there is no degree search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateFailed, DecompositionFailed, Inconsistent, NotInIdeal
from .hamiltonian import Hamiltonian
from .linalg import RHS, solve_sparse_exact
from .poly import MultiPoly, grevlex_key


@dataclass(frozen=True)
class OneForm:
    """P dx + Q dy with polynomial coefficients in x, y."""

    P: MultiPoly
    Q: MultiPoly

    @property
    def degree(self) -> int:
        return max(self.P.degree(), self.Q.degree())

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.P + other.P, self.Q + other.Q)

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.P - other.P, self.Q - other.Q)

    def __neg__(self) -> "OneForm":
        return OneForm(-self.P, -self.Q)

    def scale(self, p) -> "OneForm":
        return OneForm(self.P * p, self.Q * p)

    def exterior_coeff(self) -> MultiPoly:
        """g with d(P dx + Q dy) = g dx ^ dy."""
        return self.Q.derive("x") - self.P.derive("y")

    @property
    def is_zero(self) -> bool:
        return self.P.is_zero and self.Q.is_zero

    def to_text(self) -> str:
        return f"({self.P.to_text()}) dx + ({self.Q.to_text()}) dy"


@dataclass(frozen=True)
class PetrovDecomposition:
    coeffs: tuple[MultiPoly, ...]  # c_i(t), polynomials in t
    A: MultiPoly
    B: MultiPoly
    ansatz_degree: int  # max(deg A, deg B, 0) of the solution found

    def reconstruct(self, H: Hamiltonian, forms: list[OneForm]) -> OneForm:
        """Exact right-hand side sum; equals the decomposed form."""
        acc_P = MultiPoly.zero()
        acc_Q = MultiPoly.zero()
        for c, w in zip(self.coeffs, forms):
            if c.is_zero:
                continue
            cH = c.substitute("t", H.poly)
            acc_P = acc_P + cH * w.P
            acc_Q = acc_Q + cH * w.Q
        acc_P = acc_P + self.A.derive("x") + self.B * H.hx
        acc_Q = acc_Q + self.A.derive("y") + self.B * H.hy
        return OneForm(acc_P, acc_Q)


def _monomials_upto(deg: int) -> list[tuple[int, int]]:
    out = [(u, v) for u in range(deg + 1) for v in range(deg + 1 - u)]
    out.sort(key=lambda uv: grevlex_key(uv))
    return out


def _match_coefficients(columns: list[MultiPoly], rhs: MultiPoly) -> list[Fraction]:
    """Exact solution s of sum_j s_j columns[j] = rhs by matching the
    coefficients of every monomial in x, y; raises Inconsistent."""
    rows: dict[tuple, dict] = {}
    for j, col in enumerate(columns):
        for e, c in col.extended(("x", "y")).items():
            rows.setdefault(e, {})[j] = c
    for e, c in rhs.extended(("x", "y")).items():
        rows.setdefault(e, {})[RHS] = c
    sol, _pivots = solve_sparse_exact(list(rows.values()), len(columns))
    return sol


def _poly_of(sol, monos: list[tuple[int, int]]) -> MultiPoly:
    acc = MultiPoly.zero()
    for (u, v), coef in zip(monos, sol):
        if coef:
            acc = acc + MultiPoly.monomial(coef, x=u, y=v)
    return acc


def ideal_representation(g: MultiPoly, H: Hamiltonian) -> tuple[MultiPoly, MultiPoly]:
    """Find (a, b) with Hx * b - Hy * a = g and deg a, deg b <= deg g - d + 1.

    Requires H regular at infinity. Then Hx~ and Hy~ are a regular sequence,
    so {Hx, Hy} is an H-basis of the gradient ideal: every member g has a
    representation with deg(b Hx), deg(a Hy) <= deg g, and one coefficient
    matching at that cofactor degree decides membership. Raises NotInIdeal
    when it is inconsistent, which for an H not regular at infinity may also
    happen to a member of the ideal.
    """
    if g.is_zero:
        return MultiPoly.zero(), MultiPoly.zero()
    hx, hy = H.hx, H.hy
    m = max(g.degree() - H.degree + 1, 0)
    monos = _monomials_upto(m)
    cols = [hx * MultiPoly.monomial(1, x=u, y=v) for u, v in monos]  # b block first
    cols += [-hy * MultiPoly.monomial(1, x=u, y=v) for u, v in monos]  # a block, negated
    try:
        sol = _match_coefficients(cols, g)
    except Inconsistent:
        raise NotInIdeal(f"no representation with cofactor degree <= {m}") from None
    b = _poly_of(sol[: len(monos)], monos)
    a = _poly_of(sol[len(monos) :], monos)
    if hx * b - hy * a != g:
        raise CertificateFailed("ideal representation residual is not zero")
    return a, b


def petrov_decompose(
    omega: OneForm, H: Hamiltonian, forms: list[OneForm]
) -> PetrovDecomposition:
    """Exact decomposition against the given basis forms.

    Requires H regular at infinity. The c_i degree caps come from the module
    degree bound deg c_i <= (deg omega - deg omega_i) / d, and B is sought
    with deg B <= deg omega - d + 1 (Gavrilov, "Petrov modules and zeros of
    Abelian integrals", Bull. Sci. Math. 122 (1998)), so one exact solve
    decides; an inconsistent one raises DecompositionFailed, which for an H
    not regular at infinity may also happen to a decomposable form. When the
    system is solvable the c_i are unique; (A, B) follow the deterministic
    free-variables-to-zero rule of the sparse eliminator.
    """
    d = H.degree
    hx, hy = H.hx, H.hy
    degw = max(omega.degree, 0)
    rhs_poly = omega.Q - omega.P.integrate("x").derive("y")
    # unknowns: c_i = sum_r c_ir t^r, then B, then phi(y) = sum_k phi_k y^k
    columns: list[MultiPoly] = []
    c_slots: list[tuple[int, int]] = []
    hpowers = [MultiPoly.const(1)]
    for i, w in enumerate(forms):
        for r in range((degw - w.degree) // d + 1 if degw >= w.degree else 0):
            while len(hpowers) <= r:
                hpowers.append(hpowers[-1] * H.poly)
            columns.append(hpowers[r] * w.Q)
            c_slots.append((i, r))
    m_B = max(degw - d + 1, 0)
    b_monos = _monomials_upto(m_B)
    for u, v in b_monos:
        mono = MultiPoly.monomial(1, x=u, y=v)
        columns.append(hy * mono - (hx * mono).integrate("x").derive("y"))
    m_phi = max(rhs_poly.degree_in("y"), m_B + d, 1) + 1
    for k in range(1, m_phi + 1):
        columns.append(MultiPoly.monomial(k, y=k - 1))
    try:
        sol = _match_coefficients(columns, rhs_poly)
    except Inconsistent:
        raise DecompositionFailed(
            f"no decomposition with deg B <= {m_B}: H is not regular at infinity "
            "or the forms do not span the quotient"
        ) from None
    coeffs = [MultiPoly.zero() for _ in forms]
    for (i, r), val in zip(c_slots, sol):
        if val:
            coeffs[i] = coeffs[i] + MultiPoly.monomial(val, t=r)
    n_c = len(c_slots)
    B = _poly_of(sol[n_c : n_c + len(b_monos)], b_monos)
    phi = _poly_of(sol[n_c + len(b_monos) :], [(0, k) for k in range(1, m_phi + 1)])
    A = (omega.P - B * hx).integrate("x") + phi
    dec = PetrovDecomposition(
        coeffs=tuple(coeffs), A=A, B=B, ansatz_degree=max(A.degree(), B.degree(), 0)
    )
    recon = dec.reconstruct(H, forms)
    if recon.P != omega.P or recon.Q != omega.Q:
        raise CertificateFailed("Petrov reconstruction residual is not zero")
    return dec
