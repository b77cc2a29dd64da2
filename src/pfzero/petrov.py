"""Decomposition of polynomial 1-forms modulo exact forms and multiples of dH.

Every form is written as

    omega = sum_i c_i(H) * omega_i  +  dA  +  B dH

with the basis forms omega_i attached to the standard monomials of the top
Jacobian quotient. The dx component determines A up to a function of y once B
is fixed (A = int_x(P - B Hx) + phi(y)), so only B, phi and the c_i survive
into the linear system, which is solved exactly.

The companion problem g = Hx * b - Hy * a (membership in the gradient ideal)
is solved the same way and feeds the derivative-of-period construction.
Both are coefficient matchings at the degree that regularity at infinity
fixes; there is no degree search. Both take a batch: `petrov_decompose`
builds the columns once, at the largest degree of the batch, and runs one
elimination with a right-hand side per form, and `ideal_representation`
runs one elimination per distinct cofactor degree. Every result carries its
own certificate (reconstruction identity, degree bound, ideal residual).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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

    def scale(self, p) -> "OneForm":
        return OneForm(self.P * p, self.Q * p)

    def exterior_coeff(self) -> MultiPoly:
        """g with d(P dx + Q dy) = g dx ^ dy."""
        return self.Q.derive("x") - self.P.derive("y")


@dataclass(frozen=True)
class PetrovDecomposition:
    coeffs: tuple[MultiPoly, ...]  # c_i(t), polynomials in t
    A: MultiPoly
    B: MultiPoly
    ansatz_degree: int  # max(deg A, deg B, 0) of the solution found

    def reconstruct(self, H: Hamiltonian, forms: list[OneForm]) -> OneForm:
        """Exact right-hand side sum; equals the decomposed form. The module
        part sum_i c_i(H) omega_i is summed by Horner's rule in H."""
        cs = [c.univariate_coeffs("t") for c in self.coeffs]
        acc_P = acc_Q = MultiPoly.zero()
        for r in range(max(map(len, cs), default=0) - 1, -1, -1):
            acc_P = acc_P * H.poly
            acc_Q = acc_Q * H.poly
            for c, w in zip(cs, forms):
                if r < len(c) and c[r]:
                    acc_P = acc_P + w.P * c[r]
                    acc_Q = acc_Q + w.Q * c[r]
        acc_P = acc_P + self.A.derive("x") + self.B * H.hx
        acc_Q = acc_Q + self.A.derive("y") + self.B * H.hy
        return OneForm(acc_P, acc_Q)


def _monomials_upto(deg: int) -> list[tuple[int, int]]:
    out = [(u, v) for u in range(deg + 1) for v in range(deg + 1 - u)]
    out.sort(key=lambda uv: grevlex_key(uv))
    return out


def _match_coefficients(columns: list[MultiPoly], rhss: list[MultiPoly]) -> list[list[Fraction]]:
    """Exact solutions s of sum_j s_j columns[j] = rhs, one per rhs, by
    matching the coefficients of every monomial in one elimination;
    raises Inconsistent when any rhs has none."""
    rows: dict[tuple, dict] = {}
    for j, col in enumerate(columns):
        for e, c in col.terms.items():
            rows.setdefault(e, {})[j] = c
    for r, rhs in enumerate(rhss):
        for e, c in rhs.terms.items():
            rows.setdefault(e, {})[RHS - r] = c
    sols, _pivots = solve_sparse_exact(list(rows.values()), len(columns), len(rhss))
    return sols


def _poly_of(sol, monos: list[tuple[int, int]]) -> MultiPoly:
    return MultiPoly(("x", "y"), {uv: coef for uv, coef in zip(monos, sol) if coef})


def ideal_representation(
    gs: Sequence[MultiPoly], H: Hamiltonian
) -> list[tuple[MultiPoly, MultiPoly]]:
    """For every g find (a, b) with Hx * b - Hy * a = g and deg a, deg b <= deg g - d + 1.

    Requires H regular at infinity. Then Hx~ and Hy~ are a regular sequence,
    so {Hx, Hy} is an H-basis of the gradient ideal: every member g has a
    representation with deg(b Hx), deg(a Hy) <= deg g, and one coefficient
    matching at that cofactor degree decides membership. The g of one
    cofactor degree share one elimination; its columns are those of a batch
    of one, so each g gets the (a, b) a solve of its own would give. Raises
    NotInIdeal when a matching is inconsistent, which for an H not regular
    at infinity may also happen to a member of the ideal.
    """
    hx, hy = H.hx, H.hy
    out = [(MultiPoly.zero(), MultiPoly.zero())] * len(gs)
    by_degree: dict[int, list[int]] = {}
    for i, g in enumerate(gs):
        if not g.is_zero:
            by_degree.setdefault(max(g.degree() - H.degree + 1, 0), []).append(i)
    monos = _monomials_upto(max(by_degree, default=0))
    b_cols = [hx * MultiPoly.monomial(1, x=u, y=v) for u, v in monos]
    a_cols = [-hy * MultiPoly.monomial(1, x=u, y=v) for u, v in monos]  # negated
    for m, idx in sorted(by_degree.items()):
        k = (m + 1) * (m + 2) // 2  # the monomials of degree <= m lead the grevlex order
        try:
            sols = _match_coefficients(b_cols[:k] + a_cols[:k], [gs[i] for i in idx])
        except Inconsistent:
            raise NotInIdeal(f"no representation with cofactor degree <= {m}") from None
        for i, sol in zip(idx, sols):
            b = _poly_of(sol[:k], monos)
            a = _poly_of(sol[k:], monos)
            if hx * b - hy * a != gs[i]:
                raise CertificateFailed("ideal representation residual is not zero")
            out[i] = (a, b)
    return out


def petrov_decompose(
    omegas: Sequence[OneForm], H: Hamiltonian, forms: list[OneForm]
) -> list[PetrovDecomposition]:
    """Exact decompositions of a batch of forms against the given basis forms.

    Requires H regular at infinity. The c_i degree caps come from the module
    degree bound deg c_i <= (deg omega - deg omega_i) / d, and B is sought
    with deg B <= deg omega - d + 1 (Gavrilov, "Petrov modules and zeros of
    Abelian integrals", Bull. Sci. Math. 122 (1998)), so one exact solve
    decides; an inconsistent one raises DecompositionFailed, which for an H
    not regular at infinity may also happen to a decomposable form. The
    whole batch is one elimination with one right-hand side per form, over
    the columns of its largest degree. The module is free, so each form's
    c_i are unique and equal to those of a batch of one, and they are
    certified against the degree bound of the form's own degree; (A, B)
    follow the deterministic free-variables-to-zero rule of the sparse
    eliminator for the batch's columns.
    """
    d = H.degree
    hx, hy = H.hx, H.hy
    degs = [max(omega.degree, 0) for omega in omegas]
    degw = max(degs, default=0)
    rhs_polys = [omega.Q - omega.P.integrate("x").derive("y") for omega in omegas]
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
    m_phi = max(max((p.degree_in("y") for p in rhs_polys), default=0), m_B + d, 1) + 1
    for k in range(1, m_phi + 1):
        columns.append(MultiPoly.monomial(k, y=k - 1))
    try:
        sols = _match_coefficients(columns, rhs_polys)
    except Inconsistent:
        raise DecompositionFailed(
            f"no decomposition with deg B <= {m_B}: H is not regular at infinity "
            "or the forms do not span the quotient"
        ) from None
    n_c = len(c_slots)
    out = []
    for omega, deg, sol in zip(omegas, degs, sols):
        coeffs = [MultiPoly.zero() for _ in forms]
        for (i, r), val in zip(c_slots, sol):
            if val:
                if r * d > deg - forms[i].degree:
                    raise CertificateFailed("module coefficient exceeds the degree bound")
                coeffs[i] = coeffs[i] + MultiPoly.monomial(val, t=r)
        B = _poly_of(sol[n_c : n_c + len(b_monos)], b_monos)
        phi = _poly_of(sol[n_c + len(b_monos) :], [(0, k) for k in range(1, m_phi + 1)])
        A = (omega.P - B * hx).integrate("x") + phi
        dec = PetrovDecomposition(
            coeffs=tuple(coeffs), A=A, B=B, ansatz_degree=max(A.degree(), B.degree(), 0)
        )
        recon = dec.reconstruct(H, forms)
        if recon.P != omega.P or recon.Q != omega.Q:
            raise CertificateFailed("Petrov reconstruction residual is not zero")
        out.append(dec)
    return out
