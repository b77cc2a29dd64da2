"""Decomposition of polynomial 1-forms modulo exact forms and multiples of dH.

Every form is written as

    omega = sum_i c_i(H) * omega_i  +  dA  +  B dH

with the basis forms omega_i attached to the standard monomials of the top
Jacobian quotient. The dx component determines A up to a function of y once B
is fixed (A = int_x(P - B Hx) + phi(y)), so only B, phi and the c_i survive
into the linear system, which is solved exactly.

The companion problem g = Hx * b - Hy * a (membership in the gradient ideal)
is solved the same way and feeds the derivative-of-period construction.
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
    ansatz_degree: int  # degree allowed for A when the solve succeeded

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
        acc_P = acc_P + self.A.derive("x") + self.B * H.hx()
        acc_Q = acc_Q + self.A.derive("y") + self.B * H.hy()
        return OneForm(acc_P, acc_Q)


def _monomials_upto(deg: int) -> list[tuple[int, int]]:
    out = [(u, v) for u in range(deg + 1) for v in range(deg + 1 - u)]
    out.sort(key=lambda uv: grevlex_key(uv))
    return out


def ideal_representation(
    g: MultiPoly, H: Hamiltonian, deg_cap: int
) -> tuple[MultiPoly, MultiPoly]:
    """Find (a, b) with Hx * b - Hy * a = g, degrees at most deg_cap.

    Coefficient matching with degree escalation starting at deg(g) - d + 1.
    Raises NotInIdeal when the system stays inconsistent at the cap.
    """
    hx, hy = H.hx(), H.hy()
    d = H.degree
    start = max(g.degree() - d + 1, 0)
    if g.is_zero:
        return MultiPoly.zero(), MultiPoly.zero()
    m = min(start, deg_cap)
    while True:
        monos = _monomials_upto(m)
        ncols = 2 * len(monos)
        cols: list[dict] = []
        for u, v in monos:  # b block first
            cols.append((hx * MultiPoly.monomial(1, x=u, y=v)).extended(("x", "y")))
        for u, v in monos:  # a block, negated
            cols.append((-hy * MultiPoly.monomial(1, x=u, y=v)).extended(("x", "y")))
        rows: dict[tuple, dict] = {}
        for j, col in enumerate(cols):
            for e, c in col.items():
                rows.setdefault(e, {})[j] = c
        for e, c in g.extended(("x", "y")).items():
            rows.setdefault(e, {})[RHS] = c
        try:
            sol, _rank = solve_sparse_exact(list(rows.values()), ncols)
        except Inconsistent:
            if m >= deg_cap:
                raise NotInIdeal(
                    f"no representation with cofactor degree <= {deg_cap}"
                )
            m = min(m + 1, deg_cap)
            continue
        b = MultiPoly.zero()
        a = MultiPoly.zero()
        for (u, v), coef in zip(monos, sol[: len(monos)]):
            if coef:
                b = b + MultiPoly.monomial(coef, x=u, y=v)
        for (u, v), coef in zip(monos, sol[len(monos) :]):
            if coef:
                a = a + MultiPoly.monomial(coef, x=u, y=v)
        if hx * b - hy * a != g:
            raise CertificateFailed("ideal representation residual is not zero")
        return a, b


def petrov_decompose(
    omega: OneForm, H: Hamiltonian, forms: list[OneForm]
) -> PetrovDecomposition:
    """Exact decomposition against the given basis forms.

    The c_i degree caps come from the module degree bound
    deg c_i <= (deg omega - deg omega_i) / d; the (A, B) ansatz degree starts
    low and doubles, capped at d^3 * max(deg omega, d). When the system is
    solvable the c_i are unique; (A, B) follow the deterministic
    free-variables-to-zero rule of the sparse eliminator.
    """
    d = H.degree
    hx, hy = H.hx(), H.hy()
    degw = max(omega.degree, 0)
    caps = []
    for w in forms:
        cap = (degw - w.degree) // d if degw >= w.degree else -1
        caps.append(cap)
    rhs_poly = omega.Q - omega.P.integrate("x").derive("y")
    hard_cap = d**3 * max(degw, d)
    m_B = max(degw - d + 1, 0)
    while True:
        sol = _try_decompose(omega, H, forms, caps, m_B, rhs_poly)
        if sol is not None:
            coeffs, B, phi = sol
            A = (omega.P - B * hx).integrate("x") + phi
            dec = PetrovDecomposition(
                coeffs=tuple(coeffs), A=A, B=B, ansatz_degree=max(A.degree(), B.degree(), 0)
            )
            recon = dec.reconstruct(H, forms)
            if recon.P != omega.P or recon.Q != omega.Q:
                raise CertificateFailed("Petrov reconstruction residual is not zero")
            return dec
        if m_B + d >= hard_cap:
            raise DecompositionFailed(
                f"no decomposition with deg(A) <= {hard_cap}; "
                "either the Hamiltonian is not regular at infinity or the cap is too low"
            )
        m_B = min(2 * m_B + d, hard_cap)


def _try_decompose(omega, H, forms, caps, m_B, rhs_poly):
    d = H.degree
    hx, hy = H.hx(), H.hy()
    columns: list[dict] = []
    meta: list[tuple] = []
    hpowers = [MultiPoly.const(1)]
    for i, w in enumerate(forms):
        for r in range(caps[i] + 1):
            while len(hpowers) <= r:
                hpowers.append(hpowers[-1] * H.poly)
            columns.append((hpowers[r] * w.Q).extended(("x", "y")))
            meta.append(("c", i, r))
    for u, v in _monomials_upto(m_B):
        mono = MultiPoly.monomial(1, x=u, y=v)
        col = hy * mono - (hx * mono).integrate("x").derive("y")
        columns.append(col.extended(("x", "y")))
        meta.append(("B", u, v))
    m_phi = max(rhs_poly.degree_in("y"), m_B + d, 1) + 1
    for k in range(1, m_phi + 1):
        columns.append({(0, k - 1): Fraction(k)})
        meta.append(("phi", k, 0))
    rows: dict[tuple, dict] = {}
    for j, col in enumerate(columns):
        for e, c in col.items():
            rows.setdefault(e, {})[j] = c
    for e, c in rhs_poly.extended(("x", "y")).items():
        rows.setdefault(e, {})[RHS] = c
    try:
        sol, _rank = solve_sparse_exact(list(rows.values()), len(columns))
    except Inconsistent:
        return None
    coeffs = [MultiPoly.zero() for _ in forms]
    B = MultiPoly.zero()
    phi = MultiPoly.zero()
    for val, tag in zip(sol, meta):
        if not val:
            continue
        kind = tag[0]
        if kind == "c":
            _, i, r = tag
            coeffs[i] = coeffs[i] + MultiPoly.monomial(val, t=r)
        elif kind == "B":
            _, u, v = tag
            B = B + MultiPoly.monomial(val, x=u, y=v)
        else:
            _, k, _ = tag
            phi = phi + MultiPoly.monomial(val, y=k)
    return coeffs, B, phi
