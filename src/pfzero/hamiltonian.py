"""Hamiltonian analysis: highest homogeneous part, regularity at infinity,
critical values, and the monomial basis of C[x,y] / <Hx~, Hy~>.

Regularity at infinity is decided exactly: the top form factors into pairwise
distinct linear factors iff its dehomogenization in one chart is squarefree
and the remaining chart contributes a factor of multiplicity at most one.
The monomial basis comes from one exact elimination per degree below 2d-2.
Critical values go through resultant elimination to a univariate polynomial
in t whose roots are then isolated numerically and verified against the
critical points of H.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NonIsolatedCritical,
    NotRegularAtInfinity,
    UnsupportedDegree,
)
from .linalg import solve_sparse_exact
from .poly import MultiPoly, _Dense, poly_gcd, resultant

DEFAULT_ISOLATION_RADIUS = 1e-10
CRITICAL_POINT_TOL = 1e-8  # relative size below which a polynomial value counts as zero


# -- basic objects ---------------------------------------------------------


@dataclass(frozen=True)
class Hamiltonian:
    """H with its top form and its partials Hx, Hy, derived once."""

    poly: MultiPoly
    degree: int
    highest_part: MultiPoly
    hx: MultiPoly
    hy: MultiPoly

    @staticmethod
    def from_poly(p: MultiPoly) -> "Hamiltonian":
        return Hamiltonian(
            poly=p, degree=p.degree(), highest_part=highest_part(p), hx=p.derive("x"), hy=p.derive("y")
        )


@dataclass(frozen=True)
class CriticalValue:
    value: complex
    radius: float
    multiplicity: int = 1


@dataclass(frozen=True)
class SingularSet:
    """The affine critical values of H with certified-style radii.

    For H regular at infinity these are all its singular values. For any
    other H atypical values at infinity can add to them; they are not
    searched for, and whether H is regular is `is_regular_at_infinity`'s to
    tell. `count_with_multiplicity` counts the distinct critical points found
    in the plane. `extrema` lists the real critical points (x, y) whose
    Hessian determinant is nonnegative up to rounding: the local extrema and
    degenerate points. No report writes it.
    """

    values: tuple[CriticalValue, ...]
    count_with_multiplicity: int
    extrema: tuple[tuple[float, float], ...] = ()

    def points(self) -> list[complex]:
        return [v.value for v in self.values]

    def is_near(self, z: complex) -> bool:
        """Whether z lies in the disc of a critical value, of radius at least 1e-9."""
        return any(abs(z - v.value) <= max(v.radius, 1e-9) for v in self.values)


@dataclass(frozen=True)
class MonomialBasis:
    """Standard monomials under the staircase of <Hx~, Hy~>, grevlex x > y."""

    monomials: tuple[tuple[int, int], ...]
    leading_term_diagram: tuple[tuple[int, int], ...]


# -- highest part and regularity --------------------------------------------


def highest_part(p: MultiPoly) -> MultiPoly:
    """Homogeneous component of maximal total degree; requires degree >= 2."""
    d = p.degree()
    if d < 2:
        raise UnsupportedDegree(f"degree {d} < 2")
    return p.homogeneous_part(d)


def is_regular_at_infinity(H: Hamiltonian) -> bool:
    """True iff the top form is a product of pairwise distinct linear factors.

    Exact test: dehomogenize on the chart x = 1. The multiplicity of the line
    x = 0 equals d minus the degree of the dehomogenization, and the remaining
    factors are distinct iff that univariate polynomial is squarefree.
    """
    hp = H.highest_part
    d = H.degree
    p = hp.substitute("x", MultiPoly.const(1))  # polynomial in y
    if p.is_zero:
        return False
    if d - p.degree_in("y") > 1:  # multiplicity of the line x = 0
        return False
    return poly_gcd(p, p.derive("y")).is_constant()


# -- staircase -------------------------------------------------------------------


def monomial_basis(H: Hamiltonian) -> MonomialBasis:
    """Standard monomials below the staircase of <Hx~, Hy~>, grevlex x > y.

    Requires H regular at infinity (NotRegularAtInfinity otherwise): then
    Hx~ and Hy~ are a regular sequence of forms of degree d-1, so the
    quotient has min(k+1, 2d-3-k) standard monomials in each degree
    k <= 2d-4 and none from degree 2d-3 on, (d-1)^2 in all. Degree by
    degree, k < 2d-2, the Macaulay rows x^i y^j Hx~ and x^i y^j Hy~ of
    degree k are eliminated with columns swept from x^k down (column b is
    x^(k-b) y^b); the pivot columns are the leading monomials of the
    ideal in degree k and the other columns are standard. A pivot whose
    x- and y-quotients are not pivots one degree lower is a corner of the
    staircase.
    """
    if not is_regular_at_infinity(H):
        raise NotRegularAtInfinity("top form has a repeated linear factor")
    d = H.degree
    hp = H.highest_part
    gens = [hp.derive(v).terms for v in ("x", "y")]
    monos: list[tuple[int, int]] = []
    corners: list[tuple[int, int]] = []
    below: set[int] = set()  # pivot columns one degree lower
    for k in range(2 * d - 2):
        rows = [{b + j: c for (_, b, _), c in g.items()} for g in gens for j in range(k - d + 2)]
        _, pivots = solve_sparse_exact(rows, k + 1)
        lead = set(pivots)
        for b in range(k + 1):
            if b not in lead:
                monos.append((k - b, b))
            elif (b == k or b not in below) and (b == 0 or b - 1 not in below):
                corners.append((k - b, b))
        below = lead
    if len(monos) != (d - 1) ** 2:
        raise NotRegularAtInfinity(
            f"quotient dimension {len(monos)} != {(d - 1) ** 2}"
        )
    return MonomialBasis(monomials=tuple(monos), leading_term_diagram=tuple(sorted(corners)))


# -- univariate root isolation -------------------------------------------------


def yun_squarefree_decomposition(p: MultiPoly, var: str) -> list[tuple[MultiPoly, int]]:
    """[(factor_i, i)] with p = lc * prod factor_i^i, factors squarefree and
    monic; p is a polynomial in var alone, worked on the dense kernel."""
    out = []
    f = _Dense.from_poly(p)
    df = f.derive()
    g = f.gcd(df)
    if g.is_constant():
        return [(f.monic().to_poly(var), 1)]
    w = f.exact_div(g)
    y = df.exact_div(g)
    z = y - w.derive()
    i = 1
    while not w.is_constant():
        if z.is_zero:
            out.append((w.monic().to_poly(var), i))
            break
        h = w.gcd(z)
        if not h.is_constant():
            out.append((h.monic().to_poly(var), i))
            w = w.exact_div(h)
            y2 = z.exact_div(h)
        else:
            y2 = z
        z = y2 - w.derive()
        i += 1
    return out


def _cabs(w: np.ndarray) -> np.ndarray:
    """|w| elementwise, rounded as numpy's scalar abs rounds (hypot of the
    parts); np.abs on arrays can differ from it in the last bit."""
    return np.hypot(w.real, w.imag)


def _newton_polish(coeffs: np.ndarray, dcoeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton's method on the roots z of the polynomial with coefficients
    coeffs (derivative dcoeffs, both lowest degree first), all of them in one
    pass of array operations: (the polished roots, which of them took a step).
    Each root stops on its own, at a zero derivative or after a step below
    1e-16 max(1, |z|), and every operation is elementwise, so it ends where a
    polish of that root alone would."""
    z = z.astype(complex)  # a copy; np.roots gives reals for a factor t
    moved = np.zeros(len(z), dtype=bool)
    live = np.arange(len(z))
    for _ in range(40):
        pv = np.polyval(coeffs[::-1], z[live])
        dv = np.polyval(dcoeffs[::-1], z[live])
        sloped = dv != 0
        live, pv, dv = live[sloped], pv[sloped], dv[sloped]
        step = pv / dv
        z[live] = z[live] - step
        moved[live] = True
        live = live[~(_cabs(step) < 1e-16 * np.maximum(1.0, _cabs(z[live])))]
        if not live.size:
            break
    return z, moved


def isolate_roots(p: MultiPoly, var: str) -> list[CriticalValue]:
    """Numeric root isolation with per-root radii; overlapping discs merge.

    Roots of each squarefree factor come from the companion matrix, get a
    Newton polish together, and receive the radius deg * |p(z)/p'(z)| (a disc
    of that radius around z always contains a root), floored at
    DEFAULT_ISOLATION_RADIUS. A root that Newton moved is a numpy scalar, one
    it left alone a complex.
    """
    if p.is_zero or p.is_constant():
        return []
    found: list[CriticalValue] = []
    for factor, mult in yun_squarefree_decomposition(p, var):
        deg = factor.degree_in(var)
        if deg <= 0:
            continue
        coeffs = np.array([complex(c) for c in factor.univariate_coeffs(var)], dtype=complex)
        dcoeffs = np.array([k * coeffs[k] for k in range(1, len(coeffs))], dtype=complex)
        z, moved = _newton_polish(coeffs, dcoeffs, np.roots(coeffs[::-1]))
        pv = np.polyval(coeffs[::-1], z)
        dv = np.polyval(dcoeffs[::-1], z)
        sloped = dv != 0
        size = np.zeros(len(z))  # 0 where p' vanishes, so the floor applies
        size[sloped] = deg * _cabs(pv[sloped] / dv[sloped])
        for zi, moved_i, size_i in zip(z, moved, size):
            value = zi if moved_i else complex(zi)
            found.append(CriticalValue(value=value, radius=max(DEFAULT_ISOLATION_RADIUS, size_i), multiplicity=mult))
    return merge_close_values(found)


def merge_close_values(values: list[CriticalValue]) -> list[CriticalValue]:
    vals = sorted(values, key=lambda v: (v.value.real, v.value.imag))
    merged: list[CriticalValue] = []
    for v in vals:
        for i, u in enumerate(merged):
            if abs(u.value - v.value) <= u.radius + v.radius:
                w = u.multiplicity + v.multiplicity
                center = (u.value * u.multiplicity + v.value * v.multiplicity) / w
                radius = max(
                    abs(center - u.value) + u.radius, abs(center - v.value) + v.radius
                )
                merged[i] = CriticalValue(center, radius, w)
                break
        else:
            merged.append(v)
    return merged


# -- critical values ------------------------------------------------------------


def _abs_poly(p: MultiPoly) -> MultiPoly:
    """p with every coefficient replaced by its absolute value: evaluated at
    (|x|, |y|) it gives the size of the terms of p at (x, y)."""
    return MultiPoly._of({e: abs(c) for e, c in p.terms.items()})


def _numeric_critical_points(H: Hamiltonian, res_y: MultiPoly) -> list[tuple[complex, complex]]:
    """Critical points of H, polished by Newton from the roots x* of
    res_y = Res_y(Hx, Hy) and the roots in y of Hx(x*, y) and Hy(x*, y).

    Both numeric tests are relative to the size of the evaluated terms, so
    scaling H by a constant scales the critical values and nothing else: a
    polynomial q(x*, y) counts as zero when its coefficients are below
    CRITICAL_POINT_TOL times the terms of q at (|x*|, 1), and a polished
    point is kept when Hx and Hy there are below CRITICAL_POINT_TOL times
    their own terms.
    """
    hx, hy = H.hx, H.hy
    newton = (hx, hy, hx.derive("x"), hx.derive("y"), hy.derive("x"), hy.derive("y"))
    sizes = (_abs_poly(hx), _abs_poly(hy))
    xs = [cv.value for cv in isolate_roots(res_y, "x")]
    pts: list[tuple[complex, complex]] = []
    for xv in xs:
        cands: set[complex] = set()
        for q, q_size in ((hy, sizes[1]), (hx, sizes[0])):
            # roots of q(x*, .) in y
            qc = [q.coeff_in_var("y", k).eval_complex({"x": xv}) for k in range(q.degree_in("y") + 1)]
            arr = np.array(qc, dtype=complex)
            if np.all(np.abs(arr) <= CRITICAL_POINT_TOL * q_size.eval_complex({"x": abs(xv), "y": 1}).real):
                continue
            while len(arr) > 1 and arr[-1] == 0:
                arr = arr[:-1]
            if len(arr) <= 1:
                continue
            for yv in np.roots(arr[::-1]):
                cands.add(complex(yv))
        for yv in cands:
            xr, yr = _newton_2d(newton, xv, yv)
            at, at_abs = {"x": xr, "y": yr}, {"x": abs(xr), "y": abs(yr)}
            if all(
                abs(f.eval_complex(at)) <= CRITICAL_POINT_TOL * g.eval_complex(at_abs).real
                for f, g in zip(newton[:2], sizes)
            ):
                if not any(abs(xr - a) + abs(yr - b) < 1e-7 * (1 + abs(xr) + abs(yr)) for a, b in pts):
                    pts.append((xr, yr))
    return pts


def _newton_2d(polys, x: complex, y: complex):
    """Newton iteration on (Hx, Hy) = 0 from (x, y); polys are Hx, Hy, Hxx,
    Hxy, Hyx and Hyy."""
    x = complex(x)
    y = complex(y)
    for _ in range(60):
        at = {"x": x, "y": y}
        f1, f2, a, b, c, dd = (p.eval_complex(at) for p in polys)
        det = a * dd - b * c
        if det == 0:
            return (x, y)
        dx = (f1 * dd - b * f2) / det
        dy = (a * f2 - f1 * c) / det
        x, y = x - dx, y - dy
        if abs(dx) + abs(dy) < 1e-15 * (1 + abs(x) + abs(y)):
            break
    return (x, y)


def critical_values(H: Hamiltonian) -> SingularSet:
    """All complex critical values of H, by elimination plus verification.

    Res_y(Hx, Hy) and Res_x(Hx, Hy) are formed once. Either one vanishes
    identically iff Hx and Hy share a factor of positive degree in the
    eliminated variable, so a zero one means the critical set is not
    isolated. Route: Res_y(H - t, Hy) and the critical-x polynomial
    Res_y(Hx, Hy) are crossed through Res_x into a univariate polynomial in
    t; its isolated roots are kept when they match the value of H at a
    numerically polished critical point, which prunes the spurious
    combinations resultants allow.

    The isolation floor and the match tolerances are absolute, made for
    values of unit size. So an H whose largest non-constant coefficient s is
    below 1 in absolute value is multiplied by the power of two 2^k that
    brings s into [1, 2), and the values and radii found are divided by 2^k,
    which is exact in binary floating point: critical_values(c H) has the
    count of critical_values(H) and c times its values.
    """
    s = max(abs(c) for e, c in H.poly.terms.items() if any(e))
    if s >= 1:
        return _critical_values(H)
    k = (-(-s.denominator // s.numerator) - 1).bit_length()  # 2^k >= 1/s > 2^(k-1)
    unit = _critical_values(Hamiltonian.from_poly(H.poly * MultiPoly.const(2**k)))
    f = 2.0**-k
    return replace(unit, values=tuple(CriticalValue(v.value * f, v.radius * f, v.multiplicity) for v in unit.values))


def _critical_values(H: Hamiltonian) -> SingularSet:
    hx, hy = H.hx, H.hy
    if hx.is_zero or hy.is_zero:
        raise NonIsolatedCritical("a partial derivative vanishes identically")
    res = {v: resultant(hx, hy, v) for v in ("y", "x")}
    if res["y"].is_zero or res["x"].is_zero:
        raise NonIsolatedCritical("partials share a nonconstant factor")

    Ht = H.poly - MultiPoly.var("t")
    candidates: list[CriticalValue] = []
    for main, other in (("x", "y"), ("y", "x")):
        g1 = res[other]
        G = hy if other == "y" else hx
        coeffs = [G.coeff_in_var(other, k) for k in range(G.degree_in(other) + 1)]
        if g1.is_constant() or not functools.reduce(poly_gcd, coeffs, g1).is_constant():
            # at a common root x* of g1 and of G's coefficients in `other`,
            # every Sylvester row of G vanishes, so T = 0
            continue
        A = resultant(Ht, G, other)
        if A.is_zero:
            continue
        T = resultant(A, g1, main)
        if T.is_zero or T.degree_in("t") <= 0:
            continue
        candidates = isolate_roots(T, "t")
        break
    pts = _numeric_critical_points(H, res["y"])
    values = [H.poly.eval_complex({"x": x, "y": y}) for (x, y) in pts]
    kept: list[CriticalValue] = []
    for cv in candidates:
        match_tol = max(cv.radius * 4, 1e-7 * (1 + abs(cv.value)))
        if any(abs(cv.value - v) <= match_tol for v in values):
            kept.append(cv)
    # values found numerically but missing from the eliminant (should not
    # happen; kept as a safety net)
    for v in values:
        if not any(abs(v - cv.value) <= max(cv.radius * 4, 1e-7 * (1 + abs(v))) for cv in kept):
            kept.append(CriticalValue(v, DEFAULT_ISOLATION_RADIUS, 1))
    # real critical points with Hxx Hyy - Hxy^2 >= 0 up to rounding: the
    # extrema, and degenerate points such as the origin of x^4 + y^4
    hess = (hx.derive("x"), hx.derive("y"), hy.derive("y"))
    extrema = []
    for x, y in pts:
        if abs(x.imag) + abs(y.imag) <= 1e-9 * (1 + abs(x) + abs(y)):
            a, b, c = (h.eval_complex({"x": x.real, "y": y.real}).real for h in hess)
            if a * c - b * b >= -1e-9 * (a * a + b * b + c * c):
                extrema.append((x.real, y.real))
    merged = merge_close_values(kept)
    return SingularSet(values=tuple(merged), count_with_multiplicity=len(pts), extrema=tuple(extrema))
