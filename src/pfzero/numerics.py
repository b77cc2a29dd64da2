"""Numeric oracle: cycles on level curves, period integrals, continuation.

Cycles are closed polylines on {H = t} in C^2, stored as an (N, 2) complex
array of points (columns x and y). Two constructors exist:

* `trace_cycle` follows a compact real oval with a predictor-corrector
  marcher (points have zero imaginary part). A compact oval bounds a disc
  holding a local extremum of H, so `make_cycle` seeds it on the horizontal
  line through each real extremum.
* `branch_point_cycle` builds a genuinely complex cycle for Hamiltonians of
  y-degree two, by lifting a closed x-plane contour that encircles exactly
  two branch points of the y-projection. This covers level curves without
  compact real components, such as those of saddles-only Hamiltonians.

Both kinds share one projector onto a level set: Newton steps of least norm,
applied to all nodes at once. Refinement projects chord midpoints onto the
curve, and the cycles at nearby levels t +- h of the residual check are the
nodes of the base cycle projected onto those levels.

Periods are computed chord-wise with Gauss-Legendre nodes (exact for the
polygon) and Richardson extrapolation over dyadic refinements of the
polyline, which converges to the curve integral with an error estimate. A
cycle is refined once per level and every basis form is integrated on that
refinement; each form's Richardson column stops at the first level that
meets the tolerance, and the refinement stops when every column has.
Continuation of period vectors in complex t integrates the polynomial system
with an adaptive high-order Runge-Kutta method.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    NearCritical,
    NotCompactComponent,
    NumericFailure,
    PathTooClose,
    StiffnessFailure,
)
from .hamiltonian import Hamiltonian, SingularSet
from .petrov import OneForm
from .pfsystem import PFSystem
from .poly import MultiPoly
from .zerocount import _dist_point_segment


# real oval marcher
TURN_TARGET = 0.06  # radians of tangent turn per step
H_INIT = 1e-3
H_MIN = 1e-10
H_MAX = 0.2
MAX_STEPS = 200_000
ON_CURVE_TOL = 1e-12
BBOX_FLOOR = 10.0

# Richardson quadrature
ABS_TOL = 1e-12  # floor for periods that vanish identically
MAX_LEVELS = 14
MIN_POINTS = 64
RESIDUAL_REL_TOL = 1e-12  # periods behind the residual check
FD_STEP = 1e-5  # central-difference step of the residual check, relative to max(1, |t|)

BRANCH_LIFT_POINTS = 256  # first sample count of a branch lift

# continuation
PATH_MARGIN = 1e-3  # least distance from a path segment to a pole
ODE_RTOL = 1e-10


def _polyline(X, Y) -> np.ndarray:
    """(N, 2) complex array with columns X and Y, each contiguous in memory."""
    pts = np.empty((len(X), 2), dtype=complex, order="F")
    pts[:, 0] = X
    pts[:, 1] = Y
    return pts


@dataclass(frozen=True, eq=False)
class CyclePolyline:
    """Closed polyline on {H = t}; the edge from the last point back to the
    first is implicit. points is an (N, 2) complex array of (x, y) rows.
    closure_gap records the mismatch of the traced loop before it was snapped
    shut."""

    points: np.ndarray
    closure_gap: float
    level: complex
    hamiltonian: Hamiltonian
    kind: str = "real"  # "real" oval or "branch" lift

    def reversed(self) -> "CyclePolyline":
        order = np.r_[0, len(self.points) - 1 : 0 : -1]
        return dataclasses.replace(self, points=_polyline(self.points[order, 0], self.points[order, 1]))


@dataclass(frozen=True)
class PeriodSample:
    t: complex
    periods: tuple[complex, ...]
    error_estimate: float


@functools.lru_cache(maxsize=4096)
def _poly_term_arrays(p: MultiPoly):
    ext = p.extended(("x", "y"))
    return [(float(c.numerator) / float(c.denominator), e[0], e[1]) for e, c in ext.items()]


def _level_terms(H: Hamiltonian):
    """Term arrays of H, H_x and H_y, built once per cycle construction."""
    return _poly_term_arrays(H.poly), _poly_term_arrays(H.hx()), _poly_term_arrays(H.hy())


def _eval_terms(terms, X, Y):
    acc = 0.0
    for c, a, b in terms:
        v = c
        if a:
            v = v * X**a
        if b:
            v = v * Y**b
        acc = acc + v
    return acc


# -- real oval tracing ----------------------------------------------------------


def _newton_to_curve(terms, t: float, x: float, y: float, tol: float):
    hp, hx, hy = terms
    for _ in range(80):
        f = _eval_terms(hp, np.float64(x), np.float64(y)) - t
        if abs(f) <= tol:
            return float(x), float(y)
        gx = _eval_terms(hx, np.float64(x), np.float64(y))
        gy = _eval_terms(hy, np.float64(x), np.float64(y))
        g2 = gx * gx + gy * gy
        if g2 < 1e-28:
            raise NearCritical("gradient vanishes while projecting onto the level curve")
        x -= gx * f / g2
        y -= gy * f / g2
    raise NearCritical("projection onto the level curve did not converge")


def trace_cycle(
    H: Hamiltonian,
    t: float,
    seed: tuple[float, float],
    singular: SingularSet,
) -> CyclePolyline:
    """Trace the compact real oval of {H = t} through the seed's component.

    singular is the critical-value set of H (`PFSystem.singular`, or
    `critical_values(H)` without a system). Raises NearCritical when t sits
    inside the isolation disc of a critical value (or the marcher runs into a
    vanishing gradient), and NotCompactComponent when the branch escapes the
    tracing box.
    """
    for v in singular.values:
        if abs(complex(t) - v.value) <= max(v.radius, 1e-9):
            raise NearCritical(f"t = {t} is within the isolation radius of a critical value")
    scale = max(1.0, abs(t))
    tol = ON_CURVE_TOL * scale
    box = max(BBOX_FLOOR, 4.0 * (1.0 + abs(t)) ** (1.0 / H.degree))
    terms = _level_terms(H)
    _hp, hx_terms, hy_terms = terms

    def grad(x, y):
        return (
            float(_eval_terms(hx_terms, np.float64(x), np.float64(y))),
            float(_eval_terms(hy_terms, np.float64(x), np.float64(y))),
        )

    x, y = _newton_to_curve(terms, t, seed[0], seed[1], tol)
    gx, gy = grad(x, y)
    gn = math.hypot(gx, gy)
    if gn < 1e-12:
        raise NearCritical("seed lands on a near-critical point")
    tx, ty = -gy / gn, gx / gn  # counterclockwise for growing H outward
    x0, y0, tx0, ty0 = x, y, tx, ty
    pts = [(x, y)]
    h = H_INIT
    arc = 0.0
    for _ in range(MAX_STEPS):
        # predictor along the tangent, corrector back onto the curve
        xa, ya = x + h * tx, y + h * ty
        xn, yn = _newton_to_curve(terms, t, xa, ya, tol)
        gx, gy = grad(xn, yn)
        gn = math.hypot(gx, gy)
        if gn < 1e-12:
            raise NearCritical("ran into a critical point while tracing")
        txn, tyn = -gy / gn, gx / gn
        turn = abs(math.atan2(tx * tyn - ty * txn, tx * txn + ty * tyn))
        if turn > 4.0 * TURN_TARGET and h > H_MIN:
            h = max(H_MIN, h * 0.4)
            continue
        step = math.hypot(xn - x, yn - y)
        arc += step
        x, y, tx, ty = xn, yn, txn, tyn
        pts.append((x, y))
        if abs(x) > box or abs(y) > box:
            raise NotCompactComponent("level-curve branch escaped the tracing box")
        # closure: crossed the section through the start, close to the start
        if arc > 6 * h:
            d = math.hypot(x - x0, y - y0)
            if d < 1.5 * h:
                s = (x - x0) * tx0 + (y - y0) * ty0
                if abs(s) < h:
                    gap = _closure_gap(terms, t, (x, y), (x0, y0), (tx0, ty0), tol)
                    if gap > 1e-9 * scale:
                        raise NumericFailure("oval failed to close within tolerance")
                    pts.pop()  # the landing point duplicates the start
                    xy = np.array(pts)
                    return _orient_ccw(
                        CyclePolyline(
                            points=_polyline(xy[:, 0], xy[:, 1]),
                            closure_gap=gap,
                            level=complex(t),
                            hamiltonian=H,
                            kind="real",
                        )
                    )
        h = min(H_MAX, max(H_MIN, h * min(2.0, max(0.3, TURN_TARGET / max(turn, 1e-12)))))
    raise NotCompactComponent("tracing budget exhausted before the oval closed")


def _closure_gap(terms, t, p, p0, t0, tol):
    """Walk the last point along the curve onto the section through p0."""
    _hp, hx, hy = terms
    x, y = p
    x0, y0 = p0
    tx0, ty0 = t0
    for _ in range(60):
        s = (x - x0) * tx0 + (y - y0) * ty0
        if abs(s) < 1e-14:
            break
        gx = float(_eval_terms(hx, np.float64(x), np.float64(y)))
        gy = float(_eval_terms(hy, np.float64(x), np.float64(y)))
        gn = math.hypot(gx, gy)
        tx, ty = -gy / gn, gx / gn
        denom = tx * tx0 + ty * ty0
        if abs(denom) < 1e-8:
            break
        x, y = x - s / denom * tx, y - s / denom * ty
        x, y = _newton_to_curve(terms, t, x, y, tol)
    return math.hypot(x - x0, y - y0)


def _orient_ccw(cycle: CyclePolyline) -> CyclePolyline:
    """The real oval with positive signed area, i.e. counterclockwise."""
    X = cycle.points[:, 0].real
    Y = cycle.points[:, 1].real
    if np.sum(X * np.roll(Y, -1) - np.roll(X, -1) * Y) < 0:
        return cycle.reversed()
    return cycle


# -- complex branch-point cycles --------------------------------------------------


def _y_quadratic(H: Hamiltonian):
    """Coefficients (c2, c1, c0) of H as a quadratic in y; requires deg_y = 2."""
    if H.poly.degree_in("y") != 2:
        raise NotCompactComponent(
            "no real oval found and the y-degree is not 2, no cycle construction applies"
        )
    return (
        H.poly.coeff_in_var("y", 2),
        H.poly.coeff_in_var("y", 1),
        H.poly.coeff_in_var("y", 0),
    )


def branch_cycle_contour(H: Hamiltonian, t: complex):
    """Choose an x-plane ellipse enclosing exactly two branch points of the
    y-projection of {H = t}, clear of the other branch points and of the
    degeneration locus of the quadratic."""
    c2, c1, c0 = _y_quadratic(H)
    disc = c1 * c1 - 4 * c2 * (c0 - MultiPoly.var("t"))
    npoly = _subst_t_numeric(disc, t)
    branch = np.roots(npoly) if len(npoly) > 1 else np.array([])
    if len(branch) < 2:
        raise NotCompactComponent("fewer than two branch points; no cycle to build")
    c2n = _subst_t_numeric(c2, t)
    degen = np.roots(c2n) if len(c2n) > 1 else np.array([])
    pairs = []
    for i in range(len(branch)):
        for j in range(i + 1, len(branch)):
            pairs.append((abs(branch[i] - branch[j]), i, j))
    pairs.sort(key=lambda p: p[0])
    for _, i, j in pairs:
        A, B = complex(branch[i]), complex(branch[j])
        others = [complex(z) for k, z in enumerate(branch) if k not in (i, j)]
        others += [complex(z) for z in degen]
        dmin = min((_dist_point_segment(z, A, B) for z in others), default=float("inf"))
        if dmin < 1e-9:
            continue
        sb = 0.45 * min(dmin, abs(B - A) + 1.0)
        sa = abs(B - A) / 2 + 0.8 * sb
        center = (A + B) / 2
        rot = (B - A) / abs(B - A) if A != B else 1.0
        contour = (center, rot, sa, sb)
        inside = [z for z in list(branch) + list(degen) if _inside_ellipse(z, contour)]
        if len(inside) == 2 and all(
            not _inside_ellipse(z, contour, margin=1.15) for z in others
        ):
            return contour
    raise NotCompactComponent("no admissible two-branch-point contour found")


def _subst_t_numeric(p: MultiPoly, t: complex):
    """Coefficient array (highest first) in x after substituting the numeric t."""
    n = p.degree_in("x")
    out = []
    for k in range(n, -1, -1):
        c = p.coeff_in_var("x", k)
        out.append(c.eval_complex({"t": t}) if not c.is_zero else 0j)
    while len(out) > 1 and out[0] == 0:
        out.pop(0)
    return np.array(out, dtype=complex)


def _inside_ellipse(z, contour, margin: float = 1.0) -> bool:
    center, rot, sa, sb = contour
    w = (z - center) / rot
    return (w.real / (sa * margin)) ** 2 + (w.imag / (sb * margin)) ** 2 <= 1.0


def _continue_branch(d: np.ndarray) -> np.ndarray:
    """Square-root values d with signs flipped along the array so that each
    one stays closer to its predecessor than its negative does.

    The flip decision compares |d_i + d_(i-1)| with |d_i - d_(i-1)| on the raw
    neighbours; flips compose, so a cumulative product of the decisions gives
    every sign at once. d_0 keeps its sign.
    """
    flip = np.abs(d[1:] + d[:-1]) < np.abs(d[1:] - d[:-1])
    sign = np.cumprod(np.r_[1.0, np.where(flip, -1.0, 1.0)])
    return np.where(sign < 0, -d, d)


def _branch_lift(H: Hamiltonian, t: complex, contour, thetas):
    """Points X, the continued square roots and Y of the branch lift over the
    contour at the given angles."""
    center, rot, sa, sb = contour
    c2, c1, c0 = _y_quadratic(H)
    X = center + rot * (sa * np.cos(thetas) + 1j * sb * np.sin(thetas))
    a2 = _eval_x(c2, X)
    a1 = _eval_x(c1, X)
    a0 = _eval_x(c0, X) - t
    disc = _continue_branch(np.sqrt(a1 * a1 - 4 * a2 * a0))
    return X, disc, (-a1 - disc) / (2 * a2)


def branch_point_cycle(H: Hamiltonian, t: complex) -> CyclePolyline:
    """Closed cycle on {H = t} lifting an x-contour around two branch points."""
    contour = branch_cycle_contour(H, t)
    n_points = BRANCH_LIFT_POINTS
    while n_points <= 65536:
        thetas = np.linspace(0.0, 2 * math.pi, n_points, endpoint=False)
        X, disc, Y = _branch_lift(H, t, contour, thetas)
        closes = abs(disc[0] - disc[-1]) < abs(disc[0] + disc[-1])
        if closes and np.all(np.isfinite(Y)):
            cyc = CyclePolyline(
                points=_polyline(X, Y), closure_gap=0.0, level=complex(t), hamiltonian=H, kind="branch"
            )
            _assert_on_curve(cyc)
            return cyc
        n_points *= 2
    raise NumericFailure("branch lift did not close; contour may graze a branch point")


def _eval_x(p: MultiPoly, X):
    terms = [(complex(Fraction(c)), e[0]) for e, c in p.extended(("x",)).items()] if p.vars in ((), ("x",)) else None
    if terms is None:
        raise ValueError("coefficient polynomial must be in x only")
    acc = np.zeros_like(X)
    for c, a in terms:
        acc = acc + c * X**a
    return acc


def _assert_on_curve(cycle: CyclePolyline, tol: float = 1e-9):
    t = cycle.level
    scale = max(1.0, abs(t))
    terms = _poly_term_arrays(cycle.hamiltonian.poly)
    resid = np.max(np.abs(_eval_terms(terms, cycle.points[:, 0], cycle.points[:, 1]) - t))
    if resid > tol * scale:
        raise NumericFailure(f"cycle points off the level curve by {resid:.2e}")


# -- quadrature -------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _gl_nodes(n: int):
    xs, ws = np.polynomial.legendre.leggauss(n)
    return (xs + 1.0) / 2.0, ws / 2.0


def _polygon_integral(points: np.ndarray, omega: OneForm) -> complex:
    """Exact integral of P dx + Q dy over the closed polygon through the points."""
    deg = max(omega.P.degree(), omega.Q.degree(), 1)
    nodes, weights = _gl_nodes(deg // 2 + 2)
    X = points[:, 0]
    Y = points[:, 1]
    dX = np.roll(X, -1) - X
    dY = np.roll(Y, -1) - Y
    termsP = _poly_term_arrays(omega.P)
    termsQ = _poly_term_arrays(omega.Q)
    total = 0j
    for s, w in zip(nodes, weights):
        xs = X + s * dX
        ys = Y + s * dY
        acc = np.zeros_like(xs)
        if termsP:
            acc = acc + _eval_terms(termsP, xs, ys) * dX
        if termsQ:
            acc = acc + _eval_terms(termsQ, xs, ys) * dY
        total += w * np.sum(acc)
    return complex(total)


def _project_to_level(H: Hamiltonian, t: complex, X, Y):
    """Nodes (X, Y) moved onto {H = t}, all at once, by the Newton steps of
    least norm (x, y) -= conj(grad H) (H - t) / |grad H|^2. Real nodes at a
    real level stay real and take the plain real Newton step."""
    t = complex(t)
    if not (t.imag or np.any(np.imag(X)) or np.any(np.imag(Y))):
        t, X, Y = t.real, np.real(X), np.real(Y)
    tol = ON_CURVE_TOL * max(1.0, abs(t))
    hp, hx, hy = _level_terms(H)
    for _ in range(60):
        f = _eval_terms(hp, X, Y) - t
        if np.max(np.abs(f)) <= tol:
            return X, Y
        gx = np.conj(_eval_terms(hx, X, Y))
        gy = np.conj(_eval_terms(hy, X, Y))
        g2 = np.real(gx * np.conj(gx) + gy * np.conj(gy))
        if np.min(g2) < 1e-28:
            raise NearCritical("gradient vanished while projecting onto the level curve")
        X = X - gx * f / g2
        Y = Y - gy * f / g2
    raise NumericFailure("projection onto the level curve did not converge")


def _at_level(cycle: CyclePolyline, t) -> CyclePolyline:
    """The cycle's nodes projected onto the nearby level {H = t}."""
    X, Y = _project_to_level(cycle.hamiltonian, t, cycle.points[:, 0], cycle.points[:, 1])
    return dataclasses.replace(cycle, points=_polyline(X, Y), level=complex(t))


def refine_cycle(cycle: CyclePolyline) -> CyclePolyline:
    """Insert the projection onto the curve of every chord midpoint."""
    P = cycle.points
    mx, my = ((P[:, k] + np.roll(P[:, k], -1)) / 2 for k in (0, 1))
    mx, my = _project_to_level(cycle.hamiltonian, cycle.level, mx, my)
    pts = np.empty((2 * len(P), 2), dtype=complex, order="F")
    pts[0::2] = P
    pts[1::2, 0] = mx
    pts[1::2, 1] = my
    return dataclasses.replace(cycle, points=pts)


def _richardson_periods(cycle: CyclePolyline, forms, rel_tol: float) -> tuple[list[complex], list[float]]:
    """Curve integrals of the forms over the cycle, with their error estimates.

    The polygon value has an even-power error expansion in the mesh size, so
    each dyadic refinement cancels another order. The cycle is refined once
    per level and every form whose extrapolated increment still exceeds
    max(rel_tol |value|, ABS_TOL) gets one more row of its Richardson table;
    a form that meets the tolerance keeps the value of that level.
    """
    work = cycle
    while len(work.points) < MIN_POINTS:
        work = refine_cycle(work)
    rows = [[_polygon_integral(work.points, w)] for w in forms]  # last row of each table
    best = [row[0] for row in rows]
    err = [float("inf")] * len(forms)
    open_cols = list(range(len(forms)))
    for level in range(1, MAX_LEVELS + 1):
        if not open_cols:
            break
        work = refine_cycle(work)
        still_open = []
        for m in open_cols:
            row = [_polygon_integral(work.points, forms[m])]
            for j in range(1, level + 1):
                factor = 4.0**j
                row.append((factor * row[j - 1] - rows[m][j - 1]) / (factor - 1.0))
            rows[m] = row
            err[m] = abs(row[-1] - best[m])
            best[m] = row[-1]
            if err[m] > max(rel_tol * abs(best[m]), ABS_TOL):
                still_open.append(m)
        open_cols = still_open
    return best, err


def period_quadrature_with_error(
    cycle: CyclePolyline, omega: OneForm, rel_tol: float = 1e-9
) -> tuple[complex, float]:
    """Curve integral of the form over the cycle with Richardson extrapolation."""
    (value,), (err,) = _richardson_periods(cycle, [omega], rel_tol)
    return value, err


def periods_of_system(sys: PFSystem, cycle: CyclePolyline, rel_tol: float = 1e-9) -> PeriodSample:
    """All basis periods on one shared refinement of the cycle; the error
    estimate is the largest over the forms."""
    vals, errs = _richardson_periods(cycle, sys.forms, rel_tol)
    return PeriodSample(t=cycle.level, periods=tuple(vals), error_estimate=max([0.0, *errs]))


# -- continuation of the period system ---------------------------------------------


def _matrix_evaluator(sys: PFSystem):
    """t -> A(t) / a(t). The entries of A sit in one zero-padded (deg+1, n, n)
    coefficient tensor, highest power first, evaluated by Horner's rule in
    np.polyval's order."""
    n = sys.dim
    acoef = np.array([complex(c) for c in sys.a.univariate_coeffs("t")][::-1], dtype=complex)
    deg = max(sys.A.max_degree(), 0)
    coefs = np.zeros((deg + 1, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if not sys.A[i, j].is_zero:
                for k, c in enumerate(sys.A[i, j].univariate_coeffs("t")):
                    coefs[deg - k, i, j] = complex(c)

    def rhs_matrix(t: complex):
        M = np.zeros((n, n), dtype=complex)
        for c in coefs:
            M = M * t + c
        return M / np.polyval(acoef, t)

    return rhs_matrix


def _continue_segments(sys: PFSystem, path, periods, dense: bool):
    """DOP853 solutions of the period system along each segment of the path,
    each parametrised by s in [0, 1], with the scale of the period vector at
    the segment's start. Raises PathTooClose when a segment comes within
    PATH_MARGIN of a pole of the system and StiffnessFailure when the
    integrator gives up."""
    poles = [cv.value for cv in sys.pole_candidates()]
    for k in range(len(path) - 1):
        a, b = complex(path[k]), complex(path[k + 1])
        for p in poles:
            if _dist_point_segment(p, a, b) < PATH_MARGIN:
                raise PathTooClose(f"path segment {k} passes within {PATH_MARGIN} of a pole")
    rhs_matrix = _matrix_evaluator(sys)
    out = []
    yvec = np.array(periods, dtype=complex)
    for k in range(len(path) - 1):
        a, b = complex(path[k]), complex(path[k + 1])
        dt = b - a

        def rhs(s, y, a=a, dt=dt):
            return dt * (rhs_matrix(a + s * dt) @ y)

        scale = float(np.max(np.abs(yvec))) or 1.0
        sol = solve_ivp(
            rhs, (0.0, 1.0), yvec, method="DOP853", rtol=ODE_RTOL, atol=ODE_RTOL * scale * 1e-2, dense_output=dense
        )
        if not sol.success:
            raise StiffnessFailure(f"integrator failed on segment {k}: {sol.message}")
        out.append((sol, scale))
        yvec = sol.y[:, -1]
    return out


def integrate_pf_numeric(sys: PFSystem, path: list[complex], initial: PeriodSample) -> list[PeriodSample]:
    """Continue a period vector along a polyline in complex t.

    Returns one sample per path vertex (the first one echoes the input).
    Raises PathTooClose when a segment comes within PATH_MARGIN of a pole of
    the system and StiffnessFailure when the integrator gives up.
    """
    if len(path) < 2:
        raise ValueError("path needs at least two vertices")
    if abs(complex(path[0]) - complex(initial.t)) > 1e-12 * max(1.0, abs(initial.t)):
        raise ValueError("initial sample must sit on the first path vertex")
    out = [initial]
    err_acc = initial.error_estimate
    for k, (sol, scale) in enumerate(_continue_segments(sys, path, initial.periods, dense=False)):
        err_acc = err_acc + ODE_RTOL * scale * len(path)
        out.append(
            PeriodSample(
                t=complex(path[k + 1]), periods=tuple(complex(v) for v in sol.y[:, -1]), error_estimate=err_acc
            )
        )
    return out


def continuation_callable(sys: PFSystem, path: list[complex], initial: PeriodSample):
    """Dense continuation along the path; returns f(s) for s in [0, 1] mapped
    over the whole polyline by arc position, for winding-number use."""
    sols = [sol for sol, _scale in _continue_segments(sys, path, initial.periods, dense=True)]
    nseg = len(sols)

    def f(s: float) -> np.ndarray:
        u = min(max(s, 0.0), 1.0) * nseg
        k = min(int(u), nseg - 1)
        return sols[k].sol(u - k)

    return f


# -- oracle checks -------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    t: float
    relative_residual: float
    periods: tuple[complex, ...]
    cycle_kind: str


def _find_real_oval(H: Hamiltonian, t: float, singular: SingularSet) -> CyclePolyline | None:
    """A compact real oval of {H = t}, traced from the nearest root of
    H(x, y_p) = t on either side of each real extremum p of H; None when no
    extremum yields one.

    The nearer of the two roots is tried first: an oval stretches toward the
    saddles that bound it and curves most there, and a trace that starts and
    closes in a sharp bend slows the Richardson convergence of its periods."""
    for px, py in singular.extrema:
        coeffs = np.zeros(H.degree + 1)
        for c, a, b in _poly_term_arrays(H.poly):
            coeffs[a] += c * py**b
        coeffs[0] -= t
        roots = np.roots(coeffs[::-1])
        xs = roots.real[np.abs(roots.imag) < 1e-9]
        sides = (xs[xs < px].max(initial=-np.inf), xs[xs > px].min(initial=np.inf))
        for x in sorted(sides, key=lambda x: abs(x - px)):
            if not np.isfinite(x):
                continue
            try:
                return trace_cycle(H, t, (float(x), py), singular)
            except (NearCritical, NotCompactComponent, NumericFailure):
                continue
    return None


def make_cycle(H: Hamiltonian, t, singular: SingularSet) -> CyclePolyline:
    """Real oval when one is seeded beside a real extremum of H, else a
    branch lift.

    Real tracing only applies at real levels; complex t goes straight to the
    branch-point construction. singular is the critical-value set of H."""
    tc = complex(t)
    if abs(tc.imag) < 1e-12:
        cyc = _find_real_oval(H, tc.real, singular)
        if cyc is not None:
            return cyc
    return branch_point_cycle(H, tc)


def residual_check(sys: PFSystem, H: Hamiltonian, t_samples: list[float]) -> list[ResidualReport]:
    """Check a(t) I' = A(t) I against quadrature periods at real samples.

    Periods are computed to relative tolerance RESIDUAL_REL_TOL. Derivatives
    come from central differences with step FD_STEP * max(1, |t|); the cycles
    at t +- h are the nodes of the base cycle projected onto those levels.
    """
    n = sys.dim
    reports = []
    for t in t_samples:
        if sys.singular.is_near(complex(t)):
            raise NearCritical(f"sample {t} is a singular value")
        base = make_cycle(H, t, sys.singular)
        h = FD_STEP * max(1.0, abs(t))
        I, I_p, I_m = (
            np.array(periods_of_system(sys, cyc, RESIDUAL_REL_TOL).periods)
            for cyc in (base, _at_level(base, t + h), _at_level(base, t - h))
        )
        Ip = (I_p - I_m) / (2 * h)
        aval = complex(sys.a.eval_complex({"t": t}))
        Aval = np.array(
            [[complex(sys.A[i, j].eval_complex({"t": t})) for j in range(n)] for i in range(n)]
        )
        num = np.linalg.norm(aval * Ip - Aval @ I)
        den = np.linalg.norm(Aval @ I) + 1e-30
        reports.append(
            ResidualReport(
                t=float(t),
                relative_residual=float(num / den),
                periods=tuple(complex(v) for v in I),
                cycle_kind=base.kind,
            )
        )
    return reports
