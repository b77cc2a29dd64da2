"""Numeric oracle: cycles on level curves, period integrals, continuation.

Cycles are closed polylines on {H = t} in C^2, stored as an (N, 2) complex
array of points (columns x and y). Two constructors exist:

* `trace_cycle` follows a compact real oval with a predictor-corrector
  marcher (points have zero imaginary part).
* `branch_point_cycle` builds a genuinely complex cycle for Hamiltonians of
  y-degree two, by lifting a closed x-plane contour that encircles exactly
  two branch points of the y-projection. This covers level curves without
  compact real components (they exist: a real oval must enclose a real local
  extremum of H, and saddles-only Hamiltonians have none).

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


@dataclass(frozen=True)
class TraceConfig:
    turn_target: float = 0.06  # radians of tangent turn per step
    h_init: float = 1e-3
    h_min: float = 1e-10
    h_max: float = 0.2
    max_steps: int = 200_000
    on_curve_tol: float = 1e-12
    bbox_floor: float = 10.0


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12  # floor for periods that vanish identically
    max_levels: int = 14
    min_points: int = 64


def _polyline(X, Y) -> np.ndarray:
    """(N, 2) complex array with columns X and Y, each contiguous in memory."""
    pts = np.empty((len(X), 2), dtype=complex, order="F")
    pts[:, 0] = X
    pts[:, 1] = Y
    return pts


@dataclass(frozen=True, eq=False)
class CyclePolyline:
    """Closed polyline on {H = t}; the edge from the last point back to the
    first is implicit. points is an (N, 2) complex array of (x, y) rows;
    thetas holds the contour parameter of each point of a branch lift.
    closure_gap records the mismatch of the traced loop before it was snapped
    shut."""

    points: np.ndarray
    closure_gap: float
    level: complex
    hamiltonian: Hamiltonian
    kind: str = "real"  # "real" oval or "branch" lift
    contour: tuple | None = None  # (center, rot, semi_a, semi_b) for branch lifts
    thetas: np.ndarray | None = None

    def reversed(self) -> "CyclePolyline":
        order = np.r_[0, len(self.points) - 1 : 0 : -1]
        th = None
        if self.thetas is not None:
            th = self.thetas[order]
            th[1:] = 2 * math.pi - th[1:]
        return CyclePolyline(
            points=_polyline(self.points[order, 0], self.points[order, 1]),
            closure_gap=self.closure_gap,
            level=self.level,
            hamiltonian=self.hamiltonian,
            kind=self.kind,
            contour=self.contour,
            thetas=th,
        )


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
    config: TraceConfig = TraceConfig(),
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
    tol = config.on_curve_tol * scale
    box = max(config.bbox_floor, 4.0 * (1.0 + abs(t)) ** (1.0 / H.degree))
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
    h = config.h_init
    arc = 0.0
    for _ in range(config.max_steps):
        # predictor along the tangent, corrector back onto the curve
        xa, ya = x + h * tx, y + h * ty
        xn, yn = _newton_to_curve(terms, t, xa, ya, tol)
        gx, gy = grad(xn, yn)
        gn = math.hypot(gx, gy)
        if gn < 1e-12:
            raise NearCritical("ran into a critical point while tracing")
        txn, tyn = -gy / gn, gx / gn
        turn = abs(math.atan2(tx * tyn - ty * txn, tx * txn + ty * tyn))
        if turn > 4.0 * config.turn_target and h > config.h_min:
            h = max(config.h_min, h * 0.4)
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
        h = min(config.h_max, max(config.h_min, h * min(2.0, max(0.3, config.turn_target / max(turn, 1e-12)))))
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
        dmin = min((_dist_to_segment(z, A, B) for z in others), default=float("inf"))
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


def _dist_to_segment(z, A, B):
    if A == B:
        return abs(z - A)
    u = (z - A) / (B - A)
    s = min(1.0, max(0.0, u.real))
    return abs(z - (A + s * (B - A)))


def _inside_ellipse(z, contour, margin: float = 1.0) -> bool:
    center, rot, sa, sb = contour
    w = (z - center) / rot
    return (w.real / (sa * margin)) ** 2 + (w.imag / (sb * margin)) ** 2 <= 1.0


def _continue_branch(d: np.ndarray, first_sign: float = 1.0) -> np.ndarray:
    """Square-root values d with signs flipped along the array so that each
    one stays closer to its predecessor than its negative does.

    The flip decision compares |d_i + d_(i-1)| with |d_i - d_(i-1)| on the raw
    neighbours; flips compose, so a cumulative product of the decisions gives
    every sign at once. first_sign is the sign chosen for d_0.
    """
    flip = np.abs(d[1:] + d[:-1]) < np.abs(d[1:] - d[:-1])
    sign = np.cumprod(np.r_[first_sign, np.where(flip, -1.0, 1.0)])
    return np.where(sign < 0, -d, d)


def _branch_lift(H: Hamiltonian, t: complex, contour, thetas, y_first=None):
    """Points (X, Y) of the branch lift over the contour at the given angles,
    with the square root continued along them; the branch at the first angle
    is the one whose y lies closest to y_first, when given."""
    center, rot, sa, sb = contour
    c2, c1, c0 = _y_quadratic(H)
    X = center + rot * (sa * np.cos(thetas) + 1j * sb * np.sin(thetas))
    a2 = _eval_x(c2, X)
    a1 = _eval_x(c1, X)
    a0 = _eval_x(c0, X) - t
    disc = np.sqrt(a1 * a1 - 4 * a2 * a0)
    first_sign = 1.0
    if y_first is not None:
        d0 = disc[0]
        if abs((-a1[0] - d0) / (2 * a2[0]) - y_first) > abs((-a1[0] + d0) / (2 * a2[0]) - y_first):
            first_sign = -1.0
    disc = _continue_branch(disc, first_sign)
    return X, disc, (-a1 - disc) / (2 * a2)


def branch_point_cycle(
    H: Hamiltonian, t: complex, contour=None, n_points: int = 256
) -> CyclePolyline:
    """Closed cycle on {H = t} lifting an x-contour around two branch points.

    The same contour can be reused at nearby t, which keeps finite-difference
    stencils on one continuously varying cycle.
    """
    if contour is None:
        contour = branch_cycle_contour(H, t)
    while n_points <= 65536:
        thetas = np.linspace(0.0, 2 * math.pi, n_points, endpoint=False)
        X, disc, Y = _branch_lift(H, t, contour, thetas)
        closes = abs(disc[0] - disc[-1]) < abs(disc[0] + disc[-1])
        if closes and np.all(np.isfinite(Y)):
            cyc = CyclePolyline(
                points=_polyline(X, Y),
                closure_gap=0.0,
                level=complex(t),
                hamiltonian=H,
                kind="branch",
                contour=contour,
                thetas=thetas,
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


def refine_cycle(cycle: CyclePolyline) -> CyclePolyline:
    """Insert one on-curve point between every pair of consecutive points."""
    H = cycle.hamiltonian
    t = cycle.level
    if cycle.kind == "branch":
        th = cycle.thetas
        new_th = np.empty(2 * len(th))
        new_th[0::2] = th
        new_th[1::2] = th + np.diff(np.append(th, th[0] + 2 * math.pi)) / 2.0
        X, _disc, Y = _branch_lift(H, t, cycle.contour, new_th, y_first=cycle.points[0, 1])
        out = CyclePolyline(
            points=_polyline(X, Y),
            closure_gap=cycle.closure_gap,
            level=t,
            hamiltonian=H,
            kind="branch",
            contour=cycle.contour,
            thetas=new_th,
        )
        _assert_on_curve(out)
        return out
    # real oval: project chord midpoints back onto the curve, as one batch
    tol = TraceConfig().on_curve_tol * max(1.0, abs(t))
    X = cycle.points[:, 0].real
    Y = cycle.points[:, 1].real
    mx = (X + np.roll(X, -1)) / 2
    my = (Y + np.roll(Y, -1)) / 2
    hp, hx, hy = _level_terms(H)
    for _ in range(60):
        f = _eval_terms(hp, mx, my) - t.real
        if np.max(np.abs(f)) <= tol:
            break
        gx = _eval_terms(hx, mx, my)
        gy = _eval_terms(hy, mx, my)
        g2 = gx * gx + gy * gy
        if np.min(g2) < 1e-28:
            raise NearCritical("gradient vanished while refining the oval")
        mx = mx - gx * f / g2
        my = my - gy * f / g2
    else:
        raise NumericFailure("midpoint projection onto the oval did not converge")
    pts = np.empty((2 * len(X), 2), dtype=complex, order="F")
    pts[0::2] = cycle.points
    pts[1::2, 0] = mx
    pts[1::2, 1] = my
    return CyclePolyline(
        points=pts,
        closure_gap=cycle.closure_gap,
        level=t,
        hamiltonian=H,
        kind="real",
    )


def _richardson_periods(
    cycle: CyclePolyline, forms, config: QuadConfig
) -> tuple[list[complex], list[float]]:
    """Curve integrals of the forms over the cycle, with their error estimates.

    The polygon value has an even-power error expansion in the mesh size, so
    each dyadic refinement cancels another order. The cycle is refined once
    per level and every form whose extrapolated increment still exceeds
    max(rel_tol |value|, abs_tol) gets one more row of its Richardson table;
    a form that meets the tolerance keeps the value of that level.
    """
    work = cycle
    while len(work.points) < config.min_points:
        work = refine_cycle(work)
    rows = [[_polygon_integral(work.points, w)] for w in forms]  # last row of each table
    best = [row[0] for row in rows]
    err = [float("inf")] * len(forms)
    open_cols = list(range(len(forms)))
    for level in range(1, config.max_levels + 1):
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
            if err[m] > max(config.rel_tol * abs(best[m]), config.abs_tol):
                still_open.append(m)
        open_cols = still_open
    return best, err


def period_quadrature_with_error(
    cycle: CyclePolyline, omega: OneForm, config: QuadConfig = QuadConfig()
) -> tuple[complex, float]:
    """Curve integral of the form over the cycle with Richardson extrapolation."""
    (value,), (err,) = _richardson_periods(cycle, [omega], config)
    return value, err


def period_quadrature(
    cycle: CyclePolyline, omega: OneForm, config: QuadConfig = QuadConfig()
) -> complex:
    value, _err = period_quadrature_with_error(cycle, omega, config)
    return value


def periods_of_system(
    sys: PFSystem, cycle: CyclePolyline, config: QuadConfig = QuadConfig()
) -> PeriodSample:
    """All basis periods on one shared refinement of the cycle; the error
    estimate is the largest over the forms."""
    vals, errs = _richardson_periods(cycle, sys.forms, config)
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


def _continue_segments(sys: PFSystem, path, periods, margin: float, rtol: float, dense: bool):
    """DOP853 solutions of the period system along each segment of the path,
    each parametrised by s in [0, 1], with the scale of the period vector at
    the segment's start. Raises PathTooClose when a segment comes within
    margin of a pole of the system and StiffnessFailure when the integrator
    gives up."""
    poles = [cv.value for cv in sys.pole_candidates()]
    for k in range(len(path) - 1):
        a, b = complex(path[k]), complex(path[k + 1])
        for p in poles:
            if _dist_to_segment(p, a, b) < margin:
                raise PathTooClose(f"path segment {k} passes within {margin} of a pole")
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
            rhs, (0.0, 1.0), yvec, method="DOP853", rtol=rtol, atol=rtol * scale * 1e-2, dense_output=dense
        )
        if not sol.success:
            raise StiffnessFailure(f"integrator failed on segment {k}: {sol.message}")
        out.append((sol, scale))
        yvec = sol.y[:, -1]
    return out


def integrate_pf_numeric(
    sys: PFSystem,
    path: list[complex],
    initial: PeriodSample,
    margin: float = 1e-3,
    rtol: float = 1e-10,
) -> list[PeriodSample]:
    """Continue a period vector along a polyline in complex t.

    Returns one sample per path vertex (the first one echoes the input).
    Raises PathTooClose when a segment comes within `margin` of a pole of the
    system and StiffnessFailure when the integrator gives up.
    """
    if len(path) < 2:
        raise ValueError("path needs at least two vertices")
    if abs(complex(path[0]) - complex(initial.t)) > 1e-12 * max(1.0, abs(initial.t)):
        raise ValueError("initial sample must sit on the first path vertex")
    out = [initial]
    err_acc = initial.error_estimate
    for k, (sol, scale) in enumerate(_continue_segments(sys, path, initial.periods, margin, rtol, dense=False)):
        err_acc = err_acc + rtol * scale * len(path)
        out.append(
            PeriodSample(
                t=complex(path[k + 1]), periods=tuple(complex(v) for v in sol.y[:, -1]), error_estimate=err_acc
            )
        )
    return out


def continuation_callable(
    sys: PFSystem, path: list[complex], initial: PeriodSample, margin: float = 1e-3, rtol: float = 1e-10
):
    """Dense continuation along the path; returns f(s) for s in [0, 1] mapped
    over the whole polyline by arc position, for winding-number use."""
    sols = [sol for sol, _scale in _continue_segments(sys, path, initial.periods, margin, rtol, dense=True)]
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
    """Look for a compact real oval by seeding from axis crossings."""
    seeds = []
    for var in ("x", "y"):
        p = H.poly.substitute("y" if var == "x" else "x", MultiPoly.zero())
        n = p.degree_in(var)
        if n < 1:
            continue
        arr = np.zeros(n + 1, dtype=complex)
        for e, c in p.extended((var,)).items():
            arr[e[0]] = complex(Fraction(c))
        arr[0] -= t
        roots = np.roots(arr[::-1])
        for r in roots:
            if abs(r.imag) < 1e-9:
                seeds.append((r.real, 0.0) if var == "x" else (0.0, r.real))
    for s in seeds:
        try:
            return trace_cycle(H, t, s, singular)
        except (NearCritical, NotCompactComponent, NumericFailure):
            continue
    return None


def make_cycle(H: Hamiltonian, t, singular: SingularSet, contour=None) -> CyclePolyline:
    """Real oval when one exists through an axis seed, else a branch lift.

    Real tracing only applies at real levels; complex t goes straight to the
    branch-point construction. singular is the critical-value set of H."""
    if contour is not None:
        return branch_point_cycle(H, t, contour=contour)
    tc = complex(t)
    if abs(tc.imag) < 1e-12:
        cyc = _find_real_oval(H, tc.real, singular)
        if cyc is not None:
            return cyc
    return branch_point_cycle(H, tc)


def residual_check(
    sys: PFSystem,
    H: Hamiltonian,
    t_samples: list[float],
    quad_rel_tol: float = 1e-12,
    fd_scale: float = 1e-5,
) -> list[ResidualReport]:
    """Check a(t) I' = A(t) I against quadrature periods at real samples.

    Derivatives come from central differences with step 1e-5 * max(1, |t|),
    each stencil point using the same continuously varying cycle.
    """
    cfg = QuadConfig(rel_tol=quad_rel_tol)
    n = sys.dim
    reports = []
    for t in t_samples:
        if sys.singular.is_near(complex(t)):
            raise NearCritical(f"sample {t} is a singular value")
        base = make_cycle(H, t, sys.singular)
        h = fd_scale * max(1.0, abs(t))
        if base.kind == "branch":
            cyc_p = branch_point_cycle(H, t + h, contour=base.contour)
            cyc_m = branch_point_cycle(H, t - h, contour=base.contour)
        else:
            seed = (float(base.points[0, 0].real), float(base.points[0, 1].real))
            cyc_p = trace_cycle(H, t + h, seed, sys.singular)
            cyc_m = trace_cycle(H, t - h, seed, sys.singular)
        sample = periods_of_system(sys, base, cfg)
        sample_p = periods_of_system(sys, cyc_p, cfg)
        sample_m = periods_of_system(sys, cyc_m, cfg)
        I = np.array(sample.periods)
        Ip = (np.array(sample_p.periods) - np.array(sample_m.periods)) / (2 * h)
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
