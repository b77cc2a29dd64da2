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

Every polynomial (H, its gradient, the basis forms, the coefficients of a
branch lift) is evaluated through `MultiPoly.eval_complex`, at Python
numbers or at whole node arrays.

Two Newton steps put points on a level set. The marcher of `trace_cycle`,
and its closure walk, correct one real point at a time with the scalar step
`_newton_to_curve`. Every other job uses the projector `_project_to_level`,
Newton steps of least norm applied to all nodes at once: `refine_cycle`
projects the chord midpoints of either kind of cycle onto the curve, and the
cycles at nearby levels t +- h of the residual check are the nodes of the
base cycle projected onto those levels. A branch lift needs no Newton step,
since its points solve the quadratic in y directly.

Periods are computed chord-wise with Gauss-Legendre nodes (exact for the
polygon) and Richardson extrapolation over dyadic refinements of the
polyline, which converges to the curve integral with an error estimate. A
cycle is refined once per level and every basis form is integrated on that
refinement; each form's Richardson column stops at the first level that
meets the tolerance, and the refinement stops when every column has.
Continuation of period vectors in complex t integrates the polynomial system
with DOP853, the Dormand-Prince 8(5,3) pair with its 7th-degree dense output
(Hairer, Norsett and Wanner, Solving Ordinary Differential Equations I,
Sec. II.10). `solve_ivp` is an in-package port of SciPy's DOP853 that gives
the same floats; the package does not import SciPy.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

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


# -- real oval tracing ----------------------------------------------------------


def _real_grad(H: Hamiltonian, x: float, y: float) -> tuple[float, float]:
    at = {"x": x, "y": y}
    return H.hx.eval_complex(at).real, H.hy.eval_complex(at).real


def _newton_to_curve(H: Hamiltonian, t: float, x: float, y: float, tol: float):
    # The marcher corrects one point per step. `_project_to_level` on that
    # single point lands on the same floats but costs about 230 us against
    # 22 us here (108 perturbed points of the oval of x^2 + y^2 + x^3 -
    # 3*x*y^2 at t = 0.07, one Xeon core): numpy's per-call overhead
    # dominates arrays of one element.
    for _ in range(80):
        f = H.poly.eval_complex({"x": x, "y": y}).real - t
        if abs(f) <= tol:
            return float(x), float(y)
        gx, gy = _real_grad(H, x, y)
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
    x, y = _newton_to_curve(H, t, seed[0], seed[1], tol)
    gx, gy = _real_grad(H, x, y)
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
        xn, yn = _newton_to_curve(H, t, xa, ya, tol)
        gx, gy = _real_grad(H, xn, yn)
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
                    gap = _closure_gap(H, t, (x, y), (x0, y0), (tx0, ty0), tol)
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


def _closure_gap(H: Hamiltonian, t, p, p0, t0, tol):
    """Walk the last point along the curve onto the section through p0."""
    x, y = p
    x0, y0 = p0
    tx0, ty0 = t0
    for _ in range(60):
        s = (x - x0) * tx0 + (y - y0) * ty0
        if abs(s) < 1e-14:
            break
        gx, gy = _real_grad(H, x, y)
        gn = math.hypot(gx, gy)
        tx, ty = -gy / gn, gx / gn
        denom = tx * tx0 + ty * ty0
        if abs(denom) < 1e-8:
            break
        x, y = x - s / denom * tx, y - s / denom * ty
        x, y = _newton_to_curve(H, t, x, y, tol)
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
    branch = np.roots(_x_coefficients(disc, {"t": t}))
    if len(branch) < 2:
        raise NotCompactComponent("fewer than two branch points; no cycle to build")
    degen = np.roots(_x_coefficients(c2, {}))
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


def _x_coefficients(p: MultiPoly, fixed: dict) -> np.ndarray:
    """Complex coefficients of p in x, highest first, with the other variable
    set by `fixed` (such as {"t": t}). Leading zeros stay; np.roots drops
    them."""
    return np.array([p.coeff_in_var("x", k).eval_complex(fixed) for k in range(p.degree_in("x"), -1, -1)])


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
    a2, a1, a0 = (c.eval_complex({"x": X}) for c in (c2, c1, c0))
    a0 = a0 - t
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


def _assert_on_curve(cycle: CyclePolyline, tol: float = 1e-9):
    t = cycle.level
    scale = max(1.0, abs(t))
    on_curve = cycle.hamiltonian.poly.eval_complex({"x": cycle.points[:, 0], "y": cycle.points[:, 1]})
    resid = np.max(np.abs(on_curve - t))
    if resid > tol * scale:
        raise NumericFailure(f"cycle points off the level curve by {resid:.2e}")


# -- quadrature -------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _gl_nodes(n: int):
    xs, ws = legendre.leggauss(n)
    return (xs + 1.0) / 2.0, ws / 2.0


def _polygon_integral(points: np.ndarray, omega: OneForm) -> complex:
    """Exact integral of P dx + Q dy over the closed polygon through the points."""
    deg = max(omega.P.degree(), omega.Q.degree(), 1)
    nodes, weights = _gl_nodes(deg // 2 + 2)
    X = points[:, 0]
    Y = points[:, 1]
    dX = np.roll(X, -1) - X
    dY = np.roll(Y, -1) - Y
    total = 0j
    for s, w in zip(nodes, weights):
        at = {"x": X + s * dX, "y": Y + s * dY}
        for p, d in ((omega.P, dX), (omega.Q, dY)):
            if not p.is_zero:
                total += w * np.sum(p.eval_complex(at) * d)
    return complex(total)


def _project_to_level(H: Hamiltonian, t: complex, X, Y):
    """Nodes (X, Y) moved onto {H = t}, all at once, by the Newton steps of
    least norm (x, y) -= conj(grad H) (H - t) / |grad H|^2. Real nodes at a
    real level stay real and take the plain real Newton step."""
    t = complex(t)
    real = not (t.imag or np.any(np.imag(X)) or np.any(np.imag(Y)))
    if real:
        t, X, Y = t.real, np.real(X), np.real(Y)
    tol = ON_CURVE_TOL * max(1.0, abs(t))

    def at_nodes(p, X, Y):
        v = p.eval_complex({"x": X, "y": Y})
        return v.real if real else v

    for _ in range(60):
        f = at_nodes(H.poly, X, Y) - t
        if np.max(np.abs(f)) <= tol:
            return X, Y
        gx, gy = np.conj(at_nodes(H.hx, X, Y)), np.conj(at_nodes(H.hy, X, Y))
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


# -- DOP853 --------------------------------------------------------------------------
#
# Dormand-Prince 8(5,3) with its 7th-degree dense output: Hairer, Norsett and
# Wanner, Solving Ordinary Differential Equations I (2nd ed., Springer 1993),
# Sec. II.10, and their Fortran code DOP853. The tables, the initial step, the
# step controller and the interpolant are a port of SciPy's scipy/integrate/_ivp
# (dop853_coefficients.py, rk.py, common.py, base.py and ivp.py) that keeps its
# order of floating-point operations, so every value equals that of
# scipy.integrate.solve_ivp(method="DOP853") bit for bit. Those files carry
# this notice:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

DOP853_STAGES = 12  # stages of one step; stages 13-15 only feed the interpolant
DOP853_SAFETY = 0.9
DOP853_MIN_FACTOR = 0.2  # least and largest change of the step size
DOP853_MAX_FACTOR = 10
DOP853_EXPONENT = -1 / 8  # the error estimate is of order 7
DOP853_FINISHED = "The solver successfully reached the end of the integration interval."
DOP853_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _coefficient_table(shape, rows):
    table = np.zeros(shape)
    for i, row in rows.items():
        for j, v in row.items():
            table[i, j] = v
    return table


_DOP853_C = np.array(
    [
        0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
        0.118350341907227396726757197510, 0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25,
        0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
        1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778,
    ]
)
_DOP853_A = _coefficient_table(
    (16, 16),
    {
        1: {0: 5.26001519587677318785587544488e-2},
        2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
        3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
        4: {
            0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
            3: 9.24834003261792003115737966543e-1,
        },
        5: {
            0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
            4: 1.25467687566822425016691814123e-1,
        },
        6: {
            0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1, 4: 6.02165389804559606850219397283e-2,
            5: -1.7578125e-2,
        },
        7: {
            0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
            4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
            6: 8.27378916381402288758473766002e-3,
        },
        8: {
            0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
            4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
            6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1,
        },
        9: {
            0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
            4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
            6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
            8: -2.03312017085086261358222928593e-2,
        },
        10: {
            0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
            4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
            6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
            8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022,
        },
        11: {
            0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
            4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
            6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
            8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
            10: 6.43392746015763530355970484046e-1,
        },
        12: {
            0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
            6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
            8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
            10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2,
        },
        13: {
            0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
            7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
            9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
            11: 7.56789766054569976138603589584e-3, 12: -8.298e-3,
        },
        14: {
            0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
            6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
            10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
            12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1,
        },
        15: {
            0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
            6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
            8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
            13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138,
        },
    },
)
_DOP853_D = _coefficient_table(
    (4, 16),
    {
        0: {
            0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
            6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
            8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
            10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
            12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
            14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1,
        },
        1: {
            0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
            6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
            8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
            10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
            12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
            14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2,
        },
        2: {
            0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
            6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
            8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
            10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
            12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
            14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2,
        },
        3: {
            0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
            6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
            8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
            10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
            12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
            14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3,
        },
    },
)
_DOP853_B = _DOP853_A[DOP853_STAGES, :DOP853_STAGES]
_DOP853_E3 = np.zeros(DOP853_STAGES + 1)
_DOP853_E3[:-1] = _DOP853_B
_DOP853_E3[0] -= 0.244094488188976377952755905512
_DOP853_E3[8] -= 0.733846688281611857341361741547
_DOP853_E3[11] -= 0.220588235294117647058823529412e-1
_DOP853_E5 = np.array(
    [
        0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
        -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
        0.3341791187130174790297318841, 0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
        0.0,
    ]
)


@dataclass(frozen=True, eq=False)
class OdeResult:
    """The accepted times t, the states y (one column per time), the dense
    solution sol(s) over [t0, tf] (None unless asked for), the number of
    right-hand side evaluations, and whether tf was reached."""

    t: np.ndarray
    y: np.ndarray
    sol: object
    nfev: int
    success: bool
    message: str


def _rms(x):
    return np.linalg.norm(x) / x.size**0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """Hairer's starting step: an explicit Euler trial step sized from |y0|
    and |f0|, then the step at which its difference quotient of f meets the
    tolerance, capped at 100 times the trial step and at the interval."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _dop853_stages(fun, t, y, f, h, K):
    """The 8th-order solution after one step h, and f there; rows 0-12 of K
    receive the stages."""
    K[0] = f
    for s in range(1, DOP853_STAGES):
        dy = np.dot(K[:s].T, _DOP853_A[s, :s]) * h
        K[s] = fun(t + _DOP853_C[s] * h, y + dy)
    y_new = y + h * np.dot(K[:DOP853_STAGES].T, _DOP853_B)
    f_new = fun(t + h, y_new)
    K[DOP853_STAGES] = f_new
    return y_new, f_new


def _dop853_error_norm(K, h, scale):
    """The combined 5th- and 3rd-order error estimate of the step, scaled."""
    err5 = np.dot(K[: DOP853_STAGES + 1].T, _DOP853_E5) / scale
    err3 = np.dot(K[: DOP853_STAGES + 1].T, _DOP853_E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dop853_step(fun, t, y, f, h_abs, t_bound, rtol, atol, K):
    """One accepted step from t, clipped at t_bound: (t_new, h, y_new, f_new,
    next |h|), or None once the step would be below ten ulps of t."""
    min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
    if h_abs < min_step:
        h_abs = min_step
    rejected = False
    while True:
        if h_abs < min_step:
            return None
        t_new = t + h_abs
        if t_new - t_bound > 0:
            t_new = t_bound
        h = t_new - t
        h_abs = np.abs(h)
        y_new, f_new = _dop853_stages(fun, t, y, f, h, K)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _dop853_error_norm(K, h, scale)
        if error_norm < 1:
            if error_norm == 0:
                factor = DOP853_MAX_FACTOR
            else:
                factor = min(DOP853_MAX_FACTOR, DOP853_SAFETY * error_norm**DOP853_EXPONENT)
            if rejected:
                factor = min(1, factor)
            return t_new, h, y_new, f_new, h_abs * factor
        h_abs *= max(DOP853_MIN_FACTOR, DOP853_SAFETY * error_norm**DOP853_EXPONENT)
        rejected = True


def _dop853_interpolant(fun, t, y, h, y_new, f_new, K):
    """Coefficients of the 7th-degree dense output over the accepted step from
    (t, y); three more stages fill rows 13-15 of K."""
    for s in range(DOP853_STAGES + 1, len(K)):
        dy = np.dot(K[:s].T, _DOP853_A[s, :s]) * h
        K[s] = fun(t + _DOP853_C[s] * h, y + dy)
    F = np.empty((7, len(y)), dtype=complex)
    f_old = K[0]
    delta_y = y_new - y
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f_new + f_old)
    F[3:] = h * np.dot(_DOP853_D, K)
    return F


def solve_ivp(fun, t_span, y0, rtol: float, atol: float, dense_output: bool = False) -> OdeResult:
    """Integrate y' = fun(t, y) over t_span = (t0, tf), t0 < tf, with DOP853,
    in complex arithmetic.

    The local error estimate of every step stays below atol + rtol |y|. The
    run fails (success False) when the step size falls below ten ulps of t,
    which is how a pole or a blow-up shows. sol(s) evaluates the dense output
    at a scalar s; a time shared by two steps takes the earlier one.
    """
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=complex)
    if not t < t_bound or y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("solve_ivp needs t0 < tf and a finite vector y0")
    nfev = 0

    def counted(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=complex)

    f = counted(t, y)
    h_abs = _initial_step(counted, t, y, t_bound, f, rtol, atol)
    K = np.empty((len(_DOP853_C), len(y)), dtype=complex)
    ts, ys, pieces = [t], [y], []
    message = DOP853_FINISHED
    while t < t_bound:
        step = _dop853_step(counted, t, y, f, h_abs, t_bound, rtol, atol, K)
        if step is None:
            message = DOP853_TOO_SMALL_STEP
            break
        t_new, h, y_new, f_new, h_abs = step
        if dense_output:
            pieces.append((t, h, y, _dop853_interpolant(counted, t, y, h, y_new, f_new, K)))
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    ts = np.array(ts)

    def sol(s):
        k = min(max(int(np.searchsorted(ts, s, side="left")) - 1, 0), len(pieces) - 1)
        t_old, h, y_old, F = pieces[k]
        x = (s - t_old) / h
        v = np.zeros_like(y_old)
        for i, c in enumerate(reversed(F)):
            v += c
            v *= x if i % 2 == 0 else 1 - x
        return v + y_old

    return OdeResult(
        t=ts,
        y=np.vstack(ys).T,
        sol=sol if dense_output else None,
        nfev=nfev,
        success=message == DOP853_FINISHED,
        message=message,
    )


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


def _continue_segments(sys: PFSystem, path, initial: PeriodSample, dense: bool):
    """DOP853 solutions of the period system along each segment of the path,
    each parametrised by s in [0, 1], with the scale of the period vector at
    the segment's start. Raises ValueError unless the path has two vertices
    and starts at initial.t, PathTooClose when a segment comes within
    PATH_MARGIN of a pole of the system and StiffnessFailure when the
    integrator gives up."""
    if len(path) < 2:
        raise ValueError("path needs at least two vertices")
    if abs(complex(path[0]) - complex(initial.t)) > 1e-12 * max(1.0, abs(initial.t)):
        raise ValueError("initial sample must sit on the first path vertex")
    poles = [cv.value for cv in sys.pole_candidates()]
    for k in range(len(path) - 1):
        a, b = complex(path[k]), complex(path[k + 1])
        for p in poles:
            if _dist_point_segment(p, a, b) < PATH_MARGIN:
                raise PathTooClose(f"path segment {k} passes within {PATH_MARGIN} of a pole")
    rhs_matrix = _matrix_evaluator(sys)
    out = []
    yvec = np.array(initial.periods, dtype=complex)
    for k in range(len(path) - 1):
        a, b = complex(path[k]), complex(path[k + 1])
        dt = b - a

        def rhs(s, y, a=a, dt=dt):
            return dt * (rhs_matrix(a + s * dt) @ y)

        scale = float(np.max(np.abs(yvec))) or 1.0
        sol = solve_ivp(rhs, (0.0, 1.0), yvec, rtol=ODE_RTOL, atol=ODE_RTOL * scale * 1e-2, dense_output=dense)
        if not sol.success:
            raise StiffnessFailure(f"integrator failed on segment {k}: {sol.message}")
        out.append((sol, scale))
        yvec = sol.y[:, -1]
    return out


def integrate_pf_numeric(sys: PFSystem, path: list[complex], initial: PeriodSample) -> list[PeriodSample]:
    """Continue a period vector along a polyline in complex t.

    Returns one sample per path vertex (the first one echoes the input).
    Raises ValueError unless the path has two vertices and starts at
    initial.t, PathTooClose when a segment comes within PATH_MARGIN of a pole
    of the system and StiffnessFailure when the integrator gives up.
    """
    out = [initial]
    err_acc = initial.error_estimate
    for k, (sol, scale) in enumerate(_continue_segments(sys, path, initial, dense=False)):
        err_acc = err_acc + ODE_RTOL * scale * len(path)
        out.append(
            PeriodSample(
                t=complex(path[k + 1]), periods=tuple(complex(v) for v in sol.y[:, -1]), error_estimate=err_acc
            )
        )
    return out


def continuation_callable(sys: PFSystem, path: list[complex], initial: PeriodSample):
    """Dense continuation along the path, for winding-number use: f(s) for s
    in [0, 1]. Each of the n segments takes an equal share 1/n of s,
    whatever its length, so s = k/n is vertex k. Raises as
    integrate_pf_numeric does."""
    sols = [sol for sol, _scale in _continue_segments(sys, path, initial, dense=True)]
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
        coeffs = _x_coefficients(H.poly, {"y": py}).real
        coeffs[-1] -= t
        roots = np.roots(coeffs)
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


def residual_check(sys: PFSystem, t_samples: list[float]) -> list[ResidualReport]:
    """Check a(t) I' = A(t) I of sys.hamiltonian against quadrature periods
    at real samples.

    Periods are computed to relative tolerance RESIDUAL_REL_TOL. Derivatives
    come from central differences with step FD_STEP * max(1, |t|); the cycles
    at t +- h are the nodes of the base cycle projected onto those levels.
    """
    rhs_matrix = _matrix_evaluator(sys)
    reports = []
    for t in t_samples:
        if sys.singular.is_near(complex(t)):
            raise NearCritical(f"sample {t} is a singular value")
        base = make_cycle(sys.hamiltonian, t, sys.singular)
        h = FD_STEP * max(1.0, abs(t))
        I, I_p, I_m = (
            np.array(periods_of_system(sys, cyc, RESIDUAL_REL_TOL).periods)
            for cyc in (base, _at_level(base, t + h), _at_level(base, t - h))
        )
        Ip = (I_p - I_m) / (2 * h)
        MI = rhs_matrix(t) @ I
        num = np.linalg.norm(Ip - MI)
        den = np.linalg.norm(MI) + 1e-30
        reports.append(
            ResidualReport(
                t=float(t),
                relative_residual=float(num / den),
                periods=tuple(complex(v) for v in I),
                cycle_kind=base.kind,
            )
        )
    return reports
