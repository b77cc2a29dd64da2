"""Numeric oracle: cycles on level curves, period integrals, continuation.

Cycles are closed polylines on {H = t} in C^2, stored as an (N, 2) complex
array of points (columns x and y). Two constructors exist:

* `trace_cycle` follows a compact real oval with a predictor-corrector
  marcher (points have zero imaginary part). A compact oval bounds a disc
  holding a local extremum of H, so `make_cycle` seeds it on the horizontal
  line through each real extremum. The trace closes when a step lands near
  the start: the landing point is dropped, and the closing edge back to the
  start must lie within 2 TURN_TARGET of the tangents at both its ends, as
  the chord of a step at the marcher's turn limit does, or the step is
  taken again, shorter.
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
Newton steps of least norm applied to many nodes at once: refinement
projects the chord midpoints of either kind of cycle onto the curve, and the
cycles at nearby levels t +- h of the residual check are the nodes of the
base cycle projected onto those levels. A branch lift needs no Newton step,
since its points solve the quadratic in y directly.

Periods are computed chord-wise with Gauss-Legendre nodes (exact for the
polygon) and Richardson extrapolation over dyadic refinements of the
polyline, which converges to the curve integral with an error estimate;
every period, of a continuation's start and of the residual check alike,
meets the one relative tolerance PERIOD_REL_TOL. Per
level, `_moments` forms the chord-point powers once per node and sums them
into the dx and dy moments of every monomial the forms use, in blocks of at
most QUAD_BLOCK nodes; a form's period is its coefficients dotted with those
moments. The residual check refines its base cycle and the projections to
t +- h in lockstep, as one stack; each (cycle, form) Richardson column stops
at the first level that meets the tolerance, and a cycle leaves the stack
once all its columns have. Real ovals stay in float64. The check evaluates
A(t) / a(t) by Horner's rule from the one packed coefficient tensor of a and
A (`_coefficient_arrays`) that the continuation reads too.
`continuation_callable`, the one continuation engine, carries a period
vector along a path in complex t and returns the dense solution. Each
segment is one `solve_ivp` run of Taylor steps: a and A are shifted to the
step's start by synthetic division, and the Taylor coefficients of I follow
from the linear recurrence of a I' = A I (Chudnovsky and Chudnovsky, 1990;
van der Hoeven, "Fast evaluation of holonomic functions", TCS 210, 1999).
The step is half the distance to the nearest pole disc, halved again until
the series meets its tail test, and the series, summed by the same Horner
rule, is the dense output. The tail test is a-posteriori; no enclosure is
claimed.
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
PERIOD_REL_TOL = 1e-12  # periods of `periods_of_system` and of the residual check
FD_STEP = 1e-5  # central-difference step of the residual check, relative to max(1, |t|)

QUAD_BLOCK = 4096  # most nodes, over all cycles of a stack, in one block of quadrature or refinement

BRANCH_LIFT_POINTS = 256  # first sample count of a branch lift

# continuation
PATH_MARGIN = 1e-3  # least distance from a path segment to a pole
ODE_RTOL = 1e-10
TAYLOR_MAX_ORDER = 60  # most Taylor terms of one step before it is halved
MIN_STEP = 1e-12  # least step, as a share of its segment


def _polyline(X, Y) -> np.ndarray:
    """(N, 2) complex array with columns X and Y, each contiguous in memory."""
    pts = np.empty((len(X), 2), dtype=complex, order="F")
    pts[:, 0] = X
    pts[:, 1] = Y
    return pts


@dataclass(frozen=True, eq=False)
class CyclePolyline:
    """Closed polyline on {H = t}; the edge from the last point back to the
    first is implicit. points is an (N, 2) complex array of (x, y) rows."""

    points: np.ndarray
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
    if singular.is_near(complex(t)):
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
        if abs(xn) > box or abs(yn) > box:
            raise NotCompactComponent("level-curve branch escaped the tracing box")
        step = math.hypot(xn - x, yn - y)
        # closure: crossed the section through the start, close to the start
        if (
            arc + step > 6 * h
            and math.hypot(xn - x0, yn - y0) < 1.5 * h
            and abs((xn - x0) * tx0 + (yn - y0) * ty0) < h
        ):
            # The landing point duplicates the start and is dropped, so the
            # closing edge runs from (x, y) to the start. It must lie within
            # 2 TURN_TARGET of the tangents at both its ends, as the chord of
            # a step at the marcher's turn limit does; if not, the step is
            # taken again, shorter.
            ex, ey = x0 - x, y0 - y
            bend = max(abs(math.atan2(ux * ey - uy * ex, ux * ex + uy * ey)) for ux, uy in ((tx, ty), (tx0, ty0)))
            if bend > 2.0 * TURN_TARGET and h > H_MIN:
                h = max(H_MIN, h * 0.4)
                continue
            if _closure_gap(H, t, (xn, yn), (x0, y0), (tx0, ty0), tol) > 1e-9 * scale:
                raise NumericFailure("oval failed to close within tolerance")
            xy = np.array(pts)
            cyc = CyclePolyline(points=_polyline(xy[:, 0], xy[:, 1]), level=complex(t), hamiltonian=H)
            return _orient_ccw(cyc)
        arc += step
        x, y, tx, ty = xn, yn, txn, tyn
        pts.append((x, y))
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


@functools.lru_cache(maxsize=None)
def _y_quadratic(H: Hamiltonian):
    """H as the quadratic c2 y^2 + c1 y + c0 in y, built once per H: the
    coefficients (c2, c1, c0), polynomials in x; the x-coefficients of the
    discriminant c1^2 - 4 c2 (c0 - t) (as `_x_coefficients` gives them),
    polynomials in t; and the roots in x of c2, where the quadratic
    degenerates. Requires deg_y = 2."""
    if H.poly.degree_in("y") != 2:
        raise NotCompactComponent(
            "no real oval found and the y-degree is not 2, no cycle construction applies"
        )
    c2, c1, c0 = (H.poly.coeff_in_var("y", k) for k in (2, 1, 0))
    disc = c1 * c1 - 4 * c2 * (c0 - MultiPoly.var("t"))
    return (c2, c1, c0), _x_coefficients(disc), np.roots([c.eval_complex({}) for c in _x_coefficients(c2)])


def branch_cycle_contour(H: Hamiltonian, t: complex):
    """Choose an x-plane ellipse enclosing exactly two branch points of the
    y-projection of {H = t}, clear of the other branch points and of the
    degeneration locus of the quadratic."""
    _, disc, degen = _y_quadratic(H)
    branch = np.roots([c.eval_complex({"t": t}) for c in disc])
    if len(branch) < 2:
        raise NotCompactComponent("fewer than two branch points; no cycle to build")
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


def _x_coefficients(p: MultiPoly) -> list[MultiPoly]:
    """Coefficients of p in x, highest first, as polynomials in the other
    variables. Leading zeros stay; np.roots drops them."""
    return [p.coeff_in_var("x", k) for k in range(p.degree_in("x"), -1, -1)]


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
    (c2, c1, c0), _, _ = _y_quadratic(H)
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
            cyc = CyclePolyline(points=_polyline(X, Y), level=complex(t), hamiltonian=H, kind="branch")
            _assert_on_curve(cyc)
            return cyc
        n_points *= 2
    raise NumericFailure("branch lift did not close; contour may graze a branch point")


def _assert_on_curve(cycle: CyclePolyline):
    t = cycle.level
    scale = max(1.0, abs(t))
    on_curve = cycle.hamiltonian.poly.eval_complex({"x": cycle.points[:, 0], "y": cycle.points[:, 1]})
    resid = np.max(np.abs(on_curve - t))
    if resid > 1e-9 * scale:
        raise NumericFailure(f"cycle points off the level curve by {resid:.2e}")


# -- quadrature -------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _gl_nodes(n: int):
    xs, ws = legendre.leggauss(n)
    return (xs + 1.0) / 2.0, ws / 2.0


def _blocks(X: np.ndarray):
    """(a, b, nxt) for blocks of nodes a..b-1 of every row of X, at most
    QUAD_BLOCK nodes over all rows; nxt indexes each node's successor in its
    closed row."""
    n = X.shape[-1]
    step = max(1, QUAD_BLOCK * n // X.size)
    for a in range(0, n, step):
        b = min(a + step, n)
        yield a, b, np.arange(a + 1, b + 1) % n


def _moments(X: np.ndarray, Y: np.ndarray, monomials) -> dict:
    """{(i, j, k): the integral of x^i y^j dx (k = 0) or dy (k = 1) along
    each closed polygon whose nodes are a row of X and Y}.

    On a chord the integrand has degree i + j, so (i + j) // 2 + 1
    Gauss-Legendre nodes are exact. A moment's node count and order of
    operations depend on its monomial only, not on the others asked for.
    Rows are summed by np.sum (pairwise) over blocks of at most QUAD_BLOCK
    nodes in all.
    """
    out = dict.fromkeys(monomials, 0.0)
    for a, b, nxt in _blocks(X):
        X0, Y0 = X[:, a:b], Y[:, a:b]
        dX, dY = X[:, nxt] - X0, Y[:, nxt] - Y0
        for count in {(i + j) // 2 + 1 for i, j, _ in monomials}:
            group = [(i, j, k) for i, j, k in monomials if (i + j) // 2 + 1 == count]
            for s, w in zip(*_gl_nodes(count)):
                xs, ys = [None, X0 + s * dX], [None, Y0 + s * dY]  # xs[i] = x^i at the node
                for powers, top in ((xs, max(m[0] for m in group)), (ys, max(m[1] for m in group))):
                    while len(powers) <= top:
                        powers.append(powers[-1] * powers[1])
                for i, j, k in group:
                    v = ys[j] if not i else xs[i] if not j else xs[i] * ys[j]
                    d = dY if k else dX
                    out[i, j, k] = out[i, j, k] + w * np.sum(d if v is None else v * d, axis=1)
    return out


def _as_real(t, X, Y):
    """Levels t and nodes (X, Y) as real arrays when none has an imaginary
    part, else as given."""
    if np.any(np.imag(t)) or np.any(np.imag(X)) or np.any(np.imag(Y)):
        return t, X, Y
    return np.real(t), np.real(X), np.real(Y)


def _project_to_level(H: Hamiltonian, t, X, Y):
    """Nodes (X, Y) moved onto {H = t}, all at once, by the Newton steps of
    least norm (x, y) -= conj(grad H) (H - t) / |grad H|^2. t is one level,
    or a column of levels with one per row of X and Y. Real nodes at real
    levels stay real and take the plain real Newton step."""
    t, X, Y = _as_real(np.asarray(t), X, Y)
    tol = ON_CURVE_TOL * np.maximum(1.0, np.abs(t))
    for _ in range(60):
        at = {"x": X, "y": Y}
        f = H.poly.eval_complex(at) - t
        if np.all(np.abs(f) <= tol):
            return X, Y
        gx, gy = np.conj(H.hx.eval_complex(at)), np.conj(H.hy.eval_complex(at))
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


def _refine_stack(H: Hamiltonian, t, X, Y):
    """Node rows (X, Y) with the projection onto level t (as in
    `_project_to_level`) of each chord midpoint inserted after the chord's
    first node, projected block by block."""
    out = [np.repeat(A, 2, axis=-1) for A in (X, Y)]  # the odd places take the midpoints
    for a, b, nxt in _blocks(X):
        mid = _project_to_level(H, t, (X[..., a:b] + X[..., nxt]) / 2, (Y[..., a:b] + Y[..., nxt]) / 2)
        for A, M in zip(out, mid):
            A[..., 2 * a + 1 : 2 * b : 2] = M
    return out


def _richardson_periods(cycles, forms) -> tuple[list[list[complex]], list[list[float]]]:
    """Curve integrals of the forms over each cycle, with their error
    estimates: one list of values and one of errors per cycle.

    The cycles share one node count and are refined in lockstep, real ovals
    in real arithmetic. The polygon value has an even-power error expansion
    in the mesh size, so each dyadic refinement cancels another order. Each
    (cycle, form) column whose extrapolated increment still exceeds
    max(PERIOD_REL_TOL |value|, ABS_TOL) gets one more row of its Richardson
    table; a column that meets the tolerance keeps the value of that level,
    and a cycle leaves the stack once all its columns have.
    """
    H = cycles[0].hamiltonian
    X, Y = (np.array([c.points[:, k] for c in cycles]) for k in (0, 1))
    t, X, Y = _as_real(np.array([[c.level] for c in cycles]), X, Y)
    while X.shape[1] < MIN_POINTS:
        X, Y = _refine_stack(H, t, X, Y)
    # ((i, j, k), coefficient) for each term c x^i y^j of P (k = 0), then of Q (k = 1)
    terms = [
        [((i, j, k), float(c)) for k, p in enumerate((w.P, w.Q)) for (i, j, _), c in p.terms.items()] for w in forms
    ]
    cols = [(c, f) for c in range(len(cycles)) for f in range(len(forms))]
    rows = [[None] * len(forms) for _ in cycles]  # the last row of each table
    best = [[0j] * len(forms) for _ in cycles]
    err = [[math.inf] * len(forms) for _ in cycles]
    live = list(range(len(cycles)))  # the cycle of each row of X and Y
    for level in range(MAX_LEVELS + 1):
        if level:
            X, Y = _refine_stack(H, t, X, Y)
        moments = _moments(X, Y, sorted({m for _, f in cols for m, _ in terms[f]}))
        still_open = []
        for c, f in cols:
            row = [complex(sum((coef * moments[m][live.index(c)] for m, coef in terms[f]), 0.0))]
            for j in range(1, level + 1):
                factor = 4.0**j
                row.append((factor * row[j - 1] - rows[c][f][j - 1]) / (factor - 1.0))
            rows[c][f] = row
            if level:
                err[c][f] = abs(row[-1] - best[c][f])
            best[c][f] = row[-1]
            if err[c][f] > max(PERIOD_REL_TOL * abs(best[c][f]), ABS_TOL):
                still_open.append((c, f))
        cols = still_open
        keep = [r for r, c in enumerate(live) if any(o == c for o, _ in cols)]
        if not keep:
            break
        if len(keep) < len(live):
            t, X, Y, live = t[keep], X[keep], Y[keep], [live[r] for r in keep]
    return best, err


def periods_of_system(sys: PFSystem, cycle: CyclePolyline) -> PeriodSample:
    """All basis periods on one shared refinement of the cycle, to relative
    tolerance PERIOD_REL_TOL; the error estimate is the largest over the
    forms."""
    (vals,), (errs,) = _richardson_periods([cycle], sys.forms)
    return PeriodSample(t=cycle.level, periods=tuple(vals), error_estimate=max([0.0, *errs]))


# -- continuation of the period system ---------------------------------------------


def _coefficient_arrays(sys: PFSystem) -> np.ndarray:
    """The packed coefficient tensor of the system: the coefficients of a(t)
    (column 0) and of the entries of A(t), row by row (columns 1..n^2), lowest
    power first, zero-padded to a common length, in complex128."""
    n = sys.dim
    entries = [sys.a] + [sys.A[i, j] for i in range(n) for j in range(n)]
    coefs = np.zeros((max(sys.a.degree(), sys.A.max_degree()) + 1, 1 + n * n), dtype=complex)
    for col, p in enumerate(entries):
        if not p.is_zero:
            for k, c in enumerate(p.univariate_coeffs("t")):
                coefs[k, col] = complex(c)
    return coefs


def _horner(rows: np.ndarray, x) -> np.ndarray:
    """sum_k rows[k] x^k by Horner's rule, highest power first."""
    v = rows[-1]
    for row in rows[-2::-1]:
        v = v * x + row
    return v


def _taylor_shift(coefs: np.ndarray, t0: complex) -> np.ndarray:
    """The coefficients of p(t0 + u) in powers of u, for each polynomial p
    whose coefficients, lowest power first, run down the first axis of coefs:
    repeated synthetic division by t - t0, vectorised over the other axes."""
    c = coefs[::-1].copy()  # highest power first
    deg = len(c) - 1
    for i in range(deg):
        for j in range(1, deg + 1 - i):
            c[j] += t0 * c[j - 1]
    return c[::-1]


def _taylor_terms(shifted: np.ndarray, step: complex, y: np.ndarray, tol: float):
    """Taylor coefficients c_0 = y, c_1, ... in sigma of the solution of
    a I' = A I over t = t0 + sigma step, where shifted stacks the
    coefficients of a and of the entries of A in powers of t - t0. With
    alpha_j and B_j the coefficients of sigma^j in a and in step A,

        alpha_0 (m+1) c_(m+1) = sum_j B_j c_(m-j) - sum_(j>=1) alpha_j (m+1-j) c_(m+1-j),

    one einsum per order of the blocks [B_j, -alpha_(j+1) Id] against the
    rows [c_k, k c_k]. Returns the terms up to the first two consecutive ones
    below tol in max-norm, or None when TAYLOR_MAX_ORDER terms do not get
    there."""
    deg, n = len(shifted) - 1, len(y)
    powers = step ** np.arange(deg + 1)
    alpha = shifted[:, 0] * powers
    M = np.zeros((deg + 1, n, 2 * n), dtype=complex)
    M[:, :, :n] = (shifted[:, 1:] * (step * powers)[:, None]).reshape(deg + 1, n, n)
    M[:-1, :, n:] = -alpha[1:, None, None] * np.eye(n)
    Z = np.zeros((TAYLOR_MAX_ORDER + 1, 2 * n), dtype=complex)  # rows [c_k, k c_k]
    Z[0, :n] = y
    small = False
    for m in range(TAYLOR_MAX_ORDER):
        J = min(m, deg)
        Z[m + 1, n:] = np.einsum("jik,jk->i", M[: J + 1], Z[m - J : m + 1][::-1]) / alpha[0]
        Z[m + 1, :n] = Z[m + 1, n:] / (m + 1)
        below = np.abs(Z[m + 1, :n]).max() < tol
        if below and small:
            return Z[: m + 2, :n]
        small = below
    return None


@dataclass(frozen=True, eq=False)
class TaylorSolution:
    """The solution of one segment, s in [0, 1], in Taylor pieces: piece k
    starts at starts[k], spans steps[k] and has the coefficient rows
    terms[k] in sigma = (s - starts[k]) / steps[k], lowest order first. y is
    the value at s = 1 and nfev the number of coefficient vectors computed,
    those of halved steps included."""

    starts: np.ndarray
    steps: tuple[float, ...]
    terms: tuple[np.ndarray, ...]
    y: np.ndarray
    nfev: int

    def sol(self, s: float) -> np.ndarray:
        """The dense solution at s by Horner's rule on its piece; an s shared
        by two pieces takes the earlier one."""
        k = min(max(int(np.searchsorted(self.starts, s, side="left")) - 1, 0), len(self.terms) - 1)
        x = (s - self.starts[k]) / self.steps[k]
        return _horner(self.terms[k], x)


def solve_ivp(coefs: np.ndarray, a: complex, b: complex, discs, y0: np.ndarray) -> TaylorSolution:
    """Taylor-series solution of a I' = A I along t = a + s (b - a), s in
    [0, 1], from I(a) = y0. coefs stacks the coefficients of a(t) (column 0)
    and of the flattened entries of A(t), lowest power first; discs are the
    (centre, radius) discs of the roots of a, none of which meets the segment.

    From s0 the step is h = min(1 - s0, d / (2 |b - a|)), d the distance
    from t(s0) to the nearest disc, so the series converges at least like
    2^(-m). Its terms stop below ODE_RTOL 1e-2 max|I(s0)| (`_taylor_terms`);
    a step that needs more than TAYLOR_MAX_ORDER terms is halved. The test is
    a-posteriori, like an embedded error estimate; no enclosure is claimed.
    Raises StiffnessFailure when the step falls below MIN_STEP.
    """
    dt = b - a
    y = np.asarray(y0, dtype=complex)
    starts, steps, terms, nfev = [], [], [], 0
    s0 = 0.0
    while s0 < 1.0:
        t0 = a + s0 * dt
        d = min((abs(t0 - p) - r for p, r in discs), default=math.inf)
        h = min(1.0 - s0, 0.5 * d / abs(dt)) if dt else 1.0 - s0
        shifted = _taylor_shift(coefs, t0)
        tol = ODE_RTOL * 1e-2 * (float(np.max(np.abs(y))) or 1.0)
        while (c := _taylor_terms(shifted, h * dt, y, tol)) is None:
            nfev += TAYLOR_MAX_ORDER
            h /= 2
            if h < MIN_STEP:
                raise StiffnessFailure(f"Taylor step below {MIN_STEP} of the segment from {a} to {b}, at s = {s0}")
        nfev += len(c) - 1
        starts.append(s0)
        steps.append(h)
        terms.append(c)
        y = c.sum(axis=0)
        s0 = 1.0 if h == 1.0 - s0 else s0 + h
    return TaylorSolution(starts=np.array(starts), steps=tuple(steps), terms=tuple(terms), y=y, nfev=nfev)


def continuation_callable(sys: PFSystem, path: list[complex], initial: PeriodSample):
    """Dense continuation of the period vector along the path, for
    winding-number use: f(s) for s in [0, 1]. Each of the n segments is one
    `solve_ivp` solution and takes an equal share 1/n of s, whatever its
    length, so s = k/n is vertex k. Raises ValueError unless the path has two
    vertices and starts at initial.t, PathTooClose when a segment comes
    within PATH_MARGIN of a pole of the system or meets its isolation disc,
    and StiffnessFailure when the step size collapses."""
    if len(path) < 2:
        raise ValueError("path needs at least two vertices")
    if abs(complex(path[0]) - complex(initial.t)) > 1e-12 * max(1.0, abs(initial.t)):
        raise ValueError("initial sample must sit on the first path vertex")
    discs = [(cv.value, cv.radius) for cv in sys.pole_candidates()]
    for k in range(len(path) - 1):
        a, b = complex(path[k]), complex(path[k + 1])
        for p, r in discs:
            dist = _dist_point_segment(p, a, b)
            if dist < PATH_MARGIN or dist <= r:
                raise PathTooClose(f"path segment {k} passes within {max(PATH_MARGIN, r)} of a pole")
    coefs = _coefficient_arrays(sys)
    sols = []
    yvec = np.array(initial.periods, dtype=complex)
    for k in range(len(path) - 1):
        sol = solve_ivp(coefs, complex(path[k]), complex(path[k + 1]), discs, yvec)
        sols.append(sol)
        yvec = sol.y
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
    H(x, y_p) = t on either side of each real extremum p of H, the left one
    first; None when no extremum yields one."""
    for px, py in singular.extrema:
        coeffs = np.array([c.eval_complex({"y": py}) for c in _x_coefficients(H.poly)]).real
        coeffs[-1] -= t
        roots = np.roots(coeffs)
        xs = roots.real[np.abs(roots.imag) < 1e-9]
        sides = (xs[xs < px].max(initial=-np.inf), xs[xs > px].min(initial=np.inf))
        for x in sides:
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
    branch-point construction. singular is the critical-value set of H;
    raises NearCritical when t lies in one of its discs."""
    tc = complex(t)
    if singular.is_near(tc):
        raise NearCritical(f"t = {t} is a singular value")
    if abs(tc.imag) < 1e-12:
        cyc = _find_real_oval(H, tc.real, singular)
        if cyc is not None:
            return cyc
    return branch_point_cycle(H, tc)


def residual_check(sys: PFSystem, t_samples: list[float]) -> list[ResidualReport]:
    """Check a(t) I' = A(t) I of sys.hamiltonian against quadrature periods
    at real samples.

    Periods are computed to relative tolerance PERIOD_REL_TOL. Derivatives
    come from central differences with step FD_STEP * max(1, |t|); the cycles
    at t +- h are the nodes of the base cycle projected onto those levels,
    and all three are refined in lockstep.
    """
    coefs = _coefficient_arrays(sys)
    reports = []
    for t in t_samples:
        base = make_cycle(sys.hamiltonian, t, sys.singular)
        h = FD_STEP * max(1.0, abs(t))
        vals, _errs = _richardson_periods([base, _at_level(base, t + h), _at_level(base, t - h)], sys.forms)
        I, I_p, I_m = (np.array(v) for v in vals)
        Ip = (I_p - I_m) / (2 * h)
        v = _horner(coefs, t)
        MI = (v[1:].reshape(sys.dim, sys.dim) / v[0]) @ I
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
