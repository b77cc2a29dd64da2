"""Zero counting and bounding for solutions of the scalar equations.

The pipeline: cut the plane along one ray per singular value
(`simple_domain` owns every cut-plane decision: it validates given
directions, or sweeps for one common direction, and keeps the region in the
unit disc and rho away from the singular values), cover the region by
polygons whose boundary segments stay clear of every coefficient pole
(`decompose_simple_domain`: a rectangle with a corridor around each ray,
the rays and the corridor walls clipped to it by one routine), bound
the modulus of the coefficients on each segment by a rigorous centred form
on bisected sub-segments, convert to a variation-of-argument bound per segment
(pi (n+1) (1 + l C / log(3/2))), and sum over 2 pi. The argument principle
on sampled contours supplies the numeric count, which the bound must
dominate. The closed-form asymptotic calculators are reporting-only.
"""

from __future__ import annotations

import cmath
import decimal
import functools
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .errors import (
    Inconclusive,
    InfeasibleClearance,
    InvalidRays,
    InvalidRho,
    NumericFailure,
    PoleOnSegment,
    UsageError,
    ZeroOnContour,
)
from .hamiltonian import SingularSet
from .pfsystem import ScalarODE

LOG32 = math.log(1.5)
SEGMENT_COUNT_CONSTANT = 64  # explicit stand-in for the O(|sigma|^2) cap
CLEARANCE_CONSTANT = 4  # pole clearance rho / (4 |Z|)


# -- regions and domains -----------------------------------------------------


@dataclass(frozen=True)
class Disc:
    center: complex
    radius: float

    def bbox(self):
        c, r = self.center, self.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)

    def dist_to_point(self, z: complex) -> float:
        return max(0.0, abs(z - self.center) - self.radius)

    def max_abs(self) -> float:
        return abs(self.center) + self.radius


@dataclass(frozen=True)
class Polygon:
    vertices: tuple[complex, ...]

    def bbox(self):
        xs = [v.real for v in self.vertices]
        ys = [v.imag for v in self.vertices]
        return (min(xs), max(xs), min(ys), max(ys))

    def dist_to_point(self, z: complex) -> float:
        if self._contains(z):
            return 0.0
        n = len(self.vertices)
        return min(
            _dist_point_segment(z, self.vertices[i], self.vertices[(i + 1) % n])
            for i in range(n)
        )

    def _contains(self, z: complex) -> bool:
        cnt = 0
        n = len(self.vertices)
        for i in range(n):
            a, b = self.vertices[i], self.vertices[(i + 1) % n]
            if (a.imag > z.imag) != (b.imag > z.imag):
                xc = a.real + (z.imag - a.imag) * (b.real - a.real) / (b.imag - a.imag)
                if xc > z.real:
                    cnt ^= 1
        return bool(cnt)

    def max_abs(self) -> float:
        return max(abs(v) for v in self.vertices)


def _dist_point_segment(z: complex, a: complex, b: complex) -> float:
    if a == b:
        return abs(z - a)
    u = (z - a) / (b - a)
    s = min(1.0, max(0.0, u.real))
    return abs(z - (a + s * (b - a)))


def _segments_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        v = (b - a).real * (c - a).imag - (b - a).imag * (c - a).real
        if abs(v) < 1e-14:
            return 0
        return 1 if v > 0 else -1

    o1, o2 = orient(p1, p2, p3), orient(p1, p2, p4)
    o3, o4 = orient(p3, p4, p1), orient(p3, p4, p2)
    if o1 != o2 and o3 != o4:
        return True
    def on(a, b, c):
        return (
            orient(a, b, c) == 0
            and min(a.real, b.real) - 1e-14 <= c.real <= max(a.real, b.real) + 1e-14
            and min(a.imag, b.imag) - 1e-14 <= c.imag <= max(a.imag, b.imag) + 1e-14
        )
    return on(p1, p2, p3) or on(p1, p2, p4) or on(p3, p4, p1) or on(p3, p4, p2)


@dataclass(frozen=True)
class SimpleDomain:
    """Region kept away from the singular set, inside the plane cut along one
    ray per singular point."""

    sigma: SingularSet
    ray_directions: tuple[complex, ...]
    region: Disc | Polygon
    rho: float


def simple_domain(
    sigma: SingularSet,
    ray_directions,
    region,
    rho: float,
    relaxed_bounds: bool,
) -> SimpleDomain:
    """Validated constructor; see the class invariants. The region must lie
    in the closed unit disc unless relaxed_bounds is set.

    ray_directions None (`--rays auto`) cuts along one common direction,
    which keeps the rays disjoint when it is parallel to no difference of two
    singular points: 64 candidates spaced by the golden angle from the phase
    of (mean singular point - region centre), parallel ones skipped, the
    first that validates taken, else the last InvalidRays raised again.
    """
    pts = sigma.points()
    if ray_directions is None:
        center = region.center if isinstance(region, Disc) else sum(region.vertices) / len(region.vertices)
        mean = sum(pts) / len(pts) if pts else 1.0 + 0j
        base = cmath.phase(mean - center) if mean != center else 0.0
        last_err = InvalidRays("no admissible common ray direction found")
        for k in range(64):
            u = cmath.exp(1j * (base + k * 0.39996322972865332))
            if any(
                abs((pts[i] - pts[j]).real * u.imag - (pts[i] - pts[j]).imag * u.real)
                < 1e-9 * abs(pts[i] - pts[j])
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            ):
                continue
            try:
                return simple_domain(sigma, [u] * len(pts), region, rho, relaxed_bounds)
            except InvalidRays as e:
                last_err = e
        raise last_err
    if len(ray_directions) != len(pts):
        raise InvalidRays("one ray direction per singular point is required")
    if rho <= 0:
        raise UsageError("rho must be positive")
    dirs = []
    for u in ray_directions:
        u = complex(u)
        if u == 0:
            raise InvalidRays("zero ray direction")
        dirs.append(u / abs(u))
    xmin, xmax, ymin, ymax = region.bbox()
    extent = max(abs(xmin), abs(xmax), abs(ymin), abs(ymax)) + max(
        (abs(p) for p in pts), default=0.0
    )
    span = 1000.0 * (extent + 1.0)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if _segments_intersect(
                pts[i], pts[i] + dirs[i] * span, pts[j], pts[j] + dirs[j] * span
            ):
                raise InvalidRays(f"rays {i} and {j} intersect")
    for i, p in enumerate(pts):
        a, b = p, p + dirs[i] * span
        if isinstance(region, Disc):
            if _dist_point_segment(region.center, a, b) <= region.radius:
                raise InvalidRays(f"ray {i} meets the region")
        else:
            n = len(region.vertices)
            for k in range(n):
                if _segments_intersect(a, b, region.vertices[k], region.vertices[(k + 1) % n]):
                    raise InvalidRays(f"ray {i} meets the region")
            if region._contains(a):
                raise InvalidRays(f"ray {i} starts inside the region")
    for p in pts:
        if region.dist_to_point(p) < rho:
            raise InfeasibleClearance(
                f"region is closer than rho = {rho} to the singular point {p}"
            )
    if not relaxed_bounds and region.max_abs() > 1.0 + 1e-12:
        raise UsageError(
            "region exceeds the closed unit disc; pass relaxed_bounds to allow this"
        )
    return SimpleDomain(sigma=sigma, ray_directions=tuple(dirs), region=region, rho=rho)


@dataclass(frozen=True)
class SegmentSet:
    segments: tuple[tuple[complex, complex], ...]
    clearance_to_poles: float


def _free_value(span_lo, span_hi, blocked):
    """Smallest value in [span_lo, span_hi] outside all blocked open intervals."""
    events = sorted((max(lo, span_lo), min(hi, span_hi)) for lo, hi in blocked if hi > span_lo and lo < span_hi)
    cur = span_lo
    for lo, hi in events:
        if cur < lo:
            return cur
        cur = max(cur, hi)
    if cur <= span_hi:
        return cur
    return None


def decompose_simple_domain(dom: SimpleDomain, poles: list[complex]) -> SegmentSet:
    """Boundary segments of a polygonal cover of the region inside the cut
    plane. Every segment keeps distance rho/(4 |Z|) from the poles and rho/2
    from the outer frame; blind-alley corridors around each ray let the cover
    hug the cuts from both sides.

    The corridors have half-width rho/(4 |Z|) (widened only to clear poles),
    so when the region itself approaches a cut closer than that, the strip
    along the cut is excluded from the covered area: the resulting bound
    counts zeros in the region minus those strips.
    """
    rho = dom.rho
    poles = list(poles)
    for p in dom.sigma.points():
        if not any(abs(p - q) <= 1e-9 * (1 + abs(p)) for q in poles):
            poles.append(p)
    nz = max(1, len(poles))
    delta = rho / (CLEARANCE_CONSTANT * nz)
    xmin, xmax, ymin, ymax = dom.region.bbox()

    # rectangle sides, one offset each, clearing all poles
    def side_offset(coords, base: float, direction: int):
        blocked = []
        for coord in coords:
            c = (coord - base) * direction
            blocked.append((c - delta, c + delta))
        v = _free_value(rho / 4.0, 7.0 * rho / 8.0, blocked)
        if v is None:
            raise InfeasibleClearance(
                "cannot place the covering rectangle clear of the poles"
            )
        return v

    xs, ys = [p.real for p in poles], [p.imag for p in poles]
    X0, X1 = xmin - side_offset(xs, xmin, -1), xmax + side_offset(xs, xmax, +1)
    Y0, Y1 = ymin - side_offset(ys, ymin, -1), ymax + side_offset(ys, ymax, +1)
    rect = (X0, X1, Y0, Y1)

    corners = [complex(X0, Y0), complex(X1, Y0), complex(X1, Y1), complex(X0, Y1)]
    sides = [(corners[i], corners[(i + 1) % 4]) for i in range(4)]
    side_cuts: list[list[tuple[float, float]]] = [[], [], [], []]
    segments: list[tuple[complex, complex]] = []

    pts = dom.sigma.points()
    for i, s in enumerate(pts):
        u = dom.ray_directions[i]
        hit = _clip_to_rect(s, u, math.inf, 0.0, rect)
        if hit is None:
            continue
        tau0, tau1 = hit
        # wall half-width: the nearest pole is the ray's own endpoint at
        # exactly the offset, so anything from delta up is admissible
        span_lo = delta * (1.0 + 1e-6)
        span_hi = max(rho / 4.0, span_lo * 1.25)
        blocked = []
        for p in poles:
            if abs(p - s) < 1e-12:
                continue
            w = (p - s) / u
            if -rho <= w.real <= tau1 + rho:
                dline = abs(w.imag)
                blocked.append((dline - delta, dline + delta))
        w = _free_value(span_lo, span_hi, blocked)
        if w is None:
            raise InfeasibleClearance("cannot route a corridor clear of the poles")
        nvec = u * 1j
        start_tau = tau0 if tau0 > 0 else -w  # cap behind the singular point
        for sgn in (+1, -1):
            a = s + u * start_tau + sgn * w * nvec
            b = s + u * tau1 + sgn * w * nvec
            d = b - a
            hit = _clip_to_rect(a, d, 1.0, 1e-12, rect)
            if hit is not None:
                segments.append((a + hit[0] * d, a + hit[1] * d))
        if tau0 <= 0:
            cap_a = s + u * start_tau + w * nvec
            cap_b = s + u * start_tau - w * nvec
            segments.append((cap_a, cap_b))
        # record the crossings on the rectangle sides where the corridor
        # exits and, for a singular point outside, enters
        for tau in (tau1, tau0) if tau0 > 0 else (tau1,):
            pt = s + u * tau
            for k, (a, b) in enumerate(sides):
                proj = _project_on_segment(pt, a, b)
                if proj is not None and abs(pt - (a + proj * (b - a))) < 1e-9 * (1 + abs(pt)):
                    half = w / abs(b - a)
                    side_cuts[k].append((proj - half, proj + half))

    for k, (a, b) in enumerate(sides):
        cuts = sorted(side_cuts[k])
        cur = 0.0
        for lo, hi in cuts:
            if lo > cur:
                segments.append((a + cur * (b - a), a + lo * (b - a)))
            cur = max(cur, hi)
        if cur < 1.0:
            segments.append((a + cur * (b - a), a + 1.0 * (b - a)))

    cap = SEGMENT_COUNT_CONSTANT * max(1, len(pts) ** 2)
    if len(segments) > cap:
        raise InfeasibleClearance(f"segment count {len(segments)} exceeds the cap {cap}")
    min_clear = float("inf")
    for a, b in segments:
        for p in poles:
            min_clear = min(min_clear, _dist_point_segment(p, a, b))
    if poles and min_clear < delta * (1 - 1e-9):
        raise InfeasibleClearance(
            f"segment clearance {min_clear:.3e} below rho/(4|Z|) = {delta:.3e}"
        )
    # the outer frame is the rectangle grown by rho/2, so a segment keeps
    # rho/2 from it when it stays in the rectangle
    for a, b in segments:
        for z in (a, b):
            if min(z.real - X0, X1 - z.real, z.imag - Y0, Y1 - z.imag) < -1e-12:
                raise InfeasibleClearance("segment too close to the outer frame")
    return SegmentSet(
        segments=tuple(segments),
        clearance_to_poles=min_clear if poles else float("inf"),
    )


def _clip_to_rect(a: complex, d: complex, t1: float, tol: float, rect):
    """Parameter interval [t0, t1] of {a + t d : 0 <= t <= t1} inside the box
    (X0, X1, Y0, Y1) (Liang-Barsky), or None when it is empty; a direction
    parallel to a side keeps the line when it lies within tol of the box."""
    X0, X1, Y0, Y1 = rect
    t0 = 0.0
    for sc, uc, lo, hi in ((a.real, d.real, X0, X1), (a.imag, d.imag, Y0, Y1)):
        if abs(uc) < 1e-15:
            if sc < lo - tol or sc > hi + tol:
                return None
            continue
        ta, tb = (lo - sc) / uc, (hi - sc) / uc
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
    if t0 >= t1:
        return None
    return (t0, t1)


def _project_on_segment(z: complex, a: complex, b: complex):
    u = (z - a) / (b - a)
    if -1e-9 <= u.real <= 1 + 1e-9 and abs(u.imag) * abs(b - a) < 1e-7 * (1 + abs(z)):
        return min(1.0, max(0.0, u.real))
    return None


# -- rigorous coefficient suprema ------------------------------------------------

_SUP_PIECES = 16  # starting sub-segments of [a, b] per coefficient
_SUP_BUDGET = 500_000  # bisected sub-segments before NumericFailure
_SUP_CHUNK = 8192  # sub-segments per numpy pass, which caps its memory
_U = 2.0**-53  # unit roundoff of float64
_SUB = 2.0**-1021  # 2^-1074 / u: absorbs the rounding of subnormal intermediates


def coefficient_sup(ode: ScalarODE, a: complex, b: complex, tol: float) -> float:
    """Rigorous upper bound for max over the segment [a, b] and the
    coefficients of |coefficient(t)|, by a centred form on bisected
    sub-segments until the enclosure is within the relative tolerance. The
    returned value always dominates the true supremum.

    Enclosure. Each coefficient F = N/D is scaled exactly by powers of two
    to float coefficients a_j = c_j 2^-e, so that no height overflows; the
    scaling is undone in the quotient. On a sub-segment t = t_m + u h,
    |u| <= r, h = b - a, take the Taylor coefficients N_k, D_k at the centre
    t_m, f0 = N_0/D_0 and f1 = (N_1 - f0 D_1)/D_0. Then
    F(t) = f0 + f1 u h + Q(u h)/D(t) with Q = N - (f0 + f1 w) D, whose
    coefficients q_0 and q_1 vanish up to rounding, so that

    - |F(t)| <= max over +- of |f0 +- f1 h r| + sum_k |q_k| (r|h|)^k / lowD:
      the affine part is convex in u, so its maximum is at an endpoint and
      is exact, and the remainder is O(r^2);
    - lowD = dist(0, [D_0 - D_1 h r, D_0 + D_1 h r]) - sum_{k>=2} |D_k| (r|h|)^k
      bounds |D| from below on the sub-segment.

    The same affine value minus the remainder bounds |F| from below at an
    end of the sub-segment, so the bounds close in like r^2.

    Rounding. The computed centre and h lie within w = 5u(|a| + |h|) of the
    exact ones, which widens r|h| to rho = r|h| + w and adds |f1| w and
    |D_1| w. Every other rounding error is at most a multiple of u times
    S = sum_j B_j (|t_m| + rho)^j, which is the Taylor shift of |a| at |t_m|
    summed against the powers of rho: a Taylor coefficient takes at most 5W
    roundings per term (the powers, the binomial, the product and the sum;
    Higham, Accuracy and Stability of Numerical Algorithms, ch. 3 and 5),
    the scaled coefficient one more, and Q, the distance and the sums at
    most W + 30 more, W the number of Taylor coefficients. The bounds add
    (32 W + 128) u times S_N + (|f0| + |f1| rho) S_D, a factor of four to
    spare, which also covers the rounding of S itself; the 2^-1021 in
    B_j = |a_j| (1 + 4u) + 2^-1021 covers subnormal intermediates. The
    quotient rounds up before and after the scaling.

    Search. Every live sub-segment of every coefficient is evaluated in one
    numpy pass (`_sup_pass`; _SUP_CHUNK caps its size). A sub-segment whose
    bound is at most best_lower (1 + tol), best_lower the largest lower
    bound for a value |F(t)| seen so far, is dropped, and its bound counts
    in the value returned; all others are bisected together for the next
    pass.
    """
    for cv in ode.pole_set:
        if _dist_point_segment(cv.value, a, b) <= max(cv.radius, 1e-12):
            raise PoleOnSegment(f"segment ({a}, {b}) touches the pole enclosure at {cv.value}")
    coeffs = [c for c in ode.coeffs if not c.is_zero]
    if not coeffs:
        return 0.0
    mats, shifts = _coeff_arrays(coeffs)
    a = complex(a)
    h = complex(b) - a
    width = mats.shape[1] // 2
    seg = (a, h, 5 * _U * (abs(a) + abs(h)), (32 * width + 128) * _U)
    cidx = np.repeat(np.arange(len(coeffs)), _SUP_PIECES)
    mid = np.tile((np.arange(_SUP_PIECES) + 0.5) / _SUP_PIECES, len(coeffs))
    rad = np.full(len(cidx), 0.5 / _SUP_PIECES)
    best_lower = result = 0.0
    budget = _SUP_BUDGET
    while True:
        ups, lowers = [], []
        for lo in range(0, len(cidx), _SUP_CHUNK):
            part = slice(lo, lo + _SUP_CHUNK)
            up, lower = _sup_pass(mats, shifts, cidx[part], mid[part], rad[part], seg)
            ups.append(up)
            lowers.append(lower)
        up = np.concatenate(ups)
        best_lower = max(best_lower, float(np.concatenate(lowers).max()))
        live = up > max(best_lower * (1 + tol), 1e-300)
        if not live.all():
            result = max(result, float(up[~live].max()))
        if not live.any():
            return result
        cidx, mid, rad = cidx[live], mid[live], rad[live]
        if rad.min() < 0.5e-14:
            raise PoleOnSegment("subdivision collapsed onto a pole of a coefficient")
        budget -= len(rad)
        if budget < 0:
            raise NumericFailure("coefficient supremum subdivision budget exhausted")
        rad = rad / 2
        mid = np.column_stack([mid - rad, mid + rad]).ravel()
        rad = np.repeat(rad, 2)
        cidx = np.repeat(cidx, 2)


def _coeff_arrays(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Per coefficient N/D, the matrix that takes the powers of a centre t
    and of a real s to the Taylor coefficients of N and D at t and to the
    rounding sums sum_j B_j s^j of N and D; and the exponent of the scaling
    that the quotient undoes.

    For P = sum_j a_j t^j, sum_i t^i a_{i+k} C(i+k, k) = P^(k)(t)/k!: the
    Taylor shift of repeated synthetic division as one matrix, so that a
    pass takes every Taylor coefficient at every centre in one product."""
    polys = [p for c in coeffs for p in (c.num, c.den)]
    width = max(2, 1 + max(p.degree() for p in polys))  # at least N_0, N_1
    scaled = np.zeros((len(polys), 2 * width))
    exps = []
    for row, p in zip(scaled, polys):
        cs = p.univariate_coeffs("t")
        e = max(c.numerator.bit_length() - c.denominator.bit_length() for c in cs if c)
        # int / int rounds correctly; the scaling makes every |a_j| < 2
        row[: len(cs)] = [
            c.numerator / (c.denominator << e) if e >= 0 else (c.numerator << -e) / c.denominator
            for c in cs
        ]
        exps.append(e)
    j = np.add.outer(np.arange(width), np.arange(width))
    taylor = scaled[:, j] * _binomials(width)  # (polys, i, k)
    bound = np.abs(scaled[:, :width]) * (1 + 4 * _U) + _SUB  # (polys, j)
    mats = np.zeros((len(coeffs), 2 * width, 2 * width + 2))
    for c in range(len(coeffs)):
        for side in (0, 1):
            mats[c, :width, side * width : (side + 1) * width] = taylor[2 * c + side]
            mats[c, width:, 2 * width + side] = bound[2 * c + side]
    return mats, np.array(exps[0::2]) - np.array(exps[1::2])


@functools.lru_cache(maxsize=None)
def _binomials(width: int) -> np.ndarray:
    """C(i + k, k) for 0 <= i, k < width, each rounded once to a float;
    read-only, as every caller shares it."""
    out = np.array([[float(math.comb(i + k, k)) for k in range(width)] for i in range(width)])
    out.flags.writeable = False
    return out


def _sup_pass(mats, shifts, cidx, mid, rad, seg):
    """Upper bounds of |N/D| on the sub-segments mid +- rad of the
    coefficients cidx (sorted), and lower bounds for its largest value there;
    see coefficient_sup for the enclosure."""
    a, h, w, gamma = seg
    width = mats.shape[1] // 2
    n = len(cidx)
    t = a + mid * h
    rho = (rad * abs(h) + w) * (1 + 8 * _U)
    # powers of the centre, of |centre| + rho and of rho, by repeated products
    pows = np.empty((n, 3, width + 1), dtype=complex)
    pows[:, :, 0] = 1.0
    pows[:, 0, 1:] = t[:, None]
    pows[:, 1, 1:] = (abs(t) + rho)[:, None]
    pows[:, 2, 1:] = rho[:, None]
    np.cumprod(pows, axis=2, out=pows)
    # real and imaginary rows against real matrices: real products, which
    # also keep the small products on OpenBLAS's single-threaded path
    lhs = np.zeros((n, 2, 2 * width))
    lhs[:, 0, :width] = pows[:, 0, :width].real
    lhs[:, 1, :width] = pows[:, 0, :width].imag
    lhs[:, 0, width:] = pows[:, 1, :width].real
    out = np.empty((n, 2, 2 * width + 2))
    bounds = np.searchsorted(cidx, np.arange(len(mats) + 1))
    for c in np.flatnonzero(np.diff(bounds)):
        lo, hi = bounds[c], bounds[c + 1]
        out[lo:hi] = (lhs[lo:hi].reshape(-1, 2 * width) @ mats[c]).reshape(-1, 2, 2 * width + 2)
    taylor = out[:, 0, : 2 * width] + 1j * out[:, 1, : 2 * width]
    num, den = taylor[:, :width], taylor[:, width:]
    err_n, err_d = out[:, 0, 2 * width], out[:, 0, 2 * width + 1]
    rp = pows[:, 2].real
    hr = rad * h
    with np.errstate(all="ignore"):
        f0 = num[:, 0] / den[:, 0]
        f1 = (num[:, 1] - f0 * den[:, 1]) / den[:, 0]
        q = np.zeros((n, width + 1), dtype=complex)
        q[:, :width] = num - f0[:, None] * den
        q[:, 1:] -= f1[:, None] * den
        af0, af1 = abs(f0), abs(f1)
        rem = np.einsum("pj,pj->p", abs(q), rp) + gamma * (err_n + (af0 + af1 * rho) * err_d)
        tail_d = np.einsum("pj,pj->p", abs(den[:, 2:]), rp[:, 2:width]) + abs(den[:, 1]) * w
        low_d = _dist_to_segment(den[:, 0], den[:, 1] * hr) - tail_d - gamma * err_d
        ext = np.maximum(abs(f0 + f1 * hr), abs(f0 - f1 * hr))
        spread = af1 * w + 8 * _U * (af0 + af1 * rho) + rem / low_d
        ok = (low_d > 0) & np.isfinite(spread)
        scaled = np.where(ok, (ext + spread) * (1 + 8 * _U), np.inf)
        de = shifts[cidx]
        up = np.nextafter(np.ldexp(scaled, de), np.inf)
        lower = np.ldexp(np.where(ok, np.maximum(af0, ext - spread), af0), de)
    if not np.isfinite(out).all():
        raise NumericFailure("coefficient values overflow the float range")
    if (np.isinf(up) & ok).any():
        raise NumericFailure("coefficient supremum exceeds the float range")
    return up, np.where(np.isfinite(lower), lower, 0.0)


def _dist_to_segment(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Distance from 0 to the segment {z + s v : -1 <= s <= 1}: the part of
    z across v, and the part along v beyond the segment's half-length |v|."""
    vabs = abs(v)
    g = z * np.conj(v / vabs)
    return np.where(vabs > 0, np.hypot(g.imag, np.maximum(abs(g.real) - vabs, 0.0)), abs(z))


# -- variation-of-argument bound ---------------------------------------------------


def yakovenko_varbound(n: int, l: float, C: float) -> float:
    """pi (n+1) (1 + l C / log(3/2)) with C clamped up to 1."""
    if n < 1:
        raise UsageError("order must be at least 1")
    if l < 0:
        raise UsageError("segment length cannot be negative")
    C = max(C, 1.0)
    return math.pi * (n + 1) * (1.0 + l * C / LOG32)


# -- argument principle --------------------------------------------------------------

_MAX_REFINE = 28  # densification rounds of winding_count
_ZERO_FLOOR = 1e-280  # a sample this small counts as a zero on the contour


def winding_count(values, refine, params) -> int:
    """Winding number of a sampled nonvanishing closed path around 0.

    Phase increments are summed and the sampling is densified through the
    callback, at most _MAX_REFINE times, until every consecutive increment is
    below pi/2; the total over 2 pi must land within 0.25 of an integer.
    values are the path at the parameters params in [0, 1), and refine(s)
    evaluates it at any other. A sample below _ZERO_FLOOR in magnitude
    raises ZeroOnContour."""
    vals = [complex(v) for v in values]
    params = list(params)
    if len(params) != len(vals):
        raise UsageError("params and values must align")
    for _round in range(_MAX_REFINE + 1):
        for v in vals:
            if abs(v) < _ZERO_FLOOR:
                raise ZeroOnContour("sample magnitude below the zero floor")
        deltas = []
        bad = []
        n = len(vals)
        for k in range(n):
            z0, z1 = vals[k], vals[(k + 1) % n]
            d = cmath.phase(z1 / z0)
            deltas.append(d)
            if abs(d) >= math.pi / 2:
                bad.append(k)
        if not bad:
            total = math.fsum(deltas)
            w = total / (2 * math.pi)
            k = round(w)
            if abs(w - k) >= 0.25:
                raise Inconclusive(f"winding total {w} not close to an integer")
            return int(k)
        if _round == _MAX_REFINE:
            raise Inconclusive("phase increments stay above pi/2 after refinement")
        news = []
        for k in bad:
            s0 = params[k]
            s1 = params[(k + 1) % n]
            if (k + 1) % n == 0:
                s1 += 1.0
            news.append(((s0 + s1) / 2) % 1.0)
        known = dict(zip(params, vals))
        params = sorted(known.keys() | set(news))
        vals = [known[s] if s in known else complex(refine(s)) for s in params]
    raise Inconclusive("refinement cap reached")


# -- asymptotic calculators -----------------------------------------------------------


_EXACT_DIGIT_CAP = 20_000  # digits of an exact value when the interpreter sets no limit
_FLOAT_LOG10_MAX = 400  # beyond the largest float, about 10^308.25
# 76 significant digits (about 250 bits); a power beyond even the widest
# exponent range reads Infinity, reported as null, instead of raising Overflow
_DECIMAL = decimal.Context(
    prec=76,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero],
)


def _finite(v) -> float | None:
    """v as a float, or None (JSON null) where that float would not be finite."""
    f = math.nan if v is None else float(v)
    return f if math.isfinite(f) else None


def _log_entry(base: Fraction, x: int, y, lead: int = 1) -> dict:
    """log10, its log10 and the exact value (when printable) of lead * base^E
    with E = x^y.

    One test on log10 E = y log10 x decides for every y whether log10
    overflows every float, and so is None. E is formed as an int only for
    the exact value: when y is a nonnegative int, the base an integer and
    log10 below the printable digit cap, so that E < cap / log10(base) is
    small. The caller enters the decimal context.
    """
    if base == 1:
        y = 0  # lead * 1^E = lead for every E
    lb = (Decimal(base.numerator) / Decimal(base.denominator)).log10()
    log10_e = Decimal(y) * Decimal(x).log10()
    if log10_e + abs(lb).log10() > _FLOAT_LOG10_MAX:
        log10 = None  # |E lb| overflows every float; the lead term is negligible
        loglog = log10_e + lb.log10() if lb > 0 else None
    else:
        log10 = Decimal(x) ** Decimal(y) * lb + Decimal(lead).log10()
        loglog = log10.log10() if log10 > 0 else None
    exact = None
    cap = sys.get_int_max_str_digits() or _EXACT_DIGIT_CAP
    if base.denominator == 1 and isinstance(y, int) and y >= 0 and log10 is not None and log10 < cap:
        value = lead * base.numerator ** (x**y)
        if value < 10**cap:
            exact = str(value)
    return {"exact": exact, "log10": _finite(log10), "log10_log10": _finite(loglog)}


def asymptotic_bound_calculators(
    d: int,
    rho,
    n: int | None = None,
    M=None,
    p: int | None = None,
    constants: dict | None = None,
) -> dict:
    """Closed-form theoretical bounds; reporting only, never a computed count.

    Two shapes are evaluated: the degree-only double exponential
    (2/rho)^(2^(d^c)) and the parametric n (M/rho)^(d^(c_p p^3)) for integer
    coefficient data of degree d and height M with p parameters. The
    user-supplied constants c and c_p stand in for the universal constants.
    Values are exact big integers when printable; the base-10 logarithms
    (and their logarithms) are the nearest floats to the values computed to
    76 significant digits.
    """
    constants = dict(constants or {})
    c = constants.get("c", 1)
    c_p = constants.get("c_p", 1)
    if isinstance(c, float) and c.is_integer():
        c = int(c)
    if isinstance(c_p, float) and c_p.is_integer():
        c_p = int(c_p)
    rho = Fraction(rho) if not isinstance(rho, Fraction) else rho
    if not (0 < rho < 1):
        raise InvalidRho(f"rho must lie in (0, 1), got {rho}")
    if d < 2:
        raise UsageError("degree must be at least 2")
    out = {}
    with decimal.localcontext(_DECIMAL):
        # d^c is formed as an int only up to 10^6, which bounds its cost;
        # 2^(10^6) already has 301030 digits
        small = isinstance(c, int) and 0 <= c < 20 and d**c <= 10**6
        inner = d**c if small else Decimal(d) ** Decimal(c)
        out["degree_double_exponential"] = {
            "formula": "(2/rho)^(2^(d^c))",
            "inputs": {"d": d, "rho": str(rho), "c": c},
            "note": "theoretical upper bound, not a computed count",
            **_log_entry(Fraction(2) / rho, 2, inner),
        }
        if n is not None and M is not None and p is not None:
            Mq = Fraction(M)
            if n < 1 or Mq <= 0:
                raise UsageError("the parametric bound needs an order n >= 1 and a height M > 0")
            out["parametric_height"] = {
                "formula": "n*(M/rho)^(d^(c_p*p^3))",
                "inputs": {"d": d, "rho": str(rho), "n": n, "M": str(Mq), "p": p, "c_p": c_p},
                "note": "theoretical upper bound, not a computed count",
                **_log_entry(Mq / rho, d, c_p * p**3, lead=int(n)),
            }
    return out


# -- the bound pipeline ----------------------------------------------------------------

_NUMERIC_SAMPLES = 64  # initial boundary samples of the numeric count


@dataclass(frozen=True)
class ZeroBoundReport:
    per_segment_varbound: tuple[float, ...]
    total_bound: int
    numeric_count: int | None
    calculators: dict
    segment_count: int
    clearance_to_poles: float


def zero_count_bound(
    ode: ScalarODE,
    dom: SimpleDomain,
    degree: int,
    tol: float,
    numeric_fn,
) -> ZeroBoundReport:
    """Upper bound for the number of zeros of solutions in the domain.

    Decomposes the domain, takes a rigorous coefficient bound per segment and
    sums the variation-of-argument bounds over 2 pi. When `numeric_fn`
    (a callable on the region boundary, s in [0,1)) is given, the argument
    principle supplies numeric_count as well, from _NUMERIC_SAMPLES
    boundary samples densified by winding_count. The calculators take
    d = `degree`, the equation's coefficient height, p = (d+1)(d+2)/2 and
    their default constants c = c_p = 1.
    """
    poles = [cv.value for cv in ode.pole_set]
    segs = decompose_simple_domain(dom, poles)
    varbounds = []
    for a, b in segs.segments:
        C = coefficient_sup(ode, a, b, tol)
        varbounds.append(yakovenko_varbound(ode.order, abs(b - a), C))
    total = int(math.floor(math.fsum(varbounds) / (2 * math.pi)))
    numeric = None
    if numeric_fn is not None:
        ss = [k / _NUMERIC_SAMPLES for k in range(_NUMERIC_SAMPLES)]
        numeric = winding_count([numeric_fn(s) for s in ss], refine=numeric_fn, params=ss)
    calculators = asymptotic_bound_calculators(
        d=degree,
        rho=Fraction(dom.rho).limit_denominator(10**9),
        n=ode.order,
        M=_coefficient_height(ode),
        p=(degree + 1) * (degree + 2) // 2,
    )
    return ZeroBoundReport(
        per_segment_varbound=tuple(varbounds),
        total_bound=total,
        numeric_count=numeric,
        calculators=calculators,
        segment_count=len(segs.segments),
        clearance_to_poles=segs.clearance_to_poles,
    )


def _coefficient_height(ode: ScalarODE) -> int:
    h = 2
    for c in ode.coeffs:
        for poly in (c.num, c.den):
            den = 1
            for v in poly.terms.values():
                den = den * v.denominator // math.gcd(den, v.denominator)
            for v in poly.terms.values():
                h = max(h, abs(int(v * den)))
    return h
