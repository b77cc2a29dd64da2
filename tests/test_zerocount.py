import cmath
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pfzero import zerocount
from pfzero.errors import (
    Inconclusive,
    InvalidRays,
    InvalidRho,
    NumericFailure,
    PoleOnSegment,
    UsageError,
    ZeroOnContour,
)
from pfzero.hamiltonian import CriticalValue, SingularSet
from pfzero.linalg import RatFunc
from pfzero.pfsystem import ScalarODE
from pfzero.poly import MultiPoly, parse_polynomial
from pfzero.zerocount import (
    Disc,
    Polygon,
    asymptotic_bound_calculators,
    coefficient_sup,
    decompose_simple_domain,
    simple_domain,
    winding_count,
    yakovenko_varbound,
    zero_count_bound,
)
from tests.conftest import tpoly

P = parse_polynomial
t = MultiPoly.var("t")
EMPTY = SingularSet(values=(), count_with_multiplicity=0)
ORIGIN = SingularSet(values=(CriticalValue(0j, 1e-10, 1),), count_with_multiplicity=1)


def ode_from_poly(p: MultiPoly) -> ScalarODE:
    """Order-1 equation y' - (p'/p) y = 0 solved by y = p; the poles of the
    coefficient are the zeros of p, all apparent."""
    from pfzero.hamiltonian import isolate_roots

    coeff = RatFunc(-p.derive("t"), p)
    return ScalarODE(coeffs=(coeff,), pole_set=tuple(isolate_roots(p, "t")))


D2_ODE = ScalarODE(coeffs=(RatFunc(MultiPoly.const(-1), t),), pole_set=(CriticalValue(0j, 1e-10, 1),))


# the mu equation of the branch cubic has poles near -0.43, beside this disc
HEAVY_BRANCH_DISC = Disc(complex(-0.5022, -0.2693), 0.1398)


@pytest.fixture(scope="module")
def branch_mu():
    """The period system of the branch cubic x^3 - x y^2 + y and its
    mu = (1, 0, 1, 0) equation."""
    from pfzero.cli import JobConfig, _make_ode

    return _make_ode(JobConfig(command="count-zeros", hamiltonian="x^3 - x*y^2 + y"), [1, 0, 1, 0])[1:]


class TestDomains:
    def test_empty_sigma_square(self):
        dom = simple_domain(EMPTY, [], Disc(0j, 0.5), 0.1, False)
        segs = decompose_simple_domain(dom, [])
        assert len(segs.segments) == 4

    def test_cut_domain_clearances(self):
        dom = simple_domain(ORIGIN, [-1.0], Disc(1 + 0j, 0.4), 0.5, relaxed_bounds=True)
        segs = decompose_simple_domain(dom, [0j])
        assert len(segs.segments) <= 64
        assert segs.clearance_to_poles >= 0.5 / 4

    def test_crossing_rays_rejected(self):
        sig = SingularSet(
            values=(CriticalValue(-1 + 0j, 1e-10, 1), CriticalValue(1 + 0j, 1e-10, 1)),
            count_with_multiplicity=2,
        )
        with pytest.raises(InvalidRays):
            simple_domain(sig, [1.0, -1.0], Disc(0j, 0.1), 0.05, relaxed_bounds=True)

    def test_ray_through_region_rejected(self):
        with pytest.raises(InvalidRays):
            simple_domain(ORIGIN, [1.0], Disc(1 + 0j, 0.4), 0.5, relaxed_bounds=True)

    def test_auto_rays_without_singular_values(self):
        assert simple_domain(EMPTY, None, Disc(0.2 + 0j, 0.3), 0.1, False).ray_directions == ()

    def test_auto_rays_on_the_branch_disc(self, branch_mu):
        # the golden-angle sweep's pick, recorded before the sweep moved
        # from the command line into simple_domain
        dom = simple_domain(branch_mu[0].singular, None, HEAVY_BRANCH_DISC, 0.1, False)
        assert dom.ray_directions == (0.8812868452186609 + 0.4725817351998912j,) * 4

    def test_unit_disc_guard(self):
        with pytest.raises(UsageError):
            simple_domain(EMPTY, [], Disc(1 + 0j, 0.4), 0.1, False)

    def test_polygon_region(self):
        tri = Polygon((0.1 + 0.1j, 0.5 + 0.1j, 0.3 + 0.45j))
        dom = simple_domain(EMPTY, [], tri, 0.05, False)
        segs = decompose_simple_domain(dom, [2 + 2j])
        assert len(segs.segments) == 4  # bounding rectangle of the triangle

    def test_randomized_invariants(self, rng):
        done = 0
        while done < 100:
            k = rng.randint(0, 3)
            pts = []
            while len(pts) < k:
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if all(abs(z - w) > 0.5 for w in pts):
                    pts.append(z)
            sig = SingularSet(
                values=tuple(CriticalValue(z, 1e-10, 1) for z in pts),
                count_with_multiplicity=len(pts),
            )
            center = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            radius = rng.uniform(0.1, 0.5)
            rho = rng.uniform(0.05, 0.3)
            dirs = []
            ok = True
            for z in pts:
                v = z - center
                if abs(v) < 1e-9:
                    ok = False
                    break
                dirs.append(v / abs(v))
            if not ok:
                continue
            try:
                dom = simple_domain(sig, dirs, Disc(center, radius), rho, relaxed_bounds=True)
                poles = pts + [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(0, 2))]
                segs = decompose_simple_domain(dom, poles)
            except (InvalidRays, UsageError) as e:
                continue
            except Exception as e:
                if type(e).__name__ in ("InfeasibleClearance",):
                    continue
                raise
            # the construction self-checks with assertions; spot check here too
            delta = rho / (4 * max(1, len(poles)))
            for a, b in segs.segments:
                for p in poles:
                    assert _dist(p, a, b) >= delta * (1 - 1e-9)
            assert len(segs.segments) <= 64 * max(1, len(pts) ** 2)
            done += 1


def _dist(z, a, b):
    if a == b:
        return abs(z - a)
    u = (z - a) / (b - a)
    s = min(1.0, max(0.0, u.real))
    return abs(z - (a + s * (b - a)))


class TestCoefficientSup:
    def test_real_segment(self):
        C = coefficient_sup(D2_ODE, 1 + 0j, 2 + 0j, 1e-6)
        assert 1.0 <= C <= 1.0 + 1e-5

    def test_diagonal_segment(self):
        C = coefficient_sup(D2_ODE, 1 + 0j, 1 + 1j, 1e-6)
        assert 1.0 <= C <= 1.0 + 1e-5

    def test_dense_sampling_oracle(self, rng):
        from tests.conftest import random_poly

        done = 0
        while done < 20:
            num = random_poly(rng, ("t",), 3)
            den = random_poly(rng, ("t",), 3)
            if num.is_zero or den.is_zero:
                continue
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(a - b) < 0.1:
                continue
            try:
                coeff = RatFunc(num, den)
            except Exception:
                continue
            ode = ScalarODE(coeffs=(coeff,), pole_set=())
            # reject segments passing near a zero of the denominator
            from pfzero.hamiltonian import isolate_roots

            if any(_dist(r.value, a, b) < 0.15 for r in isolate_roots(coeff.den, "t")):
                continue
            C = coefficient_sup(ode, a, b, 1e-6)
            import numpy as np

            ncoef = np.array([complex(v) for v in coeff.num.univariate_coeffs("t")][::-1])
            dcoef = np.array([complex(v) for v in coeff.den.univariate_coeffs("t")][::-1])
            ts = a + np.linspace(0.0, 1.0, 4097) * (b - a)
            sampled = float(np.max(np.abs(np.polyval(ncoef, ts) / np.polyval(dcoef, ts))))
            assert C >= sampled * (1 - 1e-9)
            assert C <= sampled * (1 + 1e-3) + 1e-9
            done += 1

    def test_monotonicity(self):
        tol = 1e-6
        c_small = coefficient_sup(D2_ODE, 1 + 0j, 2 + 0j, tol)
        c_big = coefficient_sup(D2_ODE, 0.5 + 0j, 2 + 0j, tol)
        assert c_big >= c_small / (1 + tol)
        c_loose = coefficient_sup(D2_ODE, 1 + 0j, 2 + 0j, 1e-2)
        c_tight = coefficient_sup(D2_ODE, 1 + 0j, 2 + 0j, 1e-8)
        assert c_tight <= c_loose * (1 + 1e-2)

    def test_pole_on_segment(self):
        with pytest.raises(PoleOnSegment):
            coefficient_sup(D2_ODE, -1 + 0j, 1 + 0j, 1e-6)

    def test_grazing_pole_collapses_the_subdivision(self):
        # the pole 1/3 lies 1e-16 off the segment and is not in the pole set,
        # so only the collapsed subdivision can report it
        ode = ScalarODE(coeffs=(RatFunc(MultiPoly.const(1), 3 * t - 1),), pole_set=())
        with pytest.raises(PoleOnSegment, match="collapsed"):
            coefficient_sup(ode, -1 + 1e-16j, 1 + 1e-16j, 1e-6)

    def test_heights_beyond_the_float_range(self):
        big = 10**400
        coeff = RatFunc(big * t + 1, t + (big + 3))
        ode = ScalarODE(coeffs=(coeff,), pole_set=())
        C = coefficient_sup(ode, 1 + 0j, 2 + 0j, 1e-6)
        sampled = _exact_sampled_max([coeff], 1 + 0j, 2 + 0j)
        assert sampled * (1 - 1e-12) <= C <= sampled * (1 + 1e-5)

    def test_value_beyond_the_float_range_is_a_numeric_failure(self):
        coeff = RatFunc(MultiPoly.const(10**400), t + 3)
        ode = ScalarODE(coeffs=(coeff,), pole_set=())
        with pytest.raises(NumericFailure):
            coefficient_sup(ode, 1 + 0j, 2 + 0j, 1e-6)

    @given(st.data())
    def test_dominates_dense_samples(self, data):
        a, b, near = data.draw(_segments())
        drawn = [data.draw(_rat_funcs(near, 12, 12)) for _ in range(data.draw(st.integers(1, 2)))]
        coeffs = [c for c, _poles in drawn]
        delta = min((_dist(p, a, b) for _c, poles in drawn for p in poles), default=math.inf)
        assume(delta >= 0.02)
        ode = ScalarODE(coeffs=tuple(coeffs), pole_set=())
        tol = 1e-6
        C = coefficient_sup(ode, a, b, tol)
        sampled = _exact_sampled_max(coeffs, a, b)
        assert C >= sampled * (1 - 1e-12)
        # an interior maximum lies within eps = |h|/8192 of a sample, and the
        # Cauchy estimate on a disc of radius delta/2 bounds the dip there
        eps = abs(b - a) / 8192
        assert C <= sampled * (1 + tol) * (1 + 64 * eps**2 / delta**2)

    @given(st.data())
    def test_each_pass_encloses_its_pieces(self, data):
        # one pass on coarse pieces, where the remainder and the lower bound
        # of the denominator weigh most
        a, b, near = data.draw(_segments())
        coeff, poles = data.draw(_rat_funcs(near, 10, 10))
        pieces = data.draw(st.sampled_from([1, 2, 4]))
        mats, shifts = zerocount._coeff_arrays([coeff])
        width = mats.shape[1] // 2
        mid = (np.arange(pieces) + 0.5) / pieces
        rad = np.full(pieces, 0.5 / pieces)
        h = b - a
        seg = (a, h, 5 * zerocount._U * (abs(a) + abs(h)), (32 * width + 128) * zerocount._U)
        ups, lowers = zerocount._sup_pass(mats, shifts, np.zeros(pieces, dtype=int), mid, rad, seg)
        for m, r, up, lower in zip(mid, rad, ups, lowers):
            lo, hi = a + (m - r) * h, a + (m + r) * h
            assume(min((_dist(p, lo, hi) for p in poles), default=math.inf) >= 0.01)
            sampled = _exact_sampled_max([coeff], lo, hi, 512)
            assert up >= sampled * (1 - 1e-12)
            # a lower bound for |F| at the centre or an end of the piece
            assert lower <= sampled * (1 + 1e-9)

    def test_pass_count_on_the_heavy_branch_disc(self, monkeypatch, branch_mu):
        # one vectorised pass per bisection level: a per-box evaluation
        # would show here as hundreds of calls per segment
        sysm, ode = branch_mu
        dom = simple_domain(sysm.singular, None, HEAVY_BRANCH_DISC, 0.1, False)
        segs = decompose_simple_domain(dom, [cv.value for cv in ode.pole_set])
        calls = []
        real_pass = zerocount._sup_pass
        monkeypatch.setattr(zerocount, "_sup_pass", lambda *args: calls.append(1) or real_pass(*args))
        for a, b in segs.segments:
            calls.clear()
            coefficient_sup(ode, a, b, 1e-6)
            assert 1 <= len(calls) <= 30


def _exact_sampled_max(coeffs, a: complex, b: complex, n: int = 4096) -> float:
    """max over the coefficients F and k = 0..n of |F(a + (k/n)(b - a))|,
    evaluated in exact integer arithmetic and rounded once at the end."""
    ar, ai = Fraction(a.real), Fraction(a.imag)
    hr, hi = Fraction(b.real) - ar, Fraction(b.imag) - ai
    scale = math.lcm(ar.denominator, ai.denominator, hr.denominator, hi.denominator) * n
    ks = np.array(range(n + 1), dtype=object)
    # t_k = (x_k + i y_k) / scale with integers x_k, y_k
    xs = int(ar * scale) + ks * int(hr * scale / n)
    ys = int(ai * scale) + ks * int(hi * scale / n)
    best = 0.0
    for F in coeffs:
        mods = []
        for p in (F.num, F.den):
            cs = p.univariate_coeffs("t")
            m = math.lcm(*(c.denominator for c in cs))
            d = len(cs) - 1
            re, im = int(cs[d] * m) + 0 * xs, 0 * xs
            for j in range(d - 1, -1, -1):
                re, im = re * xs - im * ys + int(cs[j] * m) * scale ** (d - j), re * ys + im * xs
            # |p(t_k)|^2 = (re^2 + im^2) / (m scale^d)^2
            mods.append((re * re + im * im, (m * scale**d) ** 2))
        (n2, ns), (d2, ds) = mods
        best = max(best, float(np.max((n2 * ds) / (d2 * ns))))
    return math.sqrt(best)


_wide_rationals = st.builds(
    lambda sign, p, q, e: sign * Fraction(p, q) * Fraction(10) ** e,
    st.sampled_from([1, -1]),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(-40, 40),
)
_root_parts = st.builds(lambda m, e: Fraction(m, 997) * Fraction(10) ** e, st.integers(-2000, 2000), st.integers(-1, 2))


@st.composite
def _rat_funcs(draw, near, num_deg, den_deg):
    """A coefficient N/D and the poles of D. N has non-integer rational
    coefficients of heights from 10^-40 to 10^46; D is such a constant times
    real roots and conjugate pairs of modulus up to about 200, and the pair
    near, conj(near) when near is given."""
    num = tpoly(draw(st.lists(st.one_of(st.just(0), _wide_rationals), min_size=1, max_size=num_deg + 1)))
    assume(not num.is_zero)
    den = MultiPoly.const(draw(_wide_rationals))
    pairs = [] if near is None else [(Fraction(near.real), Fraction(near.imag))]
    poles = []
    while den.degree() + 2 * len(pairs) < den_deg - 1 and draw(st.booleans()):
        if draw(st.booleans()):
            pairs.append((draw(_root_parts), draw(_root_parts)))
        else:
            r = draw(_root_parts)
            den = den * (t - r)
            poles.append(complex(r))
    for re, im in pairs:
        den = den * (t * t - 2 * re * t + (re * re + im * im))
        poles += [complex(re, im), complex(re, -im)]
    return RatFunc(num, den), poles


@st.composite
def _segments(draw):
    """A horizontal, vertical or diagonal segment, and (sometimes) a point
    0.02 to 0.05 off its middle part, for a pole."""
    centre = complex(draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5)))
    u = draw(st.sampled_from([1, 1j, (1 + 1j) / math.sqrt(2), (1 - 1j) / math.sqrt(2)]))
    length = draw(st.floats(0.1, 2.0))
    a, b = centre - u * length / 2, centre + u * length / 2
    near = None
    if draw(st.booleans()):
        s = draw(st.floats(0.1, 0.9))
        near = a + s * (b - a) + draw(st.sampled_from([1j, -1j])) * u * draw(st.floats(0.02, 0.05))
    return a, b, near


class TestVarBound:
    def test_unit_values(self):
        assert yakovenko_varbound(1, 1, 1) == pytest.approx(21.7792, abs=1e-3)
        assert yakovenko_varbound(1, 0, 1) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_formula(self):
        # pi (n+1) (1 + l C / log(3/2)) at (2, 2, 5)
        assert yakovenko_varbound(2, 2, 5) == pytest.approx(
            3 * math.pi * (1 + 10 / math.log(1.5)), rel=1e-12
        )

    def test_clamp_below_one(self):
        assert yakovenko_varbound(1, 1, 0.2) == yakovenko_varbound(1, 1, 1.0)


def _winding_of(f, n):
    """winding_count of the closed path f sampled at s = k / n."""
    ss = [k / n for k in range(n)]
    return winding_count([f(s) for s in ss], refine=f, params=ss)


class TestWinding:
    def test_double_zero(self):
        f = lambda s: (0.5 * cmath.exp(2j * math.pi * s)) ** 2
        assert _winding_of(f, 64) == 2

    def test_zero_outside(self):
        f = lambda s: math.pi * (1 + 0.4 * cmath.exp(2j * math.pi * s))
        assert _winding_of(f, 64) == 0

    def test_simple_zero(self):
        f = lambda s: cmath.exp(2j * math.pi * s)
        assert _winding_of(f, 64) == 1

    def test_zero_on_contour(self):
        with pytest.raises(ZeroOnContour):
            _winding_of(lambda s: 1 - cmath.exp(2j * math.pi * s), 8)

    def test_inconclusive_at_a_jump(self):
        # the phase jumps by pi at s = 1/2 however finely it is sampled
        with pytest.raises(Inconclusive):
            _winding_of(lambda s: 1.0 if s < 0.5 else -1.0, 8)

    def test_stability_under_halving(self, rng):
        done = 0
        while done < 50:
            deg = rng.randint(1, 5)
            roots = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg)]
            if any(abs(abs(r) - 1.0) < 0.05 for r in roots):
                continue

            def f(s, roots=roots):
                z = cmath.exp(2j * math.pi * s)
                out = 1 + 0j
                for r in roots:
                    out *= z - r
                return out

            inside = sum(1 for r in roots if abs(r) < 1)
            coarse = _winding_of(f, 128)
            fine = _winding_of(f, 256)
            assert coarse == fine == inside
            done += 1


def _mpmath_entry(base: Fraction, x, y, lead: int, integral: bool) -> dict:
    """lead * base^E with E = x^y, in 250-bit mpmath: the nearest floats to
    log10 = E lb + log10(lead) (lb = log10 base) and to its log10, None where
    that float is not finite, and the digits when the value is an integer
    (`integral` says E is one) and printable."""
    with mpmath.workprec(250):
        lb = mpmath.log10(mpmath.mpf(base.numerator) / base.denominator)
        log10_e = mpmath.mpf(y) * mpmath.log10(x)
        if log10_e < 10**6:
            log10 = mpmath.power(x, y) * lb + mpmath.log10(lead)
            loglog = mpmath.log10(log10) if log10 > 0 else None
        else:
            # too large for an mpf; log10 E + log10 lb is log10 of E lb + log10(lead)
            # to far more than 250 bits
            log10 = mpmath.inf * mpmath.sign(lb)
            loglog = log10_e + mpmath.log10(lb) if lb > 0 else None
    floats = [math.nan if v is None else float(v) for v in (log10, loglog)]
    floats = [f if math.isfinite(f) else None for f in floats]
    exact = None
    if (integral or base == 1) and base.denominator == 1 and log10 < sys.get_int_max_str_digits():
        exact = str(lead * base.numerator ** int(mpmath.power(x, y)))
    return {"exact": exact, "log10": floats[0], "log10_log10": floats[1]}


def _bits(entry: dict) -> tuple:
    values = (entry["exact"], entry["log10"], entry["log10_log10"])
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


class TestCalculators:
    def test_matches_mpmath_reference(self):
        # the double exponential on every (d, c, rho) and the parametric bound on
        # heights below, at and just above rho, huge and fractional exponents
        # among them (2^1013 log10(14) is near the largest float); equal floats
        # to the bit, nulls and exact digits
        rhos = [Fraction(1, 10**6), Fraction(1, 3), Fraction(1, 2), Fraction(7, 10), Fraction(999, 1000)]
        for d in (2, 3, 8):
            for c in (0, 1, 2, 3, 0.5, 1.5, -1, 2.7, 19, 30, 1e9):
                for rho in rhos:
                    entry = asymptotic_bound_calculators(d, rho, constants={"c": c})["degree_double_exponential"]
                    with mpmath.workprec(250):
                        inner = mpmath.power(d, c)
                    ref = _mpmath_entry(2 / rho, 2, inner, 1, float(c).is_integer() and c >= 0)
                    assert _bits(entry) == _bits(ref), (d, c, rho)
        for d in (2, 5):
            for rho in rhos:
                for M in (rho / 2, rho, rho * Fraction(10**9 + 1, 10**9), Fraction(7)):
                    for c_p, n, p in ((1, 1, 2), (0.5, 9, 6), (2.5, 3, 15), (1013, 2, 1)):
                        calc = asymptotic_bound_calculators(d, rho, n=n, M=M, p=p, constants={"c_p": c_p})
                        y = c_p * p**3
                        ref = _mpmath_entry(M / rho, d, y, n, float(y).is_integer())
                        assert _bits(calc["parametric_height"]) == _bits(ref), (d, rho, M, c_p)

    def test_exact_256(self):
        calc = asymptotic_bound_calculators(2, Fraction(1, 2), constants={"c": 1})
        assert calc["degree_double_exponential"]["exact"] == "256"

    def test_log_matches_reference(self):
        calc = asymptotic_bound_calculators(3, Fraction(1, 10), constants={"c": 2})
        entry = calc["degree_double_exponential"]
        with mpmath.workprec(200):
            ref = float(512 * mpmath.log10(20))
        assert abs(entry["log10"] - ref) <= 1e-9 * abs(ref)
        # exact big-integer path agrees with the log-space path
        assert entry["exact"] == str(20**512)
        assert math.log10(float(len(entry["exact"]) - 1)) == pytest.approx(
            entry["log10_log10"], abs=0.01
        )

    def test_invalid_rho(self):
        with pytest.raises(InvalidRho):
            asymptotic_bound_calculators(2, Fraction(3, 2))

    def test_parametric_shape(self):
        calc = asymptotic_bound_calculators(
            2, Fraction(1, 2), n=1, M=2, p=1, constants={"c": 1, "c_p": 1}
        )
        assert calc["parametric_height"]["exact"] == "16"  # 1 * 4^(2^1)


class TestBoundPipeline:
    def test_d2_disc(self):
        dom = simple_domain(ORIGIN, [-1.0], Disc(1 + 0j, 0.4), 0.5, relaxed_bounds=True)
        report = zero_count_bound(D2_ODE, dom, degree=2, tol=1e-6, numeric_fn=None)
        assert report.total_bound >= 0
        assert report.total_bound == int(
            math.floor(math.fsum(report.per_segment_varbound) / (2 * math.pi))
        )

    def test_numeric_never_exceeds_bound(self, rng):
        done = 0
        while done < 12:
            deg = rng.randint(1, 5)
            roots = []
            while len(roots) < deg:
                z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
                if abs(abs(z - 1) - 0.4) > 0.08 and all(abs(z - w) > 0.1 for w in roots):
                    roots.append(z)
            p = MultiPoly.const(1)
            for r in roots:
                rr = Fraction(round(r.real * 16), 16)
                ri = Fraction(round(r.imag * 16), 16)
                # rational real/imag parts keep the ODE exactly representable:
                # multiply conjugate factors for a real polynomial when im != 0
                if ri == 0:
                    p = p * (t - MultiPoly.const(rr))
                else:
                    p = p * (t * t - MultiPoly.const(2 * rr) * t + MultiPoly.const(rr * rr + ri * ri))
            p_roots_inside = None
            ode = ode_from_poly(p)
            center, radius = 1 + 0j, 0.4
            if any(_dist(cv.value, center - radius, center + radius) < 0.05 for cv in ode.pole_set):
                pass
            if any(abs(abs(cv.value - center) - radius) < 0.05 for cv in ode.pole_set):
                continue
            dom = simple_domain(EMPTY, [], Disc(center, radius), 0.1, relaxed_bounds=True)

            def f(s):
                return p.eval_complex({"t": center + radius * cmath.exp(2j * math.pi * s)})

            try:
                # loose sup tolerance: the bound stays rigorous for any tol
                report = zero_count_bound(ode, dom, tol=1e-2, numeric_fn=f, degree=2)
            except PoleOnSegment:
                continue
            truth = sum(
                cv.multiplicity for cv in ode.pole_set if abs(cv.value - center) < radius
            )
            assert report.numeric_count == truth
            assert report.numeric_count <= report.total_bound
            done += 1
