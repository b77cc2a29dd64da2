import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pfzero import hamiltonian
from pfzero.errors import NonIsolatedCritical, NotRegularAtInfinity, UnsupportedDegree
from pfzero.hamiltonian import (
    DEFAULT_ISOLATION_RADIUS,
    CriticalValue,
    Hamiltonian,
    critical_values,
    highest_part,
    is_regular_at_infinity,
    isolate_roots,
    merge_close_values,
    monomial_basis,
    yun_squarefree_decomposition,
)
from pfzero.poly import MultiPoly, parse_polynomial, resultant
from tests.conftest import Q4, random_regular_hamiltonian

P = parse_polynomial


def H(text):
    return Hamiltonian.from_poly(P(text))


@st.composite
def small_polys(draw, variables, max_deg):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        expo = tuple(draw(st.integers(0, max_deg)) for _ in variables)
        if sum(expo) <= max_deg:
            terms[expo] = Fraction(draw(st.integers(-3, 3)))
    return MultiPoly(variables, terms)


class TestHighestPart:
    def test_cubic(self):
        assert highest_part(P("x^3 - x*y^2 + y")) == P("x^3 - x*y^2")

    def test_circle(self):
        assert highest_part(P("x^2+y^2+1")) == P("x^2+y^2")

    def test_degree_guard(self):
        with pytest.raises(UnsupportedDegree):
            highest_part(P("y"))


class TestRegularity:
    def test_circle_regular(self):
        assert is_regular_at_infinity(H("x^2+y^2"))

    def test_pure_cube_not_regular(self):
        assert not is_regular_at_infinity(H("x^3 + y"))

    def test_three_distinct_lines(self):
        assert is_regular_at_infinity(H("x^3 - x*y^2 + y"))

    def test_invariance_under_linear_change(self, rng):
        cases = [H("x^2+y^2"), H("x^3 - x*y^2 + y"), H("x^3 + y"), H("x^2 - y^2 + x")]
        for ham in cases:
            expected = is_regular_at_infinity(ham)
            done = 0
            while done < 10:
                a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                if a * d - b * c == 0:
                    continue
                xn = MultiPoly.const(a) * MultiPoly.var("x") + MultiPoly.const(b) * MultiPoly.var("y")
                yn = MultiPoly.const(c) * MultiPoly.var("x") + MultiPoly.const(d) * MultiPoly.var("y")
                # simultaneous substitution, staged through the unused t slot
                q = ham.poly.substitute("x", MultiPoly.var("t")).substitute("y", yn).substitute("t", xn)
                assert is_regular_at_infinity(Hamiltonian.from_poly(q)) == expected
                done += 1


class TestCriticalValues:
    def test_circle(self):
        s = critical_values(H("x^2+y^2"))
        assert len(s.values) == 1
        assert abs(s.values[0].value) < 1e-9

    def test_elliptic(self):
        s = critical_values(H("x^3 - 3*x + y^2"))
        got = sorted(v.value.real for v in s.values)
        assert len(got) == 2
        assert abs(got[0] + 2) < 1e-8 and abs(got[1] - 2) < 1e-8
        assert all(abs(v.value.imag) < 1e-9 for v in s.values)

    def test_saddle_only(self):
        s = critical_values(H("x^2 - y^2"))
        assert len(s.values) == 1 and abs(s.values[0].value) < 1e-9

    def test_degenerate_gradient(self):
        with pytest.raises(NonIsolatedCritical):
            critical_values(Hamiltonian.from_poly(P("x^2")))

    @given(
        st.sampled_from([("x",), ("y",), ("x", "y")]).flatmap(lambda v: small_polys(v, 2)),
        small_polys(("x", "y"), 1),
    )
    def test_square_factor_is_not_isolated(self, f, g):
        # H = f^2 g: f divides both partials, so no critical point is isolated
        assume(f.degree() >= 1 and not g.is_zero)
        with pytest.raises(NonIsolatedCritical):
            critical_values(Hamiltonian.from_poly(f * f * g))

    def test_shift_property(self, rng):
        for text in ("x^2+y^2", "x^3 - 3*x + y^2", "x^3 - x*y^2 + y"):
            base = critical_values(H(text))
            c = rng.randint(1, 5)
            shifted = critical_values(Hamiltonian.from_poly(P(text) + MultiPoly.const(c)))
            assert len(base.values) == len(shifted.values)
            for v in base.values:
                moved = v.value + c
                d = min(abs(moved - w.value) for w in shifted.values)
                assert d <= max(1e-8, 2 * v.radius)

    @pytest.mark.parametrize("text", ["x^3 - x*y^2 + y", "x^2 + y^2 + x^3 - 3*x*y^2"])
    def test_scaling_scales_the_values(self, text):
        # c H has the critical points of H and c times its critical values
        base = critical_values(H(text))
        for e in (-9, -6, 6, 9):
            c = Fraction(10) ** e
            scaled = critical_values(Hamiltonian.from_poly(P(text) * MultiPoly.const(c)))
            assert scaled.count_with_multiplicity == base.count_with_multiplicity
            assert len(scaled.values) == len(base.values)
            for v in base.values:
                assert min(abs(w.value / float(c) - v.value) for w in scaled.values) <= 1e-9

    @pytest.mark.parametrize(
        "text, calls",
        [("x^2 + y^2 + x^3 - 3*x*y^2", 4), ("x^2*y + x*y^2 + x*y", 2), ("x^3 - x*y^2 + y", 4), (Q4, 4)],
        ids=["oval-cubic", "split-cubic", "branch-cubic", "Q4"],
    )
    def test_routes_that_must_vanish_are_skipped(self, monkeypatch, text, calls):
        # Res_y(Hx, Hy) and Res_x(Hx, Hy), then two per route built. A route
        # whose eliminant shares a root with the content of its partial
        # gives T = 0 and is skipped: the y-eliminating route of the oval
        # cubic, where Hy = 2 y (1 - 3 x), and both routes of the split cubic
        made = []
        monkeypatch.setattr(hamiltonian, "resultant", lambda *a: made.append(a) or resultant(*a))
        critical_values(H(text))
        assert len(made) == calls


class TestPartials:
    @given(small_polys(("x", "y"), 5))
    def test_fields_are_the_derivatives(self, p):
        assume(p.degree() >= 2)
        h = Hamiltonian.from_poly(p)
        assert h.hx == p.derive("x") and h.hy == p.derive("y")


class TestMonomialBasis:
    def test_circle_basis_is_constant(self):
        b = monomial_basis(H("x^2+y^2"))
        assert b.monomials == ((0, 0),)

    def test_cubic_staircase(self):
        b = monomial_basis(H("x^3 - x*y^2 + y"))
        assert set(b.monomials) == {(0, 0), (1, 0), (0, 1), (0, 2)}
        assert set(b.leading_term_diagram) == {(2, 0), (1, 1), (0, 3)}

    def test_not_regular_raises(self):
        with pytest.raises(NotRegularAtInfinity):
            monomial_basis(H("x^3 + y"))

    def test_random_cardinality_and_degree_bound(self, rng):
        for _ in range(50):
            d = rng.choice([2, 3, 4, 5, 6])
            ham = random_regular_hamiltonian(rng, d)
            b = monomial_basis(ham)
            assert len(b.monomials) == (d - 1) ** 2
            assert all(a + c <= (d - 1) ** 2 - 1 for a, c in b.monomials)
            # Hilbert function of two forms of degree d-1 in a regular sequence
            for k in range(2 * d - 1):
                expected = max(min(k + 1, 2 * d - 3 - k), 0)
                assert sum(1 for a, c in b.monomials if a + c == k) == expected


class TestRootIsolation:
    def test_multiplicity(self):
        tvar = MultiPoly.var("t")
        p = (tvar - 1) ** 2 * (tvar + 3)
        roots = isolate_roots(p, "t")
        roots = sorted(roots, key=lambda r: r.value.real)
        assert abs(roots[0].value + 3) < 1e-8 and roots[0].multiplicity == 1
        assert abs(roots[1].value - 1) < 1e-8 and roots[1].multiplicity == 2

    def test_yun(self):
        tvar = MultiPoly.var("t")
        p = (tvar - 1) ** 2 * (tvar + 3)
        factors = yun_squarefree_decomposition(p, "t")
        assert (tvar + 3, 1) in factors
        assert (tvar - 1, 2) in factors

    @pytest.mark.parametrize("k", [8, 24, 56])
    def test_yun_with_a_root_at_a_power_of_256(self, k):
        # the exact quotients of Yun's loop divide by t - 2^k, whose root is
        # where a quotient-sized packing word would evaluate it
        tvar = MultiPoly.var("t")
        c = MultiPoly.const(2**k)
        factors = yun_squarefree_decomposition(tvar**2 * (tvar - c), "t")
        assert sorted(factors, key=lambda f: f[1]) == [(tvar - c, 1), (tvar, 2)]
        roots = sorted(isolate_roots(tvar**2 * (tvar - c), "t"), key=lambda r: r.value.real)
        assert [r.multiplicity for r in roots] == [2, 1]
        assert abs(roots[1].value - 2**k) <= 1e-6 * 2**k


def polish_one_root(coeffs, z):
    """Newton on one root alone with 0-d polyval, the reference the batched
    polish must match bit for bit: (the polished root, the steps taken)."""
    dcoeffs = np.array([k * coeffs[k] for k in range(1, len(coeffs))], dtype=complex)
    steps = 0
    for _ in range(40):
        pv = np.polyval(coeffs[::-1], z)
        dv = np.polyval(dcoeffs[::-1], z)
        if dv == 0:
            break
        step = pv / dv
        z = z - step
        steps += 1
        if abs(step) < 1e-16 * max(1.0, abs(z)):
            break
    return z, steps


def isolate_one_root_at_a_time(p, var="t"):
    """isolate_roots with the per-root polish: (the merged values, the step
    counts of the roots)."""
    found, steps = [], []
    for factor, mult in yun_squarefree_decomposition(p, var):
        deg = factor.degree_in(var)
        coeffs = np.array([complex(c) for c in factor.univariate_coeffs(var)], dtype=complex)
        dcoeffs = np.array([k * coeffs[k] for k in range(1, len(coeffs))], dtype=complex)
        for z in np.roots(coeffs[::-1]):
            z, n = polish_one_root(coeffs, complex(z))
            steps.append(n)
            pv = np.polyval(coeffs[::-1], z)
            dv = np.polyval(dcoeffs[::-1], z)
            rad = DEFAULT_ISOLATION_RADIUS
            if dv != 0:
                rad = max(DEFAULT_ISOLATION_RADIUS, deg * abs(pv / dv))
            found.append(CriticalValue(value=z, radius=rad, multiplicity=mult))
    return merge_close_values(found), steps


def reprs(values):
    return [(repr(v.value), repr(v.radius), v.multiplicity) for v in values]


def random_tpoly(rng, deg):
    tvar = MultiPoly.var("t")
    p = MultiPoly.const(rng.randint(1, 9))
    for k in range(1, deg + 1):
        p = p + MultiPoly.const(Fraction(rng.randint(-30, 30), rng.randint(1, 7))) * tvar**k
    return p


class TestBatchedPolish:
    # the roots of a factor are polished together, each with its own stop
    # test; values and radii must be those of a polish one root at a time,
    # bit for bit and type for type
    tvar = MultiPoly.var("t")

    @pytest.mark.parametrize("seed", range(6))
    def test_random_polynomials(self, seed):
        rng = random.Random(seed)
        for deg in (1, 2, 5, 9, 14):
            p = random_tpoly(rng, deg)
            if rng.random() < 0.5:  # a repeated factor and a degree-1 factor
                p = p * random_tpoly(rng, 2) ** 2 * (self.tvar - MultiPoly.const(Fraction(1, 3)))
            want, _ = isolate_one_root_at_a_time(p)
            assert reprs(isolate_roots(p, "t")) == reprs(want)

    def test_roots_stop_at_different_steps(self):
        p = MultiPoly.const(1)
        for r in range(1, 11):
            p = p * (self.tvar - MultiPoly.const(r))
        p = p * (self.tvar**2 - MultiPoly.const(Fraction(1, 10**6)))
        want, steps = isolate_one_root_at_a_time(p)
        assert len(set(steps)) > 1
        assert reprs(isolate_roots(p, "t")) == reprs(want)

    def test_radii_above_the_floor(self):
        # the roots r +- i, r = 1..8, are ill-conditioned: their radii
        # deg |p/p'| are above the floor and complex, so they show the last
        # bit of |.| (np.abs on an array rounds differently from abs)
        t = self.tvar
        p = MultiPoly.const(1)
        for r in range(1, 9):
            p = p * (t**2 - MultiPoly.const(2 * r) * t + MultiPoly.const(r * r + 1))
        want, _ = isolate_one_root_at_a_time(p)
        assert sum(v.radius > DEFAULT_ISOLATION_RADIUS for v in want) > 8
        assert reprs(isolate_roots(p, "t")) == reprs(want)

    def test_degree_one_factors(self):
        t = self.tvar
        p = (t - MultiPoly.const(Fraction(2, 7))) * (t + MultiPoly.const(5)) ** 3 * t**2
        want, _ = isolate_one_root_at_a_time(p)
        got = isolate_roots(p, "t")
        assert len(got) == 3 and reprs(got) == reprs(want)

    def test_derivative_zero_at_the_start(self):
        # t^4 + t^3 - 10^-700 t is squarefree, but in floats its coefficient
        # of t is 0.0: the roots of t^4 + t^3 include 0 three times, where
        # p' is 0, so Newton takes no step there
        t = self.tvar
        p = t**4 + t**3 - MultiPoly.const(Fraction(1, 10**700)) * t
        want, steps = isolate_one_root_at_a_time(p)
        assert 0 in steps and max(steps) > 0
        got = isolate_roots(p, "t")
        assert reprs(got) == reprs(want)
        assert {type(v.value) for v in got} == {complex, np.complex128}
