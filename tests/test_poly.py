from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from pfzero.errors import DegenerateInput, ParseError
from pfzero.poly import (
    MultiPoly,
    _Dense,
    _heu_bytes,
    _heu_gcd_at,
    _kronecker_det,
    _primitive,
    _prs_gcd,
    _zgcd,
    parse_polynomial,
    poly_gcd,
    resultant,
)
from tests.conftest import laplace_det, tpoly

P = parse_polynomial
x, y, t = MultiPoly.var("x"), MultiPoly.var("y"), MultiPoly.var("t")


def small_coeff():
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def polys(draw, variables=("x", "y"), max_deg=4, max_terms=6):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        expo = tuple(draw(st.integers(0, max_deg)) for _ in variables)
        if sum(expo) > max_deg:
            continue
        terms[expo] = draw(small_coeff())
    return MultiPoly(variables, terms)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (x + y) * (x - y) == P("x^2 - y^2")

    def test_power_rule(self):
        assert (3 * x**2 * y).derive("x") == P("6*x*y")

    def test_additive_inverse_is_empty(self):
        z = P("x^2+y^2") + (-P("x^2+y^2"))
        assert z.is_zero and z.terms == {}

    def test_construction_drops_zeros_and_keeps_terms(self):
        # zero coefficients, mixed int and Fraction values, and a variable
        # that only appears with exponent zero
        p = MultiPoly(
            ("x", "y", "t"),
            {(2, 0, 0): 3, (1, 1, 0): Fraction(0), (0, 1, 0): Fraction(-1, 2), (0, 0, 0): 0, (1, 0, 0): Fraction(4, 2)},
        )
        q = MultiPoly(("x", "y"), {(2, 0): Fraction(3), (0, 1): Fraction(-1, 2), (1, 0): Fraction(2)})
        assert p.vars == ("x", "y")
        assert p.terms == {(2, 0, 0): Fraction(3), (0, 1, 0): Fraction(-1, 2), (1, 0, 0): Fraction(2)}
        assert all(type(c) is Fraction for c in p.terms.values())
        assert p == q and hash(p) == hash(q) and p == 3 * x**2 - Fraction(1, 2) * y + 2 * x
        assert MultiPoly(("x",), {(1,): 0, (0,): Fraction(0)}).is_zero

    def test_variables_map_by_name(self):
        assert MultiPoly(("y", "x"), {(2, 1): 1}) == x * y**2
        assert MultiPoly(("t", "y"), {(1, 0): 1}).terms == {(0, 0, 1): Fraction(1)}
        for variables, expo in ((("x", "x"), (1, 1)), (("x", "z"), (1, 1)), (("x", "y"), (1,)), (("x",), (-1,))):
            with pytest.raises(ValueError):
                MultiPoly(variables, {expo: 1})

    @given(
        polys(variables=("x", "y", "t"), max_deg=3),
        polys(variables=("t", "y"), max_deg=3),
        st.sampled_from("xyt"),
        st.integers(0, 3),
    )
    def test_results_are_what_the_checked_constructor_makes(self, a, b, var, k):
        # arithmetic, calculus and queries build their results unchecked:
        # exponent triples mapped to nonzero Fractions, term for term (and in
        # the same order) what the public constructor makes of them
        results = [a + b, a - b, a * b, b**2, a.derive(var), a.integrate(var)]
        results += [a.coeff_in_var(var, k), a.substitute(var, b), a.homogeneous_part(k)]
        for p in results:
            assert all(len(e) == 3 and all(type(i) is int and i >= 0 for i in e) for e in p.terms)
            assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
            assert list(MultiPoly(("x", "y", "t"), p.terms).terms.items()) == list(p.terms.items())

    @given(polys(), polys(), polys())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(polys(), polys())
    def test_leibniz_rule(self, a, b):
        lhs = (a * b).derive("x")
        rhs = a.derive("x") * b + a * b.derive("x")
        assert lhs == rhs

    @given(polys(max_deg=3))
    def test_integrate_then_derive(self, a):
        assert a.integrate("x").derive("x") == a


class TestTextGrammar:
    def test_spec_example_round_trip(self):
        s = "3*x^2*y - 1/2*y^3 + t"
        assert P(s).to_text() == s

    def test_parse_values(self):
        assert P("x^2+y^2") == x**2 + y**2
        assert P("3/2*x*y - t") == Fraction(3, 2) * x * y - t

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as e:
            P("x^")
        assert e.value.position == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            P("   ")

    @given(polys(variables=("x", "y", "t"), max_deg=5))
    def test_round_trip_is_identity(self, p):
        assert P(p.to_text()) == p


class TestGcd:
    def test_shared_factor(self):
        assert poly_gcd(P("t^2 - 1"), P("t - 1")) == P("t - 1")

    def test_coprime(self):
        assert poly_gcd(2 * y, 2 * y + 2) == MultiPoly.const(1)

    def test_monomials(self):
        assert poly_gcd(x**3, x**2) == x**2

    def test_gcd_with_zero_normalizes(self):
        assert poly_gcd(3 * t**2, MultiPoly.zero()) == t**2

    def test_both_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            poly_gcd(MultiPoly.zero(), MultiPoly.zero())

    @pytest.mark.parametrize(
        "a, b",
        [(P("x^2 - y^2"), P("x - y")), (2 * x, 2 * y), (x * t, MultiPoly.zero())],
        ids=["shared-factor", "distinct-variables", "with-zero"],
    )
    def test_more_than_one_variable_rejected(self, a, b):
        with pytest.raises(ValueError):
            poly_gcd(a, b)

    @given(polys(variables=("t",), max_deg=4), polys(variables=("t",), max_deg=4), polys(variables=("t",), max_deg=3))
    def test_common_factor_detected(self, a, b, g):
        if a.is_zero or b.is_zero or g.degree() < 1:
            return
        got = poly_gcd(a * g, b * g)
        # the common factor must divide the gcd
        assert got.degree() >= g.degree() or poly_gcd(a, b).degree() > 0
        dense(got).exact_div(dense(poly_gcd(got, g)))  # g | got up to the cofactor gcd


class TestResultant:
    def test_sylvester_3x3_example(self):
        r = resultant(y**2 + (x**2 - t), 2 * y, "y")
        assert r == P("4*x^2 - 4*t")

    def test_common_root_gives_zero(self):
        assert resultant(x - 1, x - 1, "x").is_zero

    def test_linear_pair_determinant(self):
        assert resultant(x - 1, x - 3, "x") == MultiPoly.const(2)

    def test_zero_input_rejected(self):
        with pytest.raises(DegenerateInput):
            resultant(MultiPoly.zero(), x, "x")

    @given(polys(variables=("t",), max_deg=3), polys(variables=("t",), max_deg=3))
    def test_linear_pair_identity(self, a, b):
        assert resultant(x - a, x - b, "x") == b - a

    @given(polys(variables=("x", "t"), max_deg=3), polys(variables=("x", "t"), max_deg=3))
    def test_swap_sign(self, f, g):
        if f.is_zero or g.is_zero:
            return
        sign = (-1) ** (f.degree_in("x") * g.degree_in("x"))
        assert resultant(f, g, "x") == sign * resultant(g, f, "x")

    def test_resultant_vanishes_iff_common_factor(self, rng):
        from tests.conftest import random_poly

        hits = 0
        while hits < 100:
            a = random_poly(rng, ("t",), rng.randint(1, 3))
            b = random_poly(rng, ("t",), rng.randint(1, 3))
            if a.degree_in("t") < 1 or b.degree_in("t") < 1:
                continue
            if rng.random() < 0.5:
                g = random_poly(rng, ("t",), 2)
                if g.degree_in("t") >= 1:
                    a, b = a * g, b * g
            if a.degree_in("t") > 6 or b.degree_in("t") > 6:
                continue
            r = resultant(a, b, "t")
            has_factor = not poly_gcd(a, b).is_constant()
            assert r.is_zero == has_factor
            hits += 1

    def test_numeric_product_oracle(self, rng):
        # resultant(f, g) = +- lc(f)^deg(g) * prod g(roots of f); check magnitude
        import numpy as np

        for _ in range(20):
            fr = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            gr = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            f = MultiPoly.const(1)
            for r0 in fr:
                f = f * (t - r0)
            g = MultiPoly.const(1)
            for r0 in gr:
                g = g * (t - r0)
            r = resultant(f, g, "t")
            expect = 1.0
            for r0 in fr:
                expect *= complex(g.eval_complex({"t": r0}))
            assert abs(abs(complex(r.constant_value())) - abs(expect)) < 1e-6 * max(1, abs(expect))


def sylvester(f, g, var):
    """The Sylvester matrix in resultant's layout, g rows first."""
    m, n = f.degree_in(var), g.degree_in(var)
    fc = [f.coeff_in_var(var, k) for k in range(m, -1, -1)]
    gc = [g.coeff_in_var(var, k) for k in range(n, -1, -1)]
    zero = MultiPoly.zero()
    return [[zero] * i + gc + [zero] * (m - 1 - i) for i in range(m)] + [
        [zero] * i + fc + [zero] * (n - 1 - i) for i in range(n)
    ]


xyt_polys = polys(variables=("x", "y", "t"), max_deg=3)


class TestKroneckerResultant:
    """Sylvester entries in two variables go through w = u^D on the dense kernel."""

    # degree 0 in var, a zero middle coefficient, a constant coefficient
    @example(f=x * t + 1, g=y * y - x, var="y")
    @example(f=y**3 - t, g=x * y * y + t * t, var="y")
    @example(f=x * x + 2 * y * t, g=x - 1, var="x")
    @given(xyt_polys, xyt_polys, st.sampled_from("xy"))
    def test_matches_the_cofactor_expansion(self, f, g, var):
        # eliminating y leaves coefficients in (x, t), eliminating x in (y, t)
        assume(not f.is_zero and not g.is_zero)
        assert resultant(f, g, var) == laplace_det(sylvester(f, g, var))

    @pytest.mark.parametrize("text", ["x^3 - x*y^2 + y", "x^2 + y^2 + x^3 - 3*x*y^2"])
    def test_level_curve_eliminant(self, text):
        # Res_y(H - t, Hy) of the benchmark cubics, as critical_values forms it
        H = P(text)
        f, g = H - t, H.derive("y")
        assert resultant(f, g, "y") == laplace_det(sylvester(f, g, "y"))

    def test_three_variables_raise(self):
        with pytest.raises(ValueError):
            _kronecker_det([[x, y], [t, MultiPoly.const(1)]])


class TestEval:
    def test_gaussian_point(self):
        assert P("x^2+y^2").eval_complex({"x": 1, "y": 1j}) == 0j

    def test_root_and_value(self):
        assert P("t^2+1").eval_complex({"t": 1j}) == 0j
        assert P("t^2+1").eval_complex({"t": 2}) == 5 + 0j

    @given(polys(max_deg=3), polys(max_deg=3))
    def test_eval_is_ring_homomorphism(self, a, b):
        pt = {"x": 0.7 - 0.3j, "y": -1.1 + 0.6j}
        va = a.eval_complex(pt)
        vb = b.eval_complex(pt)
        vab = (a * b).eval_complex(pt)
        assert abs(vab - va * vb) <= 1e-12 * max(1.0, abs(va * vb))

    @given(
        polys(variables=("x", "y", "t"), max_deg=5),
        st.lists(st.tuples(small_coeff(), small_coeff()), min_size=3, max_size=3),
    )
    def test_matches_exact_gaussian_rational_evaluation(self, p, point):
        # exact value at a Gaussian-rational point, in pairs (re, im) of
        # Fractions, against eval_complex at the nearest floats
        def mul(u, v):
            return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

        exact, size = (Fraction(0), Fraction(0)), 0.0
        for e, c in p.terms.items():
            term = (c, Fraction(0))
            for v, k in enumerate(e):
                for _ in range(k):
                    term = mul(term, point[v])
            exact = (exact[0] + term[0], exact[1] + term[1])
            size += abs(complex(float(term[0]), float(term[1])))
        got = p.eval_complex({v: complex(float(re), float(im)) for v, (re, im) in zip("xyt", point)})
        assert abs(got - complex(float(exact[0]), float(exact[1]))) <= 1e-13 * (1.0 + size)

    def test_evaluation_leaves_equality_and_hash(self):
        p, q = P("x^3 - x*y^2 + y"), P("x^3 - x*y^2 + y")
        h = hash(p)
        v = p.eval_complex({"x": 0.5j, "y": 2})
        assert p == q and hash(p) == h == hash(q) and {p: 1}[q] == 1
        assert p.eval_complex({"x": 0.5j, "y": 2}) == v == q.eval_complex({"x": 0.5j, "y": 2})


def bits(v):
    """The bytes of v as complex128 values, so that 0.0 and -0.0 differ."""
    return np.asarray(v, dtype=complex).tobytes()


finite = st.floats(-4, 4)
numbers = st.one_of(st.integers(-5, 5), small_coeff(), finite, st.builds(complex, finite, finite))


class TestEvalOnArrays:
    @given(polys(max_deg=5), st.lists(st.tuples(finite, finite, finite, finite), min_size=1, max_size=9))
    def test_arrays_evaluate_element_wise(self, p, rows):
        xr, xi, yr, yi = (np.array(col) for col in zip(*rows))
        for X, Y in ((xr, yr), (xr + 1j * xi, yr + 1j * yi)):
            got = p.eval_complex({"x": X, "y": Y})
            # a constant polynomial gives one complex value, which broadcasts
            got = np.broadcast_to(got, X.shape)
            # length-1 arrays give the bits of the whole array
            assert bits(got) == bits([p.eval_complex({"x": X[k : k + 1], "y": Y[k : k + 1]}) for k in range(len(X))])
            scalar = np.array([p.eval_complex({"x": a, "y": b}) for a, b in zip(X.tolist(), Y.tolist())])
            if X is xr:
                assert bits(got) == bits(scalar)
            else:
                # numpy's complex product may fuse a multiply-add (AVX2/FMA
                # builds do), so complex arrays agree with Python's complex
                # arithmetic to rounding, not bit for bit: each side's Horner
                # error is a few ulp per level, at most ten levels here, of
                # the evaluation of |p| at |x|, |y|
                size = MultiPoly(("x", "y", "t"), {e: abs(c) for e, c in p.terms.items()})
                bound = size.eval_complex({"x": np.abs(X), "y": np.abs(Y)}).real
                assert np.all(np.abs(got - scalar) <= 128 * np.finfo(float).eps * bound)

    def test_constant_broadcasts(self):
        X = np.linspace(-1.0, 1.0, 5) + 0.5j
        got = P("7/3").eval_complex({"x": X})
        assert got == complex(7 / 3)
        assert bits(got + 0 * X) == bits(np.full(5, complex(7 / 3)))

    def test_real_points_stay_real(self):
        p = P("x^3 - 3*x*y^2 + 1/3*y")
        assert type(p.eval_complex({"x": 2.0, "y": 1})) is float
        got = p.eval_complex({"x": np.array([2.0, -1.0]), "y": np.array([1.0, 0.5])})
        assert got.dtype == np.float64
        assert bits(got) == bits([p.eval_complex({"x": complex(a), "y": complex(b)}) for a, b in ((2, 1), (-1, 0.5))])

    def test_real_and_complex_arrays_mix(self):
        # the outer variable real, an inner one complex: the real accumulator
        # meets a complex value
        got = P("x^2 + x*y + 3").eval_complex({"x": np.array([1.0, 2.0]), "y": np.array([1j, 2 + 1j])})
        assert np.array_equal(got, [4 + 1j, 11 + 2j])

    @given(polys(variables=("x", "y", "t"), max_deg=5), st.lists(numbers, min_size=3, max_size=3))
    def test_scalars_evaluate_as_their_complex_values(self, p, vals):
        # int, Fraction, float and complex points give the bits of the
        # evaluation at complex(value)
        point = dict(zip("xyt", vals))
        assert bits(p.eval_complex(point)) == bits(p.eval_complex({v: complex(c) for v, c in point.items()}))



# -- the dense integer kernel ------------------------------------------------


@st.composite
def wide_ints(draw):
    """Signed integers of 1 to 2000 bits."""
    bits = draw(st.integers(1, 2000))
    return draw(st.integers(-(1 << bits), 1 << bits))


@st.composite
def wide_tpolys(draw, max_len=7):
    """Polynomials in t with wide rational coefficients, zero and constants included."""
    coeffs = draw(st.lists(wide_ints(), max_size=max_len))
    den = draw(st.integers(1, 1 << draw(st.integers(0, 200))))
    return tpoly([Fraction(c, den) for c in coeffs])


def dense(p):
    return _Dense.from_poly(p)


def int_seq(p):
    """Primitive integer coefficient tuple of a nonzero polynomial in t."""
    return dense(p).p


@st.composite
def int_tpolys(draw, max_len=6, bits=64):
    coeffs = draw(st.lists(st.integers(-(1 << bits), 1 << bits), min_size=1, max_size=max_len))
    return tpoly(coeffs)


class TestDenseKernel:
    @given(wide_tpolys())
    def test_round_trip(self, a):
        d = dense(a)
        assert d.to_poly("t") == a
        assert len(d.p) - 1 == a.degree()
        assert d.is_zero == a.is_zero
        assert not d.p or (d.p[-1] > 0 and _primitive(list(d.p))[0] == 1)

    @given(wide_tpolys(), wide_tpolys())
    def test_ring_operations_match_multipoly(self, a, b):
        assert (dense(a) * dense(b)).to_poly("t") == a * b
        assert (dense(a) + dense(b)).to_poly("t") == a + b
        assert (dense(a) - dense(b)).to_poly("t") == a - b
        assert (dense(a) == dense(b)) == (a == b)

    @given(wide_tpolys())
    def test_derive(self, a):
        assert dense(a).derive().to_poly("t") == a.derive("t")

    @given(wide_tpolys(), wide_tpolys())
    def test_exact_division(self, a, b):
        if b.is_zero:
            return
        assert (dense(a * b).exact_div(dense(b))).to_poly("t") == a

    @given(wide_tpolys(), wide_tpolys(), wide_ints())
    def test_non_divisor_raises(self, a, b, c):
        # a remainder of nonzero degree 0 is left by any b of degree >= 1
        if b.degree() < 1 or c == 0:
            return
        with pytest.raises(ValueError):
            dense(a * b + MultiPoly.const(c)).exact_div(dense(b))

    def test_divisor_with_a_root_at_a_power_of_two(self):
        # q = t - 2^k vanishes at xi = 2^k: the packing word must stay above
        # ||q||, or q(xi) = 0 and the packed division fails
        for k in range(1, 200):
            q = t - MultiPoly.const(2**k)
            for r in (t * t, 3 * t * t - 5 * t + 7, t**3 - MultiPoly.const(2**k)):
                assert (dense(r * q).exact_div(dense(q))).to_poly("t") == r

    def test_quotient_wider_than_dividend(self):
        # (t - 1)^60 has 57-bit coefficients, (t^2 - 1)^60 no wider ones: the
        # first word is too small and the division has to grow it
        q = (t + 1) ** 60
        assert dense((t * t - 1) ** 60).exact_div(dense(q)).to_poly("t") == (t - 1) ** 60


class TestHeuristicGcd:
    @given(int_tpolys(), int_tpolys(), int_tpolys(bits=300))
    def test_matches_the_subresultant_sequence(self, a, b, g):
        if (a * g).is_zero or (b * g).is_zero:
            return
        p, q = int_seq(a * g), int_seq(b * g)
        # a dividing candidate is the gcd only from this first point on
        assert 1 << (8 * _heu_bytes(p, q)) >= 2 * min(max(map(abs, p)), max(map(abs, q))) + 2
        h, cp, cq = _zgcd(p, q)
        assert h == _prs_gcd(p, q)
        assert dense(a * g).exact_div(_Dense(Fraction(1), h)).p == cp
        assert dense(b * g).exact_div(_Dense(Fraction(1), h)).p == cq

    def test_divisor_with_a_root_at_a_power_of_256(self):
        # GCDHEU finds h = t - 2^24 at 2^32; the trial division by h must
        # not evaluate h at its own root
        c = MultiPoly.const(2**24)
        assert poly_gcd(t * t - c * t, t - c) == t - c
        h, cp, cq = _zgcd(int_seq(t * t - c * t), int_seq(t - c))
        assert (h, cp, cq) == (int_seq(t - c), (0, 1), (1,))

    def test_first_point_fails_then_recovers(self):
        # p = g (t + 1) fixes xi = 256; q = g b with b(-1) = xi + 1, so
        # gcd(p(xi), q(xi)) carries the phantom factor xi + 1 = (t + 1)(xi)
        g = P("t^2 + 3*t - 5")
        p = int_seq(g * (t + 1))
        q = int_seq(g * ((t + 1) * (t * t + 2) + 257))
        assert _heu_bytes(p, q) == 1
        assert _heu_gcd_at(p, q, 1) is None
        assert _zgcd(p, q)[0] == _prs_gcd(p, q) == int_seq(g)

    @given(int_tpolys(bits=40), int_tpolys(bits=8))
    def test_phantom_factor_at_the_first_point(self, g, s):
        # the same construction for random g and s
        if g.is_zero or s.is_zero:
            return
        p = int_seq(g * (t + 1))
        xi = 1 << (8 * _heu_bytes(p, p))
        b = (t + 1) * s + xi + 1
        q = int_seq(g * b)
        assume(_heu_bytes(p, q) == _heu_bytes(p, p))
        assert _zgcd(p, q)[0] == _prs_gcd(p, q)
        assert poly_gcd(g * (t + 1), g * b) == poly_gcd(g, g * b)
