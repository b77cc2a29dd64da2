import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pfzero.errors import NearCritical, NotCompactComponent, PathTooClose
from pfzero.hamiltonian import Hamiltonian, critical_values
from pfzero.numerics import (
    PeriodSample,
    QuadConfig,
    branch_point_cycle,
    _continue_branch,
    continuation_callable,
    integrate_pf_numeric,
    make_cycle,
    period_quadrature,
    period_quadrature_with_error,
    periods_of_system,
    refine_cycle,
    residual_check,
    trace_cycle,
)
from pfzero.petrov import OneForm, petrov_decompose
from pfzero.pfsystem import assemble_pf_system
from pfzero.poly import MultiPoly, parse_polynomial
from tests.conftest import random_poly

P = parse_polynomial
ZERO = MultiPoly.zero()
X_DY = OneForm(ZERO, P("x"))


@pytest.fixture(scope="module")
def circle():
    return Hamiltonian.from_poly(P("x^2+y^2"))


@pytest.fixture(scope="module")
def circle_sing(circle):
    return critical_values(circle)


@pytest.fixture(scope="module")
def circle_sys(circle):
    return assemble_pf_system(circle)


class TestTraceCycle:
    def test_unit_circle(self, circle, circle_sing):
        cyc = trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing)
        assert cyc.closure_gap <= 1e-9
        for x, y in cyc.points:
            assert abs(circle.eval(x, y) - 1.0) <= 1e-9

    def test_critical_level_rejected(self, circle, circle_sing):
        with pytest.raises(NearCritical):
            trace_cycle(circle, 0.0, (0.1, 0.0), circle_sing)

    def test_elliptic_oval(self):
        H = Hamiltonian.from_poly(P("x^3 - 3*x + y^2"))
        cyc = trace_cycle(H, 0.0, (0.1, 1.7), critical_values(H))
        assert cyc.closure_gap <= 1e-9
        assert len(cyc.points) > 20

    def test_unbounded_branch_detected(self):
        # the branch over x <= -sqrt(3) runs to infinity
        H = Hamiltonian.from_poly(P("x^3 - 3*x + y^2"))
        with pytest.raises(NotCompactComponent):
            trace_cycle(H, 0.0, (-2.5, 1.0), critical_values(H))


class TestPeriodQuadrature:
    def test_area_period(self, circle, circle_sing):
        cyc = trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing)
        v = period_quadrature(cyc, X_DY)
        assert abs(v - math.pi) <= 1e-9

    def test_odd_symmetry_kills_x2dy(self, circle, circle_sing):
        cyc = trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing)
        assert abs(period_quadrature(cyc, OneForm(ZERO, P("x^2")))) <= 1e-9

    def test_ydx_is_minus_area(self, circle, circle_sing):
        cyc = trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing)
        v = period_quadrature(cyc, OneForm(P("y"), ZERO))
        assert abs(v + math.pi) <= 1e-9

    def test_refinement_convergence(self, circle, circle_sing):
        cyc = trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing)
        v1, _ = period_quadrature_with_error(cyc, X_DY, QuadConfig(rel_tol=1e-9))
        v2, _ = period_quadrature_with_error(cyc, X_DY, QuadConfig(rel_tol=1e-12))
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v2))

    def test_orientation_reversal_negates(self, circle, circle_sing):
        cyc = trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing)
        v = period_quadrature(cyc, X_DY)
        w = period_quadrature(cyc.reversed(), X_DY)
        assert abs(v + w) <= 1e-12 * max(1.0, abs(v))

    def test_branch_cycle_matches_real_cycle(self, circle, circle_sing):
        # the lift around the two branch points of y^2 = t - x^2 is the circle
        real_v = period_quadrature(trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing), X_DY)
        branch = branch_point_cycle(circle, 1.0)
        v = period_quadrature(branch, X_DY)
        assert abs(abs(v) - abs(real_v)) <= 1e-8


class TestContinuation:
    def test_real_segment(self, circle_sys):
        init = PeriodSample(t=1.0, periods=(math.pi + 0j,), error_estimate=0.0)
        out = integrate_pf_numeric(circle_sys, [1.0, 4.0], init)
        assert abs(out[-1].periods[0] - 4 * math.pi) <= 1e-8

    def test_closed_loop(self, circle_sys):
        init = PeriodSample(t=1.0, periods=(math.pi + 0j,), error_estimate=0.0)
        loop = [np.exp(2j * np.pi * k / 32) for k in range(33)]
        out = integrate_pf_numeric(circle_sys, loop, init)
        assert abs(out[-1].periods[0] - math.pi) <= 1e-8

    def test_pole_guard(self, circle_sys):
        init = PeriodSample(t=1.0, periods=(math.pi + 0j,), error_estimate=0.0)
        with pytest.raises(PathTooClose):
            integrate_pf_numeric(circle_sys, [1.0, -1.0], init)  # crosses t = 0

    def test_matches_quadrature_along_real_path(self, circle, circle_sys, circle_sing):
        init = periods_of_system(circle_sys, trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing))
        out = integrate_pf_numeric(circle_sys, [1.0, 2.5], init)
        direct = periods_of_system(circle_sys, trace_cycle(circle, 2.5, (1.0, 0.0), circle_sing))
        got, want = out[-1].periods[0], direct.periods[0]
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_dense_callable(self, circle_sys):
        init = PeriodSample(t=1.0, periods=(math.pi + 0j,), error_estimate=0.0)
        loop = [np.exp(2j * np.pi * k / 32) for k in range(33)]
        f = continuation_callable(circle_sys, loop, init)
        # solution pi * t on the unit circle
        v = f(0.25)[0]
        expect = math.pi * np.exp(2j * np.pi * 0.25)
        assert abs(v - expect) <= 1e-7


class TestResiduals:
    def test_d2_samples(self, circle, circle_sys):
        reports = residual_check(circle_sys, circle, [0.5, 1.0, 2.0])
        assert all(r.relative_residual < 1e-6 for r in reports)

    def test_near_critical_guard(self, circle, circle_sys):
        with pytest.raises(NearCritical):
            residual_check(circle_sys, circle, [0.0])

    def test_petrov_bridge(self, circle, rng, circle_sing):
        # a form with all module coefficients zero has vanishing periods
        sysm = assemble_pf_system(circle)
        forms = sysm.forms
        cyc = trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing)
        for _ in range(5):
            A = random_poly(rng, ("x", "y"), 3)
            B = random_poly(rng, ("x", "y"), 2)
            omega = OneForm(
                A.derive("x") + B * circle.hx(), A.derive("y") + B * circle.hy()
            )
            dec = petrov_decompose(omega, circle, list(forms))
            assert all(c.is_zero for c in dec.coeffs)
            assert abs(period_quadrature(cyc, omega)) <= 1e-8
        # and a basis form itself has a nonzero period on the traced cycle
        assert abs(period_quadrature(cyc, forms[0])) > 1e-3


# a real oval of the circle and a branch-point cycle of a saddles-only cubic
CYCLE_CASES = [("x^2+y^2", 1.0, "real"), ("x^3 - x*y^2 + y", 1.5, "branch")]


def _continue_branch_sequential(d, first_sign=1.0):
    """Reference: the point-by-point square-root continuation loop."""
    d = d.copy()
    if first_sign < 0:
        d[0] = -d[0]
    for i in range(1, len(d)):
        if abs(-d[i] - d[i - 1]) < abs(d[i] - d[i - 1]):
            d[i] = -d[i]
    return d


class TestSharedOracle:
    @pytest.mark.parametrize("text, t, kind", CYCLE_CASES)
    def test_matches_per_form_quadrature(self, text, t, kind):
        H = Hamiltonian.from_poly(P(text))
        sysm = assemble_pf_system(H)
        cyc = make_cycle(H, t, sysm.singular)
        assert cyc.kind == kind
        cfg = QuadConfig(rel_tol=1e-12)
        sample = periods_of_system(sysm, cyc, cfg)
        per_form = [period_quadrature_with_error(cyc, w, cfg) for w in sysm.forms]
        assert sample.periods == tuple(v for v, _ in per_form)
        assert sample.error_estimate == max(e for _, e in per_form)

    @pytest.mark.parametrize("text, t, kind", CYCLE_CASES)
    def test_refined_points_stay_on_curve(self, text, t, kind):
        H = Hamiltonian.from_poly(P(text))
        cyc = make_cycle(H, t, critical_values(H))
        n = len(cyc.points)
        for _ in range(3):
            cyc = refine_cycle(cyc)
        assert cyc.kind == kind and len(cyc.points) == 8 * n
        resid = max(abs(H.eval(x, y) - t) for x, y in cyc.points)
        assert resid <= 1e-9 * max(1.0, abs(t))

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from([1.0, -1.0]),
    )
    def test_branch_continuation_matches_sequential_loop(self, values, first_sign):
        d = np.array(values, dtype=complex)
        # the two agree except where a neighbour pair is a tie (|a+b| = |a-b|);
        # near-ties are left out too, as abs may round differently in the last bit
        plus, minus = np.abs(d[1:] + d[:-1]), np.abs(d[1:] - d[:-1])
        assume(np.all(np.abs(plus - minus) > 1e-12 * (plus + minus)))
        got = _continue_branch(d, first_sign)
        want = _continue_branch_sequential(d, first_sign)
        assert np.array_equal(got, want)
