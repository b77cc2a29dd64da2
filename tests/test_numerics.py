import cmath
import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pfzero import numerics
from pfzero.cli import main
from pfzero.errors import NearCritical, NotCompactComponent, PathTooClose, StiffnessFailure
from pfzero.hamiltonian import Hamiltonian, critical_values
from pfzero.numerics import (
    PeriodSample,
    _at_level,
    _coefficient_arrays,
    _horner,
    _moments,
    _richardson_periods,
    branch_point_cycle,
    _continue_branch,
    _refine_stack,
    continuation_callable,
    make_cycle,
    periods_of_system,
    residual_check,
    trace_cycle,
)
from pfzero.petrov import OneForm, petrov_decompose
from pfzero.pfsystem import PFSystem, assemble_pf_system
from pfzero.poly import MultiPoly, parse_polynomial
from tests.conftest import Q4, random_poly

P = parse_polynomial
ZERO = MultiPoly.zero()
X_DY = OneForm(ZERO, P("x"))
BRANCH_CUBIC = "x^3 - x*y^2 + y"


def period(cycle, omega):
    """The period of one form over one cycle, with its error estimate."""
    ((value,),), ((err,),) = _richardson_periods([cycle], [omega])
    return value, err


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
        for x, y in cyc.points:
            assert abs(circle.poly.eval_complex({"x": x, "y": y}) - 1.0) <= 1e-9

    def test_critical_level_rejected(self, circle, circle_sing):
        with pytest.raises(NearCritical):
            trace_cycle(circle, 0.0, (0.1, 0.0), circle_sing)

    def test_elliptic_oval(self):
        H = Hamiltonian.from_poly(P("x^3 - 3*x + y^2"))
        cyc = trace_cycle(H, 0.0, (0.1, 1.7), critical_values(H))
        assert len(cyc.points) > 20

    def test_unbounded_branch_detected(self):
        # the branch over x <= -sqrt(3) runs to infinity
        H = Hamiltonian.from_poly(P("x^3 - 3*x + y^2"))
        with pytest.raises(NotCompactComponent):
            trace_cycle(H, 0.0, (-2.5, 1.0), critical_values(H))

    def test_closing_edge_in_a_bend_costs_no_refinement(self, monkeypatch):
        # the seed on the left starts the oval in the bend beside the saddle
        # (-2/3, 0); a closing edge that cuts that bend made its periods
        # converge late (23296 nodes against 7040 from the right seed)
        sysm = assemble_pf_system(Hamiltonian.from_poly(P(OVAL_CUBIC)))
        nodes = []
        moments = numerics._moments
        monkeypatch.setattr(numerics, "_moments", lambda X, Y, m: nodes.append(X.shape[-1]) or moments(X, Y, m))
        counts, periods = [], []
        for seed in ((-0.4626, 0.0), (0.2977, 0.0)):
            nodes.clear()
            cyc = trace_cycle(sysm.hamiltonian, 0.115, seed, sysm.singular)
            periods.append(np.array(periods_of_system(sysm, cyc).periods))
            counts.append(max(nodes))
        assert max(counts) <= 1.25 * min(counts)
        assert np.max(np.abs(periods[0] - periods[1])) <= 1e-12 * np.max(np.abs(periods[1]))


class TestPeriodQuadrature:
    def test_area_period(self, circle, circle_sing):
        cyc = trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing)
        v = period(cyc, X_DY)[0]
        assert abs(v - math.pi) <= 1e-9

    def test_odd_symmetry_kills_x2dy(self, circle, circle_sing):
        cyc = trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing)
        assert abs(period(cyc, OneForm(ZERO, P("x^2")))[0]) <= 1e-9

    def test_ydx_is_minus_area(self, circle, circle_sing):
        cyc = trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing)
        v = period(cyc, OneForm(P("y"), ZERO))[0]
        assert abs(v + math.pi) <= 1e-9

    def test_refinement_convergence(self, circle, circle_sing, monkeypatch):
        cyc = trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing)
        v2, _ = period(cyc, X_DY)
        monkeypatch.setattr(numerics, "PERIOD_REL_TOL", 1e-9)
        v1, _ = period(cyc, X_DY)
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v2))

    def test_orientation_reversal_negates(self, circle, circle_sing):
        cyc = trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing)
        v = period(cyc, X_DY)[0]
        w = period(cyc.reversed(), X_DY)[0]
        assert abs(v + w) <= 1e-12 * max(1.0, abs(v))

    def test_branch_cycle_matches_real_cycle(self, circle, circle_sing):
        # the lift around the two branch points of y^2 = t - x^2 is the circle
        real_v = period(trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing), X_DY)[0]
        branch = branch_point_cycle(circle, 1.0)
        v = period(branch, X_DY)[0]
        assert abs(abs(v) - abs(real_v)) <= 1e-8


class TestContinuation:
    def test_real_segment(self, circle_sys):
        init = PeriodSample(t=1.0, periods=(math.pi + 0j,), error_estimate=0.0)
        f = continuation_callable(circle_sys, [1.0, 4.0], init)
        assert abs(f(1.0)[0] - 4 * math.pi) <= 1e-8

    def test_closed_loop(self, circle_sys):
        init = PeriodSample(t=1.0, periods=(math.pi + 0j,), error_estimate=0.0)
        loop = [np.exp(2j * np.pi * k / 32) for k in range(33)]
        f = continuation_callable(circle_sys, loop, init)
        assert abs(f(1.0)[0] - math.pi) <= 1e-8

    def test_pole_guard(self, circle_sys):
        init = PeriodSample(t=1.0, periods=(math.pi + 0j,), error_estimate=0.0)
        with pytest.raises(PathTooClose):
            continuation_callable(circle_sys, [1.0, -1.0], init)  # crosses t = 0

    def test_matches_quadrature_along_real_path(self, circle, circle_sys, circle_sing):
        init = periods_of_system(circle_sys, trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing))
        f = continuation_callable(circle_sys, [1.0, 2.5], init)
        direct = periods_of_system(circle_sys, trace_cycle(circle, 2.5, (1.0, 0.0), circle_sing))
        got, want = f(1.0)[0], direct.periods[0]
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_dense_callable(self, circle_sys):
        init = PeriodSample(t=1.0, periods=(math.pi + 0j,), error_estimate=0.0)
        loop = [np.exp(2j * np.pi * k / 32) for k in range(33)]
        f = continuation_callable(circle_sys, loop, init)
        # solution pi * t on the unit circle
        v = f(0.25)[0]
        expect = math.pi * np.exp(2j * np.pi * 0.25)
        assert abs(v - expect) <= 1e-7

    def test_dense_callable_rejects_a_single_vertex(self, circle_sys):
        init = PeriodSample(t=1.0, periods=(math.pi + 0j,), error_estimate=0.0)
        with pytest.raises(ValueError, match="two vertices"):
            continuation_callable(circle_sys, [1.0], init)

    def test_dense_callable_rejects_a_path_away_from_the_sample(self, circle_sys):
        # the periods at t = 1 must not be continued from t = 2
        init = PeriodSample(t=1.0, periods=(math.pi + 0j,), error_estimate=0.0)
        with pytest.raises(ValueError, match="first path vertex"):
            continuation_callable(circle_sys, [2.0, 3.0], init)

    def test_step_collapse_is_a_stiffness_failure(self, monkeypatch):
        # a segment that starts on a root of a, hidden from the pole guard and
        # from the step rule: no step, however small, gives a series that
        # converges, so the step halves down to MIN_STEP
        sysm = assemble_pf_system(Hamiltonian.from_poly(P(BRANCH_CUBIC)))
        root = complex(_real_pole(sysm))
        monkeypatch.setattr(PFSystem, "pole_candidates", lambda self: [])
        init = PeriodSample(t=root, periods=tuple(_generic_vector(sysm)), error_estimate=0.0)
        with np.errstate(all="ignore"), pytest.raises(StiffnessFailure, match="Taylor step below"):
            continuation_callable(sysm, [root, 1.0], init)


# period systems, each on a 48-gon around some of its poles
DOP853_CASES = [
    (BRANCH_CUBIC, 0.62, 0.3),
    ("x^2 + y^2 + x^3 - 3*x*y^2", 0.074, 0.2),
    ("x^2+y^2", 0.0, 1.0),
]


def _generic_vector(sysm):
    return np.linspace(1.0, 2.0, sysm.dim) * (1 - 0.5j)


def _real_pole(sysm):
    """The pole of the branch cubic's system at t = 0.6204..."""
    [pole] = [cv.value for cv in sysm.pole_candidates() if cv.value.real > 0.5]
    return pole


def _scipy_segments(sysm, path, y):
    """SciPy's DOP853 at rtol 1e-12 along each segment of the path, from y:
    one dense solution per segment, s in [0, 1], each started at the end of
    the one before."""
    from scipy.integrate import solve_ivp as reference

    coefs, n = _coefficient_arrays(sysm), sysm.dim
    sols = []
    for a, b in zip(path, path[1:]):

        def rhs(s, v, a=a, dt=b - a):
            w = _horner(coefs, a + s * dt)
            return dt * ((w[1:].reshape(n, n) / w[0]) @ v)

        sol = reference(
            rhs, (0.0, 1.0), y, method="DOP853", dense_output=True, rtol=1e-12, atol=1e-14 * np.max(np.abs(y))
        )
        assert sol.success
        sols.append(sol)
        y = sol.y[:, -1]
    return sols


def _assert_matches_scipy(f, sols, samples=31):
    """f(s) of a continuation against the SciPy segments, at the given
    number of points per segment, endpoints included, to 1e-9 relative."""
    for k, want in enumerate(sols):
        for s in np.linspace(0.0, 1.0, samples):
            ref = want.sol(s)
            got = f((k + s) / len(sols))
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref)), (k, s)


def _record_solutions(monkeypatch) -> list:
    """The list that receives each `numerics.solve_ivp` result from now on."""
    results = []
    solve = numerics.solve_ivp
    monkeypatch.setattr(numerics, "solve_ivp", lambda *args: results.append(solve(*args)) or results[-1])
    return results


class TestTaylorMatchesScipy:
    """SciPy's DOP853 at rtol 1e-12 is the reference of the Taylor engine."""

    @pytest.mark.parametrize("text, center, radius", DOP853_CASES)
    def test_period_system_along_a_48_gon(self, text, center, radius):
        sysm = assemble_pf_system(Hamiltonian.from_poly(P(text)))
        path = [center + radius * cmath.exp(2j * math.pi * k / 48) for k in range(49)]
        y = _generic_vector(sysm)
        f = continuation_callable(sysm, path, PeriodSample(t=path[0], periods=tuple(y), error_estimate=0.0))
        _assert_matches_scipy(f, _scipy_segments(sysm, path, y))

    def test_circle_closed_form_on_the_32_gon(self, circle_sys):
        # the periods of x^2 + y^2 are pi t, a polynomial, on every chord
        loop = [np.exp(2j * np.pi * k / 32) for k in range(33)]
        f = continuation_callable(circle_sys, loop, PeriodSample(t=1.0, periods=(math.pi + 0j,), error_estimate=0.0))
        for k in range(32):
            for s in np.linspace(0.0, 1.0, 31):
                t = loop[k] + s * (loop[k + 1] - loop[k])
                assert abs(f((k + s) / 32)[0] - math.pi * t) <= 1e-12

    def test_segment_near_a_pole_takes_substeps(self, monkeypatch):
        # the segment passes 2 PATH_MARGIN above the pole at 0.6204, so the
        # steps shrink with the distance to it and grow again past it
        sysm = assemble_pf_system(Hamiltonian.from_poly(P(BRANCH_CUBIC)))
        c = _real_pole(sysm) + 2j * numerics.PATH_MARGIN
        path = [c - 0.3, c + 0.3]
        y = _generic_vector(sysm)
        solutions = _record_solutions(monkeypatch)
        f = continuation_callable(sysm, path, PeriodSample(t=path[0], periods=tuple(y), error_estimate=0.0))
        [sol] = solutions
        assert len(sol.terms) >= 20
        steps = np.array(sol.steps)
        assert steps.min() < 0.01 * steps.max()
        sols = _scipy_segments(sysm, path, y)
        _assert_matches_scipy(f, sols, samples=301)
        for s in sol.starts:
            assert np.max(np.abs(f(s) - sols[0].sol(s))) <= 1e-9 * np.max(np.abs(sols[0].sol(s)))


# the `--mode both` jobs of the benchmark's zeros_cubic workload, seeds 1-2,
# rounds 0-2, with the numeric_count that the DOP853 engine gave them
ZEROS_CUBIC_JOBS = [
    (BRANCH_CUBIC, "disc:0.0596,0.0329,0.2585", 0),
    (BRANCH_CUBIC, "disc:-0.5022,-0.2693,0.1398", 0),
    (BRANCH_CUBIC, "disc:-0.3529,0.5885,0.1883", 0),
    (BRANCH_CUBIC, "disc:0.5586,0.3449,0.2013", 0),
    (BRANCH_CUBIC, "disc:-0.1472,-0.0121,0.1542", 0),
    (BRANCH_CUBIC, "disc:-0.0006,0.3321,0.138", 0),
    ("x^2 + y^2 + x^3 - 3*x*y^2", "disc:0.5235,0.4181,0.2098", 0),
    ("x^2 + y^2 + x^3 - 3*x*y^2", "disc:-0.5391,-0.2699,0.228", 0),
    ("x^2 + y^2 + x^3 - 3*x*y^2", "disc:-0.1706,0.4095,0.2365", 0),
    ("x^2 + y^2 + x^3 - 3*x*y^2", "disc:0.418,0.3337,0.1993", 0),
    ("x^2 + y^2 + x^3 - 3*x*y^2", "disc:-0.6237,-0.5749,0.1237", 0),
    ("x^2 + y^2 + x^3 - 3*x*y^2", "disc:-0.3151,0.4518,0.2147", 0),
]


def _count_zeros(capsys, text, domain):
    argv = ["count-zeros", "-H", text, "--mode", "both", "-m", "1", "--domain", domain, "--rho", "0.1", "--tol", "1e-3"]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


class TestContinuationGuard:
    def test_term_count_on_the_branch_disc(self, capsys, monkeypatch):
        # a deterministic cost: 398 Taylor terms in 48 pieces, one per
        # segment, against 2256 right-hand sides of the DOP853 engine
        solutions = _record_solutions(monkeypatch)
        _count_zeros(capsys, BRANCH_CUBIC, "disc:0.5505,0.2971,0.1108")
        assert len(solutions) == 48 and all(len(s.terms) == 1 for s in solutions)
        assert sum(s.nfev for s in solutions) <= 420

    @pytest.mark.parametrize("text, domain, count", ZEROS_CUBIC_JOBS)
    def test_numeric_count_of_the_benchmark_jobs(self, capsys, text, domain, count):
        assert _count_zeros(capsys, text, domain)["numeric_count"] == count


OVAL_CUBIC = "x^2 + y^2 + x^3 - 3*x*y^2"


def _mu_count(capsys, text, mu, domain, rho):
    """numeric_count of count-zeros --mode both for the combination mu . I."""
    argv = ["count-zeros", "-H", text, f"--mu={mu}", "--mode", "both", "--domain", domain, "--rho", rho]
    assert main(argv + ["--tol", "1e-3"]) == 0
    return json.loads(capsys.readouterr().out)["numeric_count"]


def _oracle_along(sysm, path):
    """Quadrature periods at s = k/96 of the closed path as the continuation
    parametrizes it (each segment an equal share of s), to PERIOD_REL_TOL, of
    the cycle at the first vertex carried from level to level."""
    n = len(path) - 1
    cycles = [make_cycle(sysm.hamiltonian, path[0], sysm.singular)]
    for k in range(1, 96):
        j, r = divmod(k * n, 96)
        cycles.append(_at_level(cycles[-1], path[j] + r / 96 * (path[j + 1] - path[j])))
    vals, _errs = _richardson_periods(cycles, sysm.forms)
    return path, [np.array(v) for v in vals]


def _oracle_around(sysm, centre, radius):
    """The 48-gon of count-zeros around the disc, and `_oracle_along` it: at
    its vertices and chord midpoints."""
    return _oracle_along(sysm, [centre + radius * cmath.exp(2j * math.pi * k / 48) for k in range(49)])


def _continued_periods(sysm, path, periods) -> float:
    """The largest deviation of the continuation, from the first oracle
    sample, from the others, relative to the largest period. The Taylor tail
    test stops at 1e-12 of the periods, and the oracle's error estimates on
    the discs below stay under 3e-12."""
    f = continuation_callable(sysm, path, PeriodSample(t=path[0], periods=tuple(periods[0]), error_estimate=0.0))
    scale = max(np.max(np.abs(p)) for p in periods)
    return max(np.max(np.abs(f(k / 96) - p)) for k, p in enumerate(periods)) / scale


def _winding(values) -> float:
    """Turns of a closed sequence of nonzero values about 0, each step the
    principal angle."""
    return sum(cmath.phase(b / a) for a, b in zip(values, values[1:] + values[:1])) / (2 * math.pi)


class TestPlantedZeros:
    """Nonzero counts through the continuation, the expected count taken from
    quadrature periods alone, which the continuation also has to match along
    the 48-gon."""

    @pytest.fixture(scope="class")
    def oval_loop(self):
        sysm = assemble_pf_system(Hamiltonian.from_poly(P(OVAL_CUBIC)))
        return (sysm, *_oracle_around(sysm, 0.075, 0.03))

    @pytest.fixture(scope="class")
    def square_loop(self, oval_loop):
        sysm = oval_loop[0]
        return (sysm, *_oracle_along(sysm, [0.045 - 0.03j, 0.105 - 0.03j, 0.105 + 0.03j, 0.045 + 0.03j, 0.045 - 0.03j]))

    @pytest.mark.parametrize("mu, count", [("1,0,0,-47", 1), ("1,0,0,-30", 0)], ids=["planted", "control"])
    def test_oval_cubic_on_the_real_diameter(self, capsys, oval_loop, mu, count):
        # the oval periods are real on the real axis, and mu . I changes sign
        # on the diameter once for the planted mu and never for the control
        sysm, path, periods = oval_loop
        H = sysm.hamiltonian
        weights = [int(m) for m in mu.split(",")]
        signs = []
        for t in np.linspace(0.045, 0.105, 13):
            I = periods_of_system(sysm, make_cycle(H, float(t), sysm.singular)).periods
            signs.append(np.sign(np.dot(weights, I).real))
        assert np.count_nonzero(np.diff(signs)) == count
        assert round(_winding([np.dot(weights, p) for p in periods])) == count
        assert _continued_periods(sysm, path, periods) <= 1e-10
        assert _mu_count(capsys, OVAL_CUBIC, mu, "disc:0.075,0,0.03", "0.01") == count

    @pytest.mark.parametrize("mu, count", [("1,0,0,-47", 1), ("1,0,0,-30", 0)], ids=["planted", "control"])
    def test_oval_cubic_on_the_square_around_the_disc(self, capsys, oval_loop, square_loop, mu, count):
        # the polygon domain's contour is the square itself; its cycle starts
        # at a complex corner and reaches the real midline, the diameter
        # above, as the oval's cycle up to sign (s = 7/8 is t = 0.045)
        sysm, path, periods = square_loop
        weights = [int(m) for m in mu.split(",")]
        oval = oval_loop[2][48]  # t = 0.075 - 0.03 = 0.045
        assert min(np.max(np.abs(periods[84] - s * oval)) for s in (1, -1)) <= 1e-10 * np.max(np.abs(oval))
        assert round(_winding([np.dot(weights, p) for p in periods])) == count
        assert _continued_periods(sysm, path, periods) <= 1e-10
        assert _mu_count(capsys, OVAL_CUBIC, mu, "poly:0.045,-0.03;0.105,-0.03;0.105,0.03;0.045,0.03", "0.01") == count

    @pytest.fixture(scope="class")
    def quartic_loop(self):
        sysm = assemble_pf_system(Hamiltonian.from_poly(P(Q4)))
        return (sysm, *_oracle_around(sysm, 0.5, 0.2))

    # Q4's one real critical value is its minimum, -1.2067, so every real
    # level of the disc has a real oval. The planted mu is (1, -I_1 / I_2, 0,
    # ..., 0) at the centre t = 0.5, rounded to a denominator below 1000, so
    # mu . I vanishes there; the control moves its second entry off that
    @pytest.mark.parametrize(
        "mu, count", [("1,2332/611,0,0,0,0,0,0,0", 1), ("1,3,0,0,0,0,0,0,0", 0)], ids=["planted", "control"]
    )
    def test_quartic_on_the_real_diameter(self, capsys, quartic_loop, mu, count):
        sysm, path, periods = quartic_loop
        H = sysm.hamiltonian
        weights = [float(Fraction(m)) for m in mu.split(",")]
        real_periods = [
            np.array(periods_of_system(sysm, make_cycle(H, float(t), sysm.singular)).periods)
            for t in np.linspace(0.3, 0.7, 17)
        ]
        centre = real_periods[8]
        assert (abs(np.dot(weights, centre)) <= 1e-6 * np.max(np.abs(centre))) == (count == 1)
        assert np.count_nonzero(np.diff([np.sign(np.dot(weights, I).real) for I in real_periods])) == count
        assert round(_winding([np.dot(weights, p) for p in periods])) == count
        assert _continued_periods(sysm, path, periods) <= 1e-10
        assert _mu_count(capsys, Q4, mu, "disc:0.5,0,0.2", "0.1") == count

    def test_branch_cubic_zero_at_the_centre(self, capsys):
        # mu = (1, 0, m3, m4) rational and orthogonal to Re I and Im I at the
        # centre up to rounding, with I the periods of the cycle carried there
        # from the first vertex of the 48-gon
        H = Hamiltonian.from_poly(P(BRANCH_CUBIC))
        sysm = assemble_pf_system(H)
        centre, radius = 0.2 + 0.1j, 0.15
        path, periods = _oracle_around(sysm, centre, radius)
        cyc = make_cycle(H, path[0], sysm.singular)
        for u in np.linspace(0.0, 1.0, 9)[1:]:
            cyc = _at_level(cyc, path[0] + u * (centre - path[0]))
        I = np.array(periods_of_system(sysm, cyc).periods)
        m3, m4 = np.linalg.solve([[I[2].real, I[3].real], [I[2].imag, I[3].imag]], [-I[0].real, -I[0].imag])
        mu = [Fraction(1), Fraction(0)] + [Fraction(float(m)).limit_denominator(1000) for m in (m3, m4)]
        weights = [float(m) for m in mu]
        assert abs(np.dot(weights, I)) <= 1e-4 * np.max(np.abs(I))
        assert round(_winding([np.dot(weights, p) for p in periods])) == 1
        assert _continued_periods(sysm, path, periods) <= 1e-10
        domain = f"disc:{centre.real},{centre.imag},{radius}"
        assert _mu_count(capsys, BRANCH_CUBIC, ",".join(map(str, mu)), domain, "0.1") == 1


class TestResiduals:
    def test_d2_samples(self, circle, circle_sys):
        reports = residual_check(circle_sys, [0.5, 1.0, 2.0])
        assert all(r.relative_residual < 1e-6 for r in reports)

    def test_near_critical_guard(self, circle, circle_sys):
        with pytest.raises(NearCritical):
            residual_check(circle_sys, [0.0])

    def test_petrov_bridge(self, circle, rng, circle_sing):
        # a form with all module coefficients zero has vanishing periods
        sysm = assemble_pf_system(circle)
        forms = sysm.forms
        cyc = trace_cycle(circle, 1.0, (1.0, 0.0), circle_sing)
        for _ in range(5):
            A = random_poly(rng, ("x", "y"), 3)
            B = random_poly(rng, ("x", "y"), 2)
            omega = OneForm(
                A.derive("x") + B * circle.hx, A.derive("y") + B * circle.hy
            )
            [dec] = petrov_decompose([omega], circle, list(forms))
            assert all(c.is_zero for c in dec.coeffs)
            assert abs(period(cyc, omega)[0]) <= 1e-8
        # and a basis form itself has a nonzero period on the traced cycle
        assert abs(period(cyc, forms[0])[0]) > 1e-3


# a real oval of the circle and a branch-point cycle of a saddles-only cubic
CYCLE_CASES = [("x^2+y^2", 1.0, "real"), ("x^3 - x*y^2 + y", 1.5, "branch")]


def _continue_branch_sequential(d):
    """Reference: the point-by-point square-root continuation loop."""
    d = d.copy()
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
        sample = periods_of_system(sysm, cyc)
        per_form = [period(cyc, w) for w in sysm.forms]
        assert sample.periods == tuple(v for v, _ in per_form)
        assert sample.error_estimate == max(e for _, e in per_form)

    @pytest.mark.parametrize("text, t, kind", CYCLE_CASES)
    def test_refined_points_stay_on_curve(self, text, t, kind):
        H = Hamiltonian.from_poly(P(text))
        cyc = make_cycle(H, t, critical_values(H))
        assert cyc.kind == kind
        X, Y = cyc.points[:, 0], cyc.points[:, 1]
        for _ in range(3):
            X, Y = _refine_stack(H, t, X, Y)
        assert len(X) == 8 * len(cyc.points)
        resid = np.max(np.abs(H.poly.eval_complex({"x": X, "y": Y}) - t))
        assert resid <= 1e-9 * max(1.0, abs(t))
        # the same projector carries the cycle to a nearby level
        near = _at_level(cyc, t + 1e-3)
        assert near.kind == kind and near.level == t + 1e-3
        resid = max(abs(H.poly.eval_complex({"x": x, "y": y}) - (t + 1e-3)) for x, y in near.points)
        assert resid <= 1e-9 * max(1.0, abs(t))

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        ),
    )
    def test_branch_continuation_matches_sequential_loop(self, values):
        d = np.array(values, dtype=complex)
        # the two agree except where a neighbour pair is a tie (|a+b| = |a-b|);
        # near-ties are left out too, as abs may round differently in the last bit
        plus, minus = np.abs(d[1:] + d[:-1]), np.abs(d[1:] - d[:-1])
        assume(np.all(np.abs(plus - minus) > 1e-12 * (plus + minus)))
        got = _continue_branch(d)
        want = _continue_branch_sequential(d)
        assert np.array_equal(got, want)


def _exact_moment(vertices, i, j, k):
    """The integral of x^i y^j dx (k = 0) or dy (k = 1) around the closed
    polygon through the vertices, in Fractions: on each chord the integrand
    is expanded in powers of the chord parameter s and integrated term by
    term over [0, 1]."""
    total = Fraction(0)
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        dx, dy = x1 - x0, y1 - y0
        coeffs = [Fraction(1)]  # of (x0 + s dx)^i (y0 + s dy)^j, lowest power first
        for a, b in [(x0, dx)] * i + [(y0, dy)] * j:
            coeffs = [a * c + b * p for c, p in zip(coeffs + [0], [0] + coeffs)]
        total += (dy if k else dx) * sum(c / (n + 1) for n, c in enumerate(coeffs))
    return total


# dyadic rationals are floats exactly, so the kernel sees the exact polygon
dyadic = st.integers(-64, 64).map(lambda n: Fraction(n, 64))


class TestMomentKernel:
    @given(
        st.integers(3, 8).flatmap(
            lambda n: st.lists(
                st.lists(st.tuples(dyadic, dyadic), min_size=n, max_size=n), min_size=1, max_size=3
            )
        ),
        st.integers(2, 5),
        st.integers(1, 8),
    )
    def test_moments_are_exact(self, polygons, d, block):
        # every monomial a degree-d basis form can carry, over a stack of
        # polygons, in blocks of a few nodes so that chords straddle blocks
        monomials = [(i, j, k) for i in range(2 * d - 1) for j in range(2 * d - 1 - i) for k in (0, 1)]
        X = np.array([[float(x) for x, _ in poly] for poly in polygons])
        Y = np.array([[float(y) for _, y in poly] for poly in polygons])
        with mock.patch.object(numerics, "QUAD_BLOCK", block):
            got = _moments(X, Y, monomials)
        for m in monomials:
            for row, poly in enumerate(polygons):
                want = float(_exact_moment(poly, *m))
                assert abs(got[m][row] - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "text, t, kind",
        [("x^2+y^2", 1.0, "real"), ("x^3 - x*y^2 + y", 1.5, "branch"), ("x^2 + y^2 + x^3 - 3*x*y^2", 0.07, "real")],
    )
    def test_lockstep_triple_matches_single_cycles(self, text, t, kind):
        # the residual check's three cycles, refined in one stack, against
        # each cycle on its own
        H = Hamiltonian.from_poly(P(text))
        sysm = assemble_pf_system(H)
        base = make_cycle(H, t, sysm.singular)
        assert base.kind == kind
        h = numerics.FD_STEP * max(1.0, abs(t))
        cycles = [base, _at_level(base, t + h), _at_level(base, t - h)]
        stacked, _errs = _richardson_periods(cycles, sysm.forms)
        for cyc, values in zip(cycles, stacked):
            (alone,), _ = _richardson_periods([cyc], sysm.forms)
            assert len(values) == len(alone) == sysm.dim
            for got, want in zip(values, alone):
                assert abs(got - want) <= max(1e-12 * abs(want), 1e-15)

    def test_cycles_leave_the_stack_as_they_close(self, monkeypatch):
        # alone, the oval at 0.07 closes after 4 refinements, its projections
        # to 0.01 and 0.14 after 5 and 6: rows leave from the front of the stack
        H = Hamiltonian.from_poly(P("x^2 + y^2 + x^3 - 3*x*y^2"))
        sysm = assemble_pf_system(H)
        base = make_cycle(H, 0.07, sysm.singular)
        cycles = [base, _at_level(base, 0.14), _at_level(base, 0.01)]
        stack_rows = []
        refine = numerics._refine_stack

        def counted(H, t, X, Y):
            stack_rows.append(len(X))
            return refine(H, t, X, Y)

        monkeypatch.setattr(numerics, "_refine_stack", counted)
        stacked, _errs = _richardson_periods(cycles, sysm.forms)
        assert stack_rows == [3, 3, 3, 3, 2, 1]
        for cyc, values in zip(cycles, stacked):
            (alone,), _ = _richardson_periods([cyc], sysm.forms)
            for got, want in zip(values, alone):
                assert abs(got - want) <= max(1e-12 * abs(want), 1e-15)


# the levels of the benchmark's oracle_cubic workload, seed 1, round 0
ORACLE_LEVELS = {
    "x^3 - x*y^2 + y": "0.8277,0.9788,1.1546,1.2350,1.3470,1.4161,1.6215,1.7246,1.7798,1.9839,"
    "2.1160,2.2211,2.3192,2.3840,2.4876,2.6761,2.8376,2.8798,3.0200,3.1779",
    "x^2 + y^2 + x^3 - 3*x*y^2": "0.0245,0.0280,0.0315,0.0393,0.0443,0.0455,0.0547,0.0578,0.0639,0.0672,"
    "0.0718,0.0781,0.0823,0.0861,0.0945,0.0983,0.1015,0.1083,0.1123,0.1194",
}


class TestOracleGuard:
    @pytest.mark.parametrize("text", sorted(ORACLE_LEVELS))
    def test_verify_residuals(self, capsys, text):
        # the parent of the moment kernel gave 1.6e-10 (branch lifts) and
        # 4.0e-9 (real ovals)
        assert main(["verify", "-H", text, "--t-samples", ORACLE_LEVELS[text]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and len(report["samples"]) == 20
        assert report["worst_residual"] < 1e-8

    def test_branch_lift_polynomials_built_once(self, capsys):
        # the quadratic in y, its discriminant and their x-coefficients are
        # built once per H: the branch job takes 135 coeff_in_var calls in
        # all, against 537 when every sample rebuilt them
        text = "x^3 - x*y^2 + y"
        numerics._y_quadratic.cache_clear()
        calls = []
        coeff_in_var = MultiPoly.coeff_in_var

        def counted(p, var, k):
            calls.append(var)
            return coeff_in_var(p, var, k)

        with mock.patch.object(MultiPoly, "coeff_in_var", counted):
            assert main(["verify", "-H", text, "--t-samples", ORACLE_LEVELS[text]]) == 0
        assert len(calls) <= 150

    def test_branch_job_working_set(self):
        # quadrature and refinement run in blocks of QUAD_BLOCK nodes, so the
        # three stacked cycles of up to 8192 nodes each stay small: about
        # 2.0 MB traced, against 4.1 MB with one block per level
        text = "x^3 - x*y^2 + y"
        sysm = assemble_pf_system(Hamiltonian.from_poly(P(text)))
        levels = [float(t) for t in ORACLE_LEVELS[text].split(",")]
        tracemalloc.start()
        try:
            residual_check(sysm, levels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6


class TestExtremumSeeds:
    def test_circle_extremum_is_the_origin(self, circle_sing):
        assert circle_sing.extrema == ((0.0, 0.0),)

    def test_degenerate_minimum_seeds_a_real_oval(self):
        # the Hessian of x^4 + y^4 vanishes at its minimum
        H = Hamiltonian.from_poly(P("x^4 + y^4"))
        sing = critical_values(H)
        assert sing.extrema == ((0.0, 0.0),)
        assert make_cycle(H, 1.0, sing).kind == "real"

    def test_saddles_only_cubic_goes_straight_to_the_branch_lift(self, monkeypatch):
        H = Hamiltonian.from_poly(P("x^3 - x*y^2 + y"))
        sing = critical_values(H)
        assert sing.extrema == ()
        calls = []
        trace = numerics.trace_cycle
        monkeypatch.setattr(numerics, "trace_cycle", lambda *a: calls.append(a) or trace(*a))
        assert make_cycle(H, 1.5, sing).kind == "branch"
        assert calls == []
