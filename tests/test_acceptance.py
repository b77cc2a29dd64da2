"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 9 reads the generic order (d-1)^2 on the component whose
basis form has the largest degree: component 1 (x dy) has constant periods
around the points at infinity and stops at (d-1)(d-2)+1 (see the README).
"""

import cmath
import math
import time
from fractions import Fraction

import mpmath
import numpy as np

from pfzero.errors import PoleOnSegment
from pfzero.hamiltonian import CriticalValue, Hamiltonian, SingularSet, isolate_roots, monomial_basis
from pfzero.linalg import RatFunc
from pfzero.numerics import PeriodSample, continuation_callable, residual_check
from pfzero.petrov import OneForm, petrov_decompose
from pfzero.pfsystem import (
    ScalarODE,
    assemble_pf_system,
    augment_and_reduce,
    derive_scalar_ode,
    make_basis_forms,
)
from pfzero.poly import MultiPoly, parse_polynomial
from pfzero.zerocount import (
    Disc,
    asymptotic_bound_calculators,
    simple_domain,
    winding_count,
    yakovenko_varbound,
    zero_count_bound,
)
from tests.conftest import random_poly, random_regular_hamiltonian

P = parse_polynomial
t = MultiPoly.var("t")


def report(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return ok


def test_criterion_1_d2_exact_pipeline():
    t0 = time.monotonic()
    H = Hamiltonian.from_poly(P("x^2+y^2"))
    sysm = assemble_pf_system(H)
    ode = derive_scalar_ode(sysm, 1)
    aug = augment_and_reduce(sysm, [Fraction(1)])
    elapsed = time.monotonic() - t0
    ok = (
        sysm.K[0, 0] == P("4*t^2")
        and sysm.L[0, 0] == P("12*t")
        and sysm.a == t
        and sysm.A[0, 0] == MultiPoly.const(1)
        and ode.order == 1
        and ode.coeffs[0] == RatFunc(MultiPoly.const(-1), t)
        and aug.order == 2
        and all(c.is_zero for c in aug.coeffs)
        and elapsed < 1.0
    )
    assert report(
        1, ok, f"K=[4t^2], L=[12t], A/a=1/t, y'-(1/t)y=0, y''=0 exact in {elapsed:.3f}s"
    )


def test_criterion_2_petrov_reconstruction(rng):
    t0 = time.monotonic()
    basis_cache: dict = {}
    count = 0
    while count < 200:
        d = rng.choice([2, 3, 4])
        H = random_regular_hamiltonian(rng, d, coeff_range=5)
        key = H.poly.to_text()
        if key not in basis_cache:
            basis_cache[key] = make_basis_forms(monomial_basis(H))
        forms = basis_cache[key]
        degw = rng.randint(0, 2 * d)
        omega = OneForm(
            random_poly(rng, ("x", "y"), degw, coeff_range=5),
            random_poly(rng, ("x", "y"), degw, coeff_range=5),
        )
        [dec] = petrov_decompose([omega], H, forms)
        rec = dec.reconstruct(H, forms)
        assert rec.P == omega.P and rec.Q == omega.Q, "nonzero reconstruction residual"
        for c, w in zip(dec.coeffs, forms):
            if not c.is_zero:
                assert Fraction(c.degree_in("t")) <= Fraction(max(omega.degree, 0) - w.degree, d)
        count += 1
    elapsed = time.monotonic() - t0
    ok = count == 200 and elapsed < 120.0
    assert report(2, ok, f"200 exact reconstructions with degree bounds in {elapsed:.1f}s")


def test_criterion_3_oracle_residual():
    t0 = time.monotonic()
    H = Hamiltonian.from_poly(P("x^3 - x*y^2 + y"))
    sysm = assemble_pf_system(H)
    samples = [round(0.8 + 0.12 * k, 3) for k in range(20)]
    reports = residual_check(sysm, samples)
    worst = max(r.relative_residual for r in reports)
    elapsed = time.monotonic() - t0
    ok = len(reports) >= 20 and worst < 1e-6 and elapsed < 60.0
    assert report(3, ok, f"worst residual {worst:.2e} over {len(reports)} samples in {elapsed:.1f}s")


def test_criterion_4_monomial_basis(rng):
    H = Hamiltonian.from_poly(P("x^3 - x*y^2 + y"))
    got = set(monomial_basis(H).monomials)
    ok = got == {(0, 0), (1, 0), (0, 1), (0, 2)}
    checked = 0
    for _ in range(50):
        d = rng.choice([2, 3, 4])
        ham = random_regular_hamiltonian(rng, d)
        if len(monomial_basis(ham).monomials) != (d - 1) ** 2:
            ok = False
            break
        checked += 1
    ok = ok and checked == 50
    assert report(4, ok, f"staircase basis {{1, x, y, y^2}} and 50/{checked} cardinality checks")


def test_criterion_5_zero_counting_soundness(rng):
    # the d=2 integral I(t) = pi t on disc(1, 0.4)
    f = lambda s: math.pi * (1 + 0.4 * cmath.exp(2j * math.pi * s))
    w = winding_count([f(k / 64) for k in range(64)], refine=f)
    origin = SingularSet(values=(CriticalValue(0j, 1e-10, 1),), count_with_multiplicity=1)
    d2_ode = ScalarODE(coeffs=(RatFunc(MultiPoly.const(-1), t),), pole_set=(CriticalValue(0j, 1e-10, 1),))
    dom = simple_domain(origin, [-1.0], Disc(1 + 0j, 0.4), 0.5, relaxed_bounds=True)
    rep = zero_count_bound(d2_ode, dom, degree=2)
    ok = w == 0 and rep.total_bound >= 0 and rep.total_bound >= w

    empty = SingularSet(values=(), count_with_multiplicity=0)
    done = 0
    while ok and done < 50:
        deg = rng.randint(1, 5)
        p = MultiPoly.const(1)
        while p.degree_in("t") < deg:
            rr = Fraction(rng.randint(-40, 40), 16)
            ri = Fraction(rng.randint(-40, 40), 16)
            if ri == 0:
                p = p * (t - MultiPoly.const(rr))
            elif p.degree_in("t") + 2 <= deg:
                p = p * (t * t - MultiPoly.const(2 * rr) * t + MultiPoly.const(rr * rr + ri * ri))
        roots = isolate_roots(p)
        center, radius = 1 + 0j, 0.4
        if any(abs(abs(cv.value - center) - radius) < 0.05 for cv in roots):
            continue
        ode = ScalarODE(coeffs=(RatFunc(-p.derive("t"), p),), pole_set=tuple(roots))
        dom = simple_domain(empty, [], Disc(center, radius), 0.1, relaxed_bounds=True)

        def feval(s, p=p):
            return p.eval_complex({"t": center + radius * cmath.exp(2j * math.pi * s)})

        try:
            rep = zero_count_bound(ode, dom, tol=1e-2, numeric_fn=feval, degree=2)
        except PoleOnSegment:
            continue
        truth = sum(cv.multiplicity for cv in roots if abs(cv.value - center) < radius)
        if rep.numeric_count != truth or rep.numeric_count > rep.total_bound:
            ok = False
            break
        done += 1
    assert report(5, ok, f"winding(pi t)=0, bound>=0, and {done}/50 random soundness checks")


def test_criterion_6_varbound_formula():
    v1 = yakovenko_varbound(1, 1, 1)
    v2 = yakovenko_varbound(1, 0, 1)
    ok = abs(v1 - 21.7792) <= 1e-3 and abs(v2 - 2 * math.pi) <= 1e-12
    assert report(6, ok, f"varbound(1,1,1)={v1:.5f}, varbound(1,0,1)={v2:.12f}")


def test_criterion_7_calculators():
    c1 = asymptotic_bound_calculators(2, Fraction(1, 2), constants={"c": 1})
    exact = c1["degree_double_exponential"]["exact"]
    c2 = asymptotic_bound_calculators(3, Fraction(1, 10), constants={"c": 2})
    log10 = c2["degree_double_exponential"]["log10"]
    with mpmath.workprec(200):
        ref = float(512 * mpmath.log10(20))
    ok = exact == "256" and abs(log10 - ref) <= 1e-9 * abs(ref)
    assert report(7, ok, f"exact 256; log10 {log10:.9f} vs 200-bit {ref:.9f}")


def test_criterion_8_continuation():
    H = Hamiltonian.from_poly(P("x^2+y^2"))
    sysm = assemble_pf_system(H)
    init = PeriodSample(t=1.0, periods=(math.pi + 0j,), error_estimate=0.0)
    err1 = abs(continuation_callable(sysm, [1.0, 4.0], init)(1.0)[0] - 4 * math.pi)
    loop = [np.exp(2j * np.pi * k / 32) for k in range(33)]
    err2 = abs(continuation_callable(sysm, loop, init)(1.0)[0] - math.pi)
    ok = err1 <= 1e-8 and err2 <= 1e-8
    assert report(8, ok, f"I(4)=4pi within {err1:.2e}; loop return within {err2:.2e}")


def test_criterion_9_generic_order(rng):
    # The order of component m is 2g plus the rank of the periods of its basis
    # form Q dy around the d points at infinity. When deg Q + 1 < d (component
    # 1, x dy) those periods are constant residues, so its order is at most
    # 2g + 1 = (d-1)(d-2)+1; the generic order (d-1)^2 is read on the
    # component whose basis form has the largest degree (2d-2 >= d).
    d = 3
    generic, first_bound = (d - 1) ** 2, (d - 1) * (d - 2) + 1
    achieved = 0
    orders = []
    bounds_ok = True
    for _ in range(10):
        H = random_regular_hamiltonian(rng, d)
        sysm = assemble_pf_system(H)
        top = max(range(sysm.dim), key=lambda i: sysm.forms[i].degree) + 1
        ode = derive_scalar_ode(sysm, top)
        first = derive_scalar_ode(sysm, 1).order
        orders.append(ode.order)
        bounds_ok = bounds_ok and ode.order <= generic and first <= first_bound
        if ode.order == generic:
            achieved += 1
    ok = achieved > 8 and bounds_ok
    assert report(
        9,
        ok,
        f"k={generic} achieved {achieved}/10 on the top-degree component (orders: {orders}); "
        f"early rank drops reported & counted: {10 - achieved}; every order <= {generic} "
        f"and component 1 <= (d-1)(d-2)+1={first_bound}: {bounds_ok}",
    )
