#!/usr/bin/env python3
"""End-to-end walkthrough on H = x^2 + y^2, printing every exact object.

The closed-form story: the single basis period is I1(t) = pi t, the system is
I' = I / t, and any mu-combination satisfies y'' = 0.
"""

import math
from fractions import Fraction

from pfzero.hamiltonian import Hamiltonian, critical_values, monomial_basis
from pfzero.numerics import PeriodSample, integrate_pf_numeric, period_quadrature, trace_cycle
from pfzero.pfsystem import assemble_pf_system, augment_and_reduce, derive_scalar_ode
from pfzero.poly import parse_polynomial


def main():
    H = Hamiltonian.from_poly(parse_polynomial("x^2+y^2"))
    print(f"H = {H.poly.to_text()}   (degree {H.degree})")
    sing = critical_values(H)
    print("critical values:", [complex(v.value) for v in sing.values])
    basis = monomial_basis(H)
    print("basis monomials:", basis.monomials)

    sysm = assemble_pf_system(H)
    print(f"K = [{sysm.K[0,0].to_text()}]   L = [{sysm.L[0,0].to_text()}]")
    print(f"system: ({sysm.a.to_text()}) I' = [{sysm.A[0,0].to_text()}] I")

    ode = derive_scalar_ode(sysm, 1)
    print("component equation:", ode.to_text())
    aug = augment_and_reduce(sysm, [Fraction(1)])
    print("augmented equation (mu = 1):", aug.to_text())

    cyc = trace_cycle(H, 1.0, (1.0, 0.0), sing)
    v = period_quadrature(cyc, sysm.forms[0])
    print(f"quadrature period at t=1: {v:.12f} (pi = {math.pi:.12f})")
    out = integrate_pf_numeric(
        sysm, [1.0, 4.0], PeriodSample(t=1.0, periods=(v,), error_estimate=0.0)
    )
    print(f"continued to t=4: {out[-1].periods[0]:.12f} (4 pi = {4*math.pi:.12f})")


if __name__ == "__main__":
    main()
