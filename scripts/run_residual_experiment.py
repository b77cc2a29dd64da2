#!/usr/bin/env python3
"""Oracle residual experiment: quadrature periods against the symbolic system.

Builds the period system for a cubic without compact real ovals, computes
period vectors over a branch-point cycle at a grid of regular real t, takes
central-difference derivatives, and tabulates || a I' - A I || / || A I ||.
Writes residuals.csv next to the console table.
"""

import argparse
import sys

from pfzero.hamiltonian import Hamiltonian
from pfzero.numerics import residual_check
from pfzero.pfsystem import assemble_pf_system
from pfzero.poly import parse_polynomial


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("-H", dest="hamiltonian", default="x^3 - x*y^2 + y")
    ap.add_argument("--t-start", type=float, default=0.8)
    ap.add_argument("--t-step", type=float, default=0.12)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("-o", "--output", default="residuals.csv")
    args = ap.parse_args(argv)

    H = Hamiltonian.from_poly(parse_polynomial(args.hamiltonian))
    sysm = assemble_pf_system(H)
    print(f"H = {H.poly.to_text()}, system dimension {sysm.dim}, a(t) = {sysm.a.to_text()}")
    samples = [round(args.t_start + args.t_step * k, 6) for k in range(args.count)]
    reports = residual_check(sysm, samples)
    with open(args.output, "w") as fh:
        fh.write("t,relative_residual,cycle_kind\n")
        for r in reports:
            fh.write(f"{r.t!r},{r.relative_residual!r},{r.cycle_kind}\n")
    worst = max(r.relative_residual for r in reports)
    for r in reports:
        print(f"  t = {r.t:8.3f}   residual = {r.relative_residual:.3e}   ({r.cycle_kind})")
    print(f"worst residual: {worst:.3e}  ({len(reports)} samples) -> {args.output}")
    return 0 if worst < 1e-6 else 1


if __name__ == "__main__":
    sys.exit(main())
