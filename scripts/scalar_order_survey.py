#!/usr/bin/env python3
"""Survey of scalar equation orders over random Hamiltonians.

For each sampled degree-d Hamiltonian regular at infinity, assemble the
period system and report the first linear dependence order k of the iterated
rows. The order is 2g (g the curve genus) plus the rank of the periods of
the component's basis form around the d points at infinity. For the default
component 1 (form x dy, of degree 2 < d) those periods are constants, and
the observed value is (d-1)(d-2)+1 throughout. Components whose form has
degree >= d have puncture periods affine in t and reach (d-1)(d-2)+2 on
generic cubics (= (d-1)^2 for d = 3). On quartics `-d 4 -n 5 --component 9`
(the basis form of largest degree) observed k = 8 = (d-1)(d-2)+2 on all five
samples, below the dimension bound (d-1)^2 = 9.
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from pfzero.pfsystem import assemble_pf_system, derive_scalar_ode


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("-d", "--degree", type=int, default=3)
    ap.add_argument("-n", "--samples", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--component", type=int, default=1)
    args = ap.parse_args(argv)

    from conftest import random_regular_hamiltonian  # tests/ on sys.path

    rng = random.Random(args.seed)
    d = args.degree
    counts = Counter()
    for i in range(args.samples):
        H = random_regular_hamiltonian(rng, d)
        sysm = assemble_pf_system(H)
        ode = derive_scalar_ode(sysm, args.component)
        counts[ode.order] += 1
        print(f"[{i+1:2d}] k = {ode.order}   H = {H.poly.to_text()}")
    print(f"\norders: {dict(counts)}")
    print(f"dimension bound (d-1)^2 = {(d-1)**2}; observed generic value "
          f"(d-1)(d-2)+1 = {(d-1)*(d-2)+1} for component 1 (form x dy); "
          f"forms of degree >= d reach (d-1)(d-2)+2 = {(d-1)*(d-2)+2} on generic cubics and on sampled quartics")


if __name__ == "__main__":
    main()
