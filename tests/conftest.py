import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from pfzero.poly import MultiPoly

settings.register_profile(
    "ci",
    max_examples=30,
    derandomize=True,  # the same examples, and the same cost, on every run
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("ci")

# the benchmark's quartic Q(1,-2): dim 9, deg a 9
Q4 = "x^4 + 2*x^2*y^2 + 2*y^4 + x - 2*y"
# a generic quartic: dim 9, deg a 9
H4 = "-x^4 - 2*x^3*y + 2*x*y^3 + 3*y^4 - x^3 - 2*x*y^2 + 3*y^3 - 2*x^2 - 2*y^2 - 2*x + y + 3"


def random_poly(rng: random.Random, variables, max_deg, coeff_range=5, density=0.6):
    terms = {}
    nv = len(variables)
    for _ in range(max(1, int(density * (max_deg + 1) ** nv))):
        expo = []
        left = max_deg
        for _ in range(nv):
            e = rng.randint(0, left)
            expo.append(e)
            left -= e
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            terms[tuple(expo)] = Fraction(c)
    return MultiPoly(tuple(variables), terms)


def random_regular_hamiltonian(rng: random.Random, d, coeff_range=5):
    """Rejection sample a degree-d Hamiltonian regular at infinity."""
    from pfzero.hamiltonian import Hamiltonian, is_regular_at_infinity

    while True:
        terms = {}
        for i in range(d + 1):
            for j in range(d + 1 - i):
                if rng.random() < 0.75:
                    c = rng.randint(-coeff_range, coeff_range)
                    if c:
                        terms[(i, j)] = Fraction(c)
        p = MultiPoly(("x", "y"), terms)
        if p.degree() != d:
            continue
        H = Hamiltonian.from_poly(p)
        if is_regular_at_infinity(H):
            return H


def tpoly(coeffs):
    """The polynomial sum_i coeffs[i] t^i over Q."""
    return MultiPoly(("t",), {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})


def laplace_det(M):
    """Reference determinant: cofactor expansion along the first row."""
    if not M:
        return MultiPoly.const(1)
    acc = MultiPoly.zero()
    for j, e in enumerate(M[0]):
        term = e * laplace_det([row[:j] + row[j + 1 :] for row in M[1:]])
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


@pytest.fixture
def rng():
    return random.Random(20240817)
