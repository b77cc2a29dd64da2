import itertools
import math
from fractions import Fraction

import pytest

from pfzero import petrov
from pfzero.errors import CertificateFailed, DegenerateK
from pfzero.hamiltonian import Hamiltonian, monomial_basis
from pfzero.linalg import PolyMatrix, RatFunc, first_dependence
from pfzero.petrov import OneForm
from pfzero.pfsystem import (
    assemble_pf_system,
    augment_and_reduce,
    derive_scalar_ode,
    euler_multiplier,
    gelfand_leray_rhs,
    make_basis_forms,
    _as_tpoly,
    _iterated_rows,
    _primitive_rows,
    _scalar_from_rows,
)
from pfzero.poly import MultiPoly, _Dense, _zgcd, parse_polynomial
from tests.conftest import H4, Q4, random_regular_hamiltonian

P = parse_polynomial
t = MultiPoly.var("t")


def mat_mul(A, B):
    """A B for PolyMatrix factors, as rows of MultiPoly."""
    return [
        [sum((A[i, k] * B[k, j] for k in range(A.cols)), MultiPoly.zero()) for j in range(B.cols)]
        for i in range(A.rows)
    ]


def defining_identity_holds(sys):
    """K A = a (L - K'), the identity that certifies the exact inversion."""
    n = sys.dim
    rhs = [[(sys.L[i, j] - sys.K[i, j].derive("t")) * sys.a for j in range(n)] for i in range(n)]
    return mat_mul(sys.K, sys.A) == rhs


@pytest.fixture(scope="module")
def d2():
    H = Hamiltonian.from_poly(P("x^2+y^2"))
    return H, assemble_pf_system(H)


@pytest.fixture(scope="module")
def d3():
    H = Hamiltonian.from_poly(P("x^3 - x*y^2 + y"))
    return H, assemble_pf_system(H)


@pytest.fixture(scope="module")
def q4():
    return assemble_pf_system(Hamiltonian.from_poly(P(Q4)))


class TestBasisForms:
    def test_examples(self):
        H = Hamiltonian.from_poly(P("x^3 - x*y^2 + y"))
        forms = make_basis_forms(monomial_basis(H))
        by_text = {f.Q.to_text() for f in forms}
        # g = 1 -> x dy, g = y^2 -> x y^2 dy, g = x -> (x^2/2) dy
        assert "x" in by_text
        assert "x*y^2" in by_text
        assert "1/2*x^2" in by_text
        # d(omega_i) = g_i dx ^ dy exactly
        for f, (a, b) in zip(forms, monomial_basis(H).monomials):
            assert f.exterior_coeff() == MultiPoly.monomial(1, x=a, y=b)


class TestGelfandLeray:
    def test_circle_examples(self):
        H = Hamiltonian.from_poly(P("x^2+y^2"))
        for omega in (OneForm(MultiPoly.zero(), P("x")), OneForm(P("y"), MultiPoly.zero())):
            [alpha] = gelfand_leray_rhs(H, [omega])
            f2 = euler_multiplier(H) ** 2
            target = omega.scale(f2).exterior_coeff()
            got = H.hx * alpha.Q - H.hy * alpha.P
            assert got == target

    def test_first_example_values(self):
        H = Hamiltonian.from_poly(P("x^2+y^2"))
        [alpha] = gelfand_leray_rhs(H, [OneForm(MultiPoly.zero(), P("x"))])
        assert alpha.P == P("-2*y^3") and alpha.Q == P("10*x^3 + 12*x*y^2")


class TestD2Pipeline:
    def test_k_matrix(self, d2):
        _, sys2 = d2
        assert sys2.K[0, 0] == P("4*t^2")

    def test_l_matrix(self, d2):
        _, sys2 = d2
        assert sys2.L[0, 0] == P("12*t")

    def test_system(self, d2):
        _, sys2 = d2
        assert sys2.a == t
        assert sys2.A[0, 0] == MultiPoly.const(1)

    def test_scalar_ode(self, d2):
        _, sys2 = d2
        ode = derive_scalar_ode(sys2, 1)
        assert ode.order == 1
        assert ode.coeffs[0] == RatFunc(MultiPoly.const(-1), t)  # y' - y/t = 0, solved by pi t

    def test_augmented(self, d2):
        _, sys2 = d2
        aug = augment_and_reduce(sys2, [Fraction(1)])
        assert aug.order == 2
        assert all(c.is_zero for c in aug.coeffs)  # y'' = 0
        aug0 = augment_and_reduce(sys2, [Fraction(0)])
        assert aug0.order == 1 and aug0.coeffs[0].is_zero  # y' = 0

    def test_duplicate_forms_degenerate(self, d2, monkeypatch):
        H, _ = d2
        f = make_basis_forms(monomial_basis(H))[0]
        monkeypatch.setattr("pfzero.pfsystem.make_basis_forms", lambda basis: [f, f])
        with pytest.raises(DegenerateK):
            assemble_pf_system(H)

    def test_wrong_inverse_fails_the_certificate(self, d2, monkeypatch):
        # K = (4 t^2), so adj K = (1); a wrong adjugate breaks K A = a (L - K')
        H, _ = d2
        monkeypatch.setattr(PolyMatrix, "adjugate", lambda self: PolyMatrix([[MultiPoly.const(2)]]))
        with pytest.raises(CertificateFailed):
            assemble_pf_system(H)

    def test_module_coefficient_in_x_fails_the_certificate(self):
        # module coefficients of the period system are polynomials in t alone
        with pytest.raises(CertificateFailed):
            _as_tpoly(P("x*t + 1"))


class TestD3System:
    def test_shape_and_poles(self, d3):
        H, sys3 = d3
        assert sys3.dim == 4
        assert sys3.a == P("t^4 - 4/27")
        # every true singular value is a pole of the system
        poles = sys3.pole_candidates()
        for v in sys3.singular.values:
            assert min(abs(v.value - p.value) for p in poles) <= max(v.radius, 1e-8)

    def test_defining_identity(self, d3):
        # K A = a (L - K') certifies the exact inversion
        _, sys3 = d3
        assert defining_identity_holds(sys3)

    def test_module_coeff_degree_cap(self, d3):
        _, sys3 = d3
        d = 3
        for i in range(4):
            for j in range(4):
                assert sys3.K[i, j].degree_in("t") <= d

    def test_scalar_order(self, d3):
        # the order of a component is 2g = 2 plus the rank of its periods
        # around the three points at infinity. On this cubic the puncture
        # periods (over 2*pi*i) of the four forms are (1, -1/2, -1/2),
        # (0, t/2, -t/2), (-t, t/2, t/2) and (0, -3/8, 3/8): each spans one
        # dimension because this Hamiltonian is special, not because the
        # periods are constant, so every component stops at order 3 < (d-1)^2
        _, sys3 = d3
        for m in (1, 2, 3, 4):
            ode = derive_scalar_ode(sys3, m)
            assert ode.order == 3
            assert ode.order <= 4  # the a priori dimension bound

    def test_degree_growth_of_iterated_rows(self, d3):
        _, sys3 = d3
        bound = max(sys3.a.degree(), sys3.A.max_degree())
        n = sys3.dim
        rows = itertools.islice(_iterated_rows(sys3.A, sys3.a, [1] + [0] * (n - 1)), n + 2)  # r_0 .. r_{n+1}
        for j, row in enumerate(rows):
            degs = [len(e.p) - 1 for e in row if not e.is_zero]
            if degs:
                assert max(degs) <= j * bound


class TestD4System:
    def test_quartic_system_and_component_1(self, q4):
        K = q4.K
        assert q4.dim == 9 and q4.a.degree() == 9
        det, zero = K.determinant(), MultiPoly.zero()
        assert mat_mul(K.adjugate(), K) == [[det if i == j else zero for j in range(9)] for i in range(9)]
        assert defining_identity_holds(q4)
        # component 1 (form x dy) has order 6 here, below (d-1)(d-2)+1 = 7
        assert derive_scalar_ode(q4, 1).order == 6

    def test_assembly_solves_in_batches(self, monkeypatch):
        # one elimination for the K and L rows and one per cofactor degree of
        # the gradient-ideal rows, not one per row
        calls = []
        solve = petrov.solve_sparse_exact

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(petrov, "solve_sparse_exact", counted)
        sys4 = assemble_pf_system(Hamiltonian.from_poly(P(Q4)))
        assert 0 < len(calls) <= 1 + len(set(sys4.gl_cofactor_degrees))


class TestComponentOneOrder:
    # x dy has deg Q + 1 = 2 < d, so its periods around the points at infinity
    # are residues and its order is at most 2g + 1 = (d-1)(d-2)+1; a generic
    # Hamiltonian reaches that bound
    @pytest.mark.parametrize("d, text", [(3, "x^3 + 2*x^2*y - y^3 + x*y - 2*x + 3*y"), (4, H4)], ids=["cubic", "H4"])
    def test_generic_hamiltonian_reaches_the_bound(self, d, text):
        sysm = assemble_pf_system(Hamiltonian.from_poly(P(text)))
        assert derive_scalar_ode(sysm, 1).order == (d - 1) * (d - 2) + 1


class TestRandomSystems:
    def test_constants_always_solve_augmented(self, rng):
        for _ in range(3):
            H = random_regular_hamiltonian(rng, 3)
            sysm = assemble_pf_system(H)
            mu = [Fraction(rng.randint(-3, 3)) for _ in range(sysm.dim)]
            aug = augment_and_reduce(sysm, mu)
            assert aug.coeffs[-1].is_zero
            assert aug.order <= sysm.dim + 1


def augmented_reference(sysm, mu):
    """The mu-equation the long way: the system extended by I0' = mu^T (A/a) I
    in component 0, reduced as the equation of that component."""
    n, zero = sysm.dim, MultiPoly.zero()
    top = [zero] + [sum((MultiPoly.const(m) * sysm.A[l, j] for l, m in enumerate(mu)), zero) for j in range(n)]
    Ahat = PolyMatrix([top] + [[zero] + [sysm.A[i, j] for j in range(n)] for i in range(n)])
    return _scalar_from_rows(_iterated_rows(Ahat, sysm.a, [1] + [0] * n), sysm.a)


class TestMuEquationMatchesTheAugmentedSystem:
    # the rows from mu on follow the same elimination as the augmented rows
    # after their inert pivot on e_0, so order, coefficients and pole discs
    # agree exactly

    @staticmethod
    def assert_same(got, want):
        assert got == want and got.coeffs[-1].is_zero

    @pytest.mark.parametrize("text", ["x^2+y^2", "x^3 - x*y^2 + y", "x^2 + y^2 + x^3 - 3*x*y^2"])
    def test_random_rational_mu(self, rng, text):
        sysm = assemble_pf_system(Hamiltonian.from_poly(P(text)))
        mus = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(sysm.dim)] for _ in range(4)]
        for mu in mus + [[Fraction(0)] * sysm.dim, [Fraction(1)] + [Fraction(0)] * (sysm.dim - 1)]:
            self.assert_same(augment_and_reduce(sysm, mu), augmented_reference(sysm, mu))

    def test_quartic(self, q4):
        mu = [Fraction(1), Fraction(0), Fraction(-1, 2)] + [Fraction(0)] * (q4.dim - 3)
        self.assert_same(augment_and_reduce(q4, mu), augmented_reference(q4, mu))


def unstripped_coeffs(rows, a):
    """The coefficients the long way: first_dependence on the rows as they
    come, D r_k = sum_l num_l r_l, then -num_l / (D a^(k-l)) in lowest terms."""
    k, D, num = first_dependence(rows)
    ad = _Dense.from_poly(a)
    coeffs, a_power = [], ad
    for l in range(k - 1, -1, -1):
        coeffs.append(RatFunc((-num[l]).to_poly("t"), (D * a_power).to_poly("t")))
        a_power = a_power * ad
    return tuple(coeffs)


def unit(n, m):
    return [1 if i == m else 0 for i in range(n)]


class TestPrimitiveRows:
    # the elimination runs on the rows divided by their contents; the
    # equation must be the one the rows as they come give

    @pytest.mark.parametrize("m", range(1, 10))
    def test_quartic_components(self, q4, m):
        got = _scalar_from_rows(_iterated_rows(q4.A, q4.a, unit(9, m - 1)), q4.a)
        assert got.coeffs == unstripped_coeffs(_iterated_rows(q4.A, q4.a, unit(9, m - 1)), q4.a)

    def test_quartic_mu_equation(self, q4):
        mu = [Fraction(1), Fraction(0), Fraction(-1, 2)] + [Fraction(0)] * 6
        rows, raw = _iterated_rows(q4.A, q4.a, mu), _iterated_rows(q4.A, q4.a, mu)
        next(rows), next(raw)  # I0 starts at r_1, as in augment_and_reduce
        assert _scalar_from_rows(rows, q4.a).coeffs == unstripped_coeffs(raw, q4.a)

    def test_random_cubic(self, rng):
        sysm = assemble_pf_system(random_regular_hamiltonian(rng, 3))
        for m in range(sysm.dim):
            got = _scalar_from_rows(_iterated_rows(sysm.A, sysm.a, unit(sysm.dim, m)), sysm.a)
            assert got.coeffs == unstripped_coeffs(_iterated_rows(sysm.A, sysm.a, unit(sysm.dim, m)), sysm.a)

    def test_rows_are_primitive_and_give_back_the_rows(self, q4):
        rows = list(itertools.islice(_iterated_rows(q4.A, q4.a, unit(9, 0)), 8))
        contents = []
        prims = list(_primitive_rows(iter(rows), contents))
        assert len(contents) == len(prims) == 8
        assert max(len(g.p) - 1 for g in contents) > 0  # there is something to strip
        for g, prim, row in zip(contents, prims, rows):
            entries = [e for e in prim if not e.is_zero]
            poly_gcd = entries[0].p
            for e in entries[1:]:
                poly_gcd = _zgcd(poly_gcd, e.p)[0]
            assert poly_gcd == (1,)
            assert all(e.c.denominator == 1 for e in entries)
            assert math.gcd(*(e.c.numerator for e in entries)) == 1
            assert [g * e for e in prim] == row

    def test_zero_row_has_content_one(self):
        contents = []
        zero = _Dense.zero()
        assert list(_primitive_rows(iter([[zero, zero]]), contents)) == [[zero, zero]]
        assert contents == [_Dense.const(1)]
