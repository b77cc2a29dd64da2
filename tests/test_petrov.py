from fractions import Fraction

import pytest

from pfzero.errors import DecompositionFailed, NotInIdeal
from pfzero.hamiltonian import Hamiltonian, monomial_basis
from pfzero.petrov import OneForm, ideal_representation, petrov_decompose
from pfzero.pfsystem import assemble_pf_system, euler_multiplier, gelfand_leray_rhs, make_basis_forms
from pfzero.poly import MultiPoly, parse_polynomial
from tests.conftest import H4, Q4, random_poly, random_regular_hamiltonian

P = parse_polynomial
ZERO = MultiPoly.zero()


@pytest.fixture(scope="module")
def circle():
    H = Hamiltonian.from_poly(P("x^2+y^2"))
    forms = make_basis_forms(monomial_basis(H))
    return H, forms


class TestIdealRepresentation:
    def test_quartic_example(self, circle):
        H, _ = circle
        g = P("20*x^4 + 24*x^2*y^2 + 4*y^4")
        [(a, b)] = ideal_representation([g], H)
        assert H.hx * b - H.hy * a == g
        assert a.degree() <= 3 and b.degree() <= 3  # deg g - d + 1
        # the deterministic eliminator lands on the hand-derived representative
        assert a == P("-2*y^3") and b == P("10*x^3 + 12*x*y^2")

    def test_constant_not_in_ideal(self, circle):
        H, _ = circle
        with pytest.raises(NotInIdeal):
            ideal_representation([MultiPoly.const(1)], H)

    def test_generator_itself(self, circle):
        H, _ = circle
        [(a, b)] = ideal_representation([P("2*x")], H)
        assert a.is_zero and b == MultiPoly.const(1)

    def test_random_memberships(self, rng):
        for _ in range(15):
            d = rng.choice([2, 3])
            H = random_regular_hamiltonian(rng, d)
            u = random_poly(rng, ("x", "y"), 2)
            v = random_poly(rng, ("x", "y"), 2)
            g = H.hx * v - H.hy * u
            if g.is_zero:
                continue
            [(a, b)] = ideal_representation([g], H)
            assert H.hx * b - H.hy * a == g
            # regular at infinity, {Hx, Hy} is an H-basis: no degree is lost
            assert max(a.degree(), b.degree()) <= g.degree() - d + 1


class TestPetrovDecompose:
    def test_x2dy_example(self, circle):
        H, forms = circle
        [dec] = petrov_decompose([OneForm(ZERO, P("x^2"))], H, forms)
        assert dec.coeffs[0].is_zero
        assert dec.A == P("x^2*y + 2/3*y^3") and dec.B == P("-y")

    def test_ydx_example(self, circle):
        H, forms = circle
        [dec] = petrov_decompose([OneForm(P("y"), ZERO)], H, forms)
        assert dec.coeffs[0] == MultiPoly.const(-1)
        assert dec.A == P("x*y") and dec.B.is_zero

    def test_module_multiple_example(self, circle):
        H, forms = circle
        omega = forms[0].scale(4 * H.poly**2)
        [dec] = petrov_decompose([omega], H, forms)
        assert dec.coeffs[0] == P("4*t^2")
        assert dec.A.is_zero and dec.B.is_zero

    def test_reconstruction_and_degree_bound(self, rng):
        done = 0
        basis_cache = {}
        while done < 40:
            d = rng.choice([2, 3, 4])
            H = random_regular_hamiltonian(rng, d)
            key = H.poly.to_text()
            if key not in basis_cache:
                basis_cache[key] = make_basis_forms(monomial_basis(H))
            forms = basis_cache[key]
            degw = rng.randint(0, 2 * d)
            omega = OneForm(
                random_poly(rng, ("x", "y"), degw), random_poly(rng, ("x", "y"), degw)
            )
            [dec] = petrov_decompose([omega], H, forms)
            rec = dec.reconstruct(H, forms)
            assert rec.P == omega.P and rec.Q == omega.Q
            assert dec.B.degree() <= max(omega.degree - d + 1, 0)
            for c, w in zip(dec.coeffs, forms):
                if not c.is_zero:
                    assert Fraction(c.degree_in("t")) <= Fraction(
                        max(omega.degree, 0) - w.degree, d
                    )
            done += 1

    def test_exact_forms_have_zero_module_coeffs(self, rng):
        # omega = dA + B dH decomposes with every c identically zero
        for _ in range(10):
            d = rng.choice([2, 3])
            H = random_regular_hamiltonian(rng, d)
            forms = make_basis_forms(monomial_basis(H))
            A = random_poly(rng, ("x", "y"), d)
            B = random_poly(rng, ("x", "y"), d - 1)
            omega = OneForm(
                A.derive("x") + B * H.hx, A.derive("y") + B * H.hy
            )
            [dec] = petrov_decompose([omega], H, forms)
            assert all(c.is_zero for c in dec.coeffs)

    def test_linearity(self, circle):
        H, forms = circle
        w1 = OneForm(P("y"), P("x^2"))
        w2 = OneForm(P("x*y"), P("y^2 - x"))
        [d1] = petrov_decompose([w1], H, forms)
        [d2] = petrov_decompose([w2], H, forms)
        [d12] = petrov_decompose([w1 + w2], H, forms)
        for c1, c2, c12 in zip(d1.coeffs, d2.coeffs, d12.coeffs):
            assert c12 == c1 + c2


BATCH_CASES = ["x^2+y^2", "x^3 - x*y^2 + y", "x^2 + y^2 + x^3 - 3*x*y^2", Q4, H4]


class TestBatch:
    @pytest.mark.parametrize("text", BATCH_CASES, ids=["circle", "branch-cubic", "oval-cubic", "Q4", "H4"])
    def test_assembly_rows_match_single_decompositions(self, text):
        # the module is free over Q[t], so a form's c_i do not depend on the
        # batch it is decomposed in
        H = Hamiltonian.from_poly(P(text))
        sysm = assemble_pf_system(H)
        forms = list(sysm.forms)
        f2 = euler_multiplier(H) ** 2
        for ell, w in enumerate(forms):
            [dec_k] = petrov_decompose([w.scale(f2)], H, forms)
            assert list(dec_k.coeffs) == sysm.K.entries[ell]
            [alpha] = gelfand_leray_rhs(H, [w])
            assert alpha.degree == sysm.gl_cofactor_degrees[ell]
            [dec_l] = petrov_decompose([alpha], H, forms)
            assert list(dec_l.coeffs) == sysm.L.entries[ell]

    def test_ideal_batch_with_mixed_cofactor_degrees(self, rng):
        H = Hamiltonian.from_poly(P("x^3 - x*y^2 + y"))
        gs = [ZERO]
        for deg in (0, 2, 1, 2, 3, 0):
            u = random_poly(rng, ("x", "y"), deg)
            v = random_poly(rng, ("x", "y"), deg)
            gs.append(H.hx * v - H.hy * u)
        assert len({g.degree() for g in gs if not g.is_zero}) >= 3
        assert ideal_representation(gs, H) == [ideal_representation([g], H)[0] for g in gs]

    def test_one_undecomposable_form_fails_the_batch(self):
        H = Hamiltonian.from_poly(P("x^3 - x*y^2 + y"))
        forms = make_basis_forms(monomial_basis(H))
        # without the last basis form the quotient is not spanned, and that
        # form itself has no decomposition
        exact = OneForm(H.hx * P("x*y"), H.hy * P("x*y"))
        petrov_decompose([exact, forms[0]], H, forms[:-1])
        with pytest.raises(DecompositionFailed):
            petrov_decompose([exact, forms[-1], forms[0]], H, forms[:-1])
