"""Symbolic-numeric toolkit for period systems of plane Hamiltonians and
zero counting of the associated integrals in simple domains."""

__version__ = "0.1.0"

from .errors import PfzeroError
from .poly import MultiPoly, parse_polynomial, poly_gcd, resultant
from .linalg import PolyMatrix, RatFunc
from .hamiltonian import (
    Hamiltonian,
    MonomialBasis,
    SingularSet,
    critical_values,
    highest_part,
    is_regular_at_infinity,
    monomial_basis,
)
from .petrov import OneForm, PetrovDecomposition, ideal_representation, petrov_decompose
from .pfsystem import (
    PFSystem,
    ScalarODE,
    assemble_pf_system,
    augment_and_reduce,
    derive_scalar_ode,
    gelfand_leray_rhs,
    make_basis_forms,
)
from .numerics import (
    CyclePolyline,
    PeriodSample,
    branch_point_cycle,
    make_cycle,
    residual_check,
    trace_cycle,
)
from .zerocount import (
    Disc,
    Polygon,
    SegmentSet,
    SimpleDomain,
    ZeroBoundReport,
    asymptotic_bound_calculators,
    coefficient_sup,
    decompose_simple_domain,
    simple_domain,
    winding_count,
    yakovenko_varbound,
    zero_count_bound,
)
