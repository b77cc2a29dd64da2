"""Exception hierarchy.

Exit-code contract of the command line tool:
  1  usage errors (bad input syntax, missing arguments, invalid parameters)
  2  mathematical degeneracies (the requested object provably does not exist
     or the instance lies outside the generic stratum the constructions need),
     and exact objects that fail their defining identity (CertificateFailed)
  3  numeric failures (a floating-point procedure could not certify its result)
"""


class PfzeroError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class UsageError(PfzeroError):
    exit_code = 1


class ParseError(UsageError):
    """Polynomial text did not match the grammar. Carries the character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class InvalidRho(UsageError):
    pass


class InvalidRays(UsageError):
    pass


class MathematicalDegeneracy(PfzeroError):
    exit_code = 2


class DegenerateInput(MathematicalDegeneracy):
    pass


class DivisionByZeroPolynomial(MathematicalDegeneracy):
    pass


class Inconsistent(MathematicalDegeneracy):
    """Linear system has no solution."""


class UnsupportedDegree(MathematicalDegeneracy):
    pass


class NonIsolatedCritical(MathematicalDegeneracy):
    """The partial derivatives share a nonconstant factor; critical points not isolated."""


class NotRegularAtInfinity(MathematicalDegeneracy):
    pass


class NotInIdeal(MathematicalDegeneracy):
    """Target polynomial is not a combination of the two partial derivatives."""


class DecompositionFailed(MathematicalDegeneracy):
    """Petrov decomposition not found at the degree the regularity at infinity fixes."""


class DegenerateK(MathematicalDegeneracy):
    """Coefficient matrix of the period system is singular over the rational functions."""


class CertificateFailed(PfzeroError):
    """An exact object failed the identity that defines it; an internal fault."""

    exit_code = 2


class NumericFailure(PfzeroError):
    exit_code = 3


class NearCritical(NumericFailure):
    pass


class NotCompactComponent(NumericFailure):
    pass


class PathTooClose(NumericFailure):
    pass


class StiffnessFailure(NumericFailure):
    pass


class PoleOnSegment(NumericFailure):
    pass


class ZeroOnContour(NumericFailure):
    pass


class Inconclusive(NumericFailure):
    pass


class InfeasibleClearance(NumericFailure):
    pass
