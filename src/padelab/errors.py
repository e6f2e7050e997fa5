"""Exception hierarchy shared by all padelab modules.

Two families matter to callers (and to the CLI exit codes): violated
preconditions (bad arguments, unusable inputs) and numeric failures
(an algorithm ran and could not meet its tolerance).
"""


class PadeLabError(Exception):
    """Base class for every error raised by this package."""


class PreconditionError(PadeLabError):
    """An input violates a documented precondition."""


class NumericError(PadeLabError):
    """A computation ran but failed to meet its numeric contract."""


# --- precondition violations -------------------------------------------------

class InvalidDenominatorError(PreconditionError):
    """Denominator polynomial is identically zero."""


class PoleAtCenterError(PreconditionError):
    """Rational function has a pole at the requested expansion center."""


class InsufficientSeriesError(PreconditionError):
    """A power series does not carry enough coefficients for the request."""


class SingularCenterError(PreconditionError):
    """A named elementary function is singular at the requested center."""


class InvalidSampleError(PreconditionError):
    """A compact-set sample is empty or otherwise unusable."""


class PoleNotInListError(PreconditionError):
    """A rational function has a pole outside the declared pole list."""


class PathOutsideDomainError(PreconditionError):
    """A path endpoint (or constructed path node) leaves the domain."""


class SingularPointError(PreconditionError):
    """Evaluation requested at the map's singular point."""


class PoleOnBoundaryError(PreconditionError):
    """A pole lies on (or too close to) the region boundary."""


# --- numeric failures --------------------------------------------------------

class DegeneratePadeError(NumericError):
    """Both determinant polynomials of a Pade construction vanish."""


class IndeterminateValueError(NumericError):
    """Numerator and denominator both vanish at an evaluation point."""


class NonFiniteValueError(NumericError):
    """A polynomial's value overflows at a finite evaluation point."""


class PrecisionTooCoarseError(NumericError):
    """Dyadic rounding collapsed a denominator to zero, or rounded a
    coefficient past the largest double."""


class FitFailureError(NumericError):
    """Constrained polynomial fit infeasible at the allowed degree.

    Carries the best residual achieved so the caller can report how far
    the fit was from the target tolerance.
    """

    def __init__(self, message, best_residual=None, best_degree=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.best_degree = best_degree


class CertificateRejectedError(NumericError):
    """The universality certificate rejected the fit."""


class QuadratureError(NumericError):
    """Quadrature failed to converge within its budget of bisections, pieces or nodes."""


class VerificationError(NumericError):
    """A post-condition check (residue/moment verification) failed."""
