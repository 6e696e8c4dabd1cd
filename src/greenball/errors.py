"""Exception types shared across the library."""


class GreenballError(Exception):
    """Base class for all library-specific errors."""


class ExpressionSyntaxError(GreenballError):
    """Raised on malformed weight/coefficient expressions.

    Carries the character offset of the first offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvaluationDomainError(GreenballError):
    """Expression evaluation left its domain (log of non-positive, etc.)."""


class NormalizationMismatch(GreenballError):
    """The two weights have different normalization integrals.

    Comparison limits only exist when both weights share the same
    normalization integral; otherwise the two problems have different
    logarithmic small-ball asymptotics and no finite ratio.
    """


class DegenerateTheta(GreenballError):
    """A boundary determinant (or closed-form bracket) vanishes."""


class StepFailure(GreenballError):
    """The propagator cannot resolve the characteristic determinant to the
    shooting tolerance."""


class MissedRoot(GreenballError):
    """Root count disagrees with the eigenvalue-counting prediction."""


class GridTooCoarse(GreenballError):
    """Grid-doubling moved a requested eigenvalue beyond tolerance, or the
    doubled-grid solve missed an eigenvalue."""


class NonConvergence(GreenballError):
    """Product extrapolants disagree beyond the requested tolerance, or the
    seeded doubled-grid Nystrom solve ran out of Krylov blocks."""


class SingularConditioning(GreenballError):
    """Conditioning Gram matrix is numerically singular."""


class UnsupportedFamily(GreenballError):
    """No covariance (or no boundary problem) available for the request."""


class NotNormalized(GreenballError):
    """Weight is not normalized for the requested operator order."""


class TiltNotFound(GreenballError):
    """No usable tilt/anchor point for the Laplace inversion."""


class InversionUnstable(GreenballError):
    """The Bromwich integral failed its internal self-check."""
