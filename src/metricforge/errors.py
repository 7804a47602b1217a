"""Exception hierarchy shared by all metricforge modules."""


class MetricForgeError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class SingularMatrix(MetricForgeError):
    """A pivot fell below the singularity threshold during LU factorization.

    When the matrix being inverted is an eigenvector matrix this signals
    an exceptional point.
    """

    exit_code = 3


class NoConvergence(MetricForgeError):
    """The QR iteration did not converge within the sweep budget."""


class DefectiveMatrix(MetricForgeError):
    """A left/right eigenvector pair is (numerically) orthogonal: the base
    class of DefectiveSystem, which metric.biorthonormalize raises.

    Carries the offending overlap in ``indicator``.
    """

    exit_code = 3

    def __init__(self, message, indicator=None):
        super().__init__(message)
        self.indicator = indicator


class DefectiveSystem(DefectiveMatrix):
    """Biorthonormalization failed: the eigensystem is incomplete."""

    exit_code = 3


class NotHermitian(MetricForgeError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class BrokenPhase(MetricForgeError):
    """The spectrum has complex eigenvalues; no positive metric exists."""

    exit_code = 2


class NotPositive(MetricForgeError):
    """A candidate metric operator is not positive definite."""

    exit_code = 2


class InvalidParams(MetricForgeError):
    """Model parameters outside the validity domain of the requested formulas."""

    exit_code = 4


class NoBracket(MetricForgeError):
    """Bisection endpoints do not bracket an unbroken/broken transition."""

    exit_code = 2
