"""Exception types raised by the toolkit."""


class CircEntropyError(Exception):
    """Base class for all errors raised by this package."""


class NonUnimodularRoot(CircEntropyError):
    """A supplied root deviates from the unit circle beyond tolerance."""


class ZeroLeading(CircEntropyError):
    """The leading coefficient of a polynomial is zero or not finite."""


class NotSelfInversive(CircEntropyError):
    """A polynomial expected to equal its reflection does not."""


class InconsistentReflection(CircEntropyError):
    """The reflection is not a single unimodular multiple of the input.

    This signals roots off the unit circle.
    """


class SeparationFailure(CircEntropyError):
    """Root perturbation could not produce pairwise distinct zeros."""


class ZeroConstantTerm(CircEntropyError):
    """Power-series inversion requires a nonzero constant term."""


class ZeroOnBoundary(CircEntropyError):
    """A Blaschke factor zero lies on or outside the unit circle."""


class ZeroPolynomial(CircEntropyError):
    """The zero polynomial is not a valid input here."""


class IllConditioned(CircEntropyError):
    """The input lies outside the degree or scale range where a route is exact."""


class BudgetExceeded(CircEntropyError):
    """Adaptive quadrature reached its node budget before converging."""


class RootsOffCircle(CircEntropyError):
    """Input polynomial has zeros off the unit circle."""
