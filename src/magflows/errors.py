"""Exception types raised deliberately by this package.

Everything derives from :class:`MagflowsError` so callers can catch the
package's failures with a single except clause while still being able to
distinguish the individual conditions.
"""


class MagflowsError(Exception):
    """Base class for all errors raised by magflows."""


class DomainError(MagflowsError):
    """A chart point lies outside the working domain, or an argument is
    outside the range where a formula is valid."""


class SingularPoint(DomainError):
    """Evaluation requested exactly on a singular locus of a closed-form
    expression (for instance the branch point of the cube-root solution)."""


class SingularMetric(MagflowsError):
    """Metric matrix is not positive definite at the requested point."""


class StepFailure(MagflowsError):
    """Adaptive step-size controller underflowed the minimum step, or a
    stage produced a non-finite state."""


class EvaluationError(MagflowsError):
    """A scalar diagnostic could not be evaluated along a trajectory."""


class DegenerateD(MagflowsError):
    """The discriminant-like quantity D of the rational-integral
    construction is too close to zero for the bundle to be built."""


class NoConvergence(MagflowsError):
    """Newton iteration exhausted its iteration budget."""


class SingularJacobian(MagflowsError):
    """Newton iteration met a (numerically) singular Jacobian."""


class SeriesDivergence(MagflowsError):
    """Hypergeometric series argument outside the convergence disc, or the
    series failed to converge within the term budget."""


class PoleInC(MagflowsError):
    """Hypergeometric lower parameter c is a nonpositive integer."""


class CoefficientOverflow(MagflowsError):
    """Polynomial coefficient request beyond the supported degree."""


class UnknownExample(MagflowsError, KeyError):
    """Catalog lookup with an unregistered name; prints unquoted."""

    __str__ = MagflowsError.__str__
