"""Exception types shared across the library.

Every validation failure raises a named subclass of MixvolError so callers
(and the CLI, which maps them to exit code 2) can match on the class name.
"""


class MixvolError(ValueError):
    """Base class for all input-validation and numerical-domain errors."""


class NotSymmetric(MixvolError):
    """Matrix entries violate the symmetry tolerance."""


class NotPositiveDefinite(MixvolError):
    """Cholesky factorization found a non-positive pivot."""


class OutOfRange(MixvolError):
    """An index or dimension argument is outside its allowed range."""


class SingularTransform(MixvolError):
    """Linear map is singular (or numerically indistinguishable from it)."""


class NonOrthonormalBasis(MixvolError):
    """Projection basis rows are not orthonormal within tolerance."""


class NotUnitVector(MixvolError):
    """Direction vector does not have unit norm within tolerance."""


class DimensionMismatch(MixvolError):
    """Operands have incompatible dimensions or counts."""


class IllConditionedEllipsoid(MixvolError):
    """Ellipsoid condition number exceeds 1e12; the Monte Carlo variance
    of determinant statistics blows up, so the estimate is refused."""


class NegativeDiscriminant(MixvolError):
    """Mixed discriminant of a positive-definite tuple came out negative;
    indicates invalid input slipped past validation."""


class NonConvexBody(MixvolError):
    """Support function violates convexity (h + h'' < 0) on the grid."""


class DegenerateVariance(MixvolError):
    """Field variance vanishes at the evaluation point."""


class DegenerateGradient(MixvolError):
    """Normalized-gradient covariance is not positive definite."""


class GridTooCoarse(MixvolError):
    """Zero-counting self-check failed: doubling the grid changed the answer."""
