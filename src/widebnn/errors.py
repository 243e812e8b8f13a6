"""Exception types shared across the package."""


class WideBnnError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(WideBnnError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(WideBnnError):
    """Matrix is not positive definite, even with the jitter of its route:
    after :func:`numkit.cholesky`'s one retry, or with the fixed sampling
    jitter of :func:`numkit.chol_batch`."""


class NotPSD(WideBnnError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class MalformedTarget(WideBnnError):
    """Classification target row is not a valid one-hot vector."""


class InsufficientSamples(WideBnnError):
    """Accumulator holds fewer samples than the statistic requires."""


class ZeroReference(WideBnnError):
    """Reference matrix of a relative distance has zero norm."""


class SingularDistribution(WideBnnError):
    """Gaussian with singular covariance where a density is required."""


class BadRange(WideBnnError):
    """Invalid interval specification for a point grid."""


class ConfigError(WideBnnError):
    """Malformed experiment configuration."""


class RouteMismatch(WideBnnError):
    """Two routes to the same quantity disagree beyond their tolerance."""
