"""Exception types shared across the package."""


class TunnelPlanError(Exception):
    """Base class for all errors raised by this package."""


class MapFormatError(TunnelPlanError):
    """Map file could not be parsed or failed schema validation."""


class SamplingExhaustedError(TunnelPlanError):
    """Free-space sampling hit its attempt budget before finding enough points."""


class DisconnectedGraphError(TunnelPlanError):
    """Roadmap components could not be bridged with collision-free edges."""


class NotEulerianError(TunnelPlanError):
    """Circuit extraction was asked to run on a non-Eulerian graph."""


class InvalidCircuitError(TunnelPlanError):
    """Circuit is inconsistent with the graph it claims to traverse."""


class CovarianceOverflowError(TunnelPlanError):
    """A planned covariance left the floating-point range; its pec is not finite."""


class FilterSingularityError(TunnelPlanError):
    """Base class for numerically singular filter-update conditions.

    The belief engine never raises these: it logs the update as skipped and
    continues.
    """


class SingularInnovationError(FilterSingularityError):
    """Innovation covariance is not invertible (condition number too large)."""


class ConfigError(TunnelPlanError):
    """Run configuration is missing, malformed, or inconsistent."""


class MissingArtifactError(TunnelPlanError):
    """A required artifact from an earlier pipeline stage is absent or corrupt."""
