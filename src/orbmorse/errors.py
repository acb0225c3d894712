"""Exception types shared across the package."""


class OrbmorseError(Exception):
    """Base class for all package errors."""


class ConfigurationError(OrbmorseError):
    """Bad catalog id, invalid parameters, or malformed run configuration."""


class UnresolvedTimeError(ConfigurationError):
    """A kernel time that the retained Landau levels or the float range cannot resolve."""


class GeometryError(OrbmorseError):
    """Geometric data violates a precondition (e.g. metric not positive definite)."""


class IntegrandError(OrbmorseError):
    """Integrand fails the group-invariance check on sampled orbits."""


class UnsupportedModelError(OrbmorseError):
    """Operation is only available for a subset of catalog models."""


class DegenerateSpectrumError(OrbmorseError):
    """A limit or classification is undefined because eigenvalues are too close to zero."""
