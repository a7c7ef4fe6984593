"""Exception types shared across the package, and the size cap on
exhaustive enumeration that CapExceeded enforces."""

# Exhaustive enumeration above this size (~2.7M trees at 14) is refused
# unless the caller raises the cap explicitly.
DEFAULT_CAP = 14


class SpinestatError(Exception):
    """Base class for all package-specific errors."""


class CapExceeded(SpinestatError):
    """Exhaustive enumeration requested above the configured size cap."""


class NoRoot(SpinestatError):
    """Characteristic equation has no positive root."""


class DomainError(SpinestatError):
    """Argument outside the mathematically meaningful range."""
