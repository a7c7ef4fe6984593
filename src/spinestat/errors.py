"""Exception types shared across the package."""


class SpinestatError(Exception):
    """Base class for all package-specific errors."""


class CapExceeded(SpinestatError):
    """Exhaustive enumeration requested above the configured size cap."""


class NoRoot(SpinestatError):
    """Characteristic equation has no positive root in the search range."""


class DomainError(SpinestatError):
    """Argument outside the mathematically meaningful range."""
