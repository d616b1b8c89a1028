"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class here;
anything else is allowed to surface as a plain ValueError/ZeroDivisionError
from numpy, which in this codebase always indicates a bug rather than a
recoverable condition.
"""


class RpgError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSpectrum(RpgError):
    """Singular-value clusters too close for a unique decomposition."""


class BadDimensions(RpgError):
    """Shape arguments violate a constructor's preconditions."""


class LayoutMismatch(RpgError):
    """Parameter values do not match the declared layer layout."""


class NonFiniteField(RpgError):
    """A field evaluation returned NaN or infinity."""


class ConfigError(RpgError):
    """A run-configuration document failed to parse or validate."""


class MalformedLog(RpgError):
    """A metrics log file does not match the expected schema."""
