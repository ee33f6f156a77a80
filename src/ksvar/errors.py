"""Exception types shared across the package.

Every error raised on a contract violation derives from :class:`KsvarError`
so callers can catch the whole family with one clause.  The CLI maps any
KsvarError to a nonzero exit code plus a machine-readable error record.
"""


class KsvarError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(KsvarError):
    """A configuration value or combination of values is invalid."""


class ShapeMismatch(KsvarError):
    """An array argument has the wrong shape for the operation."""


class ConstantColumn(KsvarError):
    """A series has zero variance and cannot be standardized."""


class WindowTooLong(KsvarError):
    """A segmentation window does not fit inside the panel."""


class InsufficientSamples(KsvarError):
    """Too few samples remain after lag alignment or windowing."""


class DegenerateSeries(KsvarError):
    """A series lacks the variation needed for a data-driven bandwidth."""


class SingularSystem(KsvarError):
    """A linear system arising in estimation is singular beyond repair."""


class NonFinite(KsvarError):
    """NaN or infinity appeared where finite values are required."""


class LabelMismatch(KsvarError):
    """Two artifacts that must share node labels do not."""
