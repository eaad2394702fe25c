"""Exception types shared across the package."""


class NpSpaceError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(NpSpaceError):
    """A matrix or coordinate array has the wrong shape for its space."""


class DependentBasis(NpSpaceError):
    """Basis matrices are linearly dependent (or too close to dependent)."""


class NonFiniteInput(NpSpaceError):
    """A basis matrix or map coefficient holds NaN or infinity."""


class ScaleOutOfRange(NpSpaceError):
    """A map's images are too large or too small against its domain basis to search."""


class SpaceMismatch(NpSpaceError):
    """An element or map was combined with an incompatible space."""


class InconsistentAction(NpSpaceError):
    """A map definition disagrees with itself on the domain basis."""


class InvalidLevel(NpSpaceError):
    """A matrix level that is not an integer >= 1 was requested."""


class InsufficientTable(NpSpaceError):
    """A level-norm table does not cover the levels needed."""


class InsufficientData(NpSpaceError):
    """Not enough (or unusable) data points for an estimate."""


class InvariantViolation(NpSpaceError):
    """Certified bounds crossed each other; the implementation is wrong."""
