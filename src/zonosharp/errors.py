"""Exception types shared across the package."""


class ZonoSharpError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(ZonoSharpError):
    """Operand dimensions are incompatible."""


class FormMismatch(ZonoSharpError):
    """Operands use different factor forms (pm1 vs 01)."""


class EnumerationCapExceeded(ZonoSharpError):
    """2^n_b exceeds the configured leaf enumeration cap."""


class EmptyList(ZonoSharpError):
    """An operation requiring at least one operand got none."""


class LevelOutOfRange(ZonoSharpError):
    """RLT level d outside {1, ..., n_b}."""


class OverlappingIndexSets(ZonoSharpError):
    """Index-set pair (J1, J2) is not disjoint."""


class EmptySet(ZonoSharpError):
    """The set is empty where a nonempty set is required."""


class EmptyInterval(ZonoSharpError):
    """Interval bounds with lo > hi."""


class NumericalFailure(ZonoSharpError):
    """The LP kernel could not certify a verdict on the given data."""
