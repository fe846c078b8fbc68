"""Exception types shared across the package."""


class CongapsError(Exception):
    """Base class for all package errors."""


class DomainError(CongapsError, ValueError):
    """An argument violates a mathematical precondition."""


class CapacityError(CongapsError, ValueError):
    """A requested limit exceeds the configured maximum."""


class DegenerateComparisonError(CongapsError, ValueError):
    """A ratio comparison against a zero prediction was requested."""


class CacheError(CongapsError, ValueError):
    """A prime cache file is malformed or does not match the request."""


class NumericsError(CongapsError, RuntimeError):
    """A numerical routine failed to converge to its target accuracy."""
