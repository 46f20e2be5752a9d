"""Exception types shared across the package."""

from . import _NAMES

__all__ = list(_NAMES["errors"])


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GeometryError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularPointError(GeometryError):
    """A quantity is undefined at this point: a degenerate tangent plane,
    a null or non-finite normal, a tangent plane through the origin, a
    K/d^4 that is not finite or underflows, a metric that is not
    positive-definite or a coordinate change with a singular Jacobian.
    A grid sweep records such a point as skipped, with the message as
    its reason."""


class CatalogError(GeometryError, LookupError):
    """Unknown catalog entry."""


class InconclusiveError(GeometryError):
    """Too many grid points were skipped to issue a classification verdict."""


class UsageError(GeometryError, ValueError):
    """Invalid run configuration."""
