"""Exception types shared across the package."""

from . import _NAMES

__all__ = list(_NAMES["errors"])


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GeometryError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularPointError(GeometryError):
    """A quantity is undefined at this point (tangent plane through the
    origin, vanishing position volume).  Callers iterating over grids are
    expected to skip such points and record the reason."""


class RegularityError(GeometryError):
    """The tangent plane is degenerate at this point."""


class SignatureError(GeometryError):
    """The ambient bilinear form misbehaves here: non-positive-definite
    metric or null normal vector."""


class CatalogError(GeometryError, LookupError):
    """Unknown catalog entry."""


class InconclusiveError(GeometryError):
    """Too many grid points were skipped to issue a classification verdict."""


class UsageError(GeometryError, ValueError):
    """Invalid run configuration."""
