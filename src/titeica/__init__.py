"""Centro-affine surface invariants.

Computes the Gaussian curvature K, the origin-to-tangent-plane distance d
and the ratio K/d^4 of surfaces in Euclidean or Minkowski 3-space through
an oriented-volume formulation, verifies numerically that centro-affine
transformations scale the ratio by 1/det^2, classifies surfaces by
constancy of the ratio (Titeica surfaces), and checks the classical
pullback equivalences between the constant-curvature models
(pseudosphere, Poincare half-plane and disk, Minkowski sphere).

``import titeica`` loads no submodule: the error classes and the run
defaults live here, and any other public name imports the submodule that
defines it on first use (PEP 562), so a run compiles only the modules it
uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

DEFAULT_GRID = (20, 20)
DEFAULT_TOL = 1e-8


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GeometryError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularPointError(GeometryError):
    """A quantity is undefined at this point of a surface: a degenerate
    tangent plane, a null or non-finite normal, a tangent plane through
    the origin, or a K/d^4 that is not finite or underflows.  A grid
    sweep records such a point as skipped, with the message as its reason."""


class CatalogError(GeometryError, LookupError):
    """Unknown catalog entry."""


class InconclusiveError(GeometryError):
    """Too many grid points were skipped to issue a classification verdict."""


class UsageError(GeometryError, ValueError):
    """Invalid run configuration."""


# Each submodule and the public names it gives the package.
_NAMES = {
    "centroaffine": ("CentroAffineMap", "ScalingPoint", "ScalingReport", "apply_map", "verify_scaling"),
    "invariants": (
        "EPS_SINGULAR", "ClassifyVerdict", "PointInvariants", "PointRecord", "classify",
        "identity_residual", "point_invariants", "scan_grid",
    ),
    "jet": ("Jet2", "seed_xy"),
    "metrics": ("AgreePoint", "check_pair", "pair_names"),
    "surfaces": (
        "EUCLIDEAN", "MINKOWSKI", "AmbientForm", "Box", "SurfaceDef",
        "catalog", "catalog_entries", "eval_surface", "grid_points",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted([*_MODULE_OF, "CatalogError", "DomainError", "GeometryError", "InconclusiveError",
                  "SingularPointError", "UsageError"])


def __getattr__(name: str):
    if name in _NAMES:  # the import binds the submodule as a package attribute
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_NAMES, *_MODULE_OF})
