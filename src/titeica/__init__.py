"""Centro-affine surface invariants.

Computes the Gaussian curvature K, the origin-to-tangent-plane distance d
and the ratio K/d^4 of surfaces in Euclidean or Minkowski 3-space through
an oriented-volume formulation, verifies numerically that centro-affine
transformations scale the ratio by 1/det^2, classifies surfaces by
constancy of the ratio (Titeica surfaces), and checks the classical
pullback equivalences between the constant-curvature models
(pseudosphere, Poincare half-plane and disk, Minkowski sphere).

``import titeica`` loads no submodule: a public name imports the
submodule that defines it on first use (PEP 562), so a run compiles only
the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each submodule and the public names it gives the package.
_NAMES = {
    "centroaffine": ("CentroAffineMap", "ScalingPoint", "ScalingReport", "apply_map", "verify_scaling"),
    "errors": (
        "CatalogError", "DomainError", "GeometryError", "InconclusiveError", "SingularPointError",
        "UsageError",
    ),
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

__all__ = sorted(_MODULE_OF)


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
