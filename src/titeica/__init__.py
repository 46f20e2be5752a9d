"""Centro-affine surface invariants.

Computes the Gaussian curvature K, the origin-to-tangent-plane distance d
and the ratio K/d^4 of surfaces in Euclidean or Minkowski 3-space through
an oriented-volume formulation, verifies numerically that centro-affine
transformations scale the ratio by 1/det^2, classifies surfaces by
constancy of the ratio (Titeica surfaces), and checks the classical
pullback equivalences between the constant-curvature models
(pseudosphere, Poincare half-plane and disk, Minkowski sphere).
"""

from .centroaffine import CentroAffineMap, ScalingReport, apply_map, verify_scaling
from .errors import (
    CatalogError,
    DomainError,
    GeometryError,
    InconclusiveError,
    RegularityError,
    SignatureError,
    SingularPointError,
    UsageError,
)
from .invariants import (
    EPS_SINGULAR,
    ClassifyVerdict,
    FundamentalForms,
    OrientedVolumes,
    PointRecord,
    classify,
    fundamental_forms,
    gaussian_curvature,
    identity_residual,
    oriented_volumes,
    scan_grid,
    tangent_distance,
    titeica_ratio,
)
from .jet import Jet2, constant, seed_x, seed_xy, seed_y
from .metrics import (
    AgreeReport,
    CoordChange,
    Metric2,
    MetricPair,
    brioschi_curvature,
    check_pair,
    metric,
    metric_pair,
    metrics_agree,
    pullback,
)
from .surfaces import (
    EUCLIDEAN,
    MINKOWSKI,
    AmbientForm,
    Box,
    SurfaceDef,
    SurfaceJet,
    catalog,
    catalog_names,
    eval_surface,
    grid_points,
    parametric,
)

__version__ = "0.1.0"

__all__ = [
    "AgreeReport",
    "AmbientForm",
    "Box",
    "CatalogError",
    "CentroAffineMap",
    "ClassifyVerdict",
    "CoordChange",
    "DomainError",
    "EPS_SINGULAR",
    "EUCLIDEAN",
    "FundamentalForms",
    "GeometryError",
    "InconclusiveError",
    "Jet2",
    "Metric2",
    "MetricPair",
    "MINKOWSKI",
    "OrientedVolumes",
    "PointRecord",
    "RegularityError",
    "ScalingReport",
    "SignatureError",
    "SingularPointError",
    "SurfaceDef",
    "SurfaceJet",
    "UsageError",
    "apply_map",
    "brioschi_curvature",
    "catalog",
    "catalog_names",
    "check_pair",
    "classify",
    "constant",
    "eval_surface",
    "fundamental_forms",
    "gaussian_curvature",
    "grid_points",
    "identity_residual",
    "metric",
    "metric_pair",
    "metrics_agree",
    "oriented_volumes",
    "parametric",
    "pullback",
    "scan_grid",
    "seed_x",
    "seed_xy",
    "seed_y",
    "tangent_distance",
    "titeica_ratio",
    "verify_scaling",
]
