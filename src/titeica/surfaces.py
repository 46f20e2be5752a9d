"""Surface patches, ambient bilinear forms and the built-in catalog.

A surface is either a Monge patch (graph of u over the parameter plane,
so the immersion is (x, y, u(x, y))) or a general parametric patch with
three coordinate functions.  Evaluation feeds coordinate seeds through
the evaluator, which yields the position together with all first and
second partial derivatives as a :class:`SurfaceJet`.

The catalog holds the concrete surfaces exercised by the verification
commands; every entry picks a domain box that stays away from coordinate
singularities (sphere equator, pseudosphere cusp, hyperboloid axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import jet
from .errors import CatalogError, DomainError
from .jet import Jet2, constant, seed_xy

__all__ = [
    "Box",
    "grid_points",
    "AmbientForm",
    "EUCLIDEAN",
    "MINKOWSKI",
    "SurfaceJet",
    "SurfaceDef",
    "parametric_jets",
    "eval_surface",
    "catalog",
    "catalog_names",
    "catalog_entries",
]


@dataclass(frozen=True)
class Box:
    """Open rectangular parameter domain (x0, x1) x (y0, y1)."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate box [{self.x0}, {self.x1}] x [{self.y0}, {self.y1}]")

    def contains(self, x: float, y: float) -> bool:
        """Strict interior membership."""
        return self.x0 < x < self.x1 and self.y0 < y < self.y1

    def describe(self) -> str:
        return f"[{self.x0:g}, {self.x1:g}] x [{self.y0:g}, {self.y1:g}]"


def grid_points(box: Box, nx: int, ny: int) -> list[tuple[float, float]]:
    """Row-major sample grid over the box, endpoints inset by 1% of the
    box width so every point is strictly interior."""
    if nx < 2 or ny < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {nx} x {ny}")
    mx = 0.01 * (box.x1 - box.x0)
    my = 0.01 * (box.y1 - box.y0)
    xs = np.linspace(box.x0 + mx, box.x1 - mx, nx)
    ys = np.linspace(box.y0 + my, box.y1 - my, ny)
    return [(float(x), float(y)) for y in ys for x in xs]


@dataclass(frozen=True)
class AmbientForm:
    """Diagonal bilinear form on 3-space, fixed by its signature."""

    signature: tuple[int, int, int]
    name: str

    def inner(self, v, w) -> float:
        s = self.signature
        return float(s[0] * v[0] * w[0] + s[1] * v[1] * w[1] + s[2] * v[2] * w[2])


EUCLIDEAN = AmbientForm((1, 1, 1), "euclidean")
MINKOWSKI = AmbientForm((-1, 1, 1), "minkowski")


Vec3 = tuple[float, float, float]


@dataclass(frozen=True, eq=False)
class SurfaceJet:
    """Position and first/second partial derivatives at one parameter
    point, each a float triple."""

    f: Vec3
    f_x: Vec3
    f_y: Vec3
    f_xx: Vec3
    f_xy: Vec3
    f_yy: Vec3


Evaluator = Callable[[Jet2, Jet2], Union[Jet2, tuple[Jet2, Jet2, Jet2]]]


@dataclass(frozen=True)
class SurfaceDef:
    """A named patch: evaluator, parameter domain and ambient form.

    For kind "monge" the evaluator returns the single height jet u(x, y);
    for kind "parametric" it returns the three coordinate jets.
    """

    name: str
    kind: str
    evaluator: Evaluator
    domain: Box
    ambient: AmbientForm

    def __post_init__(self):
        if self.kind not in ("monge", "parametric"):
            raise ValueError(f"unknown surface kind {self.kind!r}")


def parametric_jets(s: SurfaceDef, jx: Jet2, jy: Jet2) -> tuple[Jet2, Jet2, Jet2]:
    """Coordinate jets of the immersion at seeded parameters."""
    if s.kind == "monge":
        return jx, jy, s.evaluator(jx, jy)
    return s.evaluator(jx, jy)


def eval_surface(s: SurfaceDef, x: float, y: float) -> SurfaceJet:
    """Evaluate the patch strictly inside its domain.

    For a Monge patch the structural pattern f_x = (1, 0, u_x),
    f_y = (0, 1, u_y), f_** = (0, 0, u_**) holds bitwise because the
    coordinate jets are exact seeds.
    """
    if not s.domain.contains(x, y):
        raise DomainError(
            f"point ({x:g}, {y:g}) outside domain {s.domain.describe()} of surface '{s.name}'"
        )
    cx, cy, cz = parametric_jets(s, *seed_xy(x, y))
    return SurfaceJet(
        f=(cx.val, cy.val, cz.val),
        f_x=(cx.dx, cy.dx, cz.dx),
        f_y=(cx.dy, cy.dy, cz.dy),
        f_xx=(cx.dxx, cy.dxx, cz.dxx),
        f_xy=(cx.dxy, cy.dxy, cz.dxy),
        f_yy=(cx.dyy, cy.dyy, cz.dyy),
    )


# --------------------------------------------------------------------------
# Catalog


@dataclass(frozen=True)
class _Entry:
    build: Callable[[dict], SurfaceDef]
    defaults: dict
    description: str


def _sphere_height(rr: float, x: Jet2, y: Jet2) -> Jet2:
    return jet.sqrt(constant(rr) - x * x - y * y)


def _make_sphere_origin(p: dict) -> SurfaceDef:
    r = p["R"]
    half = 0.42 * r  # square inscribed in the disk x^2 + y^2 <= (0.6 R)^2
    return SurfaceDef(
        "sphere-origin",
        "monge",
        lambda x, y: _sphere_height(r * r, x, y),
        Box(-half, half, -half, half),
        EUCLIDEAN,
    )


def _make_sphere_translated(p: dict) -> SurfaceDef:
    r, c = p["R"], p["c"]
    half = 0.42 * r
    return SurfaceDef(
        "sphere-translated",
        "monge",
        lambda x, y: _sphere_height(r * r, x, y) + c,
        Box(-half, half, -half, half),
        EUCLIDEAN,
    )


def _make_titeica_xyz(p: dict) -> SurfaceDef:
    return SurfaceDef(
        "titeica-xyz",
        "monge",
        lambda x, y: 1.0 / (x * y),
        Box(0.5, 2.0, 0.5, 2.0),
        EUCLIDEAN,
    )


def _make_paraboloid(p: dict) -> SurfaceDef:
    return SurfaceDef(
        "paraboloid",
        "monge",
        lambda x, y: x * x + y * y,
        Box(-1.0, 1.0, -1.0, 1.0),
        EUCLIDEAN,
    )


def _tractrix_revolution(t: Jet2, theta: Jet2) -> tuple[Jet2, Jet2, Jet2]:
    sech = 1.0 / jet.cosh(t)
    return sech * jet.cos(theta), sech * jet.sin(theta), t - jet.tanh(t)


def _make_pseudosphere(p: dict) -> SurfaceDef:
    return SurfaceDef(
        "pseudosphere",
        "parametric",
        _tractrix_revolution,
        Box(0.5, 2.0, 0.1, 3.0),
        EUCLIDEAN,
    )


def _forward_hyperboloid(u1: Jet2, u2: Jet2) -> tuple[Jet2, Jet2, Jet2]:
    sh = jet.sinh(u1)
    return jet.cosh(u1), sh * jet.cos(u2), sh * jet.sin(u2)


def _make_minkowski_sphere(p: dict) -> SurfaceDef:
    return SurfaceDef(
        "minkowski-sphere",
        "parametric",
        _forward_hyperboloid,
        Box(0.3, 2.0, 0.1, 3.0),
        MINKOWSKI,
    )


def _make_plane(p: dict) -> SurfaceDef:
    return SurfaceDef(
        "plane",
        "monge",
        lambda x, y: constant(0.0),
        Box(-1.0, 1.0, -1.0, 1.0),
        EUCLIDEAN,
    )


_CATALOG: dict[str, _Entry] = {
    "sphere-origin": _Entry(
        _make_sphere_origin,
        {"R": 1.0},
        "sphere of radius R centered at the origin (Monge cap)",
    ),
    "sphere-translated": _Entry(
        _make_sphere_translated,
        {"R": 1.0, "c": 1.0},
        "sphere of radius R shifted by c along the third axis",
    ),
    "titeica-xyz": _Entry(
        _make_titeica_xyz,
        {},
        "graph of u = 1/(xy): the classical constant-ratio surface",
    ),
    "paraboloid": _Entry(
        _make_paraboloid,
        {},
        "graph of u = x^2 + y^2",
    ),
    "pseudosphere": _Entry(
        _make_pseudosphere,
        {},
        "tractrix of revolution (constant curvature -1), parameters (t, theta)",
    ),
    "minkowski-sphere": _Entry(
        _make_minkowski_sphere,
        {},
        "forward unit hyperboloid sheet under the (-,+,+) form, parameters (u1, u2)",
    ),
    "plane": _Entry(
        _make_plane,
        {},
        "flat patch u = 0 (tangent planes through the origin everywhere)",
    ),
}


def catalog(name: str, **params: float) -> SurfaceDef:
    """Build a named catalog surface.

    Unknown names raise :class:`CatalogError` listing the valid ones;
    invalid parameters (unknown keys, non-positive radii) raise ValueError.
    """
    entry = _CATALOG.get(name)
    if entry is None:
        raise CatalogError(
            f"unknown surface '{name}'; available: {', '.join(sorted(_CATALOG))}"
        )
    unknown = set(params) - set(entry.defaults)
    if unknown:
        raise ValueError(
            f"surface '{name}' does not take parameter(s) {sorted(unknown)}; "
            f"accepted: {sorted(entry.defaults) or 'none'}"
        )
    merged = {**entry.defaults, **{k: float(v) for k, v in params.items()}}
    if "R" in merged and merged["R"] <= 0.0:
        raise ValueError(f"surface '{name}': radius R must be positive, got {merged['R']}")
    return entry.build(merged)


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog_entries() -> list[tuple[str, str, dict]]:
    """(name, description, default parameters) for every catalog surface."""
    return [(n, _CATALOG[n].description, dict(_CATALOG[n].defaults)) for n in sorted(_CATALOG)]
