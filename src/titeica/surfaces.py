"""Surface patches, ambient bilinear forms and the built-in catalog.

A surface is a patch: a function from a parameter point to its
:class:`SurfaceJet`, the position together with all first and second
partial derivatives.  :func:`parametric` builds one from three coordinate
functions written on :class:`~titeica.jet.Jet2` seeds; a Monge patch, the
graph of u over the parameter plane, is the immersion (x, y, u(x, y)).

The catalog holds the concrete surfaces exercised by the verification
commands; every entry picks a domain box that stays away from coordinate
singularities (sphere equator, pseudosphere cusp, hyperboloid axis).
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

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
    "parametric",
    "eval_surface",
    "catalog",
    "catalog_names",
    "catalog_entries",
]


_new = tuple.__new__


class _BoxFields(NamedTuple):
    x0: float
    x1: float
    y0: float
    y1: float


class Box(_BoxFields):
    """Open rectangular parameter domain (x0, x1) x (y0, y1)."""

    __slots__ = ()

    def __new__(cls, x0: float, x1: float, y0: float, y1: float) -> "Box":
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"degenerate box [{x0}, {x1}] x [{y0}, {y1}]")
        return _new(cls, (x0, x1, y0, y1))

    def contains(self, x: float, y: float) -> bool:
        """Strict interior membership."""
        x0, x1, y0, y1 = self
        return x0 < x < x1 and y0 < y < y1

    def describe(self) -> str:
        return f"[{self.x0:g}, {self.x1:g}] x [{self.y0:g}, {self.y1:g}]"

    def require(self, x: float, y: float, kind: str, name: str) -> None:
        """Raise :class:`DomainError` unless (x, y) is strictly inside the
        domain of the named object (a surface, metric or coordinate change)."""
        x0, x1, y0, y1 = self
        if not (x0 < x < x1 and y0 < y < y1):
            raise DomainError(f"point ({x:g}, {y:g}) outside domain {self.describe()} of {kind} '{name}'")


def grid_points(box: Box, nx: int, ny: int) -> list[tuple[float, float]]:
    """Row-major sample grid over the box, endpoints inset by 1% of the
    box width so every point is strictly interior."""
    if nx < 2 or ny < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {nx} x {ny}")
    xs = _inset_axis(box.x0, box.x1, nx)
    return [(x, y) for y in _inset_axis(box.y0, box.y1, ny) for x in xs]


def _inset_axis(lo: float, hi: float, n: int) -> list[float]:
    # The floats of an endpoint-inclusive linspace: a + i*step, then b exactly.
    m = 0.01 * (hi - lo)
    a, b = lo + m, hi - m
    step = (b - a) / (n - 1)
    return [a + i * step for i in range(n - 1)] + [b]


class AmbientForm(NamedTuple):
    """Diagonal bilinear form on 3-space, fixed by its signature."""

    signature: tuple[int, int, int]
    name: str

    def inner(self, v, w) -> float:
        s = self.signature
        return float(s[0] * v[0] * w[0] + s[1] * v[1] * w[1] + s[2] * v[2] * w[2])


EUCLIDEAN = AmbientForm((1, 1, 1), "euclidean")
MINKOWSKI = AmbientForm((-1, 1, 1), "minkowski")


Vec3 = tuple[float, float, float]


class SurfaceJet(NamedTuple):
    """Position and first/second partial derivatives at one parameter
    point, each a float triple."""

    f: Vec3
    f_x: Vec3
    f_y: Vec3
    f_xx: Vec3
    f_xy: Vec3
    f_yy: Vec3


Patch = Callable[[float, float], SurfaceJet]
Coords = Callable[[Jet2, Jet2], tuple[Jet2, Jet2, Jet2]]


class SurfaceDef(NamedTuple):
    """A named patch: the map from a parameter point to its jet, the
    parameter domain and the ambient form."""

    name: str
    patch: Patch
    domain: Box
    ambient: AmbientForm


def parametric(coords: Coords) -> Patch:
    """The patch of the immersion whose coordinate jets ``coords`` returns
    at seeded parameters.

    A Monge patch is ``parametric(lambda x, y: (x, y, u(x, y)))``: its
    first two coordinates are the exact seeds, so f_x = (1, 0, u_x),
    f_y = (0, 1, u_y) and f_** = (0, 0, u_**) hold bitwise.
    """

    def patch(x: float, y: float) -> SurfaceJet:
        cx, cy, cz = coords(*seed_xy(x, y))
        # Row i of the jet is field i of the three coordinate jets:
        # f = (cx.val, cy.val, cz.val), f_x = (cx.dx, cy.dx, cz.dx), ...
        return _new(SurfaceJet, zip(cx, cy, cz))

    return patch


def eval_surface(s: SurfaceDef, x: float, y: float) -> SurfaceJet:
    """Evaluate the patch strictly inside its domain."""
    s.domain.require(x, y, "surface", s.name)
    return s.patch(x, y)


# --------------------------------------------------------------------------
# Catalog


class _Entry(NamedTuple):
    """A catalog row: ``shape(**params)`` is the pair (coordinate
    functions bound to the parameters, domain box)."""

    shape: Callable[..., tuple[Coords, Box]]
    description: str
    defaults: dict = {}  # never mutated
    ambient: AmbientForm = EUCLIDEAN


def _sphere_height(rr: float, x: Jet2, y: Jet2) -> Jet2:
    return jet.sqrt(constant(rr) - x * x - y * y)


def _cap_box(r: float) -> Box:
    half = 0.42 * r  # square inscribed in the disk x^2 + y^2 <= (0.6 R)^2
    return Box(-half, half, -half, half)


def _tractrix_revolution(t: Jet2, theta: Jet2) -> tuple[Jet2, Jet2, Jet2]:
    sech = 1.0 / jet.cosh(t)
    return sech * jet.cos(theta), sech * jet.sin(theta), t - jet.tanh(t)


def _forward_hyperboloid(u1: Jet2, u2: Jet2) -> tuple[Jet2, Jet2, Jet2]:
    sh = jet.sinh(u1)
    return jet.cosh(u1), sh * jet.cos(u2), sh * jet.sin(u2)


_CATALOG: dict[str, _Entry] = {
    "sphere-origin": _Entry(
        lambda R: (lambda x, y: (x, y, _sphere_height(R * R, x, y)), _cap_box(R)),
        "sphere of radius R centered at the origin (Monge cap)",
        {"R": 1.0},
    ),
    "sphere-translated": _Entry(
        lambda R, c: (lambda x, y: (x, y, _sphere_height(R * R, x, y) + c), _cap_box(R)),
        "sphere of radius R shifted by c along the third axis",
        {"R": 1.0, "c": 1.0},
    ),
    "titeica-xyz": _Entry(
        lambda: (lambda x, y: (x, y, 1.0 / (x * y)), Box(0.5, 2.0, 0.5, 2.0)),
        "graph of u = 1/(xy): the classical constant-ratio surface",
    ),
    "paraboloid": _Entry(
        lambda: (lambda x, y: (x, y, x * x + y * y), Box(-1.0, 1.0, -1.0, 1.0)),
        "graph of u = x^2 + y^2",
    ),
    "pseudosphere": _Entry(
        lambda: (_tractrix_revolution, Box(0.5, 2.0, 0.1, 3.0)),
        "tractrix of revolution (constant curvature -1), parameters (t, theta)",
    ),
    "minkowski-sphere": _Entry(
        lambda: (_forward_hyperboloid, Box(0.3, 2.0, 0.1, 3.0)),
        "forward unit hyperboloid sheet under the (-,+,+) form, parameters (u1, u2)",
        ambient=MINKOWSKI,
    ),
    "plane": _Entry(
        lambda: (lambda x, y: (x, y, constant(0.0)), Box(-1.0, 1.0, -1.0, 1.0)),
        "flat patch u = 0 (tangent planes through the origin everywhere)",
    ),
}


def catalog(name: str, **params: float) -> SurfaceDef:
    """Build a named catalog surface.

    Unknown names raise :class:`CatalogError` listing the valid ones;
    invalid parameters (unknown keys, non-finite values, non-positive
    radii, radii whose square is not a finite normal float) raise ValueError.
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
    for k, v in merged.items():
        if not math.isfinite(v):
            raise ValueError(f"surface '{name}': parameter {k} must be finite, got {v}")
    if "R" in merged:
        r = merged["R"]
        if r <= 0.0:
            raise ValueError(f"surface '{name}': radius R must be positive, got {r}")
        # The sphere patches take sqrt(R^2 - x^2 - y^2); a subnormal R^2
        # loses the digits that keep that argument positive, and an
        # infinite one makes it inf - inf = nan on the cap's grid.
        if r * r < sys.float_info.min:
            raise ValueError(f"surface '{name}': radius R is too small, R^2 is not a normal float, got {r}")
        if r * r == math.inf:
            raise ValueError(f"surface '{name}': radius R is too large, R^2 overflows, got {r}")
    coords, box = entry.shape(**merged)
    return SurfaceDef(name, parametric(coords), box, entry.ambient)


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog_entries() -> list[tuple[str, str, dict]]:
    """(name, description, default parameters) for every catalog surface."""
    return [(n, _CATALOG[n].description, dict(_CATALOG[n].defaults)) for n in sorted(_CATALOG)]
