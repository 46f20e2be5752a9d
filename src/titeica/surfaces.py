"""Surface patches, ambient bilinear forms and the built-in catalog.

A surface is a patch, which a call maps from a parameter point to its
:class:`SurfaceJet`, the jets of the three coordinates: each holds the
value and all first and second partial derivatives.  A patch is a row
``(xpart, ypart, mix)`` (:class:`_Row`), the immersion
``mix(*xpart(x), *ypart(y))``, where a part holds the jets that depend
on one parameter alone: R^2 - x^2 and y^2 on a cap, sech t, t - tanh t,
cos theta and sin theta on the pseudosphere.  A grid sweep reads the
row's fields and computes a part once per line.  :func:`parametric` is
the row with no parts, from three coordinate functions written on
:class:`~titeica.jet.Jet2` seeds; a Monge patch, the graph of u over the
parameter plane, is the immersion (x, y, u(x, y)).

The catalog holds the concrete surfaces exercised by the verification
commands; every entry picks a domain box that stays away from coordinate
singularities (sphere equator, pseudosphere cusp, hyperboloid axis).
"""

import math
import sys
from typing import Callable, NamedTuple, Optional

from . import _NAMES, jet
from .errors import CatalogError, DomainError
from .jet import Jet2, constant

__all__ = list(_NAMES["surfaces"])


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

    def require(self, x: float, y: float, name: str) -> None:
        """Raise :class:`DomainError` unless (x, y) is strictly inside the box."""
        x0, x1, y0, y1 = self
        if not (x0 < x < x1 and y0 < y < y1):
            raise DomainError(f"point ({x:g}, {y:g}) outside domain {self.describe()} of surface '{name}'")


DEFAULT_GRID = (20, 20)
DEFAULT_TOL = 1e-8


def grid_points(box: Box, nx: int, ny: int) -> list[tuple[float, float]]:
    """Row-major sample grid over the box, endpoints inset by 1% of the
    box width so every point is strictly interior.  Raises ValueError for
    a box whose inset endpoints round onto or past its edges, or are not
    finite."""
    if nx < 2 or ny < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {nx} x {ny}")
    x0, x1, y0, y1 = box
    xs, ys = _inset_axis(x0, x1, nx), _inset_axis(y0, y1, ny)
    if not (x0 < xs[0] and xs[-1] < x1 and y0 < ys[0] and ys[-1] < y1):
        raise ValueError(f"cannot sample strictly inside {box!r}")
    return [(x, y) for y in ys for x in xs]


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


def det3(r0, r1, r2) -> float:
    """Determinant of the 3x3 matrix with rows r0, r1, r2, as r0 . (r1 x r2)
    with the cross product in numpy.cross operand order."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = r0, r1, r2
    return a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0)


class SurfaceJet(NamedTuple):
    """The three coordinate jets of the immersion at one parameter point:
    ``f0.dx`` is the first coordinate of f_x, and so on."""

    f0: Jet2
    f1: Jet2
    f2: Jet2


Coords = Callable[[Jet2, Jet2], tuple[Jet2, Jet2, Jet2]]
_Part = Callable[[Jet2], tuple[Jet2, ...]]


class _Row(NamedTuple):
    """The patch ``mix(*xpart(x), *ypart(y))`` at seeded parameters, where a
    part holds the jets that depend on its seed alone and a missing part is
    the seed alone.  A call computes the x part, the y part, then ``mix``,
    unpacks exactly three coordinate jets and keeps nothing; a grid sweep
    (``invariants._sweep``) reads the fields and keeps each line's part."""

    xpart: Optional[_Part]
    ypart: Optional[_Part]
    mix: Callable[..., tuple[Jet2, Jet2, Jet2]]

    def __call__(self, x: float, y: float) -> SurfaceJet:
        xpart, ypart, mix = self
        sx = _new(Jet2, (float(x), 1.0, 0.0, 0.0, 0.0, 0.0))  # seed_x(x), without a call
        sy = _new(Jet2, (float(y), 0.0, 1.0, 0.0, 0.0, 0.0))  # seed_y(y), without a call
        cx, cy, cz = mix(*(xpart(sx) if xpart else (sx,)), *(ypart(sy) if ypart else (sy,)))
        return _new(SurfaceJet, (cx, cy, cz))


Patch = _Row  # a patch is a row, built by parametric, the catalog or apply_map
_Shape = tuple[Optional[_Part], Optional[_Part], Callable[..., tuple[Jet2, Jet2, Jet2]], Box]


class SurfaceDef(NamedTuple):
    """A named patch: the map from a parameter point to its jet, the
    parameter domain and the ambient form."""

    name: str
    patch: Patch
    domain: Box
    ambient: AmbientForm


def parametric(coords: Coords) -> Patch:
    """The patch of the immersion whose coordinate jets ``coords`` returns
    at seeded parameters: the row with no parts, so each point of a call
    or of a sweep calls ``coords``.

    A Monge patch is ``parametric(lambda x, y: (x, y, u(x, y)))``: its
    first two coordinates are the exact seeds, so f_x = (1, 0, u_x),
    f_y = (0, 1, u_y) and f_** = (0, 0, u_**) hold bitwise.
    """
    return _Row(None, None, coords)


def eval_surface(s: SurfaceDef, x: float, y: float) -> SurfaceJet:
    """Evaluate the patch strictly inside its domain."""
    s.domain.require(x, y, s.name)
    return s.patch(x, y)


# --------------------------------------------------------------------------
# Catalog


class _Entry(NamedTuple):
    """A catalog entry: ``shape(**params)`` is (xpart, ypart, mix, domain
    box), the fields of a :class:`_Row` bound to the parameters and
    the box.  A part returns the jets that depend on its seed alone, or
    is None where the seed is all ``mix`` needs of it."""

    shape: Callable[..., _Shape]
    description: str
    defaults: dict = {}  # never mutated
    ambient: AmbientForm = EUCLIDEAN


def _squared(s: Jet2) -> tuple[Jet2, Jet2]:
    return s, s * s


def _circle(theta: Jet2) -> tuple[Jet2, Jet2]:
    return jet.cos(theta), jet.sin(theta)


def _cap(r: float, mix: Callable) -> _Shape:
    """The parts and box of a Monge cap whose height ``mix`` takes from
    R^2 - x^2 and y^2."""
    rr = constant(r * r)
    half = 0.42 * r  # square inscribed in the disk x^2 + y^2 <= (0.6 R)^2
    return lambda x: (x, rr - x * x), _squared, mix, Box(-half, half, -half, half)


_CATALOG: dict[str, _Entry] = {
    "sphere-origin": _Entry(
        lambda R: _cap(R, lambda x, a, y, yy: (x, y, jet.sqrt(a - yy))),
        "sphere of radius R centered at the origin (Monge cap)",
        {"R": 1.0},
    ),
    "sphere-translated": _Entry(
        lambda R, c: _cap(R, lambda x, a, y, yy: (x, y, jet.sqrt(a - yy) + c)),
        "sphere of radius R shifted by c along the third axis",
        {"R": 1.0, "c": 1.0},
    ),
    "titeica-xyz": _Entry(
        lambda: (None, None, lambda x, y: (x, y, 1.0 / (x * y)), Box(0.5, 2.0, 0.5, 2.0)),
        "graph of u = 1/(xy): the classical constant-ratio surface",
    ),
    "paraboloid": _Entry(
        lambda: (_squared, _squared, lambda x, xx, y, yy: (x, y, xx + yy), Box(-1.0, 1.0, -1.0, 1.0)),
        "graph of u = x^2 + y^2",
    ),
    "pseudosphere": _Entry(
        # (sech t cos theta, sech t sin theta, t - tanh t)
        lambda: (lambda t: (1.0 / jet.cosh(t), t - jet.tanh(t)), _circle,
                 lambda sech, z, c, s: (sech * c, sech * s, z), Box(0.5, 2.0, 0.1, 3.0)),
        "tractrix of revolution (constant curvature -1), parameters (t, theta)",
    ),
    "minkowski-sphere": _Entry(
        # (cosh u1, sinh u1 cos u2, sinh u1 sin u2)
        lambda: (lambda u: (jet.cosh(u), jet.sinh(u)), _circle,
                 lambda ch, sh, c, s: (ch, sh * c, sh * s), Box(0.3, 2.0, 0.1, 3.0)),
        "forward unit hyperboloid sheet under the (-,+,+) form, parameters (u1, u2)",
        ambient=MINKOWSKI,
    ),
    "plane": _Entry(
        lambda: (None, None, lambda x, y: (x, y, constant(0.0)), Box(-1.0, 1.0, -1.0, 1.0)),
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
    *parts, box = entry.shape(**merged)
    return SurfaceDef(name, _Row(*parts), box, entry.ambient)


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog_entries() -> list[tuple[str, str, dict]]:
    """(name, description, default parameters) for every catalog surface."""
    return [(n, _CATALOG[n].description, dict(_CATALOG[n].defaults)) for n in sorted(_CATALOG)]
