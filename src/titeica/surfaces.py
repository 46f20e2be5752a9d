"""Surface patches, ambient bilinear forms and the built-in catalog.

A surface is a patch: a function from a parameter point to its
:class:`SurfaceJet`, the position together with all first and second
partial derivatives.  Every patch built here is a row
``mix(*xpart(x), *ypart(y))`` (:func:`_by_lines`, which also describes
how a grid sweep evaluates it), where a part holds the jets that depend
on one parameter alone: R^2 - x^2 and y^2 on a cap, sech t, t - tanh t,
cos theta and sin theta on the pseudosphere.  :func:`parametric` is the
row with no parts, from three coordinate functions written on
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

    def require(self, x: float, y: float, kind: str, name: str) -> None:
        """Raise :class:`DomainError` unless (x, y) is strictly inside the
        domain of the named object."""
        x0, x1, y0, y1 = self
        if not (x0 < x < x1 and y0 < y < y1):
            raise DomainError(f"point ({x:g}, {y:g}) outside domain {self.describe()} of {kind} '{name}'")


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


Patch = Callable[..., SurfaceJet]  # patch(x, y, lines=None): see _by_lines
Coords = Callable[[Jet2, Jet2], tuple[Jet2, Jet2, Jet2]]
_Part = Callable[[Jet2], tuple[Jet2, ...]]
_Row = tuple[Optional[_Part], Optional[_Part], Callable[..., tuple[Jet2, Jet2, Jet2]], Box]


class SurfaceDef(NamedTuple):
    """A named patch: the map from a parameter point to its jet, the
    parameter domain and the ambient form."""

    name: str
    patch: Patch
    domain: Box
    ambient: AmbientForm


def parametric(coords: Coords) -> Patch:
    """The patch of the immersion whose coordinate jets ``coords`` returns
    at seeded parameters: the catalog row with no parts, so each point of
    a call or of a sweep calls ``coords``.

    A Monge patch is ``parametric(lambda x, y: (x, y, u(x, y)))``: its
    first two coordinates are the exact seeds, so f_x = (1, 0, u_x),
    f_y = (0, 1, u_y) and f_** = (0, 0, u_**) hold bitwise.
    """
    return _by_lines(None, None, coords)


def _by_lines(xpart: Optional[_Part], ypart: Optional[_Part], mix: Callable) -> Patch:
    """The patch of the immersion ``mix(*xpart(x), *ypart(y))`` at seeded
    parameters; a missing part is the seed alone.

    ``patch(x, y, lines)`` computes the x part, then the y part, then
    ``mix``, and unpacks exactly three coordinate jets from it; row i of
    the jet is field i of the three.  ``lines`` is a grid sweep's pair of
    dicts (``invariants._sweep`` makes one per sweep), in which the patch
    keeps a line's part from the line's second point on and then skips
    computing it, so where both lines of a point are kept it runs ``mix``
    alone.  Without ``lines`` a call keeps nothing.  A part depends on its
    seed alone, and only a point that returns keeps anything, so each
    point of a sweep gives the jet, or raises the error, of a call.
    """

    def patch(x: float, y: float, lines: Optional[tuple[dict, dict]] = None) -> SurfaceJet:
        xs, ys = lines or ({}, {})
        kx, ky = x or repr(x), y or repr(y)  # 0.0 and -0.0 seed different jets
        kept_x, kept_y = xs.get(kx), ys.get(ky)
        a = kept_x
        if not a:
            sx = _new(Jet2, (float(x), 1.0, 0.0, 0.0, 0.0, 0.0))  # seed_x(x), without a call
            a = xpart(sx) if xpart else (sx,)
        b = kept_y
        if not b:
            sy = _new(Jet2, (float(y), 0.0, 1.0, 0.0, 0.0, 0.0))  # seed_y(y), without a call
            b = ypart(sy) if ypart else (sy,)
        cx, cy, cz = mix(*a, *b)
        sj = _new(SurfaceJet, zip(cx, cy, cz))
        # Points that share no line (say, random ones) keep only keys.
        if not kept_x:
            xs[kx] = () if kept_x is None else a
        if not kept_y:
            ys[ky] = () if kept_y is None else b
        return sj

    return patch


def eval_surface(s: SurfaceDef, x: float, y: float) -> SurfaceJet:
    """Evaluate the patch strictly inside its domain."""
    s.domain.require(x, y, "surface", s.name)
    return s.patch(x, y)


# --------------------------------------------------------------------------
# Catalog


class _Entry(NamedTuple):
    """A catalog row: ``shape(**params)`` is (xpart, ypart, mix, domain
    box), the arguments of :func:`_by_lines` bound to the parameters and
    the box.  A part returns the jets that depend on its seed alone, or
    is None where the seed is all ``mix`` needs of it."""

    shape: Callable[..., _Row]
    description: str
    defaults: dict = {}  # never mutated
    ambient: AmbientForm = EUCLIDEAN


def _squared(s: Jet2) -> tuple[Jet2, Jet2]:
    return s, s * s


def _circle(theta: Jet2) -> tuple[Jet2, Jet2]:
    return jet.cos(theta), jet.sin(theta)


def _cap(r: float, mix: Callable) -> _Row:
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
    return SurfaceDef(name, _by_lines(*parts), box, entry.ambient)


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog_entries() -> list[tuple[str, str, dict]]:
    """(name, description, default parameters) for every catalog surface."""
    return [(n, _CATALOG[n].description, dict(_CATALOG[n].defaults)) for n in sorted(_CATALOG)]
