"""Surfaces, ambient bilinear forms and the built-in catalog.

A surface (:class:`SurfaceDef`) is the immersion
``mix(*xpart(x), *ypart(y))`` of seeded :class:`~titeica.jet.Jet2`
parameters, where a part holds the jets that depend on one parameter
alone: R^2 - x^2 and y^2 on a cap, sech t, t - tanh t, cos theta and
sin theta on the pseudosphere.  A missing part is the seed alone, so a
plain ``mix(x, y)`` that returns three coordinate jets is a surface.
:func:`eval_surface` gives the jets of the three coordinates at one
point, a plain triple: each holds the value and all first and second
partial derivatives.  The grid commands sample a surface through
:func:`_sweep`, which runs each part once per axis value.  A Monge
patch (x, y, u(x, y)) is a graph: its ``mix`` gives the one jet u, and
``eval_surface`` gives (seed x, seed y, u).  An ``apply_map`` image of a
graph is a general surface.

The catalog holds the concrete surfaces exercised by the verification
commands; every entry picks a domain box that stays away from coordinate
singularities (sphere equator, pseudosphere cusp, hyperboloid axis).
"""

import math
import sys
from typing import Callable, NamedTuple, Optional

from . import _NAMES, jet
from .errors import CatalogError, DomainError, SingularPointError
from .jet import Jet2, _new, seed_xy

__all__ = list(_NAMES["surfaces"])


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


DEFAULT_GRID = (20, 20)
DEFAULT_TOL = 1e-8


def grid_points(box: Box, nx: int, ny: int) -> list[tuple[float, float]]:
    """Row-major sample grid over the box: the product of ``_grid_axes``, y outer."""
    xs, ys = _grid_axes(box, nx, ny)
    return [(x, y) for y in ys for x in xs]


def _grid_axes(box: Box, nx: int, ny: int) -> list[list[float]]:
    """The x and y values of the sample grid, endpoints inset by 1% of the
    box width so every point is strictly interior.  Raises ValueError for
    an axis of fewer than 2 points, and for a box whose inset endpoints
    round onto or past its edges, or are not finite."""
    if nx < 2 or ny < 2:
        raise ValueError(f"grid: both axes need at least 2 points, got {nx} x {ny}")
    x0, x1, y0, y1 = box
    axes = []
    for lo, hi, n in ((x0, x1, nx), (y0, y1, ny)):
        # The floats of an endpoint-inclusive linspace: a + i*step, then b exactly.
        m = 0.01 * (hi - lo)
        a, b = lo + m, hi - m
        step = (b - a) / (n - 1)
        axis = [a + i * step for i in range(n - 1)] + [b]
        if not (lo < axis[0] and axis[-1] < hi):
            raise ValueError(f"cannot sample strictly inside {box!r}")
        axes.append(axis)
    return axes


class AmbientForm(NamedTuple):
    """Diagonal bilinear form on 3-space, fixed by its signature."""

    signature: tuple[int, int, int]
    name: str

    def inner(self, v, w) -> float:
        s = self.signature
        return float(s[0] * v[0] * w[0] + s[1] * v[1] * w[1] + s[2] * v[2] * w[2])


EUCLIDEAN = AmbientForm((1, 1, 1), "euclidean")
MINKOWSKI = AmbientForm((-1, 1, 1), "minkowski")


_Part = Callable[[Jet2], tuple[Jet2, ...]]
_Mix = Callable[..., "tuple[Jet2, Jet2, Jet2] | Jet2"]
_Shape = tuple[Optional[_Part], Optional[_Part], _Mix, Box]


class SurfaceDef(NamedTuple):
    """A named immersion ``mix(*xpart(x), *ypart(y))`` (three jets, or a
    graph's height u) of seeded parameters, its parameter domain and its
    ambient form.  A part gives the jets that depend on its seed alone; a
    missing part is the seed alone, so ``mix`` then takes the seed itself."""

    name: str
    mix: _Mix
    domain: Box
    ambient: AmbientForm
    xpart: Optional[_Part] = None
    ypart: Optional[_Part] = None


def eval_surface(s: SurfaceDef, x: float, y: float) -> tuple[Jet2, Jet2, Jet2]:
    """The three coordinate jets of ``s`` at a point strictly inside its
    domain: the x part, the y part, then ``mix``, which must give three
    jets (read by ``_read_jets``), or a graph's u for (seed x, seed y, u).
    Index k is coordinate k: ``eval_surface(s, x, y)[0].dx`` is f_x's first."""
    if not s.domain.contains(x, y):
        raise DomainError(f"point ({x:g}, {y:g}) outside domain {s.domain.describe()} of surface '{s.name}'")
    sx, sy = seed_xy(x, y)
    f = s.mix(*(s.xpart(sx) if s.xpart else (sx,)), *(s.ypart(sy) if s.ypart else (sy,)))
    return (sx, sy, f) if type(f) is Jet2 else _read_jets(f)


def _read_jets(got) -> tuple[Jet2, Jet2, Jet2]:
    """A point's three coordinate jets, from any iterable of them read once
    into a tuple (an iterator's items stay for the message); anything else
    raises the ValueError of ``_not_jets``, or of unpacking 2 or 4 items."""
    if not hasattr(got, "__iter__"):  # one value, not a jet
        raise _not_jets(got)
    jets = tuple(got)
    cx, cy, cz = jets
    if type(cx) is not Jet2 or type(cy) is not Jet2 or type(cz) is not Jet2:
        raise _not_jets(jets)
    return jets


def _not_jets(got) -> ValueError:
    names = f"({', '.join(type(c).__name__ for c in got)})" if hasattr(got, "__iter__") else type(got).__name__
    return ValueError(f"mix must give three jets, or one for a graph, got {names}")


def _sweep(s: SurfaceDef, xs, ys, evaluate, record) -> list:
    """The one walk of a grid command over the axes ``xs`` and ``ys`` (from
    ``_grid_axes``, inside the box) of ``s``: for each y, for each x,
    ``evaluate(x, y, jets)`` with what ``mix`` returns there, an iterable
    other than a tuple or a graph's height read once into a tuple.  Each x
    part runs once before the first point, each y part at the start of its
    row, and ``mix`` at each point; a part's error propagates where it
    runs.  A point that raises SingularPointError becomes ``record(x, y,
    skipped=<the error's message>)``; other errors propagate."""
    xpart, ypart, mix = s.xpart, s.ypart, s.mix
    seeds = [_new(Jet2, (float(x), 1.0, 0.0, 0.0, 0.0, 0.0)) for x in xs]  # Jet2(x, 1.0), without a call
    line = list(zip(xs, map(xpart, seeds) if xpart else zip(seeds)))
    rows = []
    append = rows.append
    for y in ys:
        sy = _new(Jet2, (float(y), 0.0, 1.0, 0.0, 0.0, 0.0))  # Jet2(y, 0.0, 1.0), without a call
        b = ypart(sy) if ypart else (sy,)
        for x, a in line:
            try:
                f = mix(*a, *b)
                if type(f) is not tuple and type(f) is not Jet2 and hasattr(f, "__iter__"):
                    f = tuple(f)  # so that evaluate may read it twice
                append(evaluate(x, y, f))
            except SingularPointError as exc:
                append(record(x, y, skipped=str(exc)))
    return rows


# --------------------------------------------------------------------------
# Catalog


class _Entry(NamedTuple):
    """A catalog entry: ``shape(**params)`` is (xpart, ypart, mix, domain
    box), the fields of a :class:`SurfaceDef` bound to the parameters.  A
    part returns the jets that depend on its seed alone, or is None where
    the seed is all ``mix`` needs of it; a graph's ``mix`` gives u alone."""

    shape: Callable[..., _Shape]
    description: str
    defaults: dict = {}  # never mutated
    ambient: AmbientForm = EUCLIDEAN


def _square(s: Jet2) -> tuple[Jet2]:
    return (s * s,)


def _circle(theta: Jet2) -> tuple[Jet2, Jet2]:
    return jet.cos(theta), jet.sin(theta)


def _cap(r: float, mix: Callable) -> _Shape:
    """The parts and box of a Monge cap whose height ``mix`` takes from
    R^2 - x^2 and y^2."""
    rr = Jet2(r * r)
    half = 0.42 * r  # square inscribed in the disk x^2 + y^2 <= (0.6 R)^2
    return lambda x: (rr - x * x,), _square, mix, Box(-half, half, -half, half)


_CATALOG: dict[str, _Entry] = {
    "sphere-origin": _Entry(
        lambda R: _cap(R, lambda a, yy: jet.sqrt(a - yy)),
        "sphere of radius R centered at the origin (Monge cap)",
        {"R": 1.0},
    ),
    "sphere-translated": _Entry(
        lambda R, c: _cap(R, lambda a, yy: jet.sqrt(a - yy) + c),
        "sphere of radius R shifted by c along the third axis",
        {"R": 1.0, "c": 1.0},
    ),
    "titeica-xyz": _Entry(
        lambda: (None, None, lambda x, y: 1.0 / (x * y), Box(0.5, 2.0, 0.5, 2.0)),
        "graph of u = 1/(xy): the classical constant-ratio surface",
    ),
    "paraboloid": _Entry(
        lambda: (_square, _square, lambda xx, yy: xx + yy, Box(-1.0, 1.0, -1.0, 1.0)),
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
        lambda: (None, None, lambda x, y: Jet2(0.0), Box(-1.0, 1.0, -1.0, 1.0)),
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
    xpart, ypart, mix, box = entry.shape(**merged)
    return SurfaceDef(name, mix, box, entry.ambient, xpart, ypart)


def catalog_entries() -> list[tuple[str, str, dict]]:
    """(name, description, default parameters) for every catalog surface."""
    return [(n, _CATALOG[n].description, dict(_CATALOG[n].defaults)) for n in sorted(_CATALOG)]
