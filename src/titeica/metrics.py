"""Pullback checks between the constant-curvature metric models.

A metric is a row of ``_METRICS``: its components g11, g12, g22 as one
formula ``(a, b, m)`` in its coordinates and a module ``m`` of elementary
functions (a constant component is a plain real), and a description.
The pair check evaluates it with ``math`` on floats and the tests with
``titeica.jet`` on jets; a quotient is written ``a * (1.0 / b)``, the
value a jet quotient forms, so both give the same values.  A pair is
a row of ``_PAIRS``: a source metric and a target metric, each with the
box the pair samples or admits it on, and one or more labelled variants
of the coordinate change from the source's coordinates to the target's.
A change is written as a surface is (``surfaces.SurfaceDef``): one-axis
parts of seeded jets and a ``mix`` of them that gives the two target
coordinates.  :func:`check_pair` verifies numerically that pulling the
target back through each change reproduces the source; it sweeps each
change over the source box with ``surfaces._sweep``, the walk of the
other grid commands, and :func:`_pullback` at each point.

The disk <-> hyperboloid change ships in two variants, one mapping the
disk radius r to 2 atanh(r) and one mapping it to 2 atanh(r^2); both are
run by the pair check and the report records which variant actually
reproduces the disk metric rather than presuming it.
"""

import math
from typing import NamedTuple

from . import _NAMES, jet
from .errors import CatalogError, DomainError, GeometryError
from .jet import _new
from .surfaces import Box, SurfaceDef, _grid_axes, _sweep

__all__ = list(_NAMES["metrics"])


class AgreePoint(NamedTuple):
    x: float
    y: float
    diff_g11: float
    diff_g12: float
    diff_g22: float


def _pullback(target: str, target_box: Box, source: dict):
    """The per-point ``evaluate`` of a sweep of a coordinate change into
    ``target``: at (x, y), given the change's jets (u, v) there, the
    AgreePoint of the source components ``source[x, y]`` against J^T G J,
    with J the Jacobian read off the jets and G the target's formula on
    their values.  An image outside ``target_box`` raises DomainError; a
    singular Jacobian raises GeometryError, since no check can be made
    there."""
    formula = _METRICS[target][0]

    def pullback(x, y, uv):
        u, v = uv
        if not target_box.contains(u.val, v.val):
            raise DomainError(f"image ({u.val:g}, {v.val:g}) of ({x:g}, {y:g}) "
                              f"lies outside domain {target_box.describe()} of metric '{target}'")
        if abs(u.dx * v.dy - u.dy * v.dx) <= 1e-12:
            raise GeometryError(f"coordinate change into metric '{target}' has singular Jacobian at ({x:g}, {y:g})")
        g11, g12, g22 = formula(u.val, v.val, math)
        h11 = g11 * u.dx * u.dx + 2.0 * g12 * u.dx * v.dx + g22 * v.dx * v.dx
        h12 = g11 * u.dx * u.dy + g12 * (u.dx * v.dy + u.dy * v.dx) + g22 * v.dx * v.dy
        h22 = g11 * u.dy * u.dy + 2.0 * g12 * u.dy * v.dy + g22 * v.dy * v.dy
        r11, r12, r22 = source[x, y]
        return _new(AgreePoint, (x, y, abs(h11 - r11), abs(h12 - r12), abs(h22 - r22)))

    return pullback


def check_pair(name: str, grid: tuple[int, int], tol: float) -> tuple[tuple[str, tuple[AgreePoint, ...], float, bool], ...]:
    """Run every change variant of the named pair over an (nx, ny) grid on
    the pair's source box: one (label, points, max_diff, passed) tuple per
    variant, with the max componentwise difference between the source
    metric and the pullback of the target.  The source metric is evaluated
    once per point and shared by the variants.  Each variant is one
    ``surfaces._sweep`` of the change over the source box, with
    :func:`_pullback` at each point, so its parts run once per axis value
    and its errors propagate.  A difference that is not a number makes the
    variant's ``max_diff`` NaN and the variant fail."""
    entry = _PAIRS.get(name)
    if entry is None:
        raise CatalogError(f"unknown metric pair '{name}'; available: {', '.join(sorted(_PAIRS))}")
    source, source_box, target, target_box, changes = entry
    components = _METRICS[source][0]
    xs, ys = _grid_axes(source_box, *grid)
    pullback = _pullback(target, target_box, {(x, y): components(x, y, math) for y in ys for x in xs})
    variants = []
    for label, mix, *parts in changes:
        # A change has no ambient form, and nothing here raises SingularPointError.
        rows = _sweep(SurfaceDef(label, mix, source_box, None, *parts), xs, ys, pullback, None)
        _, _, *diffs = zip(*rows)
        worst = max(map(max, diffs))
        if math.isnan(sum(map(sum, diffs))):  # max() may pass over a NaN
            worst = math.nan
        variants.append((label, tuple(rows), worst, worst <= tol))
    return tuple(variants)


# --------------------------------------------------------------------------
# Catalog


def _pseudosphere_components(x1, x2, m):
    # sin^2(x2) dx1^2 + cot^2(x2) dx2^2
    s = m.sin(x2)
    cot = m.cos(x2) * (1.0 / s)
    return s * s, 0.0, cot * cot


def _half_plane_components(x, y, m):
    inv = 1.0 / (y * y)
    return inv, 0.0, inv


def _disk_components(y1, y2, m):
    # conformal factor 4/(1 - r^2)^2; the formula is regular and
    # positive-definite wherever r != 1, inside or outside the unit circle
    one_minus = 1.0 - (y1 * y1 + y2 * y2)
    lam = 4.0 * (1.0 / (one_minus * one_minus))
    return lam, 0.0, lam


def _minkowski_sphere_components(u1, u2, m):
    sh = m.sinh(u1)
    return 1.0, 0.0, sh * sh


_METRICS = {
    "pseudosphere": (_pseudosphere_components, "tractrix-of-revolution surface metric in angle coordinates"),
    "half-plane": (_half_plane_components, "Poincare upper half-plane"),
    "disk": (_disk_components, "Poincare disk (quadrant annulus box)"),
    "minkowski-sphere": (_minkowski_sphere_components, "metric induced on the unit Minkowski hyperboloid"),
}


def metric_entries() -> list[tuple[str, str]]:
    return [(n, _METRICS[n][1]) for n in sorted(_METRICS)]


def _to_disk(tx, xx, omxx, omy2, yy):
    # (2x, 1 - x^2 - y^2) / (x^2 + (1 - y)^2)
    denom = xx + omy2
    return tx / denom, (omxx - yy) / denom


def _squared(s: jet.Jet2) -> tuple[jet.Jet2, jet.Jet2]:
    return s, s * s


def _to_hyperboloid_radius(y1, y1s, y2, y2s):
    return 2.0 * jet.atanh(jet.sqrt(y1s + y2s)), jet.atan(y2 / y1)


def _to_hyperboloid_squared(y1, y1s, y2, y2s):
    return 2.0 * jet.atanh(y1s + y2s), jet.atan(y2 / y1)


# name -> (source, source box, target, target box, variants).  A variant is
# (label, mix, xpart, ypart), or (label, mix) where both parts are the
# seeds; a part gives the jets that depend on its seed alone, and a missing
# (None) part is the seed alone.
# A target box is just large enough to cover the image of the sampled
# source box.  The half-plane -> disk map sends the sampled strip to the
# exterior of the unit circle, where the disk formula is still regular and
# positive-definite, so the disk target for that pair lives on an exterior box.
_PAIRS = {
    "pseudosphere:half-plane": (
        "pseudosphere", Box(0.1, 3.0, 0.3, 1.2), "half-plane", Box(0.05, 3.05, 1.0, 3.5),
        (("standard", lambda x1, v: (x1, v), None, lambda x2: (1.0 / jet.sin(x2),)),),
    ),
    "half-plane:disk": (
        "half-plane", Box(-1.0, 1.0, 1.5, 3.0), "disk", Box(-2.1, 2.1, -5.3, -1.6),
        (("standard", _to_disk, lambda x: (2.0 * x, x * x, 1.0 - x * x),
          lambda y: ((1.0 - y) * (1.0 - y), y * y)),),
    ),
    "disk:minkowski-sphere": (
        "disk", Box(0.15, 0.55, 0.15, 0.55), "minkowski-sphere", Box(0.05, 2.2, 0.1, 1.5),
        (("radius", _to_hyperboloid_radius, _squared, _squared),
         ("squared-radius", _to_hyperboloid_squared, _squared, _squared)),
    ),
}


def pair_names() -> list[str]:
    return sorted(_PAIRS)
