"""Pullback checks between the constant-curvature metric models.

A metric is a row of ``_METRICS``: its components g11, g12, g22 as a
jet-evaluable function of the coordinates, and a description.  A pair is
a row of ``_PAIRS``: a source metric and a target metric, each with the
box the pair samples or admits it on, and one or more labelled variants
of the coordinate change from the source's coordinates to the target's.
:func:`check_pair` verifies numerically that pulling the target back
through each change reproduces the source.

The disk <-> hyperboloid change ships in two variants, one mapping the
disk radius r to 2 atanh(r) and one mapping it to 2 atanh(r^2); both are
run by the pair check and the report records which variant actually
reproduces the disk metric rather than presuming it.
"""

import math
from typing import NamedTuple

from . import _NAMES, jet
from .errors import CatalogError, DomainError, SingularPointError
from .jet import Jet2, _new, seed_xy
from .surfaces import Box, grid_points

__all__ = list(_NAMES["metrics"])


class AgreePoint(NamedTuple):
    x: float
    y: float
    diff_g11: float
    diff_g12: float
    diff_g22: float


def _pullback(target: str, target_box: Box, mapping, x: float, y: float) -> tuple[float, float, float]:
    """Components at (x, y) of the metric induced from ``target`` through
    the coordinate change: J^T G(phi(p)) J, with J the Jacobian of phi
    read off its jets."""
    u, v = mapping(*seed_xy(x, y))
    if not target_box.contains(u.val, v.val):
        raise DomainError(
            f"image ({u.val:g}, {v.val:g}) of ({x:g}, {y:g}) "
            f"lies outside domain {target_box.describe()} of metric '{target}'"
        )
    jdet = u.dx * v.dy - u.dy * v.dx
    if abs(jdet) <= 1e-12:
        raise SingularPointError(
            f"coordinate change into metric '{target}' has singular Jacobian at ({x:g}, {y:g})"
        )
    e, f, g = _METRICS[target][0](Jet2(u.val), Jet2(v.val))
    g11, g12, g22 = e.val, f.val, g.val
    h11 = g11 * u.dx * u.dx + 2.0 * g12 * u.dx * v.dx + g22 * v.dx * v.dx
    h12 = g11 * u.dx * u.dy + g12 * (u.dx * v.dy + u.dy * v.dx) + g22 * v.dx * v.dy
    h22 = g11 * u.dy * u.dy + 2.0 * g12 * u.dy * v.dy + g22 * v.dy * v.dy
    return h11, h12, h22


def check_pair(name: str, grid: tuple[int, int], tol: float) -> tuple[tuple[str, tuple[AgreePoint, ...], float, bool], ...]:
    """Run every change variant of the named pair over an (nx, ny) grid on
    the pair's source box: one (label, points, max_diff, passed) tuple per
    variant, with the max componentwise difference between the source
    metric and the pullback of the target.  The source metric is evaluated
    once per point and shared by the variants.  A difference that is not a
    number makes the variant's ``max_diff`` NaN and the variant fail."""
    entry = _PAIRS.get(name)
    if entry is None:
        raise CatalogError(f"unknown metric pair '{name}'; available: {', '.join(sorted(_PAIRS))}")
    source, source_box, target, target_box, changes = entry
    components = _METRICS[source][0]
    samples = []
    for x, y in grid_points(source_box, *grid):
        g11, g12, g22 = components(Jet2(x), Jet2(y))
        samples.append((x, y, g11.val, g12.val, g22.val))
    variants = []
    for label, mapping in changes:
        rows = []
        worst = 0.0
        for x, y, r11, r12, r22 in samples:
            c11, c12, c22 = _pullback(target, target_box, mapping, x, y)
            d11, d12, d22 = abs(c11 - r11), abs(c12 - r12), abs(c22 - r22)
            # max() never picks a NaN, but keeps one it starts from
            worst = max(worst, d11, d12, d22)
            if math.isnan(d11 + d12 + d22):
                worst = math.nan
            rows.append(_new(AgreePoint, (x, y, d11, d12, d22)))
        variants.append((label, tuple(rows), worst, worst <= tol))
    return tuple(variants)


# --------------------------------------------------------------------------
# Catalog


def _pseudosphere_components(x1: Jet2, x2: Jet2):
    # sin^2(x2) dx1^2 + cot^2(x2) dx2^2
    s = jet.sin(x2)
    c = jet.cos(x2)
    cot = c / s
    return s * s, Jet2(0.0), cot * cot


def _half_plane_components(x: Jet2, y: Jet2):
    inv = 1.0 / (y * y)
    return inv, Jet2(0.0), inv


def _disk_components(y1: Jet2, y2: Jet2):
    # conformal factor 4/(1 - r^2)^2; the formula is regular and
    # positive-definite wherever r != 1, inside or outside the unit circle
    one_minus = 1.0 - (y1 * y1 + y2 * y2)
    lam = 4.0 / (one_minus * one_minus)
    return lam, Jet2(0.0), lam


def _minkowski_sphere_components(u1: Jet2, u2: Jet2):
    sh = jet.sinh(u1)
    return Jet2(1.0), Jet2(0.0), sh * sh


_METRICS = {
    "pseudosphere": (_pseudosphere_components, "tractrix-of-revolution surface metric in angle coordinates"),
    "half-plane": (_half_plane_components, "Poincare upper half-plane"),
    "disk": (_disk_components, "Poincare disk (quadrant annulus box)"),
    "minkowski-sphere": (_minkowski_sphere_components, "metric induced on the unit Minkowski hyperboloid"),
}


def metric_entries() -> list[tuple[str, str]]:
    return [(n, _METRICS[n][1]) for n in sorted(_METRICS)]


def _to_half_plane(x1: Jet2, x2: Jet2):
    return x1, 1.0 / jet.sin(x2)


def _to_disk(x: Jet2, y: Jet2):
    denom = x * x + (1.0 - y) * (1.0 - y)
    return (2.0 * x) / denom, (1.0 - x * x - y * y) / denom


def _to_hyperboloid_radius(y1: Jet2, y2: Jet2):
    r = jet.sqrt(y1 * y1 + y2 * y2)
    return 2.0 * jet.atanh(r), jet.atan(y2 / y1)


def _to_hyperboloid_squared(y1: Jet2, y2: Jet2):
    return 2.0 * jet.atanh(y1 * y1 + y2 * y2), jet.atan(y2 / y1)


# name -> (source, source box, target, target box, (label, change) variants).
# A target box is just large enough to cover the image of the sampled
# source box.  The half-plane -> disk map sends the sampled strip to the
# exterior of the unit circle, where the disk formula is still regular and
# positive-definite, so the disk target for that pair lives on an exterior box.
_PAIRS = {
    "pseudosphere:half-plane": (
        "pseudosphere", Box(0.1, 3.0, 0.3, 1.2), "half-plane", Box(0.05, 3.05, 1.0, 3.5),
        (("standard", _to_half_plane),),
    ),
    "half-plane:disk": (
        "half-plane", Box(-1.0, 1.0, 1.5, 3.0), "disk", Box(-2.1, 2.1, -5.3, -1.6),
        (("standard", _to_disk),),
    ),
    "disk:minkowski-sphere": (
        "disk", Box(0.15, 0.55, 0.15, 0.55), "minkowski-sphere", Box(0.05, 2.2, 0.1, 1.5),
        (("radius", _to_hyperboloid_radius), ("squared-radius", _to_hyperboloid_squared)),
    ),
}


def pair_names() -> list[str]:
    return sorted(_PAIRS)
