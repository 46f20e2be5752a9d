"""Two-dimensional metrics, intrinsic curvature and pullback checks.

A :class:`Metric2` stores its components g11, g12, g22 as jet-evaluable
functions of the coordinates, so the Brioschi curvature formula can pull
first and second derivatives of the components straight out of the
autodiff core -- no numerical differentiation happens here.

The catalog carries the constant-curvature models (pseudosphere surface
metric, Poincare half-plane and disk, the metric induced on the unit
Minkowski hyperboloid) plus the coordinate changes linking them, and
:func:`check_pair` verifies numerically that pulling one metric back
through the change reproduces the other.

The disk <-> hyperboloid change ships in two variants, one mapping the
disk radius r to 2 atanh(r) and one mapping it to 2 atanh(r^2); both are
run by the pair check and the report records which variant actually
reproduces the disk metric rather than presuming it.
"""

import math
from typing import Callable, NamedTuple, Optional

from . import _NAMES, jet
from .errors import CatalogError, DomainError, SingularPointError
from .jet import Jet2, constant, seed_xy
from .surfaces import Box, det3, grid_points

__all__ = list(_NAMES["metrics"])

_new = tuple.__new__

Components = Callable[[Jet2, Jet2], tuple[Jet2, Jet2, Jet2]]
Mapping2 = Callable[[Jet2, Jet2], tuple[Jet2, Jet2]]


class Metric2(NamedTuple):
    """Riemannian metric on a rectangular coordinate box."""

    name: str
    components: Components
    domain: Box


class MetricPair(NamedTuple):
    """A claimed pullback equality: source = change* target.

    ``changes`` holds one or more labelled variants of the coordinate
    change, each a jet-evaluable mapping (x, y) -> (u, v) from the
    source's coordinates to the target's; the pair check runs all of them
    and reports which match.
    """

    name: str
    source: Metric2
    target: Metric2
    changes: tuple[tuple[str, Mapping2], ...]


def metric_values(m: Metric2, p: tuple[float, float]) -> tuple[float, float, float]:
    """Component values of the metric at a point of its domain."""
    x, y = p
    m.domain.require(x, y, "metric", m.name)
    g11, g12, g22 = m.components(constant(x), constant(y))
    return g11.val, g12.val, g22.val


def brioschi_curvature(m: Metric2, p: tuple[float, float]) -> float:
    """Intrinsic Gaussian curvature from the metric components alone.

    Uses the Brioschi determinant formula, which needs only the
    components and their first and second coordinate derivatives; those
    come from evaluating the components on coordinate seeds.
    """
    x, y = p
    m.domain.require(x, y, "metric", m.name)
    e, f, g = m.components(*seed_xy(x, y))
    disc = e.val * g.val - f.val * f.val
    if e.val <= 0.0 or disc <= 0.0:
        raise SingularPointError(f"metric '{m.name}' is not positive-definite at ({x:g}, {y:g})")
    m1 = (
        (-0.5 * e.dyy + f.dxy - 0.5 * g.dxx, 0.5 * e.dx, f.dx - 0.5 * e.dy),
        (f.dy - 0.5 * g.dx, e.val, f.val),
        (0.5 * g.dy, f.val, g.val),
    )
    m2 = (
        (0.0, 0.5 * e.dy, 0.5 * g.dx),
        (0.5 * e.dy, e.val, f.val),
        (0.5 * g.dx, f.val, g.val),
    )
    return (det3(*m1) - det3(*m2)) / (disc * disc)


def pullback(m: Metric2, mapping: Mapping2, p: tuple[float, float]) -> tuple[float, float, float]:
    """Components at p of the metric induced through the coordinate
    change: J^T G(phi(p)) J, with J the Jacobian of phi read off its jets."""
    x, y = p
    u, v = mapping(*seed_xy(x, y))
    if not m.domain.contains(u.val, v.val):
        raise DomainError(
            f"image ({u.val:g}, {v.val:g}) of ({x:g}, {y:g}) "
            f"lies outside domain {m.domain.describe()} of metric '{m.name}'"
        )
    jdet = u.dx * v.dy - u.dy * v.dx
    if abs(jdet) <= 1e-12:
        raise SingularPointError(
            f"coordinate change into metric '{m.name}' has singular Jacobian at ({x:g}, {y:g})"
        )
    e, f, g = m.components(constant(u.val), constant(v.val))
    g11, g12, g22 = e.val, f.val, g.val
    h11 = g11 * u.dx * u.dx + 2.0 * g12 * u.dx * v.dx + g22 * v.dx * v.dx
    h12 = g11 * u.dx * u.dy + g12 * (u.dx * v.dy + u.dy * v.dx) + g22 * v.dx * v.dy
    h22 = g11 * u.dy * u.dy + 2.0 * g12 * u.dy * v.dy + g22 * v.dy * v.dy
    return h11, h12, h22


class AgreePoint(NamedTuple):
    x: float
    y: float
    diff_g11: float
    diff_g12: float
    diff_g22: float


class AgreeReport(NamedTuple):
    points: tuple[AgreePoint, ...]
    max_diff: float
    passed: bool


def check_pair(pair: MetricPair, nx: int, ny: int, tol: float) -> tuple[tuple[str, AgreeReport], ...]:
    """Run every change variant of the pair over an nx x ny grid on the
    source metric's domain: one (label, report) pair per variant, with the
    max componentwise difference between the source metric and the
    pullback of the target.  The source metric is evaluated once per
    point and shared by the variants.  A difference that is not a number
    makes the variant's ``max_diff`` NaN and the variant fail."""
    samples = [(p, metric_values(pair.source, p)) for p in grid_points(pair.source.domain, nx, ny)]
    variants = []
    for label, mapping in pair.changes:
        rows = []
        worst = 0.0
        for p, (r11, r12, r22) in samples:
            c11, c12, c22 = pullback(pair.target, mapping, p)
            d11, d12, d22 = abs(c11 - r11), abs(c12 - r12), abs(c22 - r22)
            # max() never picks a NaN, but keeps one it starts from
            worst = max(worst, d11, d12, d22)
            if math.isnan(d11 + d12 + d22):
                worst = math.nan
            rows.append(_new(AgreePoint, (p[0], p[1], d11, d12, d22)))
        variants.append((label, AgreeReport(tuple(rows), worst, worst <= tol)))
    return tuple(variants)


# --------------------------------------------------------------------------
# Catalog


def _pseudosphere_components(x1: Jet2, x2: Jet2):
    # sin^2(x2) dx1^2 + cot^2(x2) dx2^2
    s = jet.sin(x2)
    c = jet.cos(x2)
    cot = c / s
    return s * s, constant(0.0), cot * cot


def _half_plane_components(x: Jet2, y: Jet2):
    inv = 1.0 / (y * y)
    return inv, constant(0.0), inv


def _disk_components(y1: Jet2, y2: Jet2):
    # conformal factor 4/(1 - r^2)^2; the formula is regular and
    # positive-definite wherever r != 1, inside or outside the unit circle
    one_minus = 1.0 - (y1 * y1 + y2 * y2)
    lam = 4.0 / (one_minus * one_minus)
    return lam, constant(0.0), lam


def _minkowski_sphere_components(u1: Jet2, u2: Jet2):
    sh = jet.sinh(u1)
    return constant(1.0), constant(0.0), sh * sh


_METRICS: dict[str, tuple[Components, Box, str]] = {
    "pseudosphere": (
        _pseudosphere_components,
        Box(0.1, 3.0, 0.3, 1.2),
        "tractrix-of-revolution surface metric in angle coordinates",
    ),
    "half-plane": (_half_plane_components, Box(-1.0, 1.0, 0.5, 3.0), "Poincare upper half-plane"),
    "disk": (_disk_components, Box(0.15, 0.55, 0.15, 0.55), "Poincare disk (quadrant annulus box)"),
    "minkowski-sphere": (
        _minkowski_sphere_components,
        Box(0.3, 2.0, 0.1, 3.0),
        "metric induced on the unit Minkowski hyperboloid",
    ),
}


def metric(name: str, domain: Optional[Box] = None) -> Metric2:
    """Named catalog metric, optionally re-boxed for a specific check."""
    entry = _METRICS.get(name)
    if entry is None:
        raise CatalogError(f"unknown metric '{name}'; available: {', '.join(sorted(_METRICS))}")
    components, box, _ = entry
    return Metric2(name, components, domain or box)


def metric_entries() -> list[tuple[str, str]]:
    return [(n, _METRICS[n][2]) for n in sorted(_METRICS)]


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


# Target boxes are enlarged just enough to cover the image of the sampled
# source box.  The half-plane -> disk map sends the sampled strip to the
# exterior of the unit circle, where the disk formula is still regular and
# positive-definite, so the disk target for that pair lives on an exterior box.
_PAIRS: dict[str, MetricPair] = {pair.name: pair for pair in (
    MetricPair(
        "pseudosphere:half-plane",
        metric("pseudosphere"),
        metric("half-plane", Box(0.05, 3.05, 1.0, 3.5)),
        (("standard", _to_half_plane),),
    ),
    MetricPair(
        "half-plane:disk",
        metric("half-plane", Box(-1.0, 1.0, 1.5, 3.0)),
        metric("disk", Box(-2.1, 2.1, -5.3, -1.6)),
        (("standard", _to_disk),),
    ),
    MetricPair(
        "disk:minkowski-sphere",
        metric("disk"),
        metric("minkowski-sphere", Box(0.05, 2.2, 0.1, 1.5)),
        (("radius", _to_hyperboloid_radius), ("squared-radius", _to_hyperboloid_squared)),
    ),
)}


def metric_pair(name: str) -> MetricPair:
    pair = _PAIRS.get(name)
    if pair is None:
        raise CatalogError(f"unknown metric pair '{name}'; available: {', '.join(sorted(_PAIRS))}")
    return pair


def pair_names() -> list[str]:
    return sorted(_PAIRS)
