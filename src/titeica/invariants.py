"""Pointwise surface invariants under a chosen ambient bilinear form.

Everything here comes from one pass over a :class:`SurfaceJet`.  Let
S = diag(signature) be the ambient form, <v, w> = v^T S w, and
c = f_x x f_y the Euclidean cross product of the tangent rows.  The pass
computes

* the first fundamental form E, F, G = <f_x, f_x>, <f_x, f_y>, <f_y, f_y>
  and its determinant EG - F^2,
* nn = c^T S c,
* the four oriented volumes Vx, Vy, Vxy, V = det(row; f_x; f_y) for
  row = f_xx, f_yy, f_xy and the position f, each as the dot product
  row . c,

and derives from them

* L, M, N = (Vx, Vxy, Vy) / sqrt(|nn|),
* K = sign(nn) (LN - M^2) / (EG - F^2),
* d = |V| / sqrt(|nn|), the distance from the origin to the affine
  tangent plane,
* the ratio K/d^4.

The normal is n = S c: it is ambient-orthogonal to the tangent plane for
both signatures, <n, n> = nn and <row, n> = row . c because S^2 = I.
Normalizing by sqrt(|nn|) and carrying sign(nn) into K reproduces the
classical values on the unit Minkowski hyperboloid (K = -1, d = 1).

Since EG - F^2 = det(S) nn, substituting gives the pure oriented-volume
route K/d^4 = det(S) (Vx Vy - Vxy^2) / V^4, with det(S) = +1 for the
Euclidean and -1 for the Minkowski form; :func:`identity_residual`
measures the gap between the two routes.

A point is singular when |EG - F^2|, then |nn|, then d is at most
EPS_SINGULAR, or when EG - F^2 or nn is not finite (an overflowing
normal would otherwise read as d = 0); the first failing test names the
error raised.  So is a point whose K, d or K/d^4 is not finite (d^4
beyond float range counts as not finite), or whose K/d^4 underflows: K
is not 0 but |K/d^4| is below the smallest normal float.

The grid commands (:func:`scan_grid`, :func:`classify` and
``centroaffine.verify_scaling``) walk their points through one sweep,
``_sweep``: a point that raises one of the singularity errors in ``_SKIP``
is recorded as skipped with its message, and any other error propagates.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

from .errors import GeometryError, InconclusiveError, RegularityError, SignatureError, SingularPointError
from .surfaces import EUCLIDEAN, AmbientForm, SurfaceDef, SurfaceJet, eval_surface, grid_points

__all__ = [
    "EPS_SINGULAR",
    "ClassifyVerdict",
    "FundamentalForms",
    "OrientedVolumes",
    "PointRecord",
    "fundamental_forms",
    "gaussian_curvature",
    "tangent_distance",
    "oriented_volumes",
    "titeica_ratio",
    "identity_residual",
    "scan_grid",
    "classify",
]

# Threshold on |V|, d and EG - F^2 below which a point is treated as
# singular and must be skipped (never silently dropped) by callers.
EPS_SINGULAR = 1e-9

DEFAULT_GRID = (20, 20)
DEFAULT_TOL = 1e-8

_SKIP = (SingularPointError, RegularityError, SignatureError)

# Builds a per-point record without the argument binding of its generated
# __new__; every field is given, in order.
_new = tuple.__new__


class FundamentalForms(NamedTuple):
    E: float
    F: float
    G: float
    L: float
    M: float
    N: float


class OrientedVolumes(NamedTuple):
    Vx: float
    Vy: float
    Vxy: float
    V: float


class _Core(NamedTuple):
    """What one pass yields at a point.  On a degenerate frame ``fault``
    holds the error to raise and the derived fields are None."""

    vols: OrientedVolumes
    fault: Optional[GeometryError]
    forms: Optional[FundamentalForms] = None
    K: Optional[float] = None
    d: Optional[float] = None

    def regular(self) -> "_Core":
        if self.fault is not None:
            raise self.fault
        return self

    def ratio(self) -> float:
        k, d = self.regular().K, self.d
        if d <= EPS_SINGULAR:
            raise SingularPointError(f"tangent plane passes through the origin (d = {d:g})")
        try:
            ratio = k / d**4
        except OverflowError:
            ratio = math.nan
        if not (math.isfinite(k) and math.isfinite(d) and math.isfinite(ratio)):
            raise SingularPointError(f"non-finite K/d^4 (K = {k:g}, d = {d:g})")
        if k != 0.0 and abs(ratio) < sys.float_info.min:
            raise SingularPointError(f"K/d^4 underflows (K = {k:g}, d = {d:g})")
        return ratio


def _dot(r, c) -> float:
    return r[0] * c[0] + r[1] * c[1] + r[2] * c[2]


def _core(sj: SurfaceJet, amb: AmbientForm) -> _Core:
    """The single pass over a point; never raises."""
    (x0, x1, x2), (y0, y1, y2) = sj.f_x, sj.f_y
    # AmbientForm.inner, spelled out with the same operand order.
    s0, s1, s2 = amb.signature
    e = float(s0 * x0 * x0 + s1 * x1 * x1 + s2 * x2 * x2)
    f = float(s0 * x0 * y0 + s1 * x1 * y1 + s2 * x2 * y2)
    g = float(s0 * y0 * y0 + s1 * y1 * y1 + s2 * y2 * y2)
    # numpy.cross operand order: tests/frame_reference.py holds every
    # derived float bitwise to the frame built with it.
    c = (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0)
    vols = _new(OrientedVolumes, (_dot(sj.f_xx, c), _dot(sj.f_yy, c), _dot(sj.f_xy, c), _dot(sj.f, c)))
    disc = e * g - f * f
    if abs(disc) <= EPS_SINGULAR:
        return _Core(vols, RegularityError(f"degenerate tangent plane (EG - F^2 = {disc:g})"))
    if not math.isfinite(disc):
        return _Core(vols, SingularPointError(f"non-finite EG - F^2 = {disc:g}"))
    c0, c1, c2 = c
    nn = float(s0 * c0 * c0 + s1 * c1 * c1 + s2 * c2 * c2)
    if abs(nn) <= EPS_SINGULAR:
        return _Core(vols, SignatureError(f"normal vector is null under the {amb.name} form"))
    if not math.isfinite(nn):
        return _Core(vols, SingularPointError(f"non-finite normal (<n, n> = {nn:g})"))
    scale = 1.0 / math.sqrt(abs(nn))
    forms = _new(FundamentalForms, (e, f, g, vols.Vx * scale, vols.Vxy * scale, vols.Vy * scale))
    sign = 1.0 if nn > 0.0 else -1.0
    k = sign * (forms.L * forms.N - forms.M * forms.M) / disc
    d = abs(vols.V) / math.sqrt(abs(nn))
    return _new(_Core, (vols, None, forms, k, d))


def fundamental_forms(sj: SurfaceJet, amb: AmbientForm) -> FundamentalForms:
    return _core(sj, amb).regular().forms


def gaussian_curvature(sj: SurfaceJet, amb: AmbientForm) -> float:
    """K = sign(<n,n>) (LN - M^2) / (EG - F^2)."""
    return _core(sj, amb).regular().K


def tangent_distance(sj: SurfaceJet, amb: AmbientForm) -> float:
    """Distance from the origin to the affine tangent plane,
    |<f, n>| / sqrt(|<n, n>|)."""
    return _core(sj, amb).regular().d


def oriented_volumes(sj: SurfaceJet) -> OrientedVolumes:
    """Signed volumes of the parallelepipeds spanned by (row; f_x; f_y)
    with row = f_xx, f_yy, f_xy and the position f."""
    return _core(sj, EUCLIDEAN).vols


def titeica_ratio(sj: SurfaceJet, amb: AmbientForm) -> float:
    """The ratio K/d^4 via curvature and tangent distance."""
    return _core(sj, amb).ratio()


def identity_residual(sj: SurfaceJet, amb: AmbientForm = EUCLIDEAN) -> float:
    """|K/d^4 - det(S) (Vx Vy - Vxy^2)/V^4| with the left side from the
    curvature route and the right side from the volumes alone.  On
    regular points this stays below 1e-9 * max(1, |ratio|)."""
    p = _core(sj, amb)
    v = p.vols
    if abs(v.V) <= EPS_SINGULAR:
        raise SingularPointError(f"position volume vanishes (V = {v.V:g})")
    s0, s1, s2 = amb.signature
    return abs(p.ratio() - s0 * s1 * s2 * (v.Vx * v.Vy - v.Vxy**2) / v.V**4)


# --------------------------------------------------------------------------
# Grid sweeps


def _sweep(points, evaluate, record) -> list:
    """``evaluate(x, y)`` at each point, in order; a point that raises one
    of ``_SKIP`` becomes ``record(x, y, skipped=<the error's message>)``."""
    rows = []
    for x, y in points:
        try:
            rows.append(evaluate(x, y))
        except _SKIP as exc:
            rows.append(record(x, y, skipped=str(exc)))
    return rows


class PointRecord(NamedTuple):
    x: float
    y: float
    K: Optional[float] = None
    d: Optional[float] = None
    ratio: Optional[float] = None
    skipped: Optional[str] = None


class ClassifyVerdict(NamedTuple):
    """The fields before ``points`` are the classify summary, in its order."""

    surface: str
    is_titeica: bool
    ratio_constant: float
    spread: float
    points_evaluated: int
    points_skipped: int
    tolerance: float
    points: tuple[PointRecord, ...]


def scan_grid(s: SurfaceDef, grid: tuple[int, int] = DEFAULT_GRID) -> list[PointRecord]:
    """Evaluate K, d and K/d^4 over the surface's domain grid, recording
    singular points as skipped with their reason."""

    amb = s.ambient

    def evaluate(x, y):
        p = _core(eval_surface(s, x, y), amb)
        return _new(PointRecord, (x, y, p.K, p.d, p.ratio(), None))

    return _sweep(grid_points(s.domain, *grid), evaluate, PointRecord)


def classify(
    s: SurfaceDef,
    grid: tuple[int, int] = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
) -> ClassifyVerdict:
    """Decide whether K/d^4 is constant over the grid.

    The verdict compares the relative spread around the median ratio with
    tol.  If more than 25% of the grid is singular the verdict is
    withheld via :class:`InconclusiveError`.
    """
    records = scan_grid(s, grid)
    ratios = sorted(r.ratio for r in records if r.skipped is None)
    n, total = len(ratios), len(records)
    skipped = total - n
    if skipped > 0.25 * total:
        raise InconclusiveError(
            f"{skipped}/{total} grid points of '{s.name}' were singular; verdict withheld"
        )
    # Spread relative to the median ratio, so the verdict does not change
    # when the ratio is rescaled (a centro-affine map scales it by 1/det^2).
    # A zero median has spread 0 if every ratio is 0 and inf otherwise.
    # The median is statistics.median's midpoint, float for float.
    median = ratios[n // 2] if n % 2 else (ratios[n // 2 - 1] + ratios[n // 2]) / 2
    deviation = max(abs(r - median) for r in ratios)
    spread = deviation / abs(median) if median else (math.inf if deviation else 0.0)
    return ClassifyVerdict(s.name, spread <= tol, median, spread, n, skipped, tol, tuple(records))
