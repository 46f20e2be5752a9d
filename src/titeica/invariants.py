"""Pointwise surface invariants under a chosen ambient bilinear form.

Everything here comes from one pass over a :class:`SurfaceJet`, in the
paper's representation.  Let S = diag(signature) be the ambient form,
<v, w> = v^T S w, and c = f_x x f_y the Euclidean cross product of the
tangent rows.  The pass computes

* the four oriented volumes Vx, Vy, Vxy, V = det(row; f_x; f_y) for
  row = f_xx, f_yy, f_xy and the position f, each as row . c,
* nn = c^T S c and num = det(S) (Vx Vy - Vxy^2), with det(S) = +1 for
  the Euclidean and -1 for the Minkowski form,

and derives K = num / nn^2, the distance d = |V| / sqrt(|nn|) from the
origin to the affine tangent plane, and the ratio K/d^4 = num / V^4.

The normal is n = S c: it is ambient-orthogonal to the tangent plane for
both signatures, <n, n> = nn and <row, n> = row . c because S^2 = I.
Two identities remove the first fundamental form.  Lagrange's identity
gives EG - F^2 = det(S) nn; with L, M, N = (Vx, Vxy, Vy) / sqrt(|nn|),
LN - M^2 = (Vx Vy - Vxy^2) / |nn|.  So the classical
K = sign(nn) (LN - M^2) / (EG - F^2) is num / nn^2, and carrying sign(nn)
reproduces K = -1, d = 1 on the unit Minkowski hyperboloid.  E, F and G
appear only in :func:`fundamental_forms`, and EG - F^2 only in
:func:`identity_residual`, which measures the classical route against
the pass.

A point is singular when |c|^2 (EG - F^2 for the Euclidean form) is at
most EPS_SINGULAR, when nn is not finite (an overflowing normal would
otherwise read as d = 0), or when |nn|, then d, is at most EPS_SINGULAR;
the pass raises at the first failing test.  So is a point whose K, d or
K/d^4 is not finite, or whose K/d^4 underflows: num is not 0 but |K/d^4|
is below the smallest normal float.  Where V^4 is beyond float range the
quotient is taken as num / V^2 / V^2.

The grid commands (:func:`scan_grid`, :func:`classify` and
``centroaffine.verify_scaling``) walk their points through one sweep,
``_sweep``: a point that raises one of the singularity errors in ``_SKIP``
is recorded as skipped with its message, and any other error propagates.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

from .errors import InconclusiveError, RegularityError, SignatureError, SingularPointError
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

# Threshold on |f_x x f_y|^2, |<n, n>| and d below which a point is treated as
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
    """What one pass yields at a regular point."""

    vols: OrientedVolumes
    nn: float
    num: float
    K: float
    d: float

    def ratio(self) -> float:
        k, d = self.K, self.d
        if d <= EPS_SINGULAR:
            raise SingularPointError(f"tangent plane passes through the origin (d = {d:g})")
        v = self.vols.V
        try:  # |nn| and d above EPS_SINGULAR keep V^4 above 1e-55
            ratio = self.num / v**4
        except OverflowError:
            ratio = self.num / (v * v) / (v * v)
        if not (math.isfinite(k) and math.isfinite(d) and math.isfinite(ratio)):
            raise SingularPointError(f"non-finite K/d^4 (K = {k:g}, d = {d:g})")
        if self.num != 0.0 and abs(ratio) < sys.float_info.min:
            raise SingularPointError(f"K/d^4 underflows (K = {k:g}, d = {d:g})")
        return ratio


def _dot(r, c) -> float:
    return r[0] * c[0] + r[1] * c[1] + r[2] * c[2]


def _cross(a, b) -> tuple[float, float, float]:
    # numpy.cross operand order: tests/frame_reference.py holds the volumes
    # and d bitwise to the frame built with it.
    (a0, a1, a2), (b0, b1, b2) = a, b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def det3(r0, r1, r2) -> float:
    """Determinant of the 3x3 matrix with rows r0, r1, r2, as r0 . (r1 x r2)."""
    return _dot(r0, _cross(r1, r2))


def _volumes(sj: SurfaceJet):
    """c = f_x x f_y and the four oriented volumes row . c."""
    c = _cross(sj.f_x, sj.f_y)
    return c, _new(OrientedVolumes, (_dot(sj.f_xx, c), _dot(sj.f_yy, c), _dot(sj.f_xy, c), _dot(sj.f, c)))


def _core(sj: SurfaceJet, amb: AmbientForm) -> _Core:
    """The single pass over a point; raises where a singularity test fails."""
    c, vols = _volumes(sj)
    cc = _dot(c, c)
    if cc <= EPS_SINGULAR:
        raise RegularityError(f"degenerate tangent plane (|f_x x f_y|^2 = {cc:g})")
    nn = amb.inner(c, c)
    if not math.isfinite(nn):
        raise SingularPointError(f"non-finite normal (<n, n> = {nn:g})")
    if abs(nn) <= EPS_SINGULAR:
        raise SignatureError(f"normal vector is null under the {amb.name} form")
    vx, vy, vxy, v = vols
    s0, s1, s2 = amb.signature
    num = s0 * s1 * s2 * (vx * vy - vxy * vxy)
    return _new(_Core, (vols, nn, num, num / (nn * nn), abs(v) / math.sqrt(abs(nn))))


def _forms(sj: SurfaceJet, amb: AmbientForm, p: _Core) -> FundamentalForms:
    scale = 1.0 / math.sqrt(abs(p.nn))
    fx, fy, v = sj.f_x, sj.f_y, p.vols
    return FundamentalForms(amb.inner(fx, fx), amb.inner(fx, fy), amb.inner(fy, fy),
                            v.Vx * scale, v.Vxy * scale, v.Vy * scale)


def fundamental_forms(sj: SurfaceJet, amb: AmbientForm) -> FundamentalForms:
    """E, F, G = <f_x, f_x>, <f_x, f_y>, <f_y, f_y> and L, M, N =
    (Vx, Vxy, Vy) / sqrt(|nn|) from the pass."""
    return _forms(sj, amb, _core(sj, amb))


def gaussian_curvature(sj: SurfaceJet, amb: AmbientForm) -> float:
    """K = det(S) (Vx Vy - Vxy^2) / <n, n>^2, which is
    sign(<n,n>) (LN - M^2) / (EG - F^2)."""
    return _core(sj, amb).K


def tangent_distance(sj: SurfaceJet, amb: AmbientForm) -> float:
    """Distance from the origin to the affine tangent plane,
    |<f, n>| / sqrt(|<n, n>|)."""
    return _core(sj, amb).d


def oriented_volumes(sj: SurfaceJet) -> OrientedVolumes:
    """Signed volumes of the parallelepipeds spanned by (row; f_x; f_y)
    with row = f_xx, f_yy, f_xy and the position f."""
    return _volumes(sj)[1]


def titeica_ratio(sj: SurfaceJet, amb: AmbientForm) -> float:
    """The ratio K/d^4 = det(S) (Vx Vy - Vxy^2) / V^4."""
    return _core(sj, amb).ratio()


def identity_residual(sj: SurfaceJet, amb: AmbientForm = EUCLIDEAN) -> float:
    """|sign(<n,n>) (LN - M^2) / (EG - F^2) / d^4 - K/d^4|, the classical
    curvature route through the forms of :func:`fundamental_forms`
    against the ratio, both from one pass.  It is inf where EG - F^2 has
    cancelled to 0, and on the catalog and random patches it stays below
    1e-9 * max(1, |ratio|)."""
    p = _core(sj, amb)
    ratio = p.ratio()
    e, f, g, l, m, n = _forms(sj, amb, p)
    disc = e * g - f * f
    sign = 1.0 if p.nn > 0.0 else -1.0
    return abs(sign * (l * n - m * m) / disc / p.d**2 / p.d**2 - ratio) if disc else math.inf


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
