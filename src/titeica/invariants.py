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
EPS_SINGULAR; the first failing test names the error raised.  So is a
point whose K, d or K/d^4 is not finite (d^4 beyond float range counts
as not finite), or whose K/d^4 underflows: K is not 0 but |K/d^4| is
below the smallest normal float.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import GeometryError, RegularityError, SignatureError, SingularPointError
from .surfaces import EUCLIDEAN, AmbientForm, SurfaceJet

__all__ = [
    "EPS_SINGULAR",
    "FundamentalForms",
    "OrientedVolumes",
    "InvariantReport",
    "fundamental_forms",
    "gaussian_curvature",
    "tangent_distance",
    "oriented_volumes",
    "titeica_ratio",
    "identity_residual",
    "point_invariants",
]

# Threshold on |V|, d and EG - F^2 below which a point is treated as
# singular and must be skipped (never silently dropped) by callers.
EPS_SINGULAR = 1e-9


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


@dataclass(frozen=True)
class InvariantReport:
    """K, d and K/d^4 at one point: the values a grid scan records."""

    K: float
    d: float
    ratio: float


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
        if not all(map(math.isfinite, (k, d, ratio))):
            raise SingularPointError(f"non-finite K/d^4 (K = {k:g}, d = {d:g})")
        if k != 0.0 and abs(ratio) < sys.float_info.min:
            raise SingularPointError(f"K/d^4 underflows (K = {k:g}, d = {d:g})")
        return ratio


def _dot(r, c) -> float:
    return r[0] * c[0] + r[1] * c[1] + r[2] * c[2]


def _core(sj: SurfaceJet, amb: AmbientForm) -> _Core:
    """The single pass over a point; never raises."""
    (x0, x1, x2), (y0, y1, y2) = sj.f_x, sj.f_y
    e = amb.inner(sj.f_x, sj.f_x)
    f = amb.inner(sj.f_x, sj.f_y)
    g = amb.inner(sj.f_y, sj.f_y)
    # numpy.cross operand order: tests/frame_reference.py holds every
    # derived float bitwise to the frame built with it.
    c = (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0)
    vols = OrientedVolumes(_dot(sj.f_xx, c), _dot(sj.f_yy, c), _dot(sj.f_xy, c), _dot(sj.f, c))
    disc = e * g - f * f
    if abs(disc) <= EPS_SINGULAR:
        return _Core(vols, RegularityError(f"degenerate tangent plane (EG - F^2 = {disc:g})"))
    nn = amb.inner(c, c)
    if abs(nn) <= EPS_SINGULAR:
        return _Core(vols, SignatureError(f"normal vector is null under the {amb.name} form"))
    scale = 1.0 / math.sqrt(abs(nn))
    forms = FundamentalForms(e, f, g, vols.Vx * scale, vols.Vxy * scale, vols.Vy * scale)
    sign = 1.0 if nn > 0.0 else -1.0
    k = sign * (forms.L * forms.N - forms.M * forms.M) / disc
    d = abs(vols.V) / math.sqrt(abs(nn))
    return _Core(vols, None, forms, k, d)


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


def point_invariants(sj: SurfaceJet, amb: AmbientForm) -> InvariantReport:
    """K, d and K/d^4 at one point from one pass.

    Raises the singularity errors of the pass; grid drivers catch those
    and record the point as skipped.
    """
    p = _core(sj, amb)
    return InvariantReport(p.K, p.d, p.ratio())
