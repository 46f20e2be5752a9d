"""Centro-affine actions on surfaces and verification of the scaling law.

A centro-affine map multiplies the row-vector immersion by an invertible
3x3 matrix A, component k of the image being sum_i f_i a_ik.  A is
linear, so every partial derivative of the image is the source's times A
too: :meth:`CentroAffineMap.act` maps an evaluated jet field by field.
Under this action, at matched parameter points,

* the ratio K/d^4 scales by 1/det(A)^2,
* the position volume scales by det(A),
* the curvature numerator Vx Vy - Vxy^2 scales by det(A)^2.

The volumes are plain determinants and the ambient form enters the ratio
only as the sign det(S), so the law holds under either form; source and
image are both read under the surface's own form.

:func:`verify_scaling` measures all three numerically on a grid and
reports per-point residuals.  It walks the grid's axes through
``surfaces._sweep`` and makes one invariant pass on each side of the
map, on the source's jets or graph height and on their image: the
three jets that ``act`` writes, or a graph's plain rows, from u and seed
terms formed once a run.  So a graph's point builds its report row and
the jets of ``mix`` alone, and a general point adds the jets of ``act``.
"""

import math
import sys
from typing import NamedTuple, Optional

from . import _NAMES, SingularPointError
from .invariants import _pass
from .jet import Jet2, _new
from .surfaces import SurfaceDef, _grid_axes, _read_jets, _sweep

__all__ = list(_NAMES["centroaffine"])

MIN_DET = 1e-12  # |det| / (|r0| |r1| |r2|) at or below which a matrix is refused


class CentroAffineMap(NamedTuple):
    """Invertible 3x3 real matrix (3 float row tuples) acting on surfaces by row vector x matrix."""

    matrix: tuple[tuple[float, float, float], ...]
    det: float

    @classmethod
    def of(cls, rows) -> "CentroAffineMap":
        m = tuple(tuple(float(v) for v in row) for row in rows)
        if len(m) != 3 or any(len(row) != 3 or not all(map(math.isfinite, row)) for row in m):
            raise ValueError(f"centro-affine matrix must be 3 rows of 3 finite entries, got {m}")
        # The determinant as row 0 . (row 1 x row 2), in numpy.cross operand order.
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = m
        d = a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0)
        if not math.isfinite(d):
            raise ValueError(f"centro-affine matrix must have a finite determinant, got {d}")
        # Hadamard's bound |det| <= |r0| |r1| |r2|, divided in turn: the product can overflow.
        q = abs(d) / math.hypot(*m[0]) / math.hypot(*m[1]) / math.hypot(*m[2]) if d else 0.0
        if q <= MIN_DET:
            raise ValueError(f"centro-affine matrix must be invertible, |det| / (|r0| |r1| |r2|) = {q:g}")
        if d * d < sys.float_info.min:  # det^2 is the divisor of every predicted ratio
            raise ValueError(f"centro-affine matrix is too small, det^2 is not a normal float, got det = {d}")
        if d * d == math.inf:
            raise ValueError(f"centro-affine matrix is too large, det^2 overflows, got det = {d}")
        return cls(m, d)

    def act(self, jets: tuple[Jet2, Jet2, Jet2]) -> tuple[Jet2, Jet2, Jet2]:
        """The coordinate jets of f . A, from jets read by ``surfaces._read_jets``: each field of image
        coordinate k is sum_i x_i a_ik over that field x_i of the source's jets, in this order."""
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = self.matrix
        (x0, x1, x2, x3, x4, x5), (y0, y1, y2, y3, y4, y5), (z0, z1, z2, z3, z4, z5) = _read_jets(jets)
        return (_new(Jet2, (x0 * a00 + y0 * a10 + z0 * a20, x1 * a00 + y1 * a10 + z1 * a20, x2 * a00 + y2 * a10 + z2 * a20,
                            x3 * a00 + y3 * a10 + z3 * a20, x4 * a00 + y4 * a10 + z4 * a20, x5 * a00 + y5 * a10 + z5 * a20)),
                _new(Jet2, (x0 * a01 + y0 * a11 + z0 * a21, x1 * a01 + y1 * a11 + z1 * a21, x2 * a01 + y2 * a11 + z2 * a21,
                            x3 * a01 + y3 * a11 + z3 * a21, x4 * a01 + y4 * a11 + z4 * a21, x5 * a01 + y5 * a11 + z5 * a21)),
                _new(Jet2, (x0 * a02 + y0 * a12 + z0 * a22, x1 * a02 + y1 * a12 + z1 * a22, x2 * a02 + y2 * a12 + z2 * a22,
                            x3 * a02 + y3 * a12 + z3 * a22, x4 * a02 + y4 * a12 + z4 * a22, x5 * a02 + y5 * a12 + z5 * a22)))


def apply_map(s: SurfaceDef, a: CentroAffineMap) -> SurfaceDef:
    """Image (x, y) -> f(x, y) . A of ``s``, on its domain and under its
    form: the source with ``act`` after its ``mix``, so a sweep keeps its
    parts, which hand on each seed for a graph's (seed x, seed y, u)."""
    xpart, ypart, mix, act = s.xpart, s.ypart, s.mix, a.act
    return s._replace(name=f"{s.name}|mapped", mix=lambda x, xp, y, yp: act((x, y, f) if type(f := mix(*xp, *yp)) is Jet2 else f),
                      xpart=lambda x: (x, xpart(x) if xpart else (x,)), ypart=lambda y: (y, ypart(y) if ypart else (y,)))


class ScalingPoint(NamedTuple):
    x: float
    y: float
    ratio_before: Optional[float] = None
    ratio_after: Optional[float] = None
    ratio_residual: Optional[float] = None
    volume_residual: Optional[float] = None
    numerator_residual: Optional[float] = None
    skipped: Optional[str] = None


class ScalingReport(NamedTuple):
    """Aggregate and per-point residuals of the three scaling identities;
    the fields before ``points`` are the transform-check summary, in its
    order.  ``scale_factor`` is 1/det(A)^2, the factor each predicted
    ratio is divided by: 1.0 / (det * det)."""

    det: float
    scale_factor: float
    max_ratio_residual: float
    max_volume_residual: float
    max_numerator_residual: float
    points_evaluated: int
    points_skipped: int
    passed: bool
    points: tuple[ScalingPoint, ...]


def verify_scaling(s: SurfaceDef, a: CentroAffineMap, grid: tuple[int, int], tol: float) -> ScalingReport:
    """Check the scaling identities at the ``grid_points`` of the domain of
    ``s`` on an (nx, ny) grid, reading source and image under its form.

    Each residual is relative, |after - predicted| / |predicted|, and
    absolute, |after|, only where the prediction is exactly 0.  Singular
    points are recorded as skipped, and so are points whose predicted
    curvature numerator leaves float range, which only a map built as
    ``CentroAffineMap(matrix, det)``, past the checks of ``of``, reaches;
    a run where every point was skipped fails.
    """
    amb, act, det = s.ambient, a.act, a.det
    det2 = det * det
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a.matrix  # then the seeds' fields under A, summed as act sums them
    dx0, dx1, dx2 = 1.0 * a00 + 0.0 * a10, 1.0 * a01 + 0.0 * a11, 1.0 * a02 + 0.0 * a12
    dy0, dy1, dy2 = 0.0 * a00 + 1.0 * a10, 0.0 * a01 + 1.0 * a11, 0.0 * a02 + 1.0 * a12
    o0, o1, o2 = 0.0 * a00 + 0.0 * a10, 0.0 * a01 + 0.0 * a11, 0.0 * a02 + 0.0 * a12

    def evaluate(x, y, jets):
        _, _, _, v, _, num, _, _, before = _pass(jets, amb, x, y)  # a graph's height u as (x, y, u)
        if type(jets) is Jet2:  # the image of (x, y, u)
            u, ux, uy, uxx, uxy, uyy = jets
            image = ((x * a00 + y * a10 + u * a20, dx0 + ux * a20, dy0 + uy * a20, o0 + uxx * a20, o0 + uxy * a20, o0 + uyy * a20),
                     (x * a01 + y * a11 + u * a21, dx1 + ux * a21, dy1 + uy * a21, o1 + uxx * a21, o1 + uxy * a21, o1 + uyy * a21),
                     (x * a02 + y * a12 + u * a22, dx2 + ux * a22, dy2 + uy * a22, o2 + uxx * a22, o2 + uxy * a22, o2 + uyy * a22))
        else:
            image = act(jets)
        _, _, _, image_v, _, image_num, _, _, after = _pass(image, amb)
        predicted = before / det2
        ratio_res = abs(after - predicted) / (abs(predicted) or 1.0)
        v_pred = det * v
        volume_res = abs(image_v - v_pred) / (abs(v_pred) or 1.0)
        num_pred = det2 * num
        # image_num is finite: the image's pass found K = num / nn^2 finite.
        if not math.isfinite(num_pred):
            raise SingularPointError(f"non-finite Vx Vy - Vxy^2 (det = {det:g})")
        numerator_res = abs(image_num - num_pred) / (abs(num_pred) or 1.0)
        return _new(ScalingPoint, (x, y, before, after, ratio_res, volume_res, numerator_res, None))

    rows = _sweep(s, *_grid_axes(s.domain, *grid), evaluate, ScalingPoint)
    evaluated = [r for r in rows if r.skipped is None]
    columns = list(zip(*evaluated)) or [()] * len(ScalingPoint._fields)
    max_r, max_v, max_n = (max(c, default=math.inf) for c in columns[4:7])  # the three residual columns, read once
    passed = bool(evaluated) and max_r <= tol and max_v <= tol and max_n <= tol
    return ScalingReport(det, 1.0 / det2, max_r, max_v, max_n, len(evaluated), len(rows) - len(evaluated), passed,
                         tuple(rows))
