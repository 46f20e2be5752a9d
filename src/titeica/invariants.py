"""Pointwise surface invariants under a chosen ambient bilinear form.

Everything here comes from one pass over the three coordinate jets of a
surface at a point, in the paper's representation.  Let S =
diag(signature) be the ambient form, <v, w> = v^T S w, and c = f_x x f_y
the Euclidean cross product of the tangent vectors.  The pass, ``_pass``, writes out c and then

* the four oriented volumes Vx, Vy, Vxy, V = det(w; f_x; f_y) for
  w = f_xx, f_yy, f_xy and the position f, each as w . c,
* nn = c^T S c and num = det(S) (Vx Vy - Vxy^2), with det(S) = +1 for
  the Euclidean and -1 for the Minkowski form,

and derives K = num / nn^2, the distance d = |V| / sqrt(|nn|) from the
origin to the affine tangent plane, and K/d^4 = num / V^4.  A graph
(x, y, u) has c = (-u_x, -u_y, 1), u's Hessian for volumes and V = u -
x u_x - y u_y; its pass keeps the seeds' 0s and 1s as bitwise products.

The normal is n = S c: it is ambient-orthogonal to the tangent plane for
both signatures, <n, n> = nn and <w, n> = w . c because S^2 = I.
Two identities remove the first fundamental form.  Lagrange's identity
gives EG - F^2 = det(S) nn; with L, M, N = (Vx, Vxy, Vy) / sqrt(|nn|),
LN - M^2 = (Vx Vy - Vxy^2) / |nn|.  So the classical
K = sign(nn) (LN - M^2) / (EG - F^2) is num / nn^2, and carrying sign(nn)
reproduces K = -1, d = 1 on the unit Minkowski hyperboloid.  The forms
and EG - F^2 appear only in :func:`identity_residual`, which measures the
classical route against the pass.

A point is singular, and the pass raises SingularPointError with its own
message at the first of seven tests that fails, when c is degenerate, nn
is not finite (an overflowing normal would otherwise read as d = 0), the
normal is null, the tangent plane holds the origin, nn^2 or V^4 is below
the normal floats where either of the two tests before tripped, K, d or
K/d^4 is not finite, or num is not 0 but |K/d^4| is below the smallest
normal float.  A threshold test trips where |c|^2, |nn| or d is at most
EPS_SINGULAR = e, and skips only if the quantity is small against its own
terms, which scale alike: |c|^2 <= e sum_k (|a_i b_j| + |a_j b_i|)^2 over
c_k = a_i b_j - a_j b_i with a = f_x, b = f_y; |nn| <= e |c|^2; |V| <= e
sum_k |f_k c_k|.  Where V^4 is beyond float range the quotient is taken
as num / V^2 / V^2.

The grid commands (:func:`scan_grid`, :func:`classify` and
``centroaffine.verify_scaling``) walk the two axes of their grid through
``surfaces._sweep``, whose docstring describes the walk.  Sweep and
pass hand on plain tuples: a scan point builds its report row and
the jets of its ``mix``, and a :class:`PointInvariants` is built only
where :func:`point_invariants` is called.
"""

import math
import sys
from typing import NamedTuple, Optional

from . import _NAMES, DEFAULT_GRID, DEFAULT_TOL, InconclusiveError, SingularPointError
from .jet import Jet2, _new
from .surfaces import AmbientForm, SurfaceDef, _grid_axes, _not_jets, _read_jets, _sweep

__all__ = list(_NAMES["invariants"])

# Where |f_x x f_y|^2, |<n, n>| or d trips a singular test, and the share of its
# own terms at which it makes the point singular: skipped, never dropped, by callers.
EPS_SINGULAR = 1e-9


class PointInvariants(NamedTuple):
    """What one pass yields at a regular point: the four oriented volumes,
    nn = <n, n>, num = det(S) (Vx Vy - Vxy^2), K, d and K/d^4."""

    Vx: float
    Vy: float
    Vxy: float
    V: float
    nn: float
    num: float
    K: float
    d: float
    ratio: float


def point_invariants(jets: tuple[Jet2, Jet2, Jet2], amb: AmbientForm) -> PointInvariants:
    """The pass as a record, on jets read by ``surfaces._read_jets``; raises as both do."""
    return _new(PointInvariants, _pass(_read_jets(jets), amb))


def _pass(jets, amb: AmbientForm, x=None, y=None) -> tuple:
    """The single pass, written out (no helper calls: it runs once or twice
    per grid point): the plain (Vx, Vy, Vxy, V, nn, num, K, d, K/d^4) of a
    tuple of three jets, or of a graph's u at (x, y); raises where a singularity test fails."""
    if x is not None and type(jets) is Jet2:  # (x, y, u), the seeds' 1.0s and 0.0s written in
        f0, f1, (f2, ux, uy, uxx, uxy, uyy) = x, y, jets  # term for term: the zero products keep signed zeros and NaN
        c0, c1, c2 = 0.0 * uy - ux, ux * 0.0 - uy, 1.0
        z = 0.0 * c0 + 0.0 * c1
        vx, vy, vxy, v = z + uxx, z + uyy, z + uxy, f0 * c0 + f1 * c1 + f2
    else:
        try:  # free until it raises, on CPython 3.11+
            (f0, a0, b0, p0, q0, r0), (f1, a1, b1, p1, q1, r1), (f2, a2, b2, p2, q2, r2) = jets
        except TypeError:  # one value, or a coordinate, that is not a jet
            raise _not_jets(jets) from None
        # numpy.cross operand order: tests/frame_reference.py holds the volumes
        # and d bitwise to the frame built with it.
        c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        vx, vy, vxy = p0 * c0 + p1 * c1 + p2 * c2, r0 * c0 + r1 * c1 + r2 * c2, q0 * c0 + q1 * c1 + q2 * c2
        v = f0 * c0 + f1 * c1 + f2 * c2  # f_xx, f_yy, f_xy and f, dotted with c
    cc = c0 * c0 + c1 * c1 + c2 * c2
    if cc <= EPS_SINGULAR:  # never where c2 = 1.0, so a graph does not reach a0 .. b2
        t0, t1, t2 = abs(a1 * b2) + abs(a2 * b1), abs(a2 * b0) + abs(a0 * b2), abs(a0 * b1) + abs(a1 * b0)
        if cc <= EPS_SINGULAR * (t0 * t0 + t1 * t1 + t2 * t2):
            raise SingularPointError(f"degenerate tangent plane (|f_x x f_y|^2 = {cc:g})")
    s0, s1, s2 = amb.signature
    nn = float(s0 * c0 * c0 + s1 * c1 * c1 + s2 * c2 * c2)  # as amb.inner(c, c)
    if not math.isfinite(nn):
        raise SingularPointError(f"non-finite normal (<n, n> = {nn:g})")
    tripped = abs(nn) <= EPS_SINGULAR  # then nn^2 and V^4, the divisors, are range-checked
    if tripped and abs(nn) <= EPS_SINGULAR * cc:
        raise SingularPointError(f"normal vector is null under the {amb.name} form")
    num = s0 * s1 * s2 * (vx * vy - vxy * vxy)
    d = abs(v) / math.sqrt(abs(nn))
    if d <= EPS_SINGULAR:
        if abs(v) <= EPS_SINGULAR * (abs(f0 * c0) + abs(f1 * c1) + abs(f2 * c2)):
            raise SingularPointError(f"tangent plane passes through the origin (d = {d:g})")
        tripped = True
    if tripped and (nn * nn < sys.float_info.min or v * v * v * v < sys.float_info.min):
        raise SingularPointError(f"<n, n>^2 or V^4 leaves float range (<n, n> = {nn:g}, V = {v:g})")
    k = num / (nn * nn)
    try:  # V^4 is range-checked if |nn| or d tripped, and above 1e-55 if not
        ratio = num / v**4
    except OverflowError:
        ratio = num / (v * v) / (v * v)
    if not (math.isfinite(k) and math.isfinite(d) and math.isfinite(ratio)):
        raise SingularPointError(f"non-finite K/d^4 (K = {k:g}, d = {d:g})")
    if num != 0.0 and abs(ratio) < sys.float_info.min:
        raise SingularPointError(f"K/d^4 underflows (K = {k:g}, d = {d:g})")
    return vx, vy, vxy, v, nn, num, k, d, ratio


def identity_residual(jets: tuple[Jet2, Jet2, Jet2], amb: AmbientForm) -> float:
    """|sign(<n,n>) (LN - M^2) / (EG - F^2) / d^4 - K/d^4|, the classical
    curvature route against the ratio, both from one pass over jets read
    once, as in :func:`point_invariants`: E, F, G = <f_x, f_x>, <f_x, f_y>,
    <f_y, f_y> and L, M, N = (Vx, Vxy, Vy) / sqrt(|nn|).  It is inf where
    EG - F^2 has cancelled to 0, and on the catalog and random patches it
    stays below 1e-9 * max(1, |ratio|)."""
    jets = _read_jets(jets)
    p = point_invariants(jets, amb)
    fx, fy = [c.dx for c in jets], [c.dy for c in jets]
    e, f, g = amb.inner(fx, fx), amb.inner(fx, fy), amb.inner(fy, fy)
    scale = 1.0 / math.sqrt(abs(p.nn))
    l, m, n = p.Vx * scale, p.Vxy * scale, p.Vy * scale
    disc = e * g - f * f
    sign = 1.0 if p.nn > 0.0 else -1.0
    return abs(sign * (l * n - m * m) / disc / p.d**2 / p.d**2 - p.ratio) if disc else math.inf


# --------------------------------------------------------------------------
# Grid sweeps


class PointRecord(NamedTuple):
    x: float
    y: float
    K: Optional[float] = None
    d: Optional[float] = None
    ratio: Optional[float] = None
    skipped: Optional[str] = None


class ClassifyVerdict(NamedTuple):
    """The fields before ``points`` are the classify summary, in its order."""

    is_titeica: bool
    ratio_constant: float
    spread: float
    points_evaluated: int
    points_skipped: int
    points: tuple[PointRecord, ...]


def scan_grid(s: SurfaceDef, grid: tuple[int, int] = DEFAULT_GRID) -> list[PointRecord]:
    """Evaluate K, d and K/d^4 over the surface's domain grid, recording
    singular points as skipped with their reason."""

    amb = s.ambient

    def evaluate(x, y, jets):
        _, _, _, _, _, _, k, d, ratio = _pass(jets, amb, x, y)
        return _new(PointRecord, (x, y, k, d, ratio, None))

    return _sweep(s, *_grid_axes(s.domain, *grid), evaluate, PointRecord)


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
    ratios = sorted([r.ratio for r in records if r.skipped is None])
    n, total = len(ratios), len(records)
    skipped = total - n
    if skipped > 0.25 * total:
        raise InconclusiveError(
            f"{skipped}/{total} grid points of '{s.name}' were singular; verdict withheld"
        )
    # Spread relative to the median ratio, so the verdict does not change
    # when the ratio is rescaled (a centro-affine map scales it by 1/det^2).
    # A zero median has spread inf: a Titeica surface has K/d^4 = C != 0,
    # and a developable one, with every ratio 0, is not one.
    # The median is statistics.median's midpoint, float for float; it lies between
    # the sorted ratios' ends, and rounding is monotone, so max |r - median| is at one.
    median = ratios[n // 2] if n % 2 else (ratios[n // 2 - 1] + ratios[n // 2]) / 2
    spread = max(ratios[-1] - median, median - ratios[0]) / abs(median) if median else math.inf
    return ClassifyVerdict(spread <= tol, median, spread, n, skipped, tuple(records))
