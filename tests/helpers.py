"""Shared test utilities: random patches, points and matrices, the rows of
a jet, the Brioschi curvature of a metric, test metric pairs, the outcome
of a surface at a call and in a sweep, and the grid commands' rows from
calls and the public records."""

import math

import numpy as np

import frame_reference as ref
from titeica import jet, metrics, surfaces
from titeica.centroaffine import CentroAffineMap, ScalingPoint
from titeica.errors import GeometryError, SingularPointError
from titeica.invariants import PointRecord, point_invariants
from titeica.surfaces import EUCLIDEAN, Box, SurfaceDef, eval_surface, grid_points


def random_polynomial_patch(rng, degree=4, coeff_range=2.0, name="poly"):
    """Monge patch u = sum c_ij x^i y^j with i + j <= degree."""
    terms = [
        (i, j, float(rng.uniform(-coeff_range, coeff_range)))
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    ]

    def height(x, y):
        acc = jet.Jet2(0.0)
        for i, j, c in terms:
            acc = acc + x**i * y**j * c
        return acc

    return SurfaceDef(name, lambda x, y: (x, y, height(x, y)), Box(-1.0, 1.0, -1.0, 1.0), EUCLIDEAN)


UNBOUNDED = Box(-math.inf, math.inf, -math.inf, math.inf)


def outcome(s, x, y):
    """``repr`` of the jet that ``eval_surface`` gives at (x, y) on the
    surface ``s`` with its box widened to the plane, or the error's type
    and message."""
    try:
        return repr(eval_surface(s._replace(domain=UNBOUNDED), x, y))
    except Exception as exc:  # every error must match, whatever its type
        return type(exc).__name__, str(exc)


def swept(s, xs, ys):
    """The :func:`outcome` at each point of one sweep (``surfaces._sweep``)
    of the surface ``s`` over the axes ``xs`` and ``ys``, in grid order (y
    outer).  Its mix raises its errors as a SingularPointError naming the
    error's type, so that the sweep records the point and goes on to the
    next; a part's error propagates, as in a grid command.  The sweep
    tests no point against the box."""
    mix = s.mix

    def guarded(*args):
        try:
            return mix(*args)
        except Exception as exc:  # every error must match, whatever its type
            raise SingularPointError(f"{type(exc).__name__}: {exc}") from exc

    return surfaces._sweep(s._replace(mix=guarded), xs, ys, lambda x, y, jets: repr(jets),
                           lambda x, y, skipped: tuple(skipped.split(": ", 1)))


def called(s, xs, ys):
    """The :func:`outcome` of a call on the surface ``s`` at each point of
    the axes ``xs`` and ``ys``, in grid order."""
    return [outcome(s, x, y) for y in ys for x in xs]


def jet_rows(sj):
    """The six rows of a jet, f, f_x, f_y, f_xx, f_xy and f_yy, each the
    float triple of one field across the three coordinate jets."""
    return tuple(zip(*sj))


def jet_of_rows(*rows):
    """The jet whose six rows (see :func:`jet_rows`) are ``rows``."""
    return tuple(jet.Jet2(*c) for c in zip(*rows))


def jet2_image(sj, a):
    """Reference for ``a.act(sj)``: the jet of f . A by Jet2 arithmetic.

    Each image coordinate is the Jet2 combination c0*a0 + c1*a1 + c2*a2 of
    the coordinate jets c0, c1, c2 of ``sj`` over a column of A, the way a
    surface evaluator would form it.
    """
    c0, c1, c2 = sj
    return tuple(c0 * a0 + c1 * a1 + c2 * a2 for a0, a1, a2 in zip(*a.matrix))


def scaling_reference(s, a, points):
    """Reference rows for ``verify_scaling``: four separate views per
    point, the pass's ratio under ``s.ambient`` and the reference's
    ``oriented_volumes`` on the source jet and on its image ``a.act(sj)``,
    with the residual expressions of the library."""
    det2 = a.det * a.det
    rows = []
    for x, y in points:
        try:
            sj = eval_surface(s, x, y)
            tj = a.act(sj)
            before = point_invariants(sj, s.ambient).ratio
            after = point_invariants(tj, s.ambient).ratio
        except SingularPointError as exc:
            rows.append(ScalingPoint(x, y, skipped=str(exc)))
            continue
        predicted = before / det2
        vx, vy, vxy, v = ref.oriented_volumes(sj)
        ivx, ivy, ivxy, iv = ref.oriented_volumes(tj)
        v_pred = a.det * v
        num_pred = det2 * (vx * vy - vxy**2)
        rows.append(ScalingPoint(
            x, y, before, after,
            abs(after - predicted) / (abs(predicted) or 1.0),
            abs(iv - v_pred) / (abs(v_pred) or 1.0),
            abs(ivx * ivy - ivxy**2 - num_pred) / (abs(num_pred) or 1.0),
        ))
    return rows


def called_rows(s, grid):
    """``scan_grid``'s records from an ``eval_surface`` call at every point."""
    rows = []
    for x, y in grid_points(s.domain, *grid):
        try:
            p = point_invariants(eval_surface(s, x, y), s.ambient)
            rows.append(PointRecord(x, y, p.K, p.d, p.ratio))
        except SingularPointError as exc:
            rows.append(PointRecord(x, y, skipped=str(exc)))
    return rows


def called_scaling_rows(s, a, grid):
    """``verify_scaling``'s rows on ``grid`` from the public records: the
    ratios of ``point_invariants`` on an ``eval_surface`` call and on its
    ``a.act`` image, with the library's residual expressions."""
    det2 = a.det * a.det
    rows = []
    for x, y in grid_points(s.domain, *grid):
        try:
            sj = eval_surface(s, x, y)
            source = point_invariants(sj, s.ambient)
            before = source.ratio
            image = point_invariants(a.act(sj), s.ambient)
            after = image.ratio
            predicted = before / det2
            v_pred = a.det * source.V
            num_pred = det2 * source.num
            if not math.isfinite(num_pred):
                raise SingularPointError(f"non-finite Vx Vy - Vxy^2 (det = {a.det:g})")
        except SingularPointError as exc:
            rows.append(ScalingPoint(x, y, skipped=str(exc)))
            continue
        rows.append(ScalingPoint(
            x, y, before, after,
            abs(after - predicted) / (abs(predicted) or 1.0),
            abs(image.V - v_pred) / (abs(v_pred) or 1.0),
            abs(image.num - num_pred) / (abs(num_pred) or 1.0),
        ))
    return rows


def random_regular_point(rng, surface, min_distance=1e-2, max_tries=200):
    """Domain point where the tangent plane stays clear of the origin."""
    box = surface.domain
    for _ in range(max_tries):
        x = float(rng.uniform(box.x0 + 0.02 * (box.x1 - box.x0), box.x1 - 0.02 * (box.x1 - box.x0)))
        y = float(rng.uniform(box.y0 + 0.02 * (box.y1 - box.y0), box.y1 - 0.02 * (box.y1 - box.y0)))
        try:
            if point_invariants(eval_surface(surface, x, y), surface.ambient).d >= min_distance:
                return x, y
        except GeometryError:
            continue
    raise AssertionError(f"no regular point found on '{surface.name}'")


def random_map(rng, det_range=(0.1, 5.0), entry_range=2.0):
    """Random invertible matrix with |det| inside det_range."""
    lo, hi = det_range
    while True:
        entries = rng.uniform(-entry_range, entry_range, size=(3, 3))
        det = abs(np.linalg.det(entries))
        if lo <= det <= hi:
            return CentroAffineMap.of(entries)


def random_orthogonal(rng, det_sign=1.0):
    """Haar-ish random orthogonal matrix with the requested determinant sign."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.sign(np.linalg.det(q)) != np.sign(det_sign):
        q[:, 0] = -q[:, 0]
    return CentroAffineMap.of(q)


def brioschi_curvature(components, x, y):
    """Intrinsic Gaussian curvature at (x, y) of the metric whose
    components g11, g12, g22 the formula ``components(a, b, m)`` gives,
    as a row of ``metrics._METRICS`` writes them.

    Uses the Brioschi determinant formula, which needs only the
    components and their first and second coordinate derivatives; those
    come from evaluating the formula on coordinate seeds with
    ``m = titeica.jet``, a real component lifted to a constant jet.
    Raises ValueError where the metric is not positive-definite.
    """
    e, f, g = (c if type(c) is jet.Jet2 else jet.Jet2(c) for c in components(*jet.seed_xy(x, y), jet))
    disc = e.val * g.val - f.val * f.val
    if e.val <= 0.0 or disc <= 0.0:
        raise ValueError(f"metric is not positive-definite at ({x:g}, {y:g})")
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
    return (ref.det3(*m1) - ref.det3(*m2)) / (disc * disc)


def flat_components(x, y, m):
    # the flat metric dx^2 + dy^2
    return 1.0, 0.0, 1.0


FLAT_BOX = Box(-1.0, 1.0, -1.0, 1.0)

IDENTITY = (("identity", lambda x, y: (x, y)),)


def add_pair(monkeypatch, name, row, **components):
    """Add the ``metrics._PAIRS`` row ``row`` under ``name``, and each
    keyword's components to ``metrics._METRICS`` under the keyword, for
    one test."""
    for metric, function in components.items():
        monkeypatch.setitem(metrics._METRICS, metric, (function, "test metric"))
    monkeypatch.setitem(metrics._PAIRS, name, row)


def nan_at_positive_x(x, y, m):
    # the flat metric, except that g11 is not a number where x > 0
    return math.nan if x > 0.0 else 1.0, 0.0, 1.0


def add_nan_pair(monkeypatch, changes=IDENTITY):
    """Add the pair "flat:nan", the flat metric against ``nan_at_positive_x``
    on ``FLAT_BOX`` under ``changes``: its agreement rows hold NaN
    differences."""
    add_pair(monkeypatch, "flat:nan", ("flat", FLAT_BOX, "nan_g11", FLAT_BOX, changes),
             flat=flat_components, nan_g11=nan_at_positive_x)
