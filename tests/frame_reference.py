"""Reference invariants: the earlier three-frame implementation.

Every public function rebuilds the frame (tangent form, normal n = S c
with c = numpy.cross(f_x, f_y), and <n, n>) on its own, and the oriented
volumes are explicit 3x3 determinants.  Results are plain tuples:
``fundamental_forms`` gives (E, F, G, L, M, N) and ``oriented_volumes``
gives (Vx, Vy, Vxy, V).  ``titeica.invariants.point_invariants`` must
agree with it bitwise on the volumes and d where it returns, and raise
the error that ``titeica_ratio`` raises where it does not;
``identity_residual`` must agree bitwise with the same expression built
from these forms.  K and K/d^4 here take the classical route through
EG - F^2; the pass's values are held to ``tests/exact.py``
instead.  Its singular tests are absolute EPS_SINGULAR bounds; the points
compared are at unit scale, where these agree with the pass's relative
rules, each of which reads its quantity against its own terms.
"""

import math

import numpy as np

import helpers
from titeica import SingularPointError
from titeica.invariants import EPS_SINGULAR


def det3(r0, r1, r2):
    return float(
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def _frame(f_x, f_y, amb):
    e = amb.inner(f_x, f_x)
    f = amb.inner(f_x, f_y)
    g = amb.inner(f_y, f_y)
    disc = e * g - f * f
    c = np.cross(f_x, f_y)
    cc = float(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
    if cc <= EPS_SINGULAR:
        raise SingularPointError(f"degenerate tangent plane (|f_x x f_y|^2 = {cc:g})")
    s = amb.signature
    n = np.array([s[0] * c[0], s[1] * c[1], s[2] * c[2]])
    nn = amb.inner(n, n)
    if abs(nn) <= EPS_SINGULAR:
        raise SingularPointError(f"normal vector is null under the {amb.name} form")
    return e, f, g, disc, n, nn


def fundamental_forms(sj, amb):
    _, f_x, f_y, f_xx, f_xy, f_yy = helpers.jet_rows(sj)
    e, f, g, _, n, nn = _frame(f_x, f_y, amb)
    scale = 1.0 / math.sqrt(abs(nn))
    return (e, f, g, amb.inner(f_xx, n) * scale, amb.inner(f_xy, n) * scale, amb.inner(f_yy, n) * scale)


def gaussian_curvature(sj, amb):
    _, f_x, f_y, f_xx, f_xy, f_yy = helpers.jet_rows(sj)
    e, f, g, disc, n, nn = _frame(f_x, f_y, amb)
    scale = 1.0 / math.sqrt(abs(nn))
    l = amb.inner(f_xx, n) * scale
    m = amb.inner(f_xy, n) * scale
    nu = amb.inner(f_yy, n) * scale
    sign = 1.0 if nn > 0.0 else -1.0
    return sign * (l * nu - m * m) / disc


def tangent_distance(sj, amb):
    f, f_x, f_y, *_ = helpers.jet_rows(sj)
    _, _, _, _, n, nn = _frame(f_x, f_y, amb)
    return abs(amb.inner(f, n)) / math.sqrt(abs(nn))


def oriented_volumes(sj):
    f, f_x, f_y, f_xx, f_xy, f_yy = helpers.jet_rows(sj)
    return (det3(f_xx, f_x, f_y), det3(f_yy, f_x, f_y), det3(f_xy, f_x, f_y), det3(f, f_x, f_y))


def titeica_ratio(sj, amb):
    d = tangent_distance(sj, amb)
    if d <= EPS_SINGULAR:
        raise SingularPointError(f"tangent plane passes through the origin (d = {d:g})")
    return gaussian_curvature(sj, amb) / d**4
