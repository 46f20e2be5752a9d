"""Reference invariants: the earlier three-frame implementation.

Every public function rebuilds the frame (tangent form, normal n = S c
with c = numpy.cross(f_x, f_y), and <n, n>) on its own, and the oriented
volumes are explicit 3x3 determinants.  The one-pass core in
``titeica.invariants`` must agree with it bitwise on the volumes, the
fundamental forms and d, and raise the same error at every point.  K and
K/d^4 here take the classical route through EG - F^2; the core's values
are held to ``tests/exact.py`` instead.
"""

import math

import numpy as np

from titeica.errors import RegularityError, SignatureError, SingularPointError
from titeica.invariants import EPS_SINGULAR, FundamentalForms, OrientedVolumes


def det3(r0, r1, r2):
    return float(
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def _frame(sj, amb):
    e = amb.inner(sj.f_x, sj.f_x)
    f = amb.inner(sj.f_x, sj.f_y)
    g = amb.inner(sj.f_y, sj.f_y)
    disc = e * g - f * f
    c = np.cross(sj.f_x, sj.f_y)
    cc = float(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
    if cc <= EPS_SINGULAR:
        raise RegularityError(f"degenerate tangent plane (|f_x x f_y|^2 = {cc:g})")
    s = amb.signature
    n = np.array([s[0] * c[0], s[1] * c[1], s[2] * c[2]])
    nn = amb.inner(n, n)
    if abs(nn) <= EPS_SINGULAR:
        raise SignatureError(f"normal vector is null under the {amb.name} form")
    return e, f, g, disc, n, nn


def fundamental_forms(sj, amb):
    e, f, g, _, n, nn = _frame(sj, amb)
    scale = 1.0 / math.sqrt(abs(nn))
    return FundamentalForms(
        E=e,
        F=f,
        G=g,
        L=amb.inner(sj.f_xx, n) * scale,
        M=amb.inner(sj.f_xy, n) * scale,
        N=amb.inner(sj.f_yy, n) * scale,
    )


def gaussian_curvature(sj, amb):
    e, f, g, disc, n, nn = _frame(sj, amb)
    scale = 1.0 / math.sqrt(abs(nn))
    l = amb.inner(sj.f_xx, n) * scale
    m = amb.inner(sj.f_xy, n) * scale
    nu = amb.inner(sj.f_yy, n) * scale
    sign = 1.0 if nn > 0.0 else -1.0
    return sign * (l * nu - m * m) / disc


def tangent_distance(sj, amb):
    _, _, _, _, n, nn = _frame(sj, amb)
    return abs(amb.inner(sj.f, n)) / math.sqrt(abs(nn))


def oriented_volumes(sj):
    return OrientedVolumes(
        Vx=det3(sj.f_xx, sj.f_x, sj.f_y),
        Vy=det3(sj.f_yy, sj.f_x, sj.f_y),
        Vxy=det3(sj.f_xy, sj.f_x, sj.f_y),
        V=det3(sj.f, sj.f_x, sj.f_y),
    )


def titeica_ratio(sj, amb):
    d = tangent_distance(sj, amb)
    if d <= EPS_SINGULAR:
        raise SingularPointError(f"tangent plane passes through the origin (d = {d:g})")
    return gaussian_curvature(sj, amb) / d**4
