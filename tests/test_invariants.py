import math

import numpy as np
import pytest

import frame_reference as ref
import implicit
from helpers import jet_of_rows, random_polynomial_patch, random_regular_point, surface_names
from titeica import (
    CentroAffineMap, DomainError, SingularPointError, classify, invariants, jet, scan_grid,
    verify_scaling,
)
from titeica.invariants import identity_residual, point_invariants
from titeica.surfaces import (
    EUCLIDEAN,
    MINKOWSKI,
    Box,
    SurfaceDef,
    catalog,
    eval_surface,
    grid_points,
)
from titeica.jet import Jet2, seed_xy


def test_forms_plane():
    sj = eval_surface(catalog("plane"), 0.3, -0.2)
    assert ref.fundamental_forms(sj, EUCLIDEAN) == (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def test_forms_paraboloid_origin():
    sj = eval_surface(catalog("paraboloid"), 0.0, 0.0)
    forms = ref.fundamental_forms(sj, EUCLIDEAN)
    assert forms == (1.0, 0.0, 1.0, 2.0, 0.0, 2.0)


def test_forms_minkowski_sphere_match_intrinsic_metric():
    s = catalog("minkowski-sphere")
    for u1, u2 in grid_points(s.domain, 8, 8):
        e, f, g, *_ = ref.fundamental_forms(eval_surface(s, u1, u2), MINKOWSKI)
        assert abs(e - 1.0) <= 1e-10
        assert abs(f) <= 1e-10
        assert abs(g - math.sinh(u1) ** 2) <= 1e-10


def test_curvature_sphere():
    s = catalog("sphere-origin", R=1.0)
    for x, y in grid_points(s.domain, 8, 8):
        assert abs(point_invariants(eval_surface(s, x, y), EUCLIDEAN).K - 1.0) <= 1e-9


def test_curvature_pseudosphere():
    s = catalog("pseudosphere")
    for x, y in grid_points(s.domain, 8, 8):
        assert abs(point_invariants(eval_surface(s, x, y), EUCLIDEAN).K + 1.0) <= 1e-7


def test_curvature_plane():
    # the catalog plane passes through the origin; this one keeps d = 1
    s = SurfaceDef("plane-z1", lambda x, y: (x, y, jet.Jet2(1.0)), Box(-1, 1, -1, 1), EUCLIDEAN)
    p = point_invariants(eval_surface(s, 0.1, 0.4), EUCLIDEAN)
    assert (p.K, p.d, p.ratio) == (0.0, 1.0, 0.0)


def test_distance_sphere():
    s = catalog("sphere-origin", R=1.0)
    for x, y in grid_points(s.domain, 8, 8):
        assert abs(point_invariants(eval_surface(s, x, y), EUCLIDEAN).d - 1.0) <= 1e-10


def test_distance_minkowski_sphere():
    s = catalog("minkowski-sphere")
    for x, y in grid_points(s.domain, 8, 8):
        assert abs(point_invariants(eval_surface(s, x, y), MINKOWSKI).d - 1.0) <= 1e-10


def test_distance_plane_is_zero():
    with pytest.raises(SingularPointError, match=r"^tangent plane passes through the origin \(d = 0\)$"):
        point_invariants(eval_surface(catalog("plane"), 1e-3, 0.5), EUCLIDEAN)


def test_volumes_paraboloid_origin():
    # V = 0 at the vertex: the pass raises, and the reference gives the volumes
    sj = eval_surface(catalog("paraboloid"), 0.0, 0.0)
    assert ref.oriented_volumes(sj) == (2.0, 2.0, 0.0, 0.0)
    with pytest.raises(SingularPointError, match=r"\(d = 0\)"):
        point_invariants(sj, EUCLIDEAN)


def test_volumes_plane_all_zero():
    # (1, 2) is not interior to the plane's box; use a nearby interior point
    sj = eval_surface(catalog("plane"), 0.99, 0.5)
    assert ref.oriented_volumes(sj) == (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(SingularPointError, match=r"\(d = 0\)"):
        point_invariants(sj, EUCLIDEAN)


def test_volumes_titeica_xyz():
    # u = 1/(xy) at (1,1): u_x = u_y = -1, u_xx = u_yy = 2, u_xy = 1,
    # V = u - x u_x - y u_y = 3
    vols = point_invariants(eval_surface(catalog("titeica-xyz"), 1.0, 1.0), EUCLIDEAN)
    assert vols[:4] == (2.0, 2.0, 1.0, 3.0)


def test_ratio_sphere_is_one():
    s = catalog("sphere-origin", R=1.0)
    for x, y in grid_points(s.domain, 8, 8):
        assert abs(point_invariants(eval_surface(s, x, y), EUCLIDEAN).ratio - 1.0) <= 1e-9


def test_ratio_minkowski_sphere_is_minus_one():
    s = catalog("minkowski-sphere")
    for x, y in grid_points(s.domain, 8, 8):
        assert abs(point_invariants(eval_surface(s, x, y), MINKOWSKI).ratio + 1.0) <= 1e-9


def test_ratio_titeica_xyz():
    s = catalog("titeica-xyz")
    for x, y in grid_points(s.domain, 8, 8):
        assert abs(point_invariants(eval_surface(s, x, y), EUCLIDEAN).ratio - 1.0 / 27.0) <= 1e-9


@pytest.mark.parametrize("radius", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e12])
def test_sphere_ratio_is_r_to_the_minus_six_at_every_scale(radius):
    verdict = classify(catalog("sphere-origin", R=radius))
    assert abs(verdict.ratio_constant * radius**6 - 1.0) <= 1e-15


def test_a_flat_patch_at_a_tiny_height_is_skipped():
    # u = 5.4e-120: d trips its test, but V is its own only term, so the plane
    # misses the origin; V^4 reads 0, which K/d^4 must not be divided by.
    s = SurfaceDef("flat", lambda x, y: jet.Jet2(5.4e-120), Box(-1, 1, -1, 1), EUCLIDEAN)
    for amb in (EUCLIDEAN, MINKOWSKI):
        with pytest.raises(SingularPointError, match=r"^<n, n>\^2 or V\^4 leaves float range"):
            point_invariants(eval_surface(s, 0.0, 0.0), amb)
    assert {r.skipped for r in scan_grid(s, (3, 3))} == {"<n, n>^2 or V^4 leaves float range (<n, n> = 1, V = 5.4e-120)"}


def test_ratio_singular_point():
    with pytest.raises(SingularPointError):
        point_invariants(eval_surface(catalog("plane"), 0.2, 0.2), EUCLIDEAN)


def test_identity_residual_titeica_xyz():
    assert identity_residual(eval_surface(catalog("titeica-xyz"), 1.0, 1.0), EUCLIDEAN) <= 1e-12


def test_identity_residual_cubic_patch():
    def height(x, y):
        return x**3 + 2.0 * x * (y * y) - y

    s = SurfaceDef("cubic", lambda x, y: (x, y, height(x, y)), Box(-1, 1, -1, 1), EUCLIDEAN)
    assert identity_residual(eval_surface(s, 0.3, 0.7), EUCLIDEAN) <= 1e-10


def test_identity_residual_sphere_radius_two():
    sj = eval_surface(catalog("sphere-origin", R=2.0), 0.1, 0.2)
    assert identity_residual(sj, EUCLIDEAN) <= 1e-10
    assert abs(point_invariants(sj, EUCLIDEAN).ratio - 1.0 / 64.0) <= 1e-9


def test_identity_residual_minkowski_sphere():
    # K/d^4 = det(S) (Vx Vy - Vxy^2)/V^4 with det(S) = -1
    s = catalog("minkowski-sphere")
    for x, y in grid_points(s.domain, 20, 20):
        assert identity_residual(eval_surface(s, x, y), MINKOWSKI) <= 1e-12


def test_ratio_depends_on_the_form_only_through_its_sign():
    # num / V^4 with num = det(S) (Vx Vy - Vxy^2): the two readings are
    # bitwise negatives, signed zeros included
    jets = [eval_surface(catalog(name), x, y)
            for name in surface_names() for x, y in grid_points(catalog(name).domain, 30, 30)]
    rng = np.random.default_rng(53)
    for _ in range(200):
        s = random_polynomial_patch(rng)
        jets += [eval_surface(s, x, y) for x, y in grid_points(s.domain, 3, 3)]
    compared = 0
    for sj in jets:
        try:
            mink, eucl = point_invariants(sj, MINKOWSKI).ratio, point_invariants(sj, EUCLIDEAN).ratio
        except SingularPointError:
            continue
        assert mink == -eucl and math.copysign(1.0, mink) == -math.copysign(1.0, eucl), (mink, eucl)
        compared += 1
    assert compared == len(jets) - 30 * 30  # only the plane's points are skipped


@pytest.mark.xfail(strict=True, raises=SingularPointError,
                   reason="ROADMAP item 1: the ratio needs no normal, but a null normal skips it")
def test_ratio_under_a_null_minkowski_normal():
    # At (0.5, 0) the paraboloid's normal is null under the Minkowski form
    # (nn = 0 exactly), yet K/d^4 = det(S) (Vx Vy - Vxy^2) / V^4 never reads nn.
    sj = eval_surface(catalog("paraboloid"), 0.5, 0.0)
    assert point_invariants(sj, EUCLIDEAN)[:4] == (2.0, 2.0, 0.0, -0.25)
    assert point_invariants(sj, EUCLIDEAN).ratio == 1024.0
    assert point_invariants(sj, MINKOWSKI).ratio == -1024.0


def test_identity_residual_raises_the_pass_fault_on_a_degenerate_frame():
    # f_y = 2 f_x: every volume is 0, but the fault is the frame, not V
    sj = jet_of_rows((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), (2.0, 4.0, 6.0), (0.5, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 2.0))
    for amb in (EUCLIDEAN, MINKOWSKI):
        with pytest.raises(SingularPointError, match="degenerate tangent plane"):
            point_invariants(sj, amb)
        with pytest.raises(SingularPointError, match="degenerate tangent plane"):
            identity_residual(sj, amb)


def test_identity_residual_makes_one_pass(monkeypatch):
    passes = []
    point = invariants._pass

    def counting_pass(jets, amb):
        passes.append(amb)
        return point(jets, amb)

    monkeypatch.setattr(invariants, "_pass", counting_pass)
    assert identity_residual(eval_surface(catalog("minkowski-sphere"), 0.7, 1.1), MINKOWSKI) <= 1e-12
    assert passes == [MINKOWSKI]


def test_frame_whose_first_form_cancels_is_regular():
    # |f_x x f_y|^2 = 1e-8, but EG - F^2 rounds to 0: the ratio needs no
    # first form, and the classical route has no digits left
    sj = jet_of_rows((0.0, 0.0, 1.0), (1e4, 0.0, 0.0), (1e4, 1e-8, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.5), (0.0, 0.0, 2.0))
    assert abs(point_invariants(sj, EUCLIDEAN).ratio - 1.75e8) <= 1e-14 * 1.75e8
    assert identity_residual(sj, EUCLIDEAN) == math.inf


def test_volume_route_matches_on_random_polynomials():
    rng = np.random.default_rng(13)
    for _ in range(100):
        s = random_polynomial_patch(rng)
        x, y = random_regular_point(rng, s)
        sj = eval_surface(s, x, y)
        ratio = point_invariants(sj, EUCLIDEAN).ratio
        assert identity_residual(sj, EUCLIDEAN) <= 1e-9 * max(1.0, abs(ratio))


def test_numerator_identity_for_monge_patches():
    # Vx Vy - Vxy^2 equals u_xx u_yy - u_xy^2 for graphs
    rng = np.random.default_rng(17)
    for _ in range(50):
        s = random_polynomial_patch(rng)
        x = float(rng.uniform(-0.95, 0.95))
        y = float(rng.uniform(-0.95, 0.95))
        sj = eval_surface(s, x, y)
        vols = point_invariants(sj, EUCLIDEAN)
        lhs = vols.Vx * vols.Vy - vols.Vxy**2
        u = sj[2]
        rhs = u.dxx * u.dyy - u.dxy**2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_parametrization_independence_of_sphere():
    # unit sphere as a graph and as an angular chart: K, d and the ratio
    # are point functions of the surface, not of the chart
    def angular(a, b):
        sa = jet.sin(a)
        return sa * jet.cos(b), sa * jet.sin(b), jet.cos(a)

    chart = SurfaceDef("sphere-angular", angular, Box(0.05, 0.5, 0.05, 1.5), EUCLIDEAN)
    monge = catalog("sphere-origin", R=1.0)
    rng = np.random.default_rng(23)
    for _ in range(25):
        a = float(rng.uniform(0.1, 0.4))
        b = float(rng.uniform(0.1, 1.4))
        x = math.sin(a) * math.cos(b)
        y = math.sin(a) * math.sin(b)
        p = point_invariants(eval_surface(chart, a, b), EUCLIDEAN)
        q = point_invariants(eval_surface(monge, x, y), EUCLIDEAN)
        assert abs(p.K - q.K) <= 1e-9
        assert abs(p.d - q.d) <= 1e-9
        assert abs(p.ratio - q.ratio) <= 1e-9


def warp(a, b):
    """A diffeomorphism of the parameter plane near each catalog box, of
    the jets ``a`` and ``b``: det J = 1 - 0.0012 b cos a."""
    return a + 0.02 * b * b, b + 0.03 * jet.sin(a)


@pytest.mark.parametrize("name", [n for n in surface_names() if n != "plane"])
def test_ratio_is_unchanged_by_a_reparametrization(name):
    # V_ij becomes det J J^T V J and V becomes det J V, so num / V^4 is a
    # point function of the surface; num / V^3 would change by det J.
    s = catalog(name)
    xpart, ypart = s.xpart or (lambda u: (u,)), s.ypart or (lambda v: (v,))

    def mix(a, b):
        u, v = warp(a, b)
        f = s.mix(*xpart(u), *ypart(v))
        return (u, v, f) if type(f) is Jet2 else f  # a graph's height is (u, v, height)

    warped = SurfaceDef(name, mix, s.domain, s.ambient)
    matched = 0
    for a, b in grid_points(s.domain, 5, 5):
        u, v = (w.val for w in warp(*seed_xy(a, b)))
        if not s.domain.contains(u, v):
            continue
        try:
            q = point_invariants(eval_surface(s, u, v), s.ambient)
        except SingularPointError:  # the paraboloid's vertex, whose tangent plane holds the origin
            continue
        p = point_invariants(eval_surface(warped, a, b), s.ambient)
        assert abs(p.ratio - q.ratio) <= 1e-13 * abs(q.ratio)
        matched += 1
    assert matched >= 15


@pytest.mark.parametrize("height", [
    lambda x, y: x * x + 1.0,
    lambda x, y: jet.exp(x + y),
    lambda x, y: jet.sqrt(x * x + y * y) + 1.0,
], ids=["cylinder", "exp", "cone"])
def test_a_developable_surface_is_not_titeica(height):
    # K = 0 at every point and the tangent planes miss the origin, so every
    # ratio is 0 or rounding noise; Titeica's surfaces have K/d^4 = C != 0.
    s = SurfaceDef("developable", lambda x, y: (x, y, height(x, y)), Box(-1, 1, -1, 1), EUCLIDEAN)
    verdict = classify(s)
    assert verdict.points_evaluated == 400
    assert not verdict.is_titeica


def test_saddle_has_negative_ratio():
    def height(x, y):
        return x * x - y * y

    s = SurfaceDef("saddle", lambda x, y: (x, y, height(x, y)), Box(-1, 1, -1, 1), EUCLIDEAN)
    for x, y in [(0.2, 0.1), (-0.3, 0.15), (0.05, 0.25), (0.4, -0.1)]:
        p = point_invariants(eval_surface(s, x, y), EUCLIDEAN)
        assert p.Vx * p.Vy - p.Vxy**2 < 0.0
        assert p.ratio < 0.0


def test_point_invariants_bundle():
    # u = 1/(xy) at (1, 1): c = f_x x f_y = (1, 1, 1), K = 1/3, d = sqrt(3)
    p = point_invariants(eval_surface(catalog("titeica-xyz"), 1.0, 1.0), EUCLIDEAN)
    assert abs(p.K - 1.0 / 3.0) <= 1e-15
    assert abs(p.d - math.sqrt(3.0)) <= 1e-15
    assert abs(p.ratio - 1.0 / 27.0) <= 1e-15
    h = point_invariants(eval_surface(catalog("minkowski-sphere"), 0.7, 1.1), MINKOWSKI)
    assert abs(h.K + 1.0) <= 1e-9
    assert abs(h.d - 1.0) <= 1e-10
    assert abs(h.ratio + 1.0) <= 1e-9
    # A grid scan's record holds exactly the pass's values at its point.
    for name in ("titeica-xyz", "minkowski-sphere"):
        s = catalog(name)
        records = scan_grid(s, (4, 3))
        assert len(records) == 12 and all(r.skipped is None for r in records)
        for r in records:
            p = point_invariants(eval_surface(s, r.x, r.y), s.ambient)
            assert (r.K, r.d, r.ratio) == (p.K, p.d, p.ratio)


def test_sweeps_skip_only_singular_points():
    # 1/(x - xm) divides by a zero jet at the middle column: a DomainError,
    # which is not a singular point, so every grid command raises it.
    s = catalog("titeica-xyz")
    points = grid_points(s.domain, 3, 3)
    xm = points[4][0]
    holed = SurfaceDef("holed", lambda x, y: (x, y, 1.0 / (x - xm)), s.domain, EUCLIDEAN)
    with pytest.raises(DomainError):
        scan_grid(holed, (3, 3))
    with pytest.raises(DomainError):
        classify(holed, (3, 3))
    with pytest.raises(DomainError):
        verify_scaling(holed, CentroAffineMap.of(np.eye(3)), (3, 3), 1e-8)


def bordered_routes(s, points, level=None):
    """At each regular point of ``s``: the pass's K/d^4 and the bordered
    Hessian's, of the defining function ``level`` or of z - u for a graph."""
    det_s = math.prod(s.ambient.signature)
    pairs = []
    for x, y in points:
        jets = eval_surface(s, x, y)
        try:
            ratio = point_invariants(jets, s.ambient).ratio
        except SingularPointError:
            continue
        p = np.array([j.val for j in jets])
        pairs.append((ratio, implicit.bordered_ratio(p, *(level(p) if level else implicit.monge(jets[2])), det_s)))
    return pairs


# Each surface's parameters and defining function: F = 0 on the surface.
LEVEL_SETS = {
    "titeica-xyz": ({}, implicit.titeica_xyz),
    "sphere-origin": ({"R": 2.0}, implicit.sphere((0.0, 0.0, 0.0))),
    "sphere-translated": ({"R": 1.5, "c": 0.7}, implicit.sphere((0.0, 0.0, 0.7))),
    "paraboloid": ({}, implicit.paraboloid),
    "minkowski-sphere": ({}, implicit.minkowski_sphere),
}


@pytest.mark.parametrize("name", LEVEL_SETS)
def test_the_ratio_is_the_bordered_hessians(name):
    # A second route to K/d^4 that shares no step with the pass (ROADMAP item 9).
    params, level = LEVEL_SETS[name]
    s = catalog(name, **params)
    pairs = bordered_routes(s, grid_points(s.domain, 9, 7), level)
    assert len(pairs) >= 62  # the paraboloid's vertex alone is singular
    assert [(a, b) for a, b in pairs if not abs(a - b) <= 1e-12 * abs(b)] == []


@pytest.mark.parametrize("ambient", [EUCLIDEAN, MINKOWSKI], ids=lambda a: a.name)
def test_a_cubic_patch_ratio_is_its_bordered_hessians(ambient):
    rng = np.random.default_rng(53)
    for _ in range(40):
        s = random_polynomial_patch(rng, degree=3)._replace(ambient=ambient)
        points = [(float(x), float(y)) for x, y in rng.uniform(-0.9, 0.9, (5, 2))]
        pairs = bordered_routes(s, points)
        assert pairs and [(a, b) for a, b in pairs if not abs(a - b) <= 1e-12 * abs(b)] == []
