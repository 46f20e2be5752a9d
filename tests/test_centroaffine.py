import functools
import json
import math
import sys

import numpy as np
import pytest

from helpers import (
    called_rows,
    called_scaling_rows,
    jet2_image,
    jet_of_rows,
    jet_rows,
    random_map,
    random_orthogonal,
    random_regular_point,
    scaling_reference,
    surface_names,
)
from titeica import centroaffine, classify, invariants, jet
from titeica.centroaffine import CentroAffineMap, apply_map, verify_scaling
from titeica.cli import main
from titeica.invariants import point_invariants, scan_grid
from titeica.jet import Jet2
from titeica.surfaces import EUCLIDEAN, MINKOWSKI, Box, SurfaceDef, catalog, eval_surface, grid_points


def test_construction_rejects_singular():
    # MIN_DET bounds |det| / (|r0| |r1| |r2|), which no scale changes: a
    # rank-2 matrix is refused at every scale, and 1e-5 I (det = 1e-15) is not.
    for scale in (1.0, 1e-5):
        with pytest.raises(ValueError, match="must be invertible"):
            CentroAffineMap.of(np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]]) * scale)
    assert CentroAffineMap.of(np.eye(3) * 1e-5).det == 1e-5 * 1e-5 * 1e-5


def test_construction_rejects_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite entries"):
            CentroAffineMap.of([[bad, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_determinant_that_overflows_exits_2(capsys):
    # Finite entries whose determinant 1e600 is past float range, or whose
    # det^2, the divisor of every predicted ratio, is (det = 1e155): the map
    # is refused as a configuration error, like one whose det^2 underflows.
    with pytest.raises(ValueError, match="finite determinant, got inf"):
        CentroAffineMap.of(np.eye(3) * 1e200)
    argv = ["transform-check", "--surface", "paraboloid", "--matrix", "1e200,0,0,0,1e200,0,0,0,1e200"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: matrix: centro-affine matrix must have a finite determinant, got inf\n"
    argv = ["transform-check", "--surface", "titeica-xyz", "--matrix", "1e155,0,0,0,1,0,0,0,1"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: matrix: centro-affine matrix is too large, det^2 overflows, got det = 1e+155\n")


def test_determinant_whose_square_underflows_exits_2(capsys):
    # 1e-60 I meets Hadamard's bound, but det^2 = 1e-360 reads 0, the divisor
    # of every predicted ratio: refused as catalog refuses a subnormal R^2.
    argv = ["transform-check", "--surface", "paraboloid", "--matrix", "1e-60,0,0,0,1e-60,0,0,0,1e-60"]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: matrix: centro-affine matrix is too small, det^2 is not a normal float, got det = 1e-180\n")


def well_conditioned(rng):
    return np.eye(3) + 0.25 * rng.normal(size=(3, 3))


def assert_float_rows(a):
    assert type(a.matrix) is tuple and len(a.matrix) == 3
    for row in a.matrix:
        assert type(row) is tuple and len(row) == 3
        assert all(type(v) is float for v in row)


def test_matrix_is_tuple_of_float_rows():
    assert_float_rows(CentroAffineMap.of([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert_float_rows(CentroAffineMap.of(np.diag([2.0, 1.0, 1.0])))
    assert_float_rows(CentroAffineMap.of(np.eye(3)))


def test_det_matches_numpy():
    assert CentroAffineMap.of(2.0 * np.eye(3)).det == 8.0
    rng = np.random.default_rng(59)
    for _ in range(500):
        m = well_conditioned(rng) * 10.0 ** rng.uniform(-3.0, 3.0)
        ref = np.linalg.det(m)
        assert abs(CentroAffineMap.of(m).det - ref) <= 1e-12 * abs(ref)


def row_image(sj, a):
    """The jet of f . A row by row: each of its six rows times A."""
    columns = tuple(zip(*a.matrix))
    return jet_of_rows(*(tuple(r0 * a0 + r1 * a1 + r2 * a2 for a0, a1, a2 in columns) for r0, r1, r2 in jet_rows(sj)))


# stretch, tiny (every titeica-xyz point singular), two general maps
# (non-Monge jets) and a reflection
MATRICES = [
    "2,0,0,0,2,0,0,0,2",
    "0.001,0,0,0,0.001,0,0,0,0.001",
    "1.3,0.2,-0.4,0.1,0.9,0.3,-0.2,0.5,1.1",
    "0.7,-1.2,0.3,2.1,0.4,-0.6,0.05,0.9,1.7",
    "-1,0,0,0,1,0,0,0,1",
]


def map_of(entries):
    values = [float(v) for v in entries.split(",")]
    return CentroAffineMap.of([values[i:i + 3] for i in (0, 3, 6)])


@pytest.mark.parametrize("entries", MATRICES + ["0,1,0,1,0,0,0,0,-1"])
def test_action_on_jets_matches_jet2_image(entries):
    # The image is held by repr, which tells -0.0 from 0.0, to the rows times
    # A and to the Jet2 image.
    a = map_of(entries)
    for name in surface_names():
        s = catalog(name)
        image = apply_map(s, a)
        for x, y in grid_points(s.domain, 13, 11):
            sj = eval_surface(s, x, y)
            mapped = eval_surface(image, x, y)
            assert repr(mapped) == repr(a.act(sj)) == repr(row_image(sj, a)) == repr(jet2_image(sj, a)), (name, x, y)


def test_identity_action_is_exact():
    s = catalog("titeica-xyz")
    image = apply_map(s, CentroAffineMap.of(np.eye(3)))
    for x, y in grid_points(s.domain, 5, 5):
        before = point_invariants(eval_surface(s, x, y), EUCLIDEAN).ratio
        after = point_invariants(eval_surface(image, x, y), EUCLIDEAN).ratio
        assert abs(after - before) <= 1e-14 * max(1.0, abs(before))


def test_diagonal_map_on_titeica_xyz():
    s = catalog("titeica-xyz")
    a = CentroAffineMap.of(np.diag([2.0, 1.0, 1.0]))
    image = apply_map(s, a)
    for x, y in grid_points(s.domain, 5, 5):
        after = point_invariants(eval_surface(image, x, y), EUCLIDEAN).ratio
        assert abs(after - 1.0 / 108.0) <= 1e-9  # (1/4) * (1/27)


def test_verify_scaling_identity_map():
    report = verify_scaling(catalog("paraboloid"), CentroAffineMap.of(np.eye(3)), (5, 4), 1e-10)
    assert report.passed
    assert report.max_ratio_residual <= 1e-12


def test_verify_scaling_diag_on_titeica():
    s = catalog("titeica-xyz")
    a = CentroAffineMap.of(np.diag([2.0, 1.0, 1.0]))
    report = verify_scaling(s, a, (5, 4), 1e-8)
    assert report.passed
    for p in report.points:
        assert p.skipped is None
        assert abs(p.ratio_after - 1.0 / 108.0) <= 1e-10


def test_verify_scaling_reflection_preserves_ratio():
    rng = np.random.default_rng(31)
    s = catalog("paraboloid")
    a = random_orthogonal(rng, det_sign=-1.0)
    report = verify_scaling(s, a, (5, 4), 1e-9)
    assert report.passed
    for p in report.points:
        assert abs(p.ratio_after - p.ratio_before) <= 1e-9 * max(1.0, abs(p.ratio_before))


def test_group_property():
    rng = np.random.default_rng(37)
    s = catalog("titeica-xyz")
    for _ in range(10):
        a = random_map(rng)
        b = random_map(rng)
        ab = CentroAffineMap.of(np.array(a.matrix) @ np.array(b.matrix))
        points = [random_regular_point(rng, s) for _ in range(5)]
        report = verify_scaling(s, ab, (3, 2), 1e-8)
        assert report.passed
        # sequential application agrees with the composed map
        seq = apply_map(apply_map(s, a), b)
        direct = apply_map(s, ab)
        for x, y in points:
            r1 = point_invariants(eval_surface(seq, x, y), EUCLIDEAN).ratio
            r2 = point_invariants(eval_surface(direct, x, y), EUCLIDEAN).ratio
            assert abs(r1 - r2) <= 1e-8 * max(1.0, abs(r2))


def test_volume_scales_by_det():
    rng = np.random.default_rng(41)
    surfaces = [catalog("titeica-xyz"), catalog("paraboloid"), catalog("sphere-origin", R=1.5)]
    for _ in range(200):
        s = surfaces[int(rng.integers(0, len(surfaces)))]
        a = random_map(rng)
        image = apply_map(s, a)
        x, y = random_regular_point(rng, s, min_distance=5e-2)
        v = point_invariants(eval_surface(s, x, y), s.ambient).V
        v_image = point_invariants(eval_surface(image, x, y), s.ambient).V
        assert abs(v_image - a.det * v) <= 1e-10 * abs(a.det * v)


def test_rotation_leaves_ratio_unchanged():
    rng = np.random.default_rng(43)
    for name in ("titeica-xyz", "paraboloid"):
        s = catalog(name)
        for _ in range(5):
            rot = random_orthogonal(rng, det_sign=1.0)
            image = apply_map(s, rot)
            for _ in range(5):
                x, y = random_regular_point(rng, s)
                before = point_invariants(eval_surface(s, x, y), EUCLIDEAN).ratio
                after = point_invariants(eval_surface(image, x, y), EUCLIDEAN).ratio
                assert abs(after - before) <= 1e-10 * max(1.0, abs(before))


def test_a_unimodular_map_keeps_a_non_constant_verdict():
    # test_properties maps the constant-ratio surfaces; a varying ratio must stay varying.
    s = catalog("sphere-translated", R=1.0, c=2.0)
    assert not classify(s, grid=(10, 10), tol=1e-8).is_titeica
    image = apply_map(s, random_orthogonal(np.random.default_rng(47), det_sign=1.0))
    assert not classify(image, grid=(10, 10), tol=1e-8).is_titeica


@pytest.mark.parametrize("entries", MATRICES)
def test_verify_scaling_matches_four_separate_views(entries):
    a = map_of(entries)
    for name in surface_names():
        s = catalog(name)
        points = grid_points(s.domain, 13, 11)
        assert list(verify_scaling(s, a, (13, 11), 1e-8).points) == scaling_reference(s, a, points), name


@pytest.mark.parametrize("entries", ["2,0,0,0,1,0,0,0,1", MATRICES[1], MATRICES[2], "1.5,0.2,0,0,1,0.3,0.1,0,0.8"])
@pytest.mark.parametrize("name", surface_names())
def test_plain_tuple_route_matches_the_public_records(name, entries):
    # The grid commands hand plain tuples from the sweep to the pass; each
    # row, by repr, is the one the public records give, and act writes the
    # rows times A into three jets.
    a, s = map_of(entries), catalog(name)
    assert repr(verify_scaling(s, a, (13, 11), 1e-8).points) == repr(tuple(called_scaling_rows(s, a, (13, 11))))
    for x, y in grid_points(s.domain, 13, 11):
        sj = eval_surface(s, x, y)
        image = a.act(sj)
        assert type(image) is tuple and len(image) == 3 and {type(c) for c in image} == {Jet2}
        assert repr(image) == repr(row_image(sj, a)), (x, y)
    for surface in (s, apply_map(s, a)):
        assert repr(scan_grid(surface, (13, 11))) == repr(called_rows(surface, (13, 11)))


@pytest.mark.parametrize("surface", ["paraboloid", "minkowski-sphere"])
def test_transform_check_makes_one_invariant_pass_per_side(surface, monkeypatch, tmp_path):
    passes = []
    point = invariants._pass

    def counting_pass(jets, amb, *seeds):  # a graph's height comes with its seeds' values
        passes.append(amb)
        return point(jets, amb, *seeds)

    monkeypatch.setattr(invariants, "_pass", counting_pass)
    monkeypatch.setattr(centroaffine, "_pass", counting_pass)
    argv = ["transform-check", "--surface", surface, "--matrix", "2,0,0,0,1,0,0,0,1",
            "--grid", "5", "4", "--output", str(tmp_path / "report.txt")]
    assert main(argv) == 0
    assert len(passes) == 2 * 5 * 4
    s = catalog(surface)
    assert all(amb is s.ambient for amb in passes)


def test_overflowing_maps_are_reported_not_raised(capsys):
    # det^2 is a float, but the image's Vxy^2 is not: each point is skipped.
    s = catalog("sphere-origin", R=1e-3)
    a = CentroAffineMap.of(np.eye(3) * 4.7e50)
    report = verify_scaling(s, a, (3, 3), 1e-8)
    assert report.scale_factor == 1.0 / (a.det * a.det)
    assert report.points_skipped == 9
    assert all(p.skipped.startswith("non-finite") for p in report.points)
    argv = ["transform-check", "--surface", "sphere-origin", "--param", "R=1e-3",
            "--matrix", "4.7e50,0,0,0,4.7e50,0,0,0,4.7e50", "--grid", "3", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == ""


def test_scale_factor_is_the_divisor_of_the_predicted_ratios(capsys):
    # det = 2.759: 1 / det**2 reads ...207, one bit above 1 / (det * det),
    # the factor each point's predicted ratio is divided by.
    s = catalog("titeica-xyz")
    a = CentroAffineMap.of([[2.759, 0, 0], [0, 1, 0], [0, 0, 1]])
    report = verify_scaling(s, a, (3, 3), 1e-8)
    assert report.scale_factor == 1.0 / (a.det * a.det) == 0.13137012073308205
    assert report.passed
    argv = ["transform-check", "--surface", "titeica-xyz", "--matrix", "2.759,0,0,0,1,0,0,0,1",
            "--format", "json", "--grid", "3", "3"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["scale_factor"] == 0.13137012073308205


def test_scale_factor_is_zero_where_det_squared_overflows():
    # det = 1e155: det * det is inf.  CentroAffineMap.of refuses such a map;
    # one built as its fields has the factor 1 / inf, not the subnormal
    # 1e-310 of (1 / det) / det, and every predicted numerator is not finite,
    # so every point is skipped.
    with pytest.raises(ValueError, match=r"^centro-affine matrix is too large, det\^2 overflows, got det = 1e\+155$"):
        CentroAffineMap.of([[1e155, 0, 0], [0, 1, 0], [0, 0, 1]])
    a = CentroAffineMap(((1e155, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), 1e155)
    report = verify_scaling(catalog("titeica-xyz"), a, (3, 3), 1e-8)
    assert report.scale_factor == 0.0
    assert (report.points_evaluated, report.points_skipped, report.passed) == (0, 9, False)


def test_overflowing_predicted_numerator_is_a_non_finite_skip():
    # At the middle point f = (0, 0, 0.1) and K/d^4 = 100: det^2 is past float
    # range, so det^2 (Vx Vy - Vxy^2) is too, while the image's ratio
    # 100 / det^2 = 1e-307 is still a normal float.  CentroAffineMap.of
    # refuses such a det, so the map is built as its fields.
    s = catalog("sphere-translated", R=10.0, c=-9.9)
    lam = 10**51.5
    a = CentroAffineMap(((lam, 0.0, 0.0), (0.0, lam, 0.0), (0.0, 0.0, lam)), lam * lam * lam)
    report = verify_scaling(s, a, (3, 3), 1e-8)
    assert report.points_skipped == 9
    assert report.points[4].skipped == "non-finite Vx Vy - Vxy^2 (det = 3.16228e+154)"
    assert all(p.skipped.startswith("K/d^4 underflows") for i, p in enumerate(report.points) if i != 4)


@pytest.mark.parametrize("diagonal", [(1e100, 1e100, 1e-100), (1e160, 1e-160, 1.0)])
def test_overflowing_normal_is_a_non_finite_skip(diagonal):
    # The image's tangent rows are finite but |f_x x f_y|^2 and <n, n> overflow;
    # an infinite <n, n> would make d read 0, as if the plane met the origin.
    s = catalog("titeica-xyz")
    report = verify_scaling(s, CentroAffineMap.of(np.diag(diagonal)), (3, 3), 1e-8)
    assert report.points_skipped == 9
    assert all(p.skipped.startswith("non-finite") for p in report.points)


def test_ratio_is_evaluated_where_only_v4_overflows():
    # under 1e30 I the image's V is about 1e90: V^4 would be past float range,
    # K/d^4 = num / V / V / V / V about 1e-180 is not
    s = catalog("titeica-xyz")
    a = CentroAffineMap.of(np.eye(3) * 1e30)
    report = verify_scaling(s, a, (5, 5), 1e-8)
    assert report.points_evaluated == 25
    assert all(abs(p.ratio_after / p.ratio_before * 1e180 - 1.0) <= 1e-14 for p in report.points)


@pytest.mark.parametrize("surface, k", [("paraboloid", 1e-4), ("titeica-xyz", 1e-5), ("sphere-origin", 1e-5)])
def test_ill_conditioned_unimodular_map_passes(surface, k):
    # det = 1 at condition number 1/k^2: the curvature route's EG - F^2
    # lost about 8 digits here, the volume ratio loses none
    s = catalog(surface)
    a = CentroAffineMap.of(np.diag([k, 1.0, 1.0 / k]))
    report = verify_scaling(s, a, (20, 20), 1e-8)
    assert report.max_ratio_residual <= 1e-8


@pytest.mark.parametrize("radius", [1.0, 1e3, 1e6])
def test_ratio_residual_catches_a_wrong_law(radius):
    # The general matrix with det replaced by sqrt|det|: its map predicts
    # K/d^4 scaling by 1/det, not 1/det^2.
    good = map_of("1.5,0.2,0,0,1,0.3,0.1,0,0.8")
    wrong = CentroAffineMap(good.matrix, math.copysign(math.sqrt(abs(good.det)), good.det))
    s = catalog("sphere-origin", R=radius)
    report = verify_scaling(s, wrong, (5, 4), 1e-8)
    assert not report.passed and report.max_volume_residual > 1e-8  # relative: 0.098 at every R
    assert report.max_ratio_residual > 1e-8  # relative: 0.17 at every R


def test_all_skipped_run_fails():
    s = catalog("plane")  # every tangent plane passes through the origin
    report = verify_scaling(s, CentroAffineMap.of(np.eye(3)), (3, 3), 1e-8)
    assert not report.passed
    assert report.points_evaluated == 0
    assert report.points_skipped == 9


# ROADMAP items 1 and 18: the law at every scale and conditioning of the
# map, on the three Titeica surfaces of the catalog.
TITEICA = ("titeica-xyz", "sphere-origin", "minkowski-sphere")


@pytest.mark.parametrize("scale", [1e-45, 1e-30, 1e-4, 1e-3, 1e-2, 1e2, 1e4])
@pytest.mark.parametrize("surface", TITEICA)
def test_scaling_law_holds_for_every_scaled_identity(surface, scale):
    report = verify_scaling(catalog(surface), CentroAffineMap.of(np.eye(3) * scale), (20, 20), 1e-8)
    assert report.passed and report.points_skipped == 0


REGULAR = [name for name in surface_names() if name != "plane"]


@functools.cache
def unmapped_rows(name):
    return scan_grid(catalog(name), (9, 7))


def scaled_row(r, k):
    """Row r under 2^k I, or None where its scaled K, d or K/d^4 is not 0 or a normal float."""
    if r.skipped:
        return r
    values = []
    for v, e in ((r.K, -2 * k), (r.d, k), (r.ratio, -6 * k)):
        try:
            w = math.ldexp(v, e)
        except OverflowError:
            return None
        if v and abs(w) < sys.float_info.min:
            return None
        values.append(w)
    return r._replace(K=values[0], d=values[1], ratio=values[2])


@pytest.mark.parametrize("k", range(-168, 169, 4))  # of refuses 2^172 I and 2^-172 I
def test_a_power_of_two_scales_every_row_exactly(k):
    # 2^k I scales every jet field by 2^k exactly, and so K by 2^-2k, d by 2^k
    # and K/d^4 by 2^-6k; the singular tests read each quantity against the
    # point's own terms, and the pass divides num by nn and V one at a time,
    # so every scale skips the same rows for the same reason.  A row whose
    # scaled value leaves the normal floats is skipped (two paraboloid rows at
    # k = -168, K/d^4 past 1.8e308).  verify_scaling finds each of its three
    # laws with residual 0; k = 0 is the identity map.
    a = CentroAffineMap.of(np.eye(3) * 2.0**k)
    for name in REGULAR:
        want = [scaled_row(r, k) for r in unmapped_rows(name)]
        got = scan_grid(apply_map(catalog(name), a), (9, 7))
        assert [g for g, w in zip(got, want) if w] == [w for w in want if w], name
        assert all(g.skipped for g, w in zip(got, want) if not w), name
        report = verify_scaling(catalog(name), a, (9, 7), 0.0)
        assert report.passed and report.points_skipped == sum(1 for w in want if not w or w.skipped), name


def _fold(x, y):
    s = x + y  # f_x = f_y up to rounding: the tangent plane is degenerate
    return s, s * s, x * x * x + 3.0 * x * x * y + 3.0 * x * y * y + y * y * y


@pytest.mark.parametrize("s, reason", [
    pytest.param(SurfaceDef("cone", lambda x, y: jet.sqrt(x * x + y * y), Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN),
                 "tangent plane passes through the origin", id="cone"),
    pytest.param(SurfaceDef("fold", _fold, Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN),
                 "degenerate tangent plane", id="fold"),
    pytest.param(SurfaceDef("light-cone", lambda r, t: (r, r * jet.cos(t), r * jet.sin(t)), Box(0.5, 2.0, 0.1, 3.0),
                            MINKOWSKI), "normal vector is null", id="light-cone"),
])
def test_a_singular_surface_is_singular_at_every_scale(s, reason):
    # Each singular test reads its quantity against its own terms, which a map
    # 2^k I scales alike: every point keeps its unit-scale skip reason.
    for k in range(-32, 65, 8):
        rows = scan_grid(apply_map(s, CentroAffineMap.of(np.eye(3) * 2.0**k)), (9, 7))
        assert all(r.skipped and r.skipped.startswith(reason) for r in rows), k


# Rz(0.7) Rx(0.4), written out: Q diag(k, 1/k, 1) Q is unimodular with
# condition number k^2.
ROTATION = np.array([
    [0.7648421872844885, -0.5933637833613874, 0.2508701838500143],
    [0.644217687237691, 0.7044663052755917, -0.2978435767000479],
    [0.0, 0.3894183423086505, 0.9210609940028851],
])


@pytest.mark.parametrize("k", [
    1e2,  # max ratio residual 5.1e-10 (minkowski-sphere)
    pytest.param(1e4, marks=pytest.mark.xfail(  # 3.8e-5 to 7.8e-4
        strict=True, raises=AssertionError, reason="ROADMAP item 18: the float pass and det lose digits to k^2")),
])
@pytest.mark.parametrize("surface", TITEICA)
def test_an_ill_conditioned_unimodular_map_keeps_the_law_and_the_verdict(surface, k):
    s = catalog(surface)
    a = CentroAffineMap.of(ROTATION @ np.diag([k, 1.0 / k, 1.0]) @ ROTATION)
    assert verify_scaling(s, a, (20, 20), 1e-8).passed
    assert classify(apply_map(s, a)).is_titeica
