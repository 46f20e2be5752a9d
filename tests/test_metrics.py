import json
import math

import numpy as np
import pytest

import frame_reference as ref
from helpers import FLAT, nan_metric_pair
from titeica import jet, metrics
from titeica.cli import main
from titeica.errors import CatalogError, DomainError, SingularPointError
from titeica.invariants import point_invariants
from titeica.jet import constant, seed_xy
from titeica.metrics import (
    Metric2,
    MetricPair,
    brioschi_curvature,
    check_pair,
    metric,
    metric_pair,
    metric_values,
    pair_names,
    pullback,
)
from titeica.surfaces import MINKOWSKI, Box, catalog, eval_surface, grid_points


def test_flat_metric_has_zero_curvature():
    for p in grid_points(FLAT.domain, 5, 5):
        assert abs(brioschi_curvature(FLAT, p)) <= 1e-14


def test_pseudosphere_metric_curvature():
    m = metric("pseudosphere")
    for p in grid_points(m.domain, 10, 5):
        assert abs(brioschi_curvature(m, p) + 1.0) <= 1e-7


def test_half_plane_curvature():
    # hand value: for (dx^2 + dy^2)/y^2 the Brioschi numerator is -1/y^8
    # against (EG - F^2)^2 = 1/y^8, so K = -1
    m = metric("half-plane")
    for p in grid_points(m.domain, 10, 5):
        assert abs(brioschi_curvature(m, p) + 1.0) <= 1e-7


def test_disk_curvature_on_annulus():
    m = metric("disk")
    for p in grid_points(m.domain, 10, 5):
        r = math.hypot(*p)
        assert 0.2 < r < 0.8
        assert abs(brioschi_curvature(m, p) + 1.0) <= 1e-7


def test_minkowski_sphere_metric_curvature():
    m = metric("minkowski-sphere")
    for p in grid_points(m.domain, 10, 5):
        assert abs(brioschi_curvature(m, p) + 1.0) <= 1e-7


def test_brioschi_rejects_indefinite_metric():
    def components(x, y):
        return constant(-1.0), constant(0.0), constant(1.0)

    m = Metric2("bad", components, Box(-1, 1, -1, 1))
    with pytest.raises(SingularPointError, match="metric 'bad' is not positive-definite"):
        brioschi_curvature(m, (0.0, 0.0))


def test_pullback_through_identity():
    m = metric("pseudosphere")
    for p in grid_points(m.domain, 5, 5):
        direct = metric_values(m, p)
        pulled = pullback(m, lambda x, y: (x, y), p)
        for a, b in zip(direct, pulled):
            assert abs(a - b) <= 1e-14
    # (x, y) -> (x, y0) keeps the point but collapses the second direction
    with pytest.raises(SingularPointError, match="singular Jacobian"):
        pullback(m, lambda x, y: (x, constant(y.val)), p)


def test_pullback_pseudosphere_from_half_plane():
    (_, report), = check_pair(metric_pair("pseudosphere:half-plane"), 10, 5, 1e-10)
    assert report.passed, report.max_diff


def test_pullback_half_plane_from_disk():
    (_, report), = check_pair(metric_pair("half-plane:disk"), 10, 5, 1e-9)
    assert report.passed, report.max_diff


def test_disk_change_variants_are_distinguished():
    reports = dict(check_pair(metric_pair("disk:minkowski-sphere"), 10, 5, 1e-8))
    assert [label for label, rep in reports.items() if rep.passed] == ["radius"]
    assert reports["radius"].max_diff <= 1e-8
    assert reports["squared-radius"].max_diff > 1e-3


def test_pullback_domain_error_carries_both_points():
    m = metric("half-plane")  # image of the change leaves this small box
    change = metric_pair("pseudosphere:half-plane").changes[0][1]
    with pytest.raises(DomainError) as err:
        pullback(m, change, (2.9, 0.35))
    msg = str(err.value)
    assert "image" in msg and "(2.9, 0.35)" in msg


@pytest.mark.parametrize("call, message", [
    (lambda m, c: metric_values(m, (0.0, -1.0)),
     "point (0, -1) outside domain [-1, 1] x [0.5, 3] of metric 'half-plane'"),
    (lambda m, c: brioschi_curvature(m, (0.0, -1.0)),
     "point (0, -1) outside domain [-1, 1] x [0.5, 3] of metric 'half-plane'"),
    (lambda m, c: pullback(m, c, (-5.0, 0.5)),
     "image (-5, 2.08583) of (-5, 0.5) lies outside domain [-1, 1] x [0.5, 3] of metric 'half-plane'"),
], ids=["metric_values", "brioschi_curvature", "pullback"])
def test_point_outside_domain_names_the_box_and_its_owner(call, message):
    with pytest.raises(DomainError) as err:
        call(metric("half-plane"), metric_pair("pseudosphere:half-plane").changes[0][1])
    assert str(err.value) == message


@pytest.mark.parametrize("mirror", [False, True], ids=["nan-last", "nan-first"])
def test_check_pair_fails_on_a_nan_difference(mirror):
    # The target's g11 is NaN at x > 0, which on the 2 x 2 grid is the
    # second and the last point; the mirror change (x, y) -> (-x, y) moves
    # the NaNs to the first and the third.
    pair = nan_metric_pair()
    if mirror:
        pair = pair._replace(changes=(("mirror", lambda x, y: (-x, y)),))
    (_, report), = check_pair(pair, 2, 2, 1e-9)
    assert [math.isnan(p.diff_g11) for p in report.points] == [mirror, not mirror] * 2
    assert math.isnan(report.max_diff)
    assert report.passed is False


def test_metric_check_writes_a_nan_max_diff_as_null(monkeypatch, tmp_path):
    monkeypatch.setitem(metrics._PAIRS, "flat:nan", nan_metric_pair())
    out = tmp_path / "report.json"
    assert main(["metric-check", "--pair", "flat:nan", "--format", "json", "--output", str(out)]) == 1
    with open(out) as fh:
        summary = json.load(fh)["summary"]
    assert summary["variants"]["identity"] == {"max_diff": None, "passed": False}


@pytest.mark.parametrize("name", pair_names())
def test_check_pair_rows_equal_direct_pullbacks(name):
    pair = metric_pair(name)
    variants = check_pair(pair, 13, 11, 1e-8)
    grid = grid_points(pair.source.domain, 13, 11)
    assert [label for label, _ in variants] == [label for label, _ in pair.changes]
    for (_, report), (_, mapping) in zip(variants, pair.changes):
        rows = []
        for p in grid:
            pulled = pullback(pair.target, mapping, p)
            rows.append((*p, *(abs(c - r) for c, r in zip(pulled, metric_values(pair.source, p)))))
        assert report.points == tuple(rows)
        assert report.max_diff == max(max(row[2:]) for row in rows)
        assert report.passed is (report.max_diff <= 1e-8)


def test_check_pair_evaluates_the_source_once_per_point():
    calls = []

    def counting_flat(x, y):
        calls.append((x.val, y.val))
        return constant(1.0), constant(0.0), constant(1.0)

    box = Box(-1.0, 1.0, -1.0, 1.0)
    changes = (("identity", lambda x, y: (x, y)), ("swap", lambda x, y: (y, x)))
    pair = MetricPair("counting:flat", Metric2("counting", counting_flat, box), FLAT, changes)
    variants = check_pair(pair, 4, 3, 1e-12)
    assert [label for label, rep in variants if rep.passed] == ["identity", "swap"]
    assert len(calls) == 4 * 3


def test_check_pair_tests_each_point_against_each_box_once(monkeypatch):
    # One source-box test per point, and one target-box test of its image
    # per variant.
    boxes = []
    require, contains = Box.require, Box.contains

    def counting_require(box, x, y, kind, name):
        boxes.append(box)
        return require(box, x, y, kind, name)

    def counting_contains(box, x, y):
        boxes.append(box)
        return contains(box, x, y)

    monkeypatch.setattr(Box, "require", counting_require)
    monkeypatch.setattr(Box, "contains", counting_contains)
    pair = metric_pair("disk:minkowski-sphere")
    check_pair(pair, 4, 3, 1e-8)
    assert boxes.count(pair.source.domain) == 4 * 3
    assert boxes.count(pair.target.domain) == 4 * 3 * len(pair.changes)
    assert len(boxes) == 4 * 3 * (1 + len(pair.changes))


def test_curvature_is_a_pullback_invariant():
    # for each catalog pair, the source metric equals the pullback, so its
    # curvature at p matches the target's curvature at phi(p)
    rng = np.random.default_rng(53)
    for name in ("pseudosphere:half-plane", "half-plane:disk", "disk:minkowski-sphere"):
        pair = metric_pair(name)
        label, mapping = pair.changes[0]
        box = pair.source.domain
        for _ in range(50):
            x = float(rng.uniform(box.x0 + 0.02 * (box.x1 - box.x0), box.x1 - 0.02 * (box.x1 - box.x0)))
            y = float(rng.uniform(box.y0 + 0.02 * (box.y1 - box.y0), box.y1 - 0.02 * (box.y1 - box.y0)))
            u, v = mapping(*seed_xy(x, y))
            k_source = brioschi_curvature(pair.source, (x, y))
            k_target = brioschi_curvature(pair.target, (u.val, v.val))
            assert abs(k_source - k_target) <= 1e-6, name


def test_extrinsic_matches_intrinsic_on_minkowski_sphere():
    s = catalog("minkowski-sphere")
    m = metric("minkowski-sphere")
    for u1, u2 in grid_points(s.domain, 8, 8):
        e, f, g, *_ = ref.fundamental_forms(eval_surface(s, u1, u2), MINKOWSKI)
        g11, g12, g22 = metric_values(m, (u1, u2))
        assert abs(e - g11) <= 1e-10
        assert abs(f - g12) <= 1e-10
        assert abs(g - g22) <= 1e-10


def _monge_form(u_x, u_y):
    """First fundamental form of the graph of u: 1 + u_x^2, u_x u_y, 1 + u_y^2."""
    def components(x, y):
        p, q = u_x(x, y), u_y(x, y)
        return 1.0 + p * p, p * q, 1.0 + q * q

    return components


def _sphere_slope(x, y, r=1.3):
    return -x / jet.sqrt(r * r - x * x - y * y)


# The first fundamental form of each surface as a jet-evaluable metric.
# It needs the first derivatives of the immersion as jets, which a
# SurfaceJet does not carry, so they are written out.
FIRST_FORMS = {
    "sphere-origin": _monge_form(_sphere_slope, lambda x, y: _sphere_slope(y, x)),
    "titeica-xyz": _monge_form(lambda x, y: -1.0 / (x * x * y), lambda x, y: -1.0 / (x * y * y)),
    "paraboloid": _monge_form(lambda x, y: 2.0 * x, lambda x, y: 2.0 * y),
    "pseudosphere": lambda t, theta: (jet.tanh(t) * jet.tanh(t), constant(0.0),
                                      1.0 / (jet.cosh(t) * jet.cosh(t))),
    "minkowski-sphere": lambda u1, u2: (constant(1.0), constant(0.0), jet.sinh(u1) * jet.sinh(u1)),
}


@pytest.mark.parametrize("name", sorted(FIRST_FORMS))
def test_theorema_egregium(name):
    # Gauss: K depends on the first fundamental form alone, so Brioschi's
    # intrinsic K must match the volume route's K = det(S) (Vx Vy - Vxy^2) / nn^2
    s = catalog(name, R=1.3) if name == "sphere-origin" else catalog(name)
    m = Metric2(name, FIRST_FORMS[name], s.domain)
    for p in grid_points(s.domain, 12, 12):
        k = point_invariants(eval_surface(s, *p), s.ambient).K
        assert abs(brioschi_curvature(m, p) - k) <= 1e-12 * max(1.0, abs(k)), (p, k)


def test_unknown_metric_and_pair():
    with pytest.raises(CatalogError):
        metric("torus")
    with pytest.raises(CatalogError):
        metric_pair("torus:plane")
