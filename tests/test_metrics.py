import json
import math

import numpy as np
import pytest

from helpers import nan_at_positive_x, nan_metric_pair
from titeica import metrics
from titeica.cli import main
from titeica.errors import CatalogError, DomainError, RegularityError, SignatureError, UsageError
from titeica.invariants import fundamental_forms
from titeica.jet import constant, seed_xy
from titeica.metrics import (
    CoordChange,
    Metric2,
    MetricPair,
    brioschi_curvature,
    check_pair,
    metric,
    metric_pair,
    metric_values,
    metrics_agree,
    pair_names,
    pullback,
)
from titeica.surfaces import MINKOWSKI, Box, catalog, eval_surface, grid_points


def test_flat_metric_has_zero_curvature():
    m = metric("euclidean")
    for p in grid_points(m.domain, 5, 5):
        assert abs(brioschi_curvature(m, p)) <= 1e-14


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
    with pytest.raises(SignatureError):
        brioschi_curvature(m, (0.0, 0.0))


def test_pullback_through_identity():
    m = metric("pseudosphere")
    change = CoordChange("identity", lambda x, y: (x, y), m.domain)
    for p in grid_points(m.domain, 5, 5):
        direct = metric_values(m, p)
        pulled = pullback(m, change, p)
        for a, b in zip(direct, pulled):
            assert abs(a - b) <= 1e-14
    # (x, y) -> (x, y0) keeps the point but collapses the second direction
    frozen = CoordChange("frozen-y", lambda x, y: (x, constant(y.val)), m.domain)
    with pytest.raises(RegularityError, match="'frozen-y' has singular Jacobian"):
        pullback(m, frozen, p)


def test_pullback_pseudosphere_from_half_plane():
    pair = metric_pair("pseudosphere:half-plane")
    grid = grid_points(pair.source.domain, 10, 5)
    report = metrics_agree(pair.source, (pair.target, pair.changes[0][1]), grid, 1e-10)
    assert report.passed, report.max_diff


def test_pullback_half_plane_from_disk():
    pair = metric_pair("half-plane:disk")
    grid = grid_points(pair.source.domain, 10, 5)
    report = metrics_agree(pair.source, (pair.target, pair.changes[0][1]), grid, 1e-9)
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
     "point (-5, 0.5) outside domain [0.1, 3] x [0.3, 1.2] of coordinate change 'pseudosphere-to-half-plane'"),
])
def test_point_outside_domain_names_the_box_and_its_owner(call, message):
    with pytest.raises(DomainError) as err:
        call(metric("half-plane"), metric_pair("pseudosphere:half-plane").changes[0][1])
    assert str(err.value) == message


def test_metrics_agree_identity_comparison():
    m = metric("half-plane")
    report = metrics_agree(m, m, grid_points(m.domain, 5, 5), 1e-12)
    assert report.passed and report.max_diff == 0.0


def test_metrics_agree_empty_grid():
    m = metric("half-plane")
    with pytest.raises(UsageError):
        metrics_agree(m, m, [], 1e-9)


@pytest.mark.parametrize("grid", [[(-0.5, 0.0), (0.5, 0.0)], [(0.5, 0.0), (-0.5, 0.0)]])
def test_metrics_agree_fails_on_a_nan_difference(grid):
    candidate = Metric2("nan-g11", nan_at_positive_x, Box(-1.0, 1.0, -1.0, 1.0))
    report = metrics_agree(metric("euclidean"), candidate, grid, 1e-9)
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
def test_check_pair_variants_equal_separate_metrics_agree_calls(name):
    pair = metric_pair(name)
    variants = check_pair(pair, 13, 11, 1e-8)
    grid = grid_points(pair.source.domain, 13, 11)
    expected = tuple(
        (label, metrics_agree(pair.source, (pair.target, change), grid, 1e-8)) for label, change in pair.changes
    )
    assert variants == expected


def test_check_pair_evaluates_the_source_once_per_point():
    calls = []

    def counting_flat(x, y):
        calls.append((x.val, y.val))
        return constant(1.0), constant(0.0), constant(1.0)

    box = Box(-1.0, 1.0, -1.0, 1.0)
    flat = metric("euclidean")
    changes = (
        ("identity", CoordChange("identity", lambda x, y: (x, y), box)),
        ("swap", CoordChange("swap", lambda x, y: (y, x), box)),
    )
    pair = MetricPair("counting:flat", Metric2("counting", counting_flat, box), flat, changes)
    variants = check_pair(pair, 4, 3, 1e-12)
    assert [label for label, rep in variants if rep.passed] == ["identity", "swap"]
    assert len(calls) == 4 * 3


def test_curvature_is_a_pullback_invariant():
    # for each catalog pair, the source metric equals the pullback, so its
    # curvature at p matches the target's curvature at phi(p)
    rng = np.random.default_rng(53)
    for name in ("pseudosphere:half-plane", "half-plane:disk", "disk:minkowski-sphere"):
        pair = metric_pair(name)
        label, change = pair.changes[0]
        box = pair.source.domain
        for _ in range(50):
            x = float(rng.uniform(box.x0 + 0.02 * (box.x1 - box.x0), box.x1 - 0.02 * (box.x1 - box.x0)))
            y = float(rng.uniform(box.y0 + 0.02 * (box.y1 - box.y0), box.y1 - 0.02 * (box.y1 - box.y0)))
            u, v = change.mapping(*seed_xy(x, y))
            k_source = brioschi_curvature(pair.source, (x, y))
            k_target = brioschi_curvature(pair.target, (u.val, v.val))
            assert abs(k_source - k_target) <= 1e-6, name


def test_extrinsic_matches_intrinsic_on_minkowski_sphere():
    s = catalog("minkowski-sphere")
    m = metric("minkowski-sphere")
    for u1, u2 in grid_points(s.domain, 8, 8):
        forms = fundamental_forms(eval_surface(s, u1, u2), MINKOWSKI)
        g11, g12, g22 = metric_values(m, (u1, u2))
        assert abs(forms.E - g11) <= 1e-10
        assert abs(forms.F - g12) <= 1e-10
        assert abs(forms.G - g22) <= 1e-10


def test_unknown_metric_and_pair():
    with pytest.raises(CatalogError):
        metric("torus")
    with pytest.raises(CatalogError):
        metric_pair("torus:plane")
