import json
import math

import numpy as np
import pytest

import frame_reference as ref
from helpers import FLAT_BOX, IDENTITY, add_nan_pair, add_pair, brioschi_curvature, flat_components
from titeica import jet
from titeica.cli import main
from titeica.errors import CatalogError, DomainError, SingularPointError
from titeica.invariants import point_invariants
from titeica.jet import Jet2, seed_xy
from titeica.metrics import _METRICS, _PAIRS, AgreePoint, _pullback, check_pair, pair_names
from titeica.surfaces import MINKOWSKI, Box, _grid_axes, catalog, eval_surface, grid_points

PSEUDOSPHERE_BOX = Box(0.1, 3.0, 0.3, 1.2)
HALF_PLANE_BOX = Box(-1.0, 1.0, 0.5, 3.0)


def values(name, x, y):
    """The components of the catalog metric ``name`` at (x, y), as floats."""
    return _METRICS[name][0](float(x), float(y), math)


def change_jets(change, x, y):
    """The jets (u, v) at (x, y) of the change variant ``change``, one point
    at a time: its parts on the seeds of ``seed_xy``, a missing part the
    seed alone, then its ``mix``."""
    _, mix, *parts = change
    xpart, ypart = parts or (None, None)
    sx, sy = seed_xy(x, y)
    return mix(*(xpart(sx) if xpart else (sx,)), *(ypart(sy) if ypart else (sy,)))


def test_flat_metric_has_zero_curvature():
    for p in grid_points(FLAT_BOX, 5, 5):
        assert abs(brioschi_curvature(flat_components, *p)) <= 1e-14


def test_pseudosphere_metric_curvature():
    for p in grid_points(PSEUDOSPHERE_BOX, 10, 5):
        assert abs(brioschi_curvature(_METRICS["pseudosphere"][0], *p) + 1.0) <= 1e-7


def test_half_plane_curvature():
    # hand value: for (dx^2 + dy^2)/y^2 the Brioschi numerator is -1/y^8
    # against (EG - F^2)^2 = 1/y^8, so K = -1
    for p in grid_points(HALF_PLANE_BOX, 10, 5):
        assert abs(brioschi_curvature(_METRICS["half-plane"][0], *p) + 1.0) <= 1e-7


def test_disk_curvature_on_annulus():
    for p in grid_points(Box(0.15, 0.55, 0.15, 0.55), 10, 5):
        r = math.hypot(*p)
        assert 0.2 < r < 0.8
        assert abs(brioschi_curvature(_METRICS["disk"][0], *p) + 1.0) <= 1e-7


def test_minkowski_sphere_metric_curvature():
    for p in grid_points(Box(0.3, 2.0, 0.1, 3.0), 10, 5):
        assert abs(brioschi_curvature(_METRICS["minkowski-sphere"][0], *p) + 1.0) <= 1e-7


def test_brioschi_rejects_indefinite_metric():
    def components(x, y, m):
        return -1.0, 0.0, 1.0

    with pytest.raises(ValueError, match=r"^metric is not positive-definite at \(0, 0\)$"):
        brioschi_curvature(components, 0.0, 0.0)


@pytest.mark.parametrize("name", sorted(_METRICS))
def test_a_metric_is_one_formula_on_floats_and_on_jets(name):
    # check_pair evaluates a formula on floats, brioschi_curvature on jets:
    # at every point of every box a pair gives the metric, the floats must
    # be the values of the jets, to the last bit.
    components = _METRICS[name][0]
    boxes = [box for row in _PAIRS.values() for metric, box in (row[0:2], row[2:4]) if metric == name]
    assert boxes
    for box in boxes:
        for x, y in grid_points(box, 13, 11):
            jets = components(*seed_xy(x, y), jet)
            assert repr(components(x, y, math)) == repr(tuple(c.val if type(c) is Jet2 else c for c in jets)), (x, y)


def test_pullback_through_identity():
    for p in grid_points(PSEUDOSPHERE_BOX, 5, 5):
        pulled = _pullback("pseudosphere", PSEUDOSPHERE_BOX, *seed_xy(*p), *p)
        for a, b in zip(values("pseudosphere", *p), pulled):
            assert abs(a - b) <= 1e-14
    # (x, y) -> (x, y0) keeps the image inside but collapses the second direction
    with pytest.raises(SingularPointError) as err:
        _pullback("pseudosphere", PSEUDOSPHERE_BOX, seed_xy(1.5, 0.4)[0], Jet2(0.5), 1.5, 0.4)
    assert str(err.value) == "coordinate change into metric 'pseudosphere' has singular Jacobian at (1.5, 0.4)"


def test_pullback_pseudosphere_from_half_plane():
    (_, _, worst, passed), = check_pair("pseudosphere:half-plane", (10, 5), 1e-10)
    assert passed, worst


def test_pullback_half_plane_from_disk():
    (_, _, worst, passed), = check_pair("half-plane:disk", (10, 5), 1e-9)
    assert passed, worst


def test_disk_change_variants_are_distinguished():
    variants = check_pair("disk:minkowski-sphere", (10, 5), 1e-8)
    reports = {label: (worst, passed) for label, _, worst, passed in variants}
    assert [label for label, (_, passed) in reports.items() if passed] == ["radius"]
    assert reports["radius"][0] <= 1e-8
    assert reports["squared-radius"][0] > 1e-3


def test_pullback_domain_error_carries_both_points():
    change = _PAIRS["pseudosphere:half-plane"][4][0]  # its image leaves this small box
    with pytest.raises(DomainError) as err:
        _pullback("half-plane", HALF_PLANE_BOX, *change_jets(change, 2.9, 0.35), 2.9, 0.35)
    msg = str(err.value)
    assert "image" in msg and "(2.9, 0.35)" in msg


@pytest.mark.parametrize("call, message", [
    (lambda change: _pullback("half-plane", HALF_PLANE_BOX, *change_jets(change, -5.0, 0.5), -5.0, 0.5),
     "image (-5, 2.08583) of (-5, 0.5) lies outside domain [-1, 1] x [0.5, 3] of metric 'half-plane'"),
], ids=["pullback"])
def test_point_outside_domain_names_the_box_and_its_owner(call, message):
    with pytest.raises(DomainError) as err:
        call(_PAIRS["pseudosphere:half-plane"][4][0])
    assert str(err.value) == message


@pytest.mark.parametrize("mirror", [False, True], ids=["nan-last", "nan-first"])
def test_check_pair_fails_on_a_nan_difference(mirror, monkeypatch):
    # The target's g11 is NaN at x > 0, which on the 2 x 2 grid is the
    # second and the last point; the mirror change (x, y) -> (-x, y) moves
    # the NaNs to the first and the third.
    add_nan_pair(monkeypatch, (("mirror", lambda x, y: (-x, y)),) if mirror else IDENTITY)
    (_, points, worst, passed), = check_pair("flat:nan", (2, 2), 1e-9)
    assert [math.isnan(p.diff_g11) for p in points] == [mirror, not mirror] * 2
    assert math.isnan(worst)
    assert passed is False


def test_metric_check_writes_a_nan_max_diff_as_null(monkeypatch, tmp_path):
    add_nan_pair(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["metric-check", "--pair", "flat:nan", "--format", "json", "--output", str(out)]) == 1
    with open(out) as fh:
        summary = json.load(fh)["summary"]
    assert summary["variants"]["identity"] == {"max_diff": None, "passed": False}


def test_metric_check_reports_a_singular_change_as_a_verification_error(monkeypatch, capsys):
    # (x, y) -> (x, y0) collapses the second direction at every point
    collapse = (("collapse", lambda x, y: (x, Jet2(0.5))),)
    add_pair(monkeypatch, "pseudosphere:collapse",
             ("pseudosphere", PSEUDOSPHERE_BOX, "pseudosphere", PSEUDOSPHERE_BOX, collapse))
    assert main(["metric-check", "--pair", "pseudosphere:collapse"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification error: coordinate change into metric 'pseudosphere'")


@pytest.mark.parametrize("name", pair_names())
def test_check_pair_rows_equal_direct_pullbacks(name):
    # The two-axis walk against the change evaluated point by point.
    source, source_box, target, target_box, changes = _PAIRS[name]
    for grid in (13, 11), (2, 2):
        variants = check_pair(name, grid, 1e-8)
        assert [label for label, *_ in variants] == [label for label, *_ in changes]
        for (_, rows, worst, passed), change in zip(variants, changes):
            expected = []
            for p in grid_points(source_box, *grid):
                pulled = _pullback(target, target_box, *change_jets(change, *p), *p)
                expected.append(AgreePoint(*p, *(abs(c - r) for c, r in zip(pulled, values(source, *p)))))
            assert repr(rows) == repr(tuple(expected)), grid
            assert worst == max(max(row[2:]) for row in expected)
            assert passed is (worst <= 1e-8)


# Each catalog change as one formula in the seeds: the reference that its
# one-axis parts and mix must reproduce to the bit.
WHOLE_CHANGES = {
    ("pseudosphere:half-plane", "standard"): lambda x1, x2: (x1, 1.0 / jet.sin(x2)),
    ("half-plane:disk", "standard"): lambda x, y: (
        (2.0 * x) / (x * x + (1.0 - y) * (1.0 - y)), (1.0 - x * x - y * y) / (x * x + (1.0 - y) * (1.0 - y))),
    ("disk:minkowski-sphere", "radius"): lambda y1, y2: (
        2.0 * jet.atanh(jet.sqrt(y1 * y1 + y2 * y2)), jet.atan(y2 / y1)),
    ("disk:minkowski-sphere", "squared-radius"): lambda y1, y2: (
        2.0 * jet.atanh(y1 * y1 + y2 * y2), jet.atan(y2 / y1)),
}


@pytest.mark.parametrize("name, label", sorted(WHOLE_CHANGES))
def test_a_split_change_is_its_whole_formula(name, label):
    # The parts and the mix run the jet operations of the whole change on
    # the same operands in the same order, so every jet is the same to the bit.
    change, = (c for c in _PAIRS[name][4] if c[0] == label)
    for p in grid_points(_PAIRS[name][1], 13, 11):
        assert repr(change_jets(change, *p)) == repr(WHOLE_CHANGES[name, label](*seed_xy(*p))), p


def test_check_pair_runs_each_part_once_per_axis_value(monkeypatch):
    # Each part runs once per axis value and variant, a mix once per point
    # and variant; a change without parts gets the two seeds of the point.
    calls = []

    def part(axis):
        def run(s):
            calls.append((axis, s))
            return (s,)
        return run

    def mix(label):
        def run(x, y):
            calls.append((label, x, y))
            return x, y
        return run

    changes = (("split", mix("split"), part("x"), part("y")), ("whole", mix("whole")))
    add_pair(monkeypatch, "flat:flat", ("flat", FLAT_BOX, "flat", FLAT_BOX, changes), flat=flat_components)
    variants = check_pair("flat:flat", (4, 3), 1e-12)
    assert [label for label, _, _, passed in variants if passed] == ["split", "whole"]
    xs, ys = _grid_axes(FLAT_BOX, 4, 3)
    seeds = [seed_xy(x, y) for y in ys for x in xs]
    split = [("x", sx) for sx, _ in seeds[:4]]
    for j in range(3):
        split += [("y", seeds[4 * j][1])] + [("split", *s) for s in seeds[4 * j:4 * j + 4]]
    assert repr(calls) == repr(split + [("whole", *s) for s in seeds])


def test_a_part_error_propagates_before_the_first_point(monkeypatch):
    mixed = []

    def xpart(s):
        if s.val > 0.0:
            raise DomainError(f"x part undefined at {s.val:g}")
        return (s,)

    def mix(x, y):
        mixed.append((x, y))
        return x, y

    add_pair(monkeypatch, "flat:flat", ("flat", FLAT_BOX, "flat", FLAT_BOX, (("guarded", mix, xpart, None),)),
             flat=flat_components)
    with pytest.raises(DomainError, match=r"^x part undefined at 0\.98$"):
        check_pair("flat:flat", (2, 2), 1e-12)
    assert mixed == []


def test_check_pair_evaluates_the_source_once_per_point(monkeypatch):
    calls = []

    def counting_flat(x, y, m):
        calls.append((x, y))
        return 1.0, 0.0, 1.0

    changes = (("identity", lambda x, y: (x, y)), ("swap", lambda x, y: (y, x)))
    add_pair(monkeypatch, "counting:flat", ("counting", FLAT_BOX, "flat", FLAT_BOX, changes),
             counting=counting_flat, flat=flat_components)
    variants = check_pair("counting:flat", (4, 3), 1e-12)
    assert [label for label, _, _, passed in variants if passed] == ["identity", "swap"]
    assert len(calls) == 4 * 3


def test_check_pair_tests_each_point_against_each_box_once(monkeypatch):
    # One target-box test of each point's image per variant.  The source
    # box needs no test per point: grid_points samples strictly inside it.
    boxes = []
    contains = Box.contains

    def counting_contains(box, x, y):
        boxes.append(box)
        return contains(box, x, y)

    monkeypatch.setattr(Box, "contains", counting_contains)
    _, _, _, target_box, changes = _PAIRS["disk:minkowski-sphere"]
    check_pair("disk:minkowski-sphere", (4, 3), 1e-8)
    assert boxes == [target_box] * (4 * 3 * len(changes))


def test_curvature_is_a_pullback_invariant():
    # for each catalog pair, the source metric equals the pullback, so its
    # curvature at p matches the target's curvature at phi(p)
    rng = np.random.default_rng(53)
    for name in ("pseudosphere:half-plane", "half-plane:disk", "disk:minkowski-sphere"):
        source, box, target, _, changes = _PAIRS[name]
        for _ in range(50):
            x = float(rng.uniform(box.x0 + 0.02 * (box.x1 - box.x0), box.x1 - 0.02 * (box.x1 - box.x0)))
            y = float(rng.uniform(box.y0 + 0.02 * (box.y1 - box.y0), box.y1 - 0.02 * (box.y1 - box.y0)))
            u, v = change_jets(changes[0], x, y)
            k_source = brioschi_curvature(_METRICS[source][0], x, y)
            k_target = brioschi_curvature(_METRICS[target][0], u.val, v.val)
            assert abs(k_source - k_target) <= 1e-6, name


def test_extrinsic_matches_intrinsic_on_minkowski_sphere():
    s = catalog("minkowski-sphere")
    for u1, u2 in grid_points(s.domain, 8, 8):
        e, f, g, *_ = ref.fundamental_forms(eval_surface(s, u1, u2), MINKOWSKI)
        g11, g12, g22 = values("minkowski-sphere", u1, u2)
        assert abs(e - g11) <= 1e-10
        assert abs(f - g12) <= 1e-10
        assert abs(g - g22) <= 1e-10


def _monge_form(u_x, u_y):
    """First fundamental form of the graph of u: 1 + u_x^2, u_x u_y, 1 + u_y^2."""
    def components(x, y, m):
        p, q = u_x(x, y), u_y(x, y)
        return 1.0 + p * p, p * q, 1.0 + q * q

    return components


def _sphere_slope(x, y, r=1.3):
    return -x / jet.sqrt(r * r - x * x - y * y)


# The first fundamental form of each surface as a metric formula.  It
# needs the first derivatives of the immersion as jets, which the
# coordinate jets of a surface do not carry, so they are written out.
FIRST_FORMS = {
    "sphere-origin": _monge_form(_sphere_slope, lambda x, y: _sphere_slope(y, x)),
    "titeica-xyz": _monge_form(lambda x, y: -1.0 / (x * x * y), lambda x, y: -1.0 / (x * y * y)),
    "paraboloid": _monge_form(lambda x, y: 2.0 * x, lambda x, y: 2.0 * y),
    "pseudosphere": lambda t, theta, m: (m.tanh(t) * m.tanh(t), 0.0, 1.0 / (m.cosh(t) * m.cosh(t))),
    "minkowski-sphere": lambda u1, u2, m: (1.0, 0.0, m.sinh(u1) * m.sinh(u1)),
}


@pytest.mark.parametrize("name", sorted(FIRST_FORMS))
def test_theorema_egregium(name):
    # Gauss: K depends on the first fundamental form alone, so Brioschi's
    # intrinsic K must match the volume route's K = det(S) (Vx Vy - Vxy^2) / nn^2
    s = catalog(name, R=1.3) if name == "sphere-origin" else catalog(name)
    for p in grid_points(s.domain, 12, 12):
        k = point_invariants(eval_surface(s, *p), s.ambient).K
        assert abs(brioschi_curvature(FIRST_FORMS[name], *p) - k) <= 1e-12 * max(1.0, abs(k)), (p, k)


def test_unknown_pair():
    with pytest.raises(CatalogError) as err:
        check_pair("torus:plane", (2, 2), 1e-8)
    assert str(err.value) == ("unknown metric pair 'torus:plane'; "
                              "available: disk:minkowski-sphere, half-plane:disk, pseudosphere:half-plane")
