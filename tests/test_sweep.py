"""A long sweep of a catalog row gives what calls of its patch give, bitwise.

A patch is a row ``(xpart, ypart, mix)`` (``surfaces._Row``) whose
coordinates are ``mix(*xpart(x), *ypart(y))``; a call of it keeps
nothing.  A grid sweep (``invariants._sweep``) reads the row's fields and
keeps the x part per x and the y part per y, from the second point on
that line.  Whatever the order of the points, each one of a long sweep
must give the jet (compared by ``repr``, so that -0.0 and every last bit
count) or the error, with its message, that a call of the patch gives
there (``helpers.swept``).  An ``apply_map`` image is the source's row
with the map after ``mix``, so it sweeps with the same cache.  A
``parametric`` patch is the row with no parts, so its ``coords`` runs at
every point.
"""

import math
import random
import tracemalloc
from collections import Counter

import pytest

from helpers import outcome, swept
from titeica import invariants, jet, surfaces
from titeica.centroaffine import CentroAffineMap, apply_map, verify_scaling
from titeica.errors import DomainError, SingularPointError
from titeica.invariants import PointRecord, point_invariants, scan_grid
from titeica.surfaces import (
    EUCLIDEAN,
    Box,
    SurfaceDef,
    SurfaceJet,
    catalog,
    catalog_names,
    grid_points,
    parametric,
)


GENERAL = CentroAffineMap.of([(1.3, 0.2, -0.4), (0.1, 0.9, 0.3), (-0.2, 0.5, 1.1)])


def assert_sweep_matches_calls(patch, points):
    assert swept(patch, points) == [outcome(patch, x, y) for x, y in points]


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_sweep_matches_calls(name):
    s = catalog(name)
    points = grid_points(s.domain, 37, 23)
    shuffled = points * 2
    random.Random(19).shuffle(shuffled)
    for patch in (s.patch, apply_map(s, GENERAL).patch):
        assert_sweep_matches_calls(patch, points)
        assert_sweep_matches_calls(patch, shuffled)


def called_rows(s, grid):
    """``scan_grid``'s records from a call of the patch at every point."""
    rows = []
    for x, y in grid_points(s.domain, *grid):
        try:
            p = point_invariants(s.patch(x, y), s.ambient)
            rows.append(PointRecord(x, y, p.K, p.d, p.ratio()))
        except SingularPointError as exc:
            rows.append(PointRecord(x, y, skipped=str(exc)))
    return rows


@pytest.mark.parametrize("name", catalog_names())
def test_scan_grid_rows_match_calls(name):
    s = catalog(name)
    assert repr(scan_grid(s, (37, 23))) == repr(called_rows(s, (37, 23)))


@pytest.mark.parametrize("name", ["paraboloid", "sphere-origin", "plane"])
def test_signed_zeros_are_different_lines(name):
    patch = catalog(name).patch
    points = [(0.0, 0.25), (-0.0, 0.25), (0.25, -0.0), (0.25, 0.0), (-0.0, -0.0), (0.0, 0.0), (-0.0, 0.25)]
    assert_sweep_matches_calls(patch, points)
    assert repr(patch(-0.0, 0.25).f0.val) == "-0.0"


def raising_row():
    """A row whose x part, y part and mix each raise on part of a grid:
    log x for x <= 0, sqrt y for y <= 0 and 1/(x - y) where x = y."""
    return surfaces._Row(
        lambda x: (x, jet.log(x)),
        lambda y: (y, jet.sqrt(y)),
        lambda x, lx, y, ry: (x, y, lx * ry / (x - y)),
    )


def test_sweep_of_a_raising_row_matches_calls():
    axis = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]
    points = [(x, y) for y in axis for x in axis]
    patch = raising_row()
    called = [outcome(patch, x, y) for x, y in points]
    errors = {o[1].partition(":")[0] for o in called if isinstance(o, tuple)}
    assert errors == {"log", "sqrt", "division by a jet with value 0"}
    assert any(isinstance(o, str) for o in called)
    assert_sweep_matches_calls(patch, points)
    shuffled = points * 3
    random.Random(20).shuffle(shuffled)
    assert_sweep_matches_calls(patch, shuffled)


def test_a_mapped_row_runs_its_parts_as_the_row_does():
    # Each one-axis part runs at the first two points of its line, whether
    # the row is swept itself or as the source of an apply_map image.
    runs = Counter()

    def xpart(x):
        runs["x", x.val] += 1
        return x, x * x

    def ypart(y):
        runs["y", y.val] += 1
        return y, y * y

    row = SurfaceDef("counted", surfaces._Row(xpart, ypart, lambda x, xx, y, yy: (x, y, xx + yy)),
                     Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
    seen = []
    for s in (row, apply_map(row, GENERAL)):
        runs.clear()
        scan_grid(s, (5, 4))
        seen.append(dict(runs))
    assert seen[0] == seen[1]
    assert len(seen[1]) == 5 + 4 and set(seen[1].values()) == {2}


def test_points_that_share_no_line_keep_no_values():
    # Parts are kept from a line's second point on, so a sweep over points
    # with distinct x and y holds only their keys (a 0.2 MB peak here;
    # keeping every line's part from its first point took 2.3 MB).
    s = catalog("pseudosphere")._replace(domain=Box(-math.inf, math.inf, -math.inf, math.inf))
    points = [(0.5 + i * 1e-4, 0.1 + i * 1e-4) for i in range(2000)]
    tracemalloc.start()
    try:
        invariants._sweep(s, points, lambda x, y, sj: None, PointRecord)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_parametric_patch_is_called_at_every_point():
    def reads_a_field(x, y):
        return x, y, x * y + jet.constant(x.val * x.val)

    def compares_jets(x, y):
        return x, y, x * x if x == y else x * y

    def tests_a_jet(x, y):
        return x, y, (x or y) * y

    for coords in (reads_a_field, compares_jets, tests_a_jet):
        s = SurfaceDef("custom", parametric(coords), Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
        points = grid_points(s.domain, 5, 4) + [(1.0, 1.0)]
        assert_sweep_matches_calls(s.patch, points)
        called = [repr(SurfaceJet(*coords(*jet.seed_xy(x, y)))) for x, y in points]
        assert [outcome(s.patch, x, y) for x, y in points] == called
        assert repr(scan_grid(s, (5, 4))) == repr(called_rows(s, (5, 4)))

    seen = []
    counted = parametric(lambda x, y: seen.append((x.val, y.val)) or reads_a_field(x, y))
    scan_grid(SurfaceDef("counted", counted, Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN), (5, 4))
    assert seen == grid_points(Box(0.5, 2.0, 0.5, 2.0), 5, 4)


def recording_saddle(seen):
    def coords(x, y):
        seen.append((x.val, y.val))
        return x, y, x * x - y * y

    return SurfaceDef("saddle", parametric(coords), Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)


def test_grid_sweeps_check_the_box_before_calling_the_patch(monkeypatch):
    # A point outside the box raises DomainError, which names the point,
    # the box and the surface, and the patch is not called there.
    a = CentroAffineMap.of([(2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    points = [(1.0, 1.0), (3.0, 1.0), (1.5, 1.5)]
    monkeypatch.setattr(invariants, "grid_points", lambda box, nx, ny: points)
    for sweep in (lambda s: scan_grid(s, (3, 1)), lambda s: verify_scaling(s, a, points, 1e-8)):
        seen = []
        with pytest.raises(DomainError) as err:
            sweep(recording_saddle(seen))
        assert str(err.value) == "point (3, 1) outside domain [0.5, 2] x [0.5, 2] of surface 'saddle'"
        assert seen == [(1.0, 1.0)]


@pytest.mark.parametrize("count", [2, 4])
def test_parametric_coords_must_give_three_jets(count):
    s = SurfaceDef("short", parametric(lambda x, y: (x, y, x * y, y)[:count]), Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
    a = CentroAffineMap.of([(2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    for run in (lambda: s.patch(1.0, 1.0), lambda: scan_grid(s, (2, 2)),
                lambda: verify_scaling(s, a, [(1.0, 1.0)], 1e-8)):
        with pytest.raises(ValueError, match="values to unpack"):
            run()


@pytest.mark.parametrize("count", [2, 4])
def test_a_row_unpacks_three_jets_at_a_call_and_in_a_sweep(count):
    # tuple.__new__(SurfaceJet, mix(...)) alone would build a jet of 2 or 4
    # coordinate jets without raising.
    s = SurfaceDef("short", surfaces._Row(lambda x: (x, x * x), None, lambda x, xx, y: (x, y, xx, y)[:count]),
                   Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
    for run in (lambda: s.patch(1.0, 1.0), lambda: invariants._sweep(s, [(1.0, 1.0)], lambda x, y, sj: sj, None)):
        with pytest.raises(ValueError, match="values to unpack"):
            run()
