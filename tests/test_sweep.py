"""A long sweep of a catalog row gives what calls of its patch give, bitwise.

A patch is a row ``(xpart, ypart, mix)`` (``surfaces._Row``) whose
coordinates are ``mix(*xpart(x), *ypart(y))``; a call of it keeps
nothing.  A grid sweep (``invariants._sweep``) walks the grid's two
axes: it computes the x part of each x once before the first point and
the y part of each y once at the start of its row, then runs ``mix``
alone at each point.  Each point of a long sweep must give the jet
(compared by ``repr``, so that -0.0 and every last bit count) or the
error of ``mix``, with its message, that a call of the patch gives there
(``helpers.swept``); a part's error propagates.  An ``apply_map`` image
is the source's row with the map after ``mix``, so it sweeps its
source's parts the same way.  A ``parametric`` patch is the row with no
parts, so its ``coords`` runs at every point.
"""

from collections import Counter

import pytest

from helpers import called, called_rows, outcome, swept
from titeica import invariants, jet, surfaces
from titeica.centroaffine import CentroAffineMap, apply_map, verify_scaling
from titeica.errors import DomainError
from titeica.invariants import PointRecord, scan_grid
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


def assert_sweep_matches_calls(patch, xs, ys):
    assert swept(patch, xs, ys) == called(patch, xs, ys)


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_sweep_matches_calls(name):
    s = catalog(name)
    xs, ys = surfaces._grid_axes(s.domain, 37, 23)
    for patch in (s.patch, apply_map(s, GENERAL).patch):
        assert_sweep_matches_calls(patch, xs, ys)


@pytest.mark.parametrize("name", catalog_names())
def test_scan_grid_rows_match_calls(name):
    s = catalog(name)
    assert repr(scan_grid(s, (37, 23))) == repr(called_rows(s, (37, 23)))


@pytest.mark.parametrize("name", ["paraboloid", "sphere-origin", "plane"])
def test_signed_zeros_are_different_lines(name):
    s = catalog(name)
    axis = [0.0, -0.0, 0.25, -0.0]
    for patch in (s.patch, apply_map(s, GENERAL).patch):
        assert_sweep_matches_calls(patch, axis, axis[::-1])
    assert repr(s.patch(-0.0, 0.25).f0.val) == "-0.0"


def raising_row():
    """A row whose x part, y part and mix each raise on part of a grid:
    log x for x <= 0, sqrt y for y <= 0, and in mix sqrt(log x + sqrt y)
    where log x + sqrt y <= 0 and 1/(x - y) where x = y."""
    return surfaces._Row(
        lambda x: (x, jet.log(x)),
        lambda y: (y, jet.sqrt(y)),
        lambda x, lx, y, ry: (x, y, jet.sqrt(lx + ry) / (x - y)),
    )


def test_sweep_of_a_raising_row_matches_calls():
    xs, ys = [0.25, 0.5, 1.0, 2.0], [0.25, 0.5, 1.0, 2.0, 4.0]
    patch = raising_row()
    outcomes = called(patch, xs, ys)
    errors = {o[1].partition(":")[0] for o in outcomes if isinstance(o, tuple)}
    assert errors == {"sqrt", "division by a jet with value 0"}
    assert any(isinstance(o, str) for o in outcomes)
    assert_sweep_matches_calls(patch, xs, ys)
    assert_sweep_matches_calls(apply_map(SurfaceDef("raising", patch, Box(0, 5, 0, 5), EUCLIDEAN), GENERAL).patch,
                               xs, ys)


@pytest.mark.parametrize("xs, ys, bad", [
    ([1.0, -1.0], [1.0], (-1.0, 1.0)),  # an x part: before the first point
    ([1.0, 3.0], [2.0, -0.0, 1.0], (1.0, -0.0)),  # a y part: after its earlier rows
], ids=["x_part", "y_part"])
def test_a_raising_part_propagates_its_error(xs, ys, bad):
    s = SurfaceDef("raising", raising_row(), Box(-5.0, 5.0, -5.0, 5.0), EUCLIDEAN)
    seen = []
    with pytest.raises(DomainError) as err:
        invariants._sweep(s, xs, ys, lambda x, y, jets: seen.append((x, y)), PointRecord)
    assert ("DomainError", str(err.value)) == outcome(s.patch, *bad)
    assert seen == [(x, y) for y in ys[:ys.index(bad[1])] for x in xs]
    with pytest.raises(DomainError):
        scan_grid(s, (3, 3))  # the grid's middle x is 0.0


def test_a_mapped_row_runs_its_parts_as_the_row_does():
    # Each one-axis part runs once per axis value, nx + ny calls a grid,
    # whether the row is swept itself, as the source of an apply_map image
    # or on both sides of verify_scaling.
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
    for sweep in (lambda: scan_grid(row, (5, 4)), lambda: scan_grid(apply_map(row, GENERAL), (5, 4)),
                  lambda: verify_scaling(row, GENERAL, (5, 4), 1e-8)):
        runs.clear()
        sweep()
        seen.append(dict(runs))
    assert seen[0] == seen[1] == seen[2]
    xs, ys = surfaces._grid_axes(row.domain, 5, 4)
    assert seen[0] == {**{("x", x): 1 for x in xs}, **{("y", y): 1 for y in ys}}


def test_a_parametric_patch_is_called_at_every_point():
    def reads_a_field(x, y):
        return x, y, x * y + jet.constant(x.val * x.val)

    def compares_jets(x, y):
        return x, y, x * x if x == y else x * y

    def tests_a_jet(x, y):
        return x, y, (x or y) * y

    for coords in (reads_a_field, compares_jets, tests_a_jet):
        s = SurfaceDef("custom", parametric(coords), Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
        xs, ys = surfaces._grid_axes(s.domain, 5, 4)
        xs, ys = xs + [1.0], ys + [1.0]
        assert_sweep_matches_calls(s.patch, xs, ys)
        assert called(s.patch, xs, ys) == [repr(SurfaceJet(*coords(*jet.seed_xy(x, y)))) for y in ys for x in xs]
        assert repr(scan_grid(s, (5, 4))) == repr(called_rows(s, (5, 4)))

    seen = []
    counted = parametric(lambda x, y: seen.append((x.val, y.val)) or reads_a_field(x, y))
    scan_grid(SurfaceDef("counted", counted, Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN), (5, 4))
    assert seen == grid_points(Box(0.5, 2.0, 0.5, 2.0), 5, 4)


@pytest.mark.parametrize("count", [2, 4])
def test_parametric_coords_must_give_three_jets(count):
    s = SurfaceDef("short", parametric(lambda x, y: (x, y, x * y, y)[:count]), Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
    a = CentroAffineMap.of([(2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    for run in (lambda: s.patch(1.0, 1.0), lambda: scan_grid(s, (2, 2)),
                lambda: verify_scaling(s, a, (2, 2), 1e-8)):
        with pytest.raises(ValueError, match="values to unpack"):
            run()


@pytest.mark.parametrize("count", [2, 4])
def test_a_row_unpacks_three_jets_at_a_call_and_in_a_sweep(count):
    # tuple.__new__(SurfaceJet, mix(...)) alone would build a jet of 2 or 4
    # coordinate jets without raising.
    s = SurfaceDef("short", surfaces._Row(lambda x: (x, x * x), None, lambda x, xx, y: (x, y, xx, y)[:count]),
                   Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
    for run in (lambda: s.patch(1.0, 1.0), lambda: invariants._sweep(s, [1.0], [1.0], lambda x, y, sj: sj, None)):
        with pytest.raises(ValueError, match="values to unpack"):
            run()


def test_a_plain_function_is_not_a_patch_of_a_sweep():
    s = SurfaceDef("f", lambda x, y: SurfaceJet(*jet.seed_xy(x, y), jet.constant(1.0)), Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
    with pytest.raises(TypeError, match=r"^patch of surface 'f' is a function, not a row: build it with parametric"):
        scan_grid(s, (2, 2))
