"""A long sweep of a catalog surface gives what calls on it give, bitwise.

A surface's coordinates are ``mix(*xpart(x), *ypart(y))``; a call
(``eval_surface``) keeps nothing.  A grid sweep (``surfaces._sweep``)
walks the grid's two axes: it computes the x part of each x once before
the first point and the y part of each y once at the start of its row,
then runs ``mix`` alone at each point.  Each point of a long sweep must
give the jet (compared by ``repr``, so that -0.0 and every last bit
count) or the error of ``mix``, with its message, that a call gives
there (``helpers.swept``); a part's error propagates.  An ``apply_map``
image is the source with the map after ``mix``, so it sweeps its
source's parts the same way.  A surface with no parts is a plain
``mix(x, y)``, which runs at every point.
"""

from collections import Counter

import pytest

from helpers import called, called_rows, outcome, swept
from titeica import jet, surfaces
from titeica.centroaffine import CentroAffineMap, apply_map, verify_scaling
from titeica.errors import DomainError
from titeica.invariants import PointRecord, point_invariants, scan_grid
from titeica.surfaces import (
    EUCLIDEAN,
    Box,
    SurfaceDef,
    catalog,
    catalog_names,
    eval_surface,
    grid_points,
)


GENERAL = CentroAffineMap.of([(1.3, 0.2, -0.4), (0.1, 0.9, 0.3), (-0.2, 0.5, 1.1)])


def assert_sweep_matches_calls(s, xs, ys):
    assert swept(s, xs, ys) == called(s, xs, ys)


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_sweep_matches_calls(name):
    s = catalog(name)
    xs, ys = surfaces._grid_axes(s.domain, 37, 23)
    for surface in (s, apply_map(s, GENERAL)):
        assert_sweep_matches_calls(surface, xs, ys)


@pytest.mark.parametrize("name", catalog_names())
def test_scan_grid_rows_match_calls(name):
    s = catalog(name)
    assert repr(scan_grid(s, (37, 23))) == repr(called_rows(s, (37, 23)))


@pytest.mark.parametrize("name", ["paraboloid", "sphere-origin", "plane"])
def test_signed_zeros_are_different_lines(name):
    s = catalog(name)
    axis = [0.0, -0.0, 0.25, -0.0]
    for surface in (s, apply_map(s, GENERAL)):
        assert_sweep_matches_calls(surface, axis, axis[::-1])
    assert repr(eval_surface(s, -0.0, 0.25)[0].val) == "-0.0"


def raising_surface():
    """A surface whose x part, y part and mix each raise on part of a grid:
    log x for x <= 0, sqrt y for y <= 0, and in mix sqrt(log x + sqrt y)
    where log x + sqrt y <= 0 and 1/(x - y) where x = y."""
    return SurfaceDef(
        "raising",
        lambda x, lx, y, ry: (x, y, jet.sqrt(lx + ry) / (x - y)),
        Box(-5.0, 5.0, -5.0, 5.0),
        EUCLIDEAN,
        lambda x: (x, jet.log(x)),
        lambda y: (y, jet.sqrt(y)),
    )


def test_sweep_of_a_raising_row_matches_calls():
    xs, ys = [0.25, 0.5, 1.0, 2.0], [0.25, 0.5, 1.0, 2.0, 4.0]
    s = raising_surface()
    outcomes = called(s, xs, ys)
    errors = {o[1].partition(":")[0] for o in outcomes if isinstance(o, tuple)}
    assert errors == {"sqrt", "division by a jet with value 0"}
    assert any(isinstance(o, str) for o in outcomes)
    assert_sweep_matches_calls(s, xs, ys)
    assert_sweep_matches_calls(apply_map(s, GENERAL), xs, ys)


@pytest.mark.parametrize("xs, ys, bad", [
    ([1.0, -1.0], [1.0], (-1.0, 1.0)),  # an x part: before the first point
    ([1.0, 3.0], [2.0, -0.0, 1.0], (1.0, -0.0)),  # a y part: after its earlier rows
], ids=["x_part", "y_part"])
def test_a_raising_part_propagates_its_error(xs, ys, bad):
    s = raising_surface()
    seen = []
    with pytest.raises(DomainError) as err:
        surfaces._sweep(s, xs, ys, lambda x, y, jets: seen.append((x, y)), PointRecord)
    assert ("DomainError", str(err.value)) == outcome(s, *bad)
    assert seen == [(x, y) for y in ys[:ys.index(bad[1])] for x in xs]
    with pytest.raises(DomainError):
        scan_grid(s, (3, 3))  # the grid's middle x is 0.0


def test_a_mapped_row_runs_its_parts_as_the_row_does():
    # Each one-axis part runs once per axis value, nx + ny calls a grid,
    # whether the surface is swept itself, as the source of an apply_map image
    # or on both sides of verify_scaling.
    runs = Counter()

    def xpart(x):
        runs["x", x.val] += 1
        return x, x * x

    def ypart(y):
        runs["y", y.val] += 1
        return y, y * y

    s = SurfaceDef("counted", lambda x, xx, y, yy: (x, y, xx + yy), Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN, xpart, ypart)
    seen = []
    for sweep in (lambda: scan_grid(s, (5, 4)), lambda: scan_grid(apply_map(s, GENERAL), (5, 4)),
                  lambda: verify_scaling(s, GENERAL, (5, 4), 1e-8)):
        runs.clear()
        sweep()
        seen.append(dict(runs))
    assert seen[0] == seen[1] == seen[2]
    xs, ys = surfaces._grid_axes(s.domain, 5, 4)
    assert seen[0] == {**{("x", x): 1 for x in xs}, **{("y", y): 1 for y in ys}}


def test_a_plain_mix_is_called_at_every_point():
    def reads_a_field(x, y):
        return x, y, x * y + jet.Jet2(x.val * x.val)

    def compares_jets(x, y):
        return x, y, x * x if x == y else x * y

    def tests_a_jet(x, y):
        return x, y, (x or y) * y

    for coords in (reads_a_field, compares_jets, tests_a_jet):
        s = SurfaceDef("custom", coords, Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
        xs, ys = surfaces._grid_axes(s.domain, 5, 4)
        xs, ys = xs + [1.0], ys + [1.0]
        assert_sweep_matches_calls(s, xs, ys)
        assert called(s, xs, ys) == [repr(coords(*jet.seed_xy(x, y))) for y in ys for x in xs]
        assert repr(scan_grid(s, (5, 4))) == repr(called_rows(s, (5, 4)))

    seen = []
    counted = SurfaceDef("counted", lambda x, y: seen.append((x.val, y.val)) or reads_a_field(x, y),
                         Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
    scan_grid(counted, (5, 4))
    assert seen == grid_points(Box(0.5, 2.0, 0.5, 2.0), 5, 4)


@pytest.mark.parametrize("count", [2, 4])
def test_a_plain_mix_must_give_three_jets(count):
    s = SurfaceDef("short", lambda x, y: (x, y, x * y, y)[:count], Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
    a = CentroAffineMap.of([(2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    for run in (lambda: eval_surface(s, 1.0, 1.0), lambda: scan_grid(s, (2, 2)),
                lambda: verify_scaling(s, a, (2, 2), 1e-8)):
        with pytest.raises(ValueError, match="values to unpack"):
            run()


def test_a_plain_mix_must_give_jets():
    # A real coordinate unpacks as one of three items, so a call tests the
    # type of each, and the pass refuses what it cannot unpack as a jet.
    s = SurfaceDef("p", lambda x, y: (x, y, 1.0), Box(-1.0, 1.0, -1.0, 1.0), EUCLIDEAN)
    a = CentroAffineMap.of([(2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    for run in (lambda: eval_surface(s, 0.5, 0.5), lambda: point_invariants(s.mix(*jet.seed_xy(0.5, 0.5)), EUCLIDEAN),
                lambda: scan_grid(s, (2, 2)), lambda: verify_scaling(s, a, (2, 2), 1e-8)):
        with pytest.raises(ValueError, match=r"^mix must give three jets, got \(Jet2, Jet2, float\)$"):
            run()


@pytest.mark.parametrize("count", [2, 4])
def test_a_row_unpacks_three_jets_at_a_call_and_in_a_sweep(count):
    # Returning mix(...) as it is would hand on 2 or 4 coordinate jets
    # without raising.
    s = SurfaceDef("short", lambda x, xx, y: (x, y, xx, y)[:count], Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN,
                   lambda x: (x, x * x))
    for run in (lambda: eval_surface(s, 1.0, 1.0), lambda: surfaces._sweep(s, [1.0], [1.0], lambda x, y, sj: sj, None)):
        with pytest.raises(ValueError, match="values to unpack"):
            run()

