"""A grid sweep replays the tape ``parametric`` traced, bitwise.

``surfaces._for_sweep`` gives a traced patch an evaluator that keeps the
values of its x-only nodes per x and of its y-only nodes per y, from the
second point on that line.  Whatever the order of the points, each one
must give the jet (compared by ``repr``, so that -0.0 and every last bit
count) or the error, with its message, that a call of ``coords`` gives
there.
"""

import random
import tracemalloc

import numpy as np
import pytest

from exprgen import eval_jet, random_expr
from helpers import random_polynomial_patch
from titeica import jet
from titeica.invariants import _SKIP, PointRecord, _core, scan_grid
from titeica.surfaces import (
    EUCLIDEAN,
    Box,
    SurfaceDef,
    SurfaceJet,
    _for_sweep,
    catalog,
    catalog_names,
    grid_points,
    parametric,
)


def outcome(patch, x, y):
    """``repr`` of the jet at (x, y), or the error's type and message."""
    try:
        return repr(patch(x, y))
    except Exception as exc:  # every error must match, whatever its type
        return type(exc).__name__, str(exc)


def assert_sweep_matches_calls(patch, points):
    assert hasattr(patch, "sweep"), "the patch was expected to be traced"
    swept = patch.sweep()
    assert [outcome(swept, x, y) for x, y in points] == [outcome(patch, x, y) for x, y in points]


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_sweep_matches_calls(name):
    s = catalog(name)
    points = grid_points(s.domain, 37, 23)
    assert_sweep_matches_calls(s.patch, points)
    shuffled = points * 2
    random.Random(19).shuffle(shuffled)
    assert_sweep_matches_calls(s.patch, shuffled)


def called_rows(s, grid):
    """``scan_grid``'s records from a call of the patch at every point."""
    rows = []
    for x, y in grid_points(s.domain, *grid):
        try:
            p = _core(s.patch(x, y), s.ambient)
            rows.append(PointRecord(x, y, p.K, p.d, p.ratio()))
        except _SKIP as exc:
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
    assert repr(patch.sweep()(-0.0, 0.25).f[0]) == "-0.0"


def test_random_polynomial_patches():
    rng = np.random.default_rng(19)
    for _ in range(5):
        s = random_polynomial_patch(rng)
        points = grid_points(s.domain, 9, 7)
        assert_sweep_matches_calls(s.patch, points + points[::-1])


def test_random_expression_patches():
    # Points in [-2, 2]^2 and the trees' log, sqrt, atanh, divisions and
    # negative powers: many points raise DomainError, which must match too.
    # A tree whose constant part raises (atanh of a constant beyond 1) raises
    # while traced, so its patch is called at every point instead.
    rng = np.random.default_rng(1919)
    axis = [-2.0, -1.0, -0.0, 0.0, 0.5, 1.25, 2.0]
    points = [(x, y) for y in axis for x in axis]
    traced = 0
    for _ in range(40):
        trees = [random_expr(rng, int(rng.integers(1, 4))) for _ in range(3)]
        patch = parametric(lambda x, y, t=trees: tuple(eval_jet(e, x, y) for e in t))
        if hasattr(patch, "sweep"):
            traced += 1
            assert_sweep_matches_calls(patch, points + points[::-1])
    assert traced >= 35


def test_failing_mixed_node_before_failing_x_only_node():
    # At x = -1 the mixed sqrt fails before the x-only log of x + 0.5: a
    # call and the sweep both raise the sqrt's message.
    def coords(x, y):
        mixed = jet.sqrt(y - x + 0.5)
        return x, mixed, jet.log(x + 2.0) * jet.log(x + 0.5)

    patch = parametric(coords)
    points = [(-1.0, -2.0), (-1.0, 1.0), (1.0, 1.0), (1.0, 1.5), (0.0, 0.0), (0.25, 0.0), (1.0, 0.0), (-1.0, -2.0)]
    assert_sweep_matches_calls(patch, points)
    swept = patch.sweep()
    got = [outcome(swept, x, y) for x, y in points]
    assert got[0] == got[7] == ("DomainError", "sqrt: argument -0.5 not in (0, inf)")
    assert got[1] == ("DomainError", "log: argument -0.5 not in (0, inf)")
    # (1, 0): the values of x = 1 and of y = 0 were kept at (1, 1.5) and
    # (0.25, 0), so the mixed nodes alone run, and the sqrt fails.
    assert got[6] == ("DomainError", "sqrt: argument -0.5 not in (0, inf)")


def test_a_point_that_raises_keeps_nothing():
    # x = 1 is met a second time at (1, 0), which fails at the mixed sqrt
    # before the x-only log of x + 2 has run.  Had that replay's x-only
    # values been kept, the second (1, 1), whose x and y are then both
    # known, would read the log's unset slot.
    def coords(x, y):
        mixed = jet.sqrt(y - x + 0.5)
        return x, mixed, jet.log(x + 2.0)

    points = [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.0, 0.0)]
    assert_sweep_matches_calls(parametric(coords), points)


def test_points_that_share_no_line_keep_no_values():
    # Values are kept from a line's second point on, so a sweep over points
    # with distinct x and y holds only their keys (a 0.33 MB peak here;
    # keeping every line's values from its first point took 2.6 MB).
    patch = catalog("pseudosphere").patch
    points = [(0.5 + i * 1e-4, 0.1 + i * 1e-4) for i in range(2000)]
    swept = patch.sweep()
    tracemalloc.start()
    try:
        for x, y in points:
            swept(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_untraceable_coords_run_at_every_point():
    def reads_a_field(x, y):
        return x, y, x * y + jet.constant(x.val * x.val)

    def compares_jets(x, y):
        return x, y, x * x if x == y else x * y

    def tests_a_jet(x, y):
        return x, y, (x or y) * y

    for coords in (reads_a_field, compares_jets, tests_a_jet):
        s = SurfaceDef("untraced", parametric(coords), Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
        assert not hasattr(s.patch, "sweep") and _for_sweep(s) is s
        points = grid_points(s.domain, 5, 4) + [(1.0, 1.0)]
        called = [repr(SurfaceJet(*zip(*coords(*jet.seed_xy(x, y))))) for x, y in points]
        assert [outcome(s.patch, x, y) for x, y in points] == called
        assert repr(scan_grid(s, (5, 4))) == repr(called_rows(s, (5, 4)))
