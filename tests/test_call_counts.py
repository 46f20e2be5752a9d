"""Python-level calls per grid point on the grid commands' hot path and
on the metric-check pair check.

A helper call costs far more than the arithmetic it wraps, and a grid
pays it once per point, so these bounds pin the per-point work: the
cross and dot products are written out in ``point_invariants``, jet
arithmetic on two jets lifts neither operand, ``seed_xy`` builds both
seeds itself, and the sweep tests the box inline, calls no patch and
computes a line's one-axis part only until it keeps it, so where it
keeps both lines of a point it runs the row's ``mix`` alone.  An
``apply_map`` image is its source's row with the map after ``mix``, so
a mapped row keeps its lines too.  The counts are exact for a given
interpreter (8.45, 13.2, 7.5225 and 9.5225 on CPython 3.11); the first
two bounds leave room only for fixed per-grid calls, and the last two
fail if the pseudosphere's one-axis parts run at every point again.

``check_pair`` evaluates the source metric once per point, inline, and
runs one ``_pullback`` per point and variant; its counts at 20 x 20 are
29.02, 48.02 and 62.02 on CPython 3.11, and each bound is its count
rounded up.
"""

import sys

import pytest

from titeica.centroaffine import CentroAffineMap, apply_map, verify_scaling
from titeica.invariants import scan_grid
from titeica.metrics import check_pair
from titeica.surfaces import catalog, grid_points

GRID = (5, 4)
MATRIX = (1.3, 0.2, -0.4, 0.1, 0.9, 0.3, -0.2, 0.5, 1.1)


def calls_per_point(run, points):
    """The Python ``call`` events of ``run()`` divided by ``points``."""
    run()  # anything loaded on first use is loaded before counting
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls / points


def scan_titeica_xyz():
    s = catalog("titeica-xyz")
    return lambda: scan_grid(s, GRID)


def verify_paraboloid():
    s = catalog("paraboloid")
    a = CentroAffineMap.of([MATRIX[i:i + 3] for i in (0, 3, 6)])
    points = grid_points(s.domain, *GRID)
    return lambda: verify_scaling(s, a, points, 1e-8)


def scan_pseudosphere():
    s = catalog("pseudosphere")
    return lambda: scan_grid(s, (20, 20))


def scan_mapped_pseudosphere():
    s = apply_map(catalog("pseudosphere"), CentroAffineMap.of([MATRIX[i:i + 3] for i in (0, 3, 6)]))
    return lambda: scan_grid(s, (20, 20))


@pytest.mark.parametrize("make_run, points, bound", [
    (scan_titeica_xyz, GRID[0] * GRID[1], 11),
    (verify_paraboloid, GRID[0] * GRID[1], 17),
    (scan_pseudosphere, 400, 11),
    (scan_mapped_pseudosphere, 400, 13),
], ids=["scan_grid", "verify_scaling", "scan_grid_pseudosphere", "scan_grid_mapped_pseudosphere"])
def test_calls_per_grid_point(make_run, points, bound):
    assert calls_per_point(make_run(), points) <= bound


@pytest.mark.parametrize("name, bound", [
    ("pseudosphere:half-plane", 30),
    ("half-plane:disk", 49),
    ("disk:minkowski-sphere", 63),
])
def test_calls_per_metric_check_point(name, bound):
    assert calls_per_point(lambda: check_pair(name, 20, 20, 1e-8), 400) <= bound
