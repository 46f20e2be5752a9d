"""Python-level calls per grid point on the grid commands' hot path.

A helper call costs far more than the arithmetic it wraps, and a grid
pays it once per point, so these bounds pin the per-point work: the
cross and dot products are written out in ``invariants._core``, jet
arithmetic on two jets lifts neither operand, and ``seed_xy`` builds both
seeds itself.  The counts are exact for a given interpreter (12.45 and
18.4 on CPython 3.11, where one more helper call per point puts them at
13.45 and 20.4); the bounds leave room only for fixed per-grid calls.
"""

import sys

import pytest

from titeica.centroaffine import CentroAffineMap, verify_scaling
from titeica.invariants import scan_grid
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


@pytest.mark.parametrize("make_run, bound", [(scan_titeica_xyz, 13), (verify_paraboloid, 19)],
                         ids=["scan_grid", "verify_scaling"])
def test_calls_per_grid_point(make_run, bound):
    assert calls_per_point(make_run(), GRID[0] * GRID[1]) <= bound
