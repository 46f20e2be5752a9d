"""Python-level calls per grid point on the grid commands' hot path and
on the metric-check pair check.

A helper call costs far more than the arithmetic it wraps, and a grid
pays it once per point, so these bounds pin the per-point work: the
pass writes out the cross and dot products and forms K/d^4 itself, jet
arithmetic on two jets, or on a jet and a real, lifts neither operand,
``seed_xy`` builds both seeds itself, and the sweep walks the grid's two
axes, calls no ``eval_surface`` and computes each one-axis part once per
axis value, so at a point it runs the surface's ``mix`` alone.  A
graph's ``mix`` gives its height alone, and ``verify_scaling`` writes
its image out from the height, with no call, and takes its maxima from
the residual columns.  An ``apply_map`` image is its source with the map
after ``mix``, so a mapped surface computes its parts once too, each
part wrapped to hand on its seed (one call per axis value), and its
map's ``act`` reads the jets once, through ``surfaces._read_jets``, and
writes the image's fields itself.  A general surface's point in
``verify_scaling`` maps its jets with ``act``.
The counts are exact for a given interpreter: 7.35, 6.55, 5.7175,
8.8175 and 11.9 on CPython 3.11.7.  The figures last measured on 3.12.1
and 3.13.0 are 7.2, 5.71 and 8.81 for the first, third and fourth, and
3.10.13 gave the 3.11 counts; the two ``verify_scaling`` counts have not
been re-measured there, and the CI matrix checks the bounds on each.
Each bound is the ceiling of the largest; the first two leave room only
for fixed per-grid calls, the third and fourth fail if the
pseudosphere's one-axis parts run at every point again, and the last
fails if a general point's image costs another call.

Records are counted the same way, as the ``c_call`` events on
``tuple.__new__`` per point, which every NamedTuple instance and every
``_new`` costs.  The sweep hands the pass plain tuples, the pass returns
them and a graph's image is written as plain rows, so a point builds its
row and the jets of ``mix`` only: 3.45 (``scan_grid``) and 2.95
(``verify_scaling``) on CPython 3.10 to 3.13.  A mapped pseudosphere
point at 20 x 20 adds the three jets of ``act``, 6.4 in all, and a
pseudosphere point in ``verify_scaling`` adds them too, 7.9 on CPython
3.11.7; their bounds fail if ``act`` wraps them in a record again.  Each
bound is the ceiling of its count.

``check_pair`` evaluates the source metric once per point, and sweeps
each coordinate change with ``surfaces._sweep``: it runs each one-axis
part of a change once per axis value and variant, and at a point only
the change's ``mix`` and the per-point function that ``_pullback``
returns, which evaluates the target's formula on floats with ``math``
and looks the source up by the point.  Its counts at 20 x 20 are 5.325,
11.725 and 29.4325 on CPython 3.10.13 and 3.11.7, and 5.315, 11.715 and
29.42 on 3.12.1 and 3.13.0; each bound is the largest rounded up.  Its
records per point, the same on all four, are 1.2025, 5.5025 and 13.405:
one ``AgreePoint`` per variant and the jets of ``mix``, and per variant
the seeds of its sweep and its ``SurfaceDef``.
"""

import sys

import pytest

from titeica.centroaffine import CentroAffineMap, apply_map, verify_scaling
from titeica.invariants import scan_grid
from titeica.metrics import check_pair
from titeica.surfaces import catalog

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


def records_per_point(run, points):
    """The ``tuple.__new__`` calls of ``run()`` divided by ``points``."""
    run()
    records = 0

    def profile(frame, event, arg):
        nonlocal records
        if event == "c_call" and arg is tuple.__new__:
            records += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return records / points


def scan_titeica_xyz():
    s = catalog("titeica-xyz")
    return lambda: scan_grid(s, GRID)


def verify(name):
    s = catalog(name)
    a = CentroAffineMap.of([MATRIX[i:i + 3] for i in (0, 3, 6)])
    return lambda: verify_scaling(s, a, GRID, 1e-8)


def scan_pseudosphere():
    s = catalog("pseudosphere")
    return lambda: scan_grid(s, (20, 20))


def scan_mapped_pseudosphere():
    s = apply_map(catalog("pseudosphere"), CentroAffineMap.of([MATRIX[i:i + 3] for i in (0, 3, 6)]))
    return lambda: scan_grid(s, (20, 20))


@pytest.mark.parametrize("make_run, points, bound", [
    (scan_titeica_xyz, GRID[0] * GRID[1], 8),
    (lambda: verify("paraboloid"), GRID[0] * GRID[1], 7),
    (scan_pseudosphere, 400, 6),
    (scan_mapped_pseudosphere, 400, 9),
    (lambda: verify("pseudosphere"), GRID[0] * GRID[1], 12),
], ids=["scan_grid", "verify_scaling", "scan_grid_pseudosphere", "scan_grid_mapped_pseudosphere",
        "verify_scaling_pseudosphere"])
def test_calls_per_grid_point(make_run, points, bound):
    assert calls_per_point(make_run(), points) <= bound


def metric_check(name):
    return lambda: check_pair(name, (20, 20), 1e-8)


@pytest.mark.parametrize("make_run, points, bound", [
    (scan_titeica_xyz, GRID[0] * GRID[1], 4),
    (lambda: verify("paraboloid"), GRID[0] * GRID[1], 3),
    (scan_mapped_pseudosphere, 400, 7),
    (lambda: verify("pseudosphere"), GRID[0] * GRID[1], 8),
    (lambda: metric_check("pseudosphere:half-plane"), 400, 2),
    (lambda: metric_check("half-plane:disk"), 400, 6),
    (lambda: metric_check("disk:minkowski-sphere"), 400, 14),
], ids=["scan_grid", "verify_scaling", "scan_grid_mapped_pseudosphere", "verify_scaling_pseudosphere",
        "check_pair_pseudosphere_half_plane", "check_pair_half_plane_disk", "check_pair_disk_minkowski_sphere"])
def test_records_per_grid_point(make_run, points, bound):
    assert records_per_point(make_run(), points) <= bound


@pytest.mark.parametrize("name, bound", [
    ("pseudosphere:half-plane", 6),
    ("half-plane:disk", 12),
    ("disk:minkowski-sphere", 30),
], ids=["pseudosphere:half-plane", "half-plane:disk", "disk:minkowski-sphere"])
def test_calls_per_metric_check_point(name, bound):
    assert calls_per_point(metric_check(name), 400) <= bound
