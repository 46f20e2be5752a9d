import math
import re
import sys

import numpy as np
import pytest

import frame_reference as ref
from fdcheck import fd_jet
from helpers import called, jet_rows, surface_names, swept
from titeica import CatalogError, DomainError, jet, surfaces
from titeica.jet import Jet2
from titeica.metrics import _PAIRS
from titeica.surfaces import (
    EUCLIDEAN,
    MINKOWSKI,
    Box,
    SurfaceDef,
    catalog,
    eval_surface,
    grid_points,
)


def test_plane_patch():
    f, f_x, f_y, *second_rows = jet_rows(eval_surface(catalog("plane"), 0.99, -0.99))
    # strict interior accepted right up to the edge
    np.testing.assert_array_equal(f, [0.99, -0.99, 0.0])
    np.testing.assert_array_equal(f_x, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(f_y, [0.0, 1.0, 0.0])
    for second in second_rows:
        np.testing.assert_array_equal(second, [0.0, 0.0, 0.0])


def test_paraboloid_patch_origin():
    f, _, _, f_xx, f_xy, f_yy = jet_rows(eval_surface(catalog("paraboloid"), 0.0, 0.0))
    np.testing.assert_array_equal(f, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(f_xx, [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(f_xy, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(f_yy, [0.0, 0.0, 2.0])


def test_monge_sphere_pole():
    f, _, _, f_xx, f_xy, f_yy = jet_rows(eval_surface(catalog("sphere-origin", R=1.0), 0.0, 0.0))
    assert np.allclose(f, [0.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose(f_xx, [0.0, 0.0, -1.0], atol=1e-14)
    assert np.allclose(f_xy, [0.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(f_yy, [0.0, 0.0, -1.0], atol=1e-14)
    # cross-check the height jet against the finite-difference oracle
    fd = fd_jet(lambda x, y: math.sqrt(1.0 - x * x - y * y), (0.0, 0.0))
    assert abs(fd.dxx - (-1.0)) <= 1e-5
    assert abs(fd.dyy - (-1.0)) <= 1e-5


def test_outside_domain_raises_with_box():
    s = catalog("titeica-xyz")
    with pytest.raises(DomainError) as err:
        eval_surface(s, 3.0, 1.0)
    msg = str(err.value)
    assert "(3, 1)" in msg and "[0.5, 2]" in msg and "titeica-xyz" in msg


def test_unknown_name_lists_catalog():
    with pytest.raises(CatalogError) as err:
        catalog("moebius")
    for name in surface_names():
        assert name in str(err.value)


def test_bad_params():
    with pytest.raises(ValueError):
        catalog("sphere-origin", R=-1.0)
    with pytest.raises(ValueError):
        catalog("paraboloid", R=1.0)
    # R^2 below the smallest normal float: the cap's sqrt argument underflows
    for name in ("sphere-origin", "sphere-translated"):
        for r in (1e-200, 1e-160, math.nextafter(math.sqrt(sys.float_info.min), 0.0)):
            with pytest.raises(ValueError, match=f"surface '{name}': radius R is too small"):
                catalog(name, R=r)
        catalog(name, R=math.sqrt(sys.float_info.min))
        # R^2 above the largest float: the cap's sqrt argument is inf - inf = nan
        for r in (1e155, math.nextafter(math.sqrt(sys.float_info.max), math.inf)):
            with pytest.raises(ValueError, match=f"surface '{name}': radius R is too large"):
                catalog(name, R=r)
        catalog(name, R=math.sqrt(sys.float_info.max))
    for bounds in ((0.0, 0.0, -1.0, 1.0), (-1.0, 1.0, 2.0, 1.0)):
        with pytest.raises(ValueError, match="degenerate box"):
            Box(*bounds)


def test_minkowski_sphere_lies_on_unit_shell():
    s = catalog("minkowski-sphere")
    for x, y in grid_points(s.domain, 10, 10):
        f = jet_rows(eval_surface(s, x, y))[0]
        assert abs(MINKOWSKI.inner(f, f) + 1.0) <= 1e-12


def test_pseudosphere_is_regular():
    s = catalog("pseudosphere")
    for x, y in grid_points(s.domain, 10, 10):
        _, f_x, f_y, *_ = jet_rows(eval_surface(s, x, y))
        assert float(np.linalg.norm(np.cross(f_x, f_y))) > 0.0


def test_monge_structural_pattern_bitwise():
    rng = np.random.default_rng(5)
    monge = ["sphere-origin", "sphere-translated", "titeica-xyz", "paraboloid", "plane"]
    for name in monge:
        s = catalog(name)
        box = s.domain
        for _ in range(100):
            x = float(rng.uniform(box.x0 + 0.01, box.x1 - 0.01))
            y = float(rng.uniform(box.y0 + 0.01, box.y1 - 0.01))
            f, f_x, f_y, f_xx, f_xy, f_yy = jet_rows(eval_surface(s, x, y))
            assert f[:2] == (x, y)
            assert f_x[:2] == (1.0, 0.0)
            assert f_y[:2] == (0.0, 1.0)
            assert f_xx[:2] == f_xy[:2] == f_yy[:2] == (0.0, 0.0)


def test_every_catalog_entry_is_regular_on_its_grid():
    for name in surface_names():
        s = catalog(name)
        for x, y in grid_points(s.domain, 10, 10):
            e, f, g, *_ = ref.fundamental_forms(eval_surface(s, x, y), s.ambient)
            assert e * g - f * f > 0.0, name


def test_grid_is_row_major_and_inset():
    pts = grid_points(Box(0.0, 1.0, 0.0, 1.0), 3, 2)
    assert pts[0] == (0.01, 0.01)
    assert pts[1][0] > pts[0][0] and pts[1][1] == pts[0][1]
    assert pts[-1] == (0.99, 0.99)
    with pytest.raises(ValueError):
        grid_points(Box(0.0, 1.0, 0.0, 1.0), 1, 5)


@pytest.mark.parametrize("box", [
    Box(1.0, math.nextafter(math.nextafter(1.0, 2.0), 2.0), 0.5, 2.0),  # the 1% inset rounds onto x0
    Box(-math.inf, math.inf, 0.5, 2.0),  # the inset axis is all NaN
])
def test_grid_refuses_a_box_it_cannot_sample_inside(box):
    with pytest.raises(ValueError, match=re.escape(repr(box))):
        grid_points(box, 2, 2)


def linspace_grid(box, nx, ny):
    """Reference grid: the 1% inset axes built with numpy.linspace."""
    mx = 0.01 * (box.x1 - box.x0)
    my = 0.01 * (box.y1 - box.y0)
    xs = np.linspace(box.x0 + mx, box.x1 - mx, nx)
    ys = np.linspace(box.y0 + my, box.y1 - my, ny)
    return [(float(x), float(y)) for y in ys for x in xs]


def test_grid_matches_linspace_on_catalog_domains():
    boxes = [catalog(name).domain for name in surface_names()]
    boxes += [catalog(name, R=r).domain for name in ("sphere-origin", "sphere-translated") for r in (1e-3, 2.0)]
    boxes += [box for _, source_box, _, target_box, _ in _PAIRS.values() for box in (source_box, target_box)]
    for box in boxes:
        for nx, ny in ((2, 2), (20, 20), (37, 23), (3, 300)):
            assert grid_points(box, nx, ny) == linspace_grid(box, nx, ny), (box, nx, ny)


def test_grid_matches_linspace_on_random_boxes():
    rng = np.random.default_rng(53)
    for _ in range(300):
        x0, y0 = rng.uniform(-1.0, 1.0, size=2) * 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        wx, wy = 10.0 ** rng.uniform(-6.0, 4.0, size=2)
        box = Box(float(x0), float(x0 + wx), float(y0), float(y0 + wy))
        nx, ny = (int(n) for n in rng.integers(2, 301, size=2))
        if rng.random() < 0.5:
            nx = min(nx, 8)  # one short axis keeps the grid small; the other spans 2..300
        else:
            ny = min(ny, 8)
        assert grid_points(box, nx, ny) == linspace_grid(box, nx, ny), (box, nx, ny)


def test_ambient_forms():
    assert EUCLIDEAN.inner([1, 2, 3], [1, 2, 3]) == 14.0
    assert MINKOWSKI.inner([1, 2, 3], [1, 2, 3]) == 12.0
    assert MINKOWSKI.inner([1, 0, 0], [1, 0, 0]) == -1.0


# Each catalog row's coordinates as one function of both seeds, the way the
# rows were written before they were split into an x part, a y part and a mix.
def _sphere_height(rr, x, y):
    return jet.sqrt(Jet2(float(rr)) - x * x - y * y)


def _tractrix_revolution(t, theta):
    sech = 1.0 / jet.cosh(t)
    return sech * jet.cos(theta), sech * jet.sin(theta), t - jet.tanh(t)


def _forward_hyperboloid(u1, u2):
    sh = jet.sinh(u1)
    return jet.cosh(u1), sh * jet.cos(u2), sh * jet.sin(u2)


UNSPLIT = {
    "sphere-origin": lambda R=1.0: lambda x, y: (x, y, _sphere_height(R * R, x, y)),
    "sphere-translated": lambda R=1.0, c=1.0: lambda x, y: (x, y, _sphere_height(R * R, x, y) + c),
    "titeica-xyz": lambda: lambda x, y: (x, y, 1.0 / (x * y)),
    "paraboloid": lambda: lambda x, y: (x, y, x * x + y * y),
    "pseudosphere": lambda: _tractrix_revolution,
    "minkowski-sphere": lambda: _forward_hyperboloid,
    "plane": lambda: lambda x, y: (x, y, Jet2(0.0)),
}


@pytest.mark.parametrize("name, params", [(name, {}) for name in sorted(UNSPLIT)] + [
    ("sphere-origin", {"R": 1e-3}),
    ("sphere-origin", {"R": 1e3}),
    ("sphere-translated", {"R": 1e-3}),
    ("sphere-translated", {"R": 1e3}),
    ("sphere-translated", {"c": 2.0}),
])
def test_catalog_rows_match_their_unsplit_coordinates(name, params):
    assert set(UNSPLIT) == set(surface_names())
    s = catalog(name, **params)
    coords = UNSPLIT[name](**params)

    # A jet is its three coordinate jets: repr tells a Jet2 from a tuple, and -0.0 from 0.0.
    reference = SurfaceDef(name, coords, s.domain, s.ambient)
    xs, ys = surfaces._grid_axes(s.domain, 37, 23)
    xs, ys = xs + [0.0, -0.0, 0.25], ys + [0.0, -0.0, 0.25]
    expected = called(reference, xs, ys)
    assert called(s, xs, ys) == expected
    assert swept(s, xs, ys) == expected
