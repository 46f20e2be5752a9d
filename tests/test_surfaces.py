import math

import numpy as np
import pytest

from fdcheck import fd_jet
from titeica.errors import CatalogError, DomainError
from titeica.invariants import fundamental_forms
from titeica.jet import seed_xy
from titeica.surfaces import (
    EUCLIDEAN,
    MINKOWSKI,
    Box,
    catalog,
    catalog_names,
    eval_surface,
    grid_points,
    parametric_jets,
)


def test_plane_patch():
    sj = eval_surface(catalog("plane"), 0.99, -0.99)
    # strict interior accepted right up to the edge
    np.testing.assert_array_equal(sj.f, [0.99, -0.99, 0.0])
    np.testing.assert_array_equal(sj.f_x, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(sj.f_y, [0.0, 1.0, 0.0])
    for second in (sj.f_xx, sj.f_xy, sj.f_yy):
        np.testing.assert_array_equal(second, [0.0, 0.0, 0.0])


def test_paraboloid_patch_origin():
    sj = eval_surface(catalog("paraboloid"), 0.0, 0.0)
    np.testing.assert_array_equal(sj.f, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(sj.f_xx, [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(sj.f_xy, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(sj.f_yy, [0.0, 0.0, 2.0])


def test_monge_sphere_pole():
    sj = eval_surface(catalog("sphere-origin", R=1.0), 0.0, 0.0)
    assert np.allclose(sj.f, [0.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose(sj.f_xx, [0.0, 0.0, -1.0], atol=1e-14)
    assert np.allclose(sj.f_xy, [0.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(sj.f_yy, [0.0, 0.0, -1.0], atol=1e-14)
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
    for name in catalog_names():
        assert name in str(err.value)


def test_bad_params():
    with pytest.raises(ValueError):
        catalog("sphere-origin", R=-1.0)
    with pytest.raises(ValueError):
        catalog("paraboloid", R=1.0)


def test_minkowski_sphere_lies_on_unit_shell():
    s = catalog("minkowski-sphere")
    for x, y in grid_points(s.domain, 10, 10):
        sj = eval_surface(s, x, y)
        assert abs(MINKOWSKI.inner(sj.f, sj.f) + 1.0) <= 1e-12


def test_pseudosphere_is_regular():
    s = catalog("pseudosphere")
    for x, y in grid_points(s.domain, 10, 10):
        sj = eval_surface(s, x, y)
        assert float(np.linalg.norm(np.cross(sj.f_x, sj.f_y))) > 0.0


def test_monge_structural_pattern_bitwise():
    rng = np.random.default_rng(5)
    monge = ["sphere-origin", "sphere-translated", "titeica-xyz", "paraboloid", "plane"]
    for name in monge:
        s = catalog(name)
        box = s.domain
        for _ in range(100):
            x = float(rng.uniform(box.x0 + 0.01, box.x1 - 0.01))
            y = float(rng.uniform(box.y0 + 0.01, box.y1 - 0.01))
            u = parametric_jets(s, *seed_xy(x, y))[2]
            sj = eval_surface(s, x, y)
            assert tuple(sj.f) == (x, y, u.val)
            assert tuple(sj.f_x) == (1.0, 0.0, u.dx)
            assert tuple(sj.f_y) == (0.0, 1.0, u.dy)
            assert tuple(sj.f_xx) == (0.0, 0.0, u.dxx)
            assert tuple(sj.f_xy) == (0.0, 0.0, u.dxy)
            assert tuple(sj.f_yy) == (0.0, 0.0, u.dyy)


def test_every_catalog_entry_is_regular_on_its_grid():
    for name in catalog_names():
        s = catalog(name)
        for x, y in grid_points(s.domain, 10, 10):
            forms = fundamental_forms(eval_surface(s, x, y), s.ambient)
            assert forms.E * forms.G - forms.F**2 > 0.0, name


def test_grid_is_row_major_and_inset():
    pts = grid_points(Box(0.0, 1.0, 0.0, 1.0), 3, 2)
    assert pts[0] == (0.01, 0.01)
    assert pts[1][0] > pts[0][0] and pts[1][1] == pts[0][1]
    assert pts[-1] == (0.99, 0.99)
    with pytest.raises(ValueError):
        grid_points(Box(0.0, 1.0, 0.0, 1.0), 1, 5)


def test_ambient_forms():
    assert EUCLIDEAN.inner([1, 2, 3], [1, 2, 3]) == 14.0
    assert MINKOWSKI.inner([1, 2, 3], [1, 2, 3]) == 12.0
    assert MINKOWSKI.inner([1, 0, 0], [1, 0, 0]) == -1.0
