import math

import pytest

from fdcheck import FDSettings, OracleError, fd_jet
from titeica.jet import seed_xy


def test_bilinear():
    fd = fd_jet(lambda x, y: x * y, (2.0, 3.0))
    for got, want in zip((fd.val, fd.dx, fd.dy, fd.dxx, fd.dxy, fd.dyy), (6, 3, 2, 0, 1, 0)):
        assert abs(got - want) <= 1e-7


def test_reciprocal_product():
    fd = fd_jet(lambda x, y: 1.0 / (x * y), (1.0, 1.0))
    for got, want in zip((fd.val, fd.dx, fd.dy, fd.dxx, fd.dxy, fd.dyy), (1, -1, -1, 2, 1, 2)):
        assert abs(got - want) <= 1e-5


def test_constant_function():
    fd = fd_jet(lambda x, y: 7.0, (0.3, -0.4))
    for got, want in zip((fd.val, fd.dx, fd.dy, fd.dxx, fd.dxy, fd.dyy), (7, 0, 0, 0, 0, 0)):
        assert abs(got - want) <= 1e-12


def test_settings_validation():
    with pytest.raises(ValueError):
        FDSettings(h1=0.0)
    with pytest.raises(ValueError):
        FDSettings(h2=0.5)


def test_oracle_error_names_stencil_point():
    def fn(x, y):
        return math.sqrt(x)  # raises left of 0

    with pytest.raises(OracleError) as err:
        fd_jet(fn, (5e-7, 0.0))
    assert "stencil point" in str(err.value)


def test_oracle_error_on_nan():
    with pytest.raises(OracleError):
        fd_jet(lambda x, y: float("nan"), (0.0, 0.0))


def test_step_halving_is_second_order():
    # truncation-dominated steps so halving shrinks each error ~4x
    from titeica import jet as J

    samples = [
        (lambda x, y: math.exp(x + 2.0 * y), lambda jx, jy: J.exp(jx + 2.0 * jy), (0.3, 0.4)),
        (lambda x, y: 1.0 / (x + 2.0 * y + 4.0), lambda jx, jy: 1.0 / (jx + 2.0 * jy + 4.0), (0.2, 0.3)),
        (lambda x, y: math.sin(2.0 * x + 3.0 * y), lambda jx, jy: J.sin(2.0 * jx + 3.0 * jy), (0.3, 0.2)),
    ]
    coarse = FDSettings(h1=2e-3, h2=8e-3)
    fine = FDSettings(h1=1e-3, h2=4e-3)
    for fn, jet_fn, p in samples:
        exact = jet_fn(*seed_xy(*p))
        e1 = fd_jet(fn, p, coarse)
        e2 = fd_jet(fn, p, fine)
        for field in ("dx", "dy", "dxx", "dxy", "dyy"):
            err1 = abs(getattr(e1, field) - getattr(exact, field))
            err2 = abs(getattr(e2, field) - getattr(exact, field))
            assert err2 > 0.0
            assert 3.0 <= err1 / err2 <= 5.0, (field, err1, err2)
