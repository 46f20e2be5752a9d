import math
import operator
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import exprgen
from fdcheck import FDSettings, fd_jet
from titeica import DomainError, jet
from titeica.jet import Jet2, seed_xy


def assert_jet(j, expected, tol=0.0):
    got = (j.val, j.dx, j.dy, j.dxx, j.dxy, j.dyy)
    for g, w in zip(got, expected):
        assert abs(g - w) <= tol, f"{got} vs {expected}"


def test_constant_seeds():
    # A constant is a Jet2 of its value alone: every derivative defaults to 0.
    assert_jet(Jet2(5.0), (5, 0, 0, 0, 0, 0))
    assert_jet(Jet2(0.0), (0, 0, 0, 0, 0, 0))
    assert_jet(Jet2(-1.5), (-1.5, 0, 0, 0, 0, 0))


def test_variable_seeds():
    assert repr(seed_xy(2.0, -3.0)) == repr((Jet2(2.0, 1.0), Jet2(-3.0, 0.0, 1.0)))
    assert_jet(seed_xy(2.0, -3.0)[0], (2, 1, 0, 0, 0, 0))
    assert_jet(seed_xy(2.0, -3.0)[1], (-3, 0, 1, 0, 0, 0))
    assert_jet(seed_xy(0, 0)[0], (0, 1, 0, 0, 0, 0))
    assert {type(f) for j in seed_xy(np.float64(1.0), 2) for f in j} == {float}


def test_product_rule_xy():
    x, y = seed_xy(2.0, 3.0)
    assert_jet(x * y, (6, 3, 2, 0, 1, 0))


def test_addition_linearity():
    assert_jet(Jet2(1.0) + Jet2(4.0, 1.0), (5, 1, 0, 0, 0, 0))
    assert_jet(-(Jet2(4.0, 1.0) * Jet2(2.0, 0.0, 1.0)), (-8, -2, -4, 0, -1, 0))


def test_reciprocal_of_product():
    # oracle: central differences of u(x,y) = 1/(xy) at (1,1)
    x, y = seed_xy(1.0, 1.0)
    u = Jet2(1.0) / (x * y)
    assert_jet(u, (1, -1, -1, 2, 1, 2), tol=1e-14)
    fd = fd_jet(lambda a, b: 1.0 / (a * b), (1.0, 1.0))
    for got, want in zip(
        (fd.val, fd.dx, fd.dy, fd.dxx, fd.dxy, fd.dyy), (1, -1, -1, 2, 1, 2)
    ):
        assert abs(got - want) <= 1e-5


def test_sin_at_zero():
    assert_jet(jet.sin(Jet2(0.0, 1.0)), (0, 1, 0, 0, 0, 0))


def test_exp_of_constant():
    assert_jet(jet.exp(Jet2(0.0)), (1, 0, 0, 0, 0, 0))


def test_sqrt_of_one_plus_x_squared():
    # oracle: finite differences of sqrt(1 + x^2) at x = 0
    x = Jet2(0.0, 1.0)
    j = jet.sqrt(Jet2(1.0) + x * x)
    assert_jet(j, (1, 0, 0, 1, 0, 0), tol=1e-14)
    fd = fd_jet(lambda a, b: math.sqrt(1.0 + a * a), (0.0, 0.0))
    assert abs(fd.dxx - 1.0) <= 1e-5


def test_division_by_zero_jet():
    with pytest.raises(DomainError, match="division"):
        Jet2(1.0) / Jet2(0.0)


@pytest.mark.parametrize(
    "fn, bad",
    [(jet.log, -1.0), (jet.log, 0.0), (jet.sqrt, -2.0), (jet.atanh, 1.5),
     (jet.sin, math.inf), (jet.cos, -math.inf)],
)
def test_elementary_domain_errors(fn, bad):
    with pytest.raises(DomainError) as err:
        fn(Jet2(bad))
    assert fn.__name__ in str(err.value)
    assert repr(bad) in str(err.value)


def test_integer_power_against_oracle():
    x = Jet2(0.7, 1.0)
    cases = [
        (x**3, lambda a, b: a**3),
        (x**-2, lambda a, b: a**-2),
        (x**0, lambda a, b: 1.0),
        (x**3.0, lambda a, b: a**3),
    ]
    for j, fn in cases:
        fd = fd_jet(fn, (0.7, 0.0))
        assert abs(fd.dx - j.dx) <= 1e-8 * max(1.0, abs(j.dx))
        assert abs(fd.dxx - j.dxx) <= 1e-5 * max(1.0, abs(j.dxx))


def test_integer_power_of_a_negative_base():
    j = Jet2(-1.5, 1.0) ** -2
    fd = fd_jet(lambda a, b: a**-2, (-1.5, 0.0))
    assert abs(fd.dxx - j.dxx) <= 1e-5 * max(1.0, abs(j.dxx))
    with pytest.raises(DomainError, match=r"^pow: base 0\.0 outside the domain of x \*\* -2\.0$"):
        Jet2(0.0, 1.0) ** -2


@pytest.mark.parametrize("x", [-1.5, -0.0, 0.0, 0.75, 3.0])
def test_integral_float_exponent_is_the_integer_power(x):
    # An integral float exponent is an integer power, so a base that is
    # not positive is fine.
    for n in (-2, 0, 1, 2, 3):
        if x == 0.0 and n < 0:
            continue
        assert list(map(repr, Jet2(x, 1.0) ** float(n))) == list(map(repr, Jet2(x, 1.0) ** n))  # bitwise


def test_fractional_power_requires_positive_base():
    with pytest.raises(DomainError, match=r"^pow: base -2\.0 outside the domain of x \*\* 0\.5$"):
        Jet2(-2.0, 1.0) ** 0.5
    j = Jet2(4.0, 1.0) ** 0.5
    assert abs(j.val - 2.0) <= 1e-15
    assert abs(j.dx - 0.25) <= 1e-15


def test_log_exp_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        fields = rng.uniform(-3, 3, size=6)
        fields[0] = rng.uniform(-10, 10)
        a = Jet2(*(float(v) for v in fields))
        back = jet.log(jet.exp(a))
        for got, want in zip(
            (back.val, back.dx, back.dy, back.dxx, back.dxy, back.dyy),
            (a.val, a.dx, a.dy, a.dxx, a.dxy, a.dyy),
        ):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_random_compositions_match_oracle():
    # smaller companion of the acceptance-suite run
    rng = np.random.default_rng(20260810)
    settings = FDSettings(h1=1e-6, h2=1e-4)
    for expr, x, y in exprgen.sample_cases(rng, 300):
        j = exprgen.eval_jet(expr, *seed_xy(x, y))
        fd = fd_jet(lambda a, b: exprgen.eval_float(expr, a, b), (x, y), settings)
        for got, want in ((fd.dx, j.dx), (fd.dy, j.dy)):
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), expr
        for got, want in ((fd.dxx, j.dxx), (fd.dxy, j.dxy), (fd.dyy, j.dyy)):
            assert abs(got - want) <= 1e-5 * max(1.0, abs(want)), expr


def test_jet_is_an_immutable_value():
    j = Jet2(1.5, 2.0, -1.0, 0.25, 0.0, 3.0)
    with pytest.raises(AttributeError):
        j.dx = 0.0
    with pytest.raises(AttributeError):
        j.extra = 0.0
    same = Jet2(1.5, 2.0, -1.0, 0.25, 0.0, 3.0)
    assert j == same and hash(j) == hash(same) and len({j, same}) == 1
    assert j != Jet2(1.5, 2.0, -1.0, 0.25, 0.0, 2.0)
    for other in (same, (1.0,), 1.0):
        with pytest.raises(TypeError):
            j < other
        with pytest.raises(TypeError):
            other >= j
    assert repr(Jet2(2.0, 1.0)) == "Jet2(val=2.0, dx=1.0, dy=0.0, dxx=0.0, dxy=0.0, dyy=0.0)"


@pytest.mark.parametrize("other", ["a", None, (1.0,), Decimal("0.5")], ids=["str", "None", "tuple", "Decimal"])
@pytest.mark.parametrize("combine", [operator.add, operator.sub, operator.mul, operator.truediv, operator.pow])
def test_jet_refuses_a_non_number_operand_on_either_side(combine, other):
    # (1.0,) + jet must not concatenate into a 7-tuple
    j = Jet2(2.0, 1.0)
    with pytest.raises(TypeError):
        combine(j, other)
    with pytest.raises(TypeError):
        combine(other, j)


def test_numpy_scalars_combine_like_floats():
    # As does any other numbers.Real: np.float32 and Fraction (Decimal is none).
    j = Jet2(2.0, 1.0)
    for c in (np.float64(3.0), np.int64(3), np.float32(3.0), Fraction(3)):
        assert c * j == j * c == 3.0 * j
        assert c + j == j + c == 3.0 + j
        assert c - j == 3.0 - j and c / j == 3.0 / j
    # An exponent is its Python number: a jet of six floats, bitwise.
    for c in (np.int64(2), np.float64(2.0), np.float64(0.5)):
        assert repr(Jet2(1.5, 1.0) ** c) == repr(Jet2(1.5, 1.0) ** c.item())
