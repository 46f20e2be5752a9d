import math
import operator

import numpy as np
import pytest

import exprgen
from fdcheck import FDSettings, fd_jet
from titeica import jet
from titeica.errors import DomainError
from titeica.jet import Jet2, constant, seed_x, seed_xy, seed_y


def assert_jet(j, expected, tol=0.0):
    got = (j.val, j.dx, j.dy, j.dxx, j.dxy, j.dyy)
    for g, w in zip(got, expected):
        assert abs(g - w) <= tol, f"{got} vs {expected}"


def test_constant_seeds():
    assert_jet(constant(5.0), (5, 0, 0, 0, 0, 0))
    assert_jet(constant(0.0), (0, 0, 0, 0, 0, 0))
    assert_jet(constant(-1.5), (-1.5, 0, 0, 0, 0, 0))


def test_variable_seeds():
    assert_jet(seed_x(2.0), (2, 1, 0, 0, 0, 0))
    assert_jet(seed_y(-3.0), (-3, 0, 1, 0, 0, 0))
    assert_jet(seed_x(0.0), (0, 1, 0, 0, 0, 0))


def test_product_rule_xy():
    x, y = seed_x(2.0), seed_y(3.0)
    assert_jet(x * y, (6, 3, 2, 0, 1, 0))


def test_addition_linearity():
    assert_jet(constant(1.0) + seed_x(4.0), (5, 1, 0, 0, 0, 0))
    assert_jet(-(seed_x(4.0) * seed_y(2.0)), (-8, -2, -4, 0, -1, 0))


def test_reciprocal_of_product():
    # oracle: central differences of u(x,y) = 1/(xy) at (1,1)
    x, y = seed_xy(1.0, 1.0)
    u = constant(1.0) / (x * y)
    assert_jet(u, (1, -1, -1, 2, 1, 2), tol=1e-14)
    fd = fd_jet(lambda a, b: 1.0 / (a * b), (1.0, 1.0))
    for got, want in zip(
        (fd.val, fd.dx, fd.dy, fd.dxx, fd.dxy, fd.dyy), (1, -1, -1, 2, 1, 2)
    ):
        assert abs(got - want) <= 1e-5


def test_sin_at_zero():
    assert_jet(jet.sin(seed_x(0.0)), (0, 1, 0, 0, 0, 0))


def test_exp_of_constant():
    assert_jet(jet.exp(constant(0.0)), (1, 0, 0, 0, 0, 0))


def test_sqrt_of_one_plus_x_squared():
    # oracle: finite differences of sqrt(1 + x^2) at x = 0
    x = seed_x(0.0)
    j = jet.sqrt(constant(1.0) + x * x)
    assert_jet(j, (1, 0, 0, 1, 0, 0), tol=1e-14)
    fd = fd_jet(lambda a, b: math.sqrt(1.0 + a * a), (0.0, 0.0))
    assert abs(fd.dxx - 1.0) <= 1e-5


def test_division_by_zero_jet():
    with pytest.raises(DomainError, match="division"):
        constant(1.0) / constant(0.0)


@pytest.mark.parametrize(
    "fn, bad",
    [(jet.log, -1.0), (jet.log, 0.0), (jet.sqrt, -2.0), (jet.atanh, 1.5)],
)
def test_elementary_domain_errors(fn, bad):
    with pytest.raises(DomainError) as err:
        fn(constant(bad))
    assert fn.__name__ in str(err.value)
    assert repr(bad) in str(err.value)


def test_pow_int_against_oracle():
    x = seed_x(0.7)
    cases = [
        (jet.pow_int(x, 3), lambda a, b: a**3),
        (jet.pow_int(x, -2), lambda a, b: a**-2),
        (jet.pow_int(x, 0), lambda a, b: 1.0),
        (x**3, lambda a, b: a**3),
    ]
    for j, fn in cases:
        fd = fd_jet(fn, (0.7, 0.0))
        assert abs(fd.dx - j.dx) <= 1e-8 * max(1.0, abs(j.dx))
        assert abs(fd.dxx - j.dxx) <= 1e-5 * max(1.0, abs(j.dxx))


def test_pow_int_negative_base():
    j = jet.pow_int(seed_x(-1.5), -2)
    fd = fd_jet(lambda a, b: a**-2, (-1.5, 0.0))
    assert abs(fd.dxx - j.dxx) <= 1e-5 * max(1.0, abs(j.dxx))
    with pytest.raises(DomainError, match="zero base with negative exponent -2"):
        jet.pow_int(seed_x(0.0), -2)


@pytest.mark.parametrize("x", [-1.5, -0.0, 0.0, 0.75, 3.0])
def test_integral_float_exponent_is_the_integer_power(x):
    # An integral float exponent is an integer power, so a base that is
    # not positive is fine.
    for n in (-2, 0, 1, 2, 3):
        if x == 0.0 and n < 0:
            continue
        assert list(map(repr, seed_x(x) ** float(n))) == list(map(repr, seed_x(x) ** n))  # bitwise


def test_fractional_power_requires_positive_base():
    with pytest.raises(DomainError):
        seed_x(-2.0) ** 0.5
    j = seed_x(4.0) ** 0.5
    assert abs(j.val - 2.0) <= 1e-15
    assert abs(j.dx - 0.25) <= 1e-15


def test_multiplication_commutes_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = Jet2(*(float(v) for v in rng.uniform(-3, 3, size=6)))
        b = Jet2(*(float(v) for v in rng.uniform(-3, 3, size=6)))
        assert a * b == b * a


def test_real_factor_scales_each_field():
    # Each field is the field times the factor, compared by repr, which
    # tells -0.0 from 0.0: no val * 0.0 term turns -0.0 into 0.0, and an
    # infinite value leaves the derivatives finite.
    u = Jet2(5.0, -0.0, 1.0, 0.0, 0.0, 0.0)
    assert repr((u * 2.0).dx) == "-0.0"
    assert repr(u * 2.0) == repr(Jet2(10.0, -0.0, 2.0, 0.0, 0.0, 0.0))
    assert repr(2.0 * u) == repr(u * 2.0)
    v = Jet2(math.inf, 1.0, 0.0, 0.0, 0.0, 0.0) * 2.0
    assert repr(v) == repr(Jet2(math.inf, 2.0, 0.0, 0.0, 0.0, 0.0))
    assert v.dx == 2.0


def test_real_term_changes_the_value_alone():
    # j + c and c + j move the value; j - c moves it back and c - j
    # negates each derivative, so every -0.0 and 0.0 keeps or flips its
    # sign as its field does.
    u = Jet2(5.0, -0.0, 1.0, -0.0, 0.0, 2.0)
    assert repr(u + 2.0) == repr(2.0 + u) == repr(Jet2(7.0, -0.0, 1.0, -0.0, 0.0, 2.0))
    assert repr(u - 2.0) == repr(Jet2(3.0, -0.0, 1.0, -0.0, 0.0, 2.0))
    assert repr(2.0 - u) == repr(Jet2(-3.0, 0.0, -1.0, 0.0, -0.0, -2.0))
    assert repr(2.0 - u) == repr(Jet2(*(2.0 - u.val, *(-d for d in u[1:]))))


def test_real_divisor_divides_each_field():
    # Each field times 1/c: the quotient rule's q * 0.0 terms would flip
    # -0.0 / -2.0 to -0.0 and make an infinite value's derivatives nan.
    u = Jet2(5.0, -0.0, 1.0, -0.0, 0.0, 2.0)
    assert repr(u / -2.0) == repr(Jet2(-2.5, 0.0, -0.5, 0.0, -0.0, -1.0))
    assert repr(u / 2.0) == repr(u * 0.5)
    v = Jet2(math.inf, 1.0, 0.0, 0.0, 0.0, 0.0) / 2.0
    assert repr(v) == repr(Jet2(math.inf, 0.5, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="^division by a jet with value 0$"):
        u / 0.0
    with pytest.raises(DomainError, match="^division by a jet with value 0$"):
        u / -0


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
    assert repr(seed_x(2.0)) == "Jet2(val=2.0, dx=1.0, dy=0.0, dxx=0.0, dxy=0.0, dyy=0.0)"


@pytest.mark.parametrize("other", ["a", None, (1.0,)], ids=["str", "None", "tuple"])
@pytest.mark.parametrize("combine", [operator.add, operator.sub, operator.mul, operator.truediv, operator.pow])
def test_jet_refuses_a_non_number_operand_on_either_side(combine, other):
    # (1.0,) + jet must not concatenate into a 7-tuple
    j = seed_x(2.0)
    with pytest.raises(TypeError):
        combine(j, other)
    with pytest.raises(TypeError):
        combine(other, j)


def test_numpy_scalars_combine_like_floats():
    j = seed_x(2.0)
    for c in (np.float64(3.0), np.int64(3)):
        assert c * j == j * c == 3.0 * j
        assert c + j == j + c == 3.0 + j
        assert c - j == 3.0 - j and c / j == 3.0 / j
    # An exponent is its Python number: a jet of six floats, bitwise.
    for c in (np.int64(2), np.float64(2.0), np.float64(0.5)):
        assert repr(seed_x(1.5) ** c) == repr(seed_x(1.5) ** c.item())
