"""Generative checks of every jet operator and function (ROADMAP item 17).

Fields and real operands are drawn from finite floats, +-0.0 and +-inf.
A real operand must give, by ``repr`` (which tells -0.0 from 0.0), its
exact rule: the rule with the constant's zero derivatives dropped, so
that no 0.0 is added to a -0.0 and no inf is multiplied by 0.0.
The second-order checks draw fields whose terms stay finite and compare
each with its rule, written out on its own, within a stated relative
bound.  ``derandomize=True`` fixes the examples, ``database=None`` keeps none
between runs and ``deadline=None`` lets a slow machine take its time.
Hypothesis also draws from the constants of every loaded module, so the
drawn examples move with unrelated edits; each input that once exposed a
jet fault is an ``@example`` of the property for its operator, and so
runs every time.
"""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from titeica import DomainError, jet
from titeica.jet import Jet2

# As in test_properties: a libcst that warns on import must not turn a
# failing example into an internal error under ``filterwarnings = error``.
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

SETTINGS = settings(derandomize=True, database=None, deadline=None)

reals = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf]), st.floats(allow_nan=False))
jets = st.builds(Jet2, reals, reals, reals, reals, reals, reals)


def same(*values):
    """Every value has the same ``repr``."""
    return len({repr(v) for v in values}) == 1


@SETTINGS
@example(Jet2(5.0, -0.0, 1.0, -0.0, 0.0, 2.0), 2.0)
@example(Jet2(5.0, -0.0, 1.0, -0.0, 0.0, 2.0), -2.0)
@example(Jet2(math.inf, 1.0, 0.0, 0.0, 0.0, 0.0), 2.0)
@example(Jet2(5.0, -0.0, 1.0, -0.0, 0.0, 2.0), 0)  # an int divisor 0 as the float 0.0
@given(jets, reals)
def test_a_real_operand_follows_the_exact_rule(j, c):
    val, *d = j
    assert same(j + c, c + j, Jet2(val + c, *d))
    assert same(j - c, Jet2(val - c, *d))
    assert same(c - j, Jet2(c - val, *(-f for f in d)))
    assert same(j * c, c * j, Jet2(*(f * c for f in j)))
    assert same(-j, Jet2(*(-f for f in j)))
    if c == 0.0:
        with pytest.raises(DomainError, match="^division by a jet with value 0$"):
            j / c
    else:
        assert same(j / c, j * (1.0 / c))


@SETTINGS
@example(1.0, Jet2(2.0))
@given(reals, jets)
def test_a_real_numerator_follows_the_exact_quotient_rule(c, j):
    # The quotient rule around q = c/b with the numerator's derivatives
    # dropped: where it reads "0 - t" the rule is -t, so a +0.0 t gives -0.0.
    b0, b1, b2, b3, b4, b5 = j
    if b0 == 0.0:
        with pytest.raises(DomainError):
            c / j
        return
    iw = 1.0 / b0
    q = c * iw
    qx, qy = -(q * b1) * iw, -(q * b2) * iw
    rule = Jet2(q, qx, qy, (-(2.0 * qx * b1) - q * b3) * iw, (-(qx * b2) - qy * b1 - q * b4) * iw,
                (-(2.0 * qy * b2) - q * b5) * iw)
    assert same(c / j, rule)


@SETTINGS
@example(Jet2(5.0, -0.0, 1.0, -0.0, 0.0, 2.0))
@example(Jet2(2.0, math.inf, 0.0, 0.0, 0.0, 0.0))
@given(jets)
def test_zeroth_and_first_powers_are_one_and_the_base(j):
    assert same(j ** 0, j ** 0.0, j ** -0.0, Jet2(1.0))
    assert same(j ** 1, j ** 1.0, j)


@SETTINGS
@given(jets, jets)
def test_two_jets_combine_field_by_field_and_commute(a, b):
    assert same(a + b, b + a, Jet2(*(x + y for x, y in zip(a, b))))
    assert same(a - b, Jet2(*(x - y for x, y in zip(a, b))))
    assert same(a * b, b * a)
    if b.val == 0.0:
        with pytest.raises(DomainError):
            a / b
    else:
        assert same((a / b).val, a.val * (1.0 / b.val))


def _sech(v):
    e = math.exp(-abs(v))  # no overflow: sech v is 2e / (1 + e^2)
    return 2.0 * e / (1.0 + e * e)


def _tanh_slope(v):
    # jet.tanh's slope, written as it is: 1 - tanh(v)^2 cancels as |v| grows.
    e = math.exp(-2.0 * abs(v))
    return 4.0 * e / ((1.0 + e) * (1.0 + e))


def power(p):
    """``a ** p`` with the scalar value, slope and curvature of its rule; a
    zero base is refused for p < 0, and a base that is not positive for a
    p that is not an integer."""
    integral = float(p).is_integer()
    refused = ((lambda v: v == 0.0) if p < 0 else None) if integral else (lambda v: v <= 0.0)
    return (f"pow({p})", lambda a: a ** p, lambda v: v ** p, lambda v: p * v ** (p - 1),
            lambda v: p * (p - 1) * v ** p / (v * v), refused)


# Each function: its name, the jet function, the scalar value and slope
# its rule uses, its second derivative written out on its own, and the
# arguments it refuses with DomainError.
FUNCTIONS = [
    ("sin", jet.sin, math.sin, math.cos, lambda v: -math.sin(v), math.isinf),
    ("cos", jet.cos, math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v), math.isinf),
    ("exp", jet.exp, math.exp, math.exp, math.exp, None),
    ("log", jet.log, math.log, lambda v: 1.0 / v, lambda v: -1.0 / (v * v), lambda v: v <= 0.0),
    ("sqrt", jet.sqrt, math.sqrt, lambda v: 0.5 / math.sqrt(v), lambda v: -1.0 / (4.0 * v * math.sqrt(v)),
     lambda v: v <= 0.0),
    ("sinh", jet.sinh, math.sinh, math.cosh, math.sinh, None),
    ("cosh", jet.cosh, math.cosh, math.sinh, math.cosh, None),
    ("tanh", jet.tanh, math.tanh, _tanh_slope, lambda v: -2.0 * math.tanh(v) * _sech(v) ** 2, None),
    ("atan", jet.atan, math.atan, lambda v: 1.0 / (1.0 + v * v), lambda v: -2.0 * v / (1.0 + v * v) ** 2, None),
    ("atanh", jet.atanh, math.atanh, lambda v: 1.0 / ((1.0 - v) * (1.0 + v)),
     lambda v: 2.0 * v / ((1.0 - v) * (1.0 + v)) ** 2, lambda v: not -1.0 < v < 1.0),
    *map(power, (-3, -2, 2, 3, 0.5, -1.5, 2.5)),
]


@SETTINGS
@example(Jet2(5.97e-211))
@given(jets)
def test_a_function_is_its_scalar_rule_to_first_order(j):
    # The value is the scalar function's and each first derivative is
    # f'(val) times the operand's; a refused argument raises DomainError,
    # and where the scalar function raises, the jet does too.
    for name, fn, value, slope, curvature, refused in FUNCTIONS:
        if refused is not None and refused(j.val):
            with pytest.raises(DomainError, match=name.split("(")[0]):
                fn(j)
            continue
        try:
            v, d1 = value(j.val), slope(j.val)
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)):
                fn(j)
            continue
        # Where f'' alone is not a finite float, a power is still a jet
        # (test_a_power_with_a_finite_slope_is_a_jet): no OverflowError here.
        got = fn(j)
        assert same(got.val, v) and same(got[1:3], (d1 * j.dx, d1 * j.dy)), name


@pytest.mark.parametrize("v, p", [(1e-100, -2), (1e-210, 0.5)])
def test_a_power_with_a_finite_slope_is_a_jet(v, p):
    # The value and slope are finite, but v ** (p - 2) overflows, and so
    # does f'' itself: dxx is f'' as a signed inf, and dxy and dyy, whose
    # slope products are 0, are 0.0, not inf * 0.0 = nan.
    got = Jet2(v, 1.0) ** p
    assert same(got[:2], (v ** p, p * v ** (p - 1)))
    assert same(got[3:], (math.copysign(math.inf, p * (p - 1)), 0.0, 0.0))


@SETTINGS
@example(Jet2(1e-300, 0.0, 1.0))
@example(Jet2(0.0, 0.0, 2e154))
@example(Jet2(8.98846567431158e307))
@given(st.builds(Jet2, *[st.floats(allow_nan=False, allow_infinity=False)] * 6))
def test_no_nan_where_the_rule_has_none(j):
    # Where the value and each term f' * a of the rule are finite, an f''
    # that leaves float range is a signed inf, and times a zero slope
    # product it adds 0; an f'' of 0 times a slope product that overflows
    # adds 0 too: no field is nan.  The examples are such an f'' for sqrt,
    # log and the 0.5 power, such a slope product for sin, sinh, tanh and
    # atan at 0, and an atan whose -2 v f'^2 once overflowed in -2 v.
    for name, fn, value, slope, _, refused in FUNCTIONS:
        if refused is not None and refused(j.val):
            continue
        try:
            terms = value(j.val), *(slope(j.val) * a for a in j[1:])
        except (ValueError, OverflowError):
            continue
        if all(map(math.isfinite, terms)):
            assert not any(map(math.isnan, fn(j))), (name, fn(j))


def test_sqrt_is_the_half_power_where_its_curvature_overflows():
    j = Jet2(1e-300, 0.0, 1.0)
    assert same(jet.sqrt(j), j ** 0.5, Jet2(1e-150, 0.0, 5e149, 0.0, 0.0, -math.inf))


# Second order: each field is the sum of its rule's terms within REL of
# the sum of their magnitudes, or within the least normal float where
# the terms underflow.  Each field is +-0.0 or has a magnitude in
# [1e-3, 1e3] (the value) or [1e-6, 1e6] (a derivative), and an example
# whose terms are not all finite is skipped: no term overflows into an inf.
REL = 1e-12


def moderate(lo, hi):
    """Floats in [-hi, hi], each of magnitude under ``lo`` read as its signed zero."""
    return st.floats(-hi, hi).map(lambda f: f if abs(f) >= lo else math.copysign(0.0, f))


finite_jets = st.builds(Jet2, moderate(1e-3, 1e3), *[moderate(1e-6, 1e6)] * 5)


def near(got, *terms):
    """``got`` is the sum of ``terms`` within the stated bound."""
    return abs(got - math.fsum(terms)) <= REL * math.fsum(map(abs, terms)) + sys.float_info.min


def check_second_order(j, fn, slope, curvature, refused):
    """dxx, dxy and dyy of ``fn(j)`` are their chain rule's terms for the
    written-out f' and f'' at the value, unless refused or not finite."""
    v, ax, ay, axx, axy, ayy = j
    if refused is not None and refused(v):
        return
    try:
        d1, d2 = slope(v), curvature(v)
    except (ValueError, OverflowError, ZeroDivisionError):
        return
    terms = (d1 * axx, d2 * ax * ax), (d1 * axy, d2 * ax * ay), (d1 * ayy, d2 * ay * ay)
    if all(map(math.isfinite, (t for field in terms for t in field))):
        got = fn(j)
        assert all(near(g, *t) for g, t in zip(got[3:], terms)), (got[3:], terms)


# atanh's slope is written as 1 / ((1 - v)(1 + v)) and tanh's as
# 4e / (1 + e)^2 with e = exp(-2|v|), which keep their digits where
# 1 - v*v and 1 - tanh(v)^2 would cancel: near +-1 for atanh (the example
# at 1 - 2**-30 below) and as |v| grows for tanh (the examples at 6 and 20).
@SETTINGS
@example(Jet2(1.0 - 2.0**-30, 1.0, 1.0))
@example(Jet2(6.0, 1.0, 1.0))
@example(Jet2(6.0, 0.0, 0.0, 0.0, 0.0, 1.0))
@example(Jet2(20.0, 1.0, 1.0))
@given(finite_jets)
def test_a_function_is_its_scalar_rule_to_second_order(j):
    for _, fn, _, slope, curvature, refused in FUNCTIONS:
        check_second_order(j, fn, slope, curvature, refused)


@SETTINGS
@given(finite_jets, finite_jets)
def test_a_quotient_is_the_written_out_quotient_rule_to_second_order(a, b):
    # (a/b)'' = a''/b - 2 a' b'/b^2 - a b''/b^2 + 2 a b'^2/b^3, and the
    # mixed field with each product of first derivatives split in two.
    a0, a1, a2, a3, a4, a5 = a
    b0, b1, b2, b3, b4, b5 = b
    if b0 == 0.0:
        return
    w2, w3 = b0 * b0, b0 * b0 * b0
    terms = (
        (a3 / b0, -2.0 * a1 * b1 / w2, -a0 * b3 / w2, 2.0 * a0 * b1 * b1 / w3),
        (a4 / b0, -a1 * b2 / w2, -a2 * b1 / w2, -a0 * b4 / w2, 2.0 * a0 * b1 * b2 / w3),
        (a5 / b0, -2.0 * a2 * b2 / w2, -a0 * b5 / w2, 2.0 * a0 * b2 * b2 / w3),
    )
    if not all(map(math.isfinite, (t for field in terms for t in field))):
        return
    got = a / b
    assert all(near(g, *t) for g, t in zip(got[3:], terms)), (got[3:], terms)
