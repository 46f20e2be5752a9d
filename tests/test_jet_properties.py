"""Generative checks of every jet operator and function (ROADMAP item 17).

Fields and real operands are drawn from finite floats, +-0.0 and +-inf.
A real operand must give, by ``repr`` (which tells -0.0 from 0.0), its
exact rule: the rule with the constant's zero derivatives dropped, so
that no 0.0 is added to a -0.0 and no inf is multiplied by 0.0.
``derandomize=True`` fixes the examples, ``database=None`` keeps none
between runs and ``deadline=None`` lets a slow machine take its time.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titeica import jet
from titeica.errors import DomainError
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
@given(jets, reals)
def test_a_real_operand_follows_the_exact_rule(j, c):
    val, *d = j
    assert same(j + c, c + j, Jet2(val + c, *d))
    assert same(j - c, Jet2(val - c, *d))
    assert same(c - j, Jet2(c - val, *(-f for f in d)))
    assert same(j * c, c * j, Jet2(*(f * c for f in j)))
    assert same(-j, Jet2(*(-f for f in j)))
    if c == 0.0:
        with pytest.raises(DomainError):
            j / c
    else:
        assert same(j / c, j * (1.0 / c))


@SETTINGS
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
@given(jets)
def test_zeroth_and_first_powers_are_one_and_the_base(j):
    assert same(j ** 0, j ** 0.0, jet.pow_int(j, 0), Jet2(1.0))
    assert same(j ** 1, j ** 1.0, jet.pow_int(j, 1), j)


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


def power(p):
    """``a ** p`` with the scalar value and slope of its rule; a zero base
    is refused for p < 0 and a base that is not positive for a fractional p."""
    if float(p).is_integer():
        return (f"pow_int({p})", lambda a: a ** p, lambda v: v ** p, lambda v: p * v ** (p - 1),
                (lambda v: v == 0.0) if p < 0 else None)
    return f"pow({p})", lambda a: a ** p, lambda v: v ** p, lambda v: p * v ** (p - 1.0), lambda v: v <= 0.0


# Each function: its name, the jet function, the scalar value and slope
# its rule uses, and the arguments it refuses with DomainError.
FUNCTIONS = [
    ("sin", jet.sin, math.sin, math.cos, None),
    ("cos", jet.cos, math.cos, lambda v: -math.sin(v), None),
    ("exp", jet.exp, math.exp, math.exp, None),
    ("log", jet.log, math.log, lambda v: 1.0 / v, lambda v: v <= 0.0),
    ("sqrt", jet.sqrt, math.sqrt, lambda v: 0.5 / math.sqrt(v), lambda v: v <= 0.0),
    ("sinh", jet.sinh, math.sinh, math.cosh, None),
    ("cosh", jet.cosh, math.cosh, math.sinh, None),
    ("tanh", jet.tanh, math.tanh, lambda v: 1.0 - math.tanh(v) ** 2, None),
    ("atan", jet.atan, math.atan, lambda v: 1.0 / (1.0 + v * v), None),
    ("atanh", jet.atanh, math.atanh, lambda v: 1.0 / (1.0 - v * v), lambda v: not -1.0 < v < 1.0),
    *map(power, (-3, -2, 2, 3, 0.5, -1.5, 2.5)),
]


@SETTINGS
@given(jets)
def test_a_function_is_its_scalar_rule_to_first_order(j):
    # The value is the scalar function's and each first derivative is
    # f'(val) times the operand's; a refused argument raises DomainError,
    # and where the scalar function raises, the jet does too.
    for name, fn, value, slope, refused in FUNCTIONS:
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
        got = fn(j)
        assert same(got.val, v) and same(got[1:3], (d1 * j.dx, d1 * j.dy)), name
