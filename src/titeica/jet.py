"""Second-order forward-mode automatic differentiation in two variables.

A :class:`Jet2` bundles the value of a scalar quantity with its exact
gradient and Hessian with respect to two independent parameters.  The
arithmetic operators and the elementary functions below propagate all six
fields through the sum, product, quotient and chain rules, so any scalar
expression built from seeded coordinates carries exact first and second
derivatives -- no symbolic algebra, no finite differencing.  Only one
mixed entry ``dxy`` is stored; symmetry of the Hessian is structural.

Typical use::

    x, y = seed_xy(1.0, 2.0)
    u = 1.0 / (x * y)
    u.dx, u.dxy     # exact du/dx and d2u/dxdy at (1, 2)

Jets are immutable and every operation is a pure function, so evaluation
is safe to spread over any number of threads.
"""

import math
import numbers
from typing import NamedTuple

from . import _NAMES
from .errors import DomainError

__all__ = [*_NAMES["jet"], "sin", "cos", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "atan", "atanh"]


class Jet2(NamedTuple):
    """Value, gradient and symmetric Hessian of a scalar in (x, y).

    An immutable named tuple of six floats: it compares and hashes by
    value and has no order.  The operators below replace tuple
    concatenation and repetition with jet arithmetic; a jet combined with
    anything but a jet or a real number raises TypeError.
    """

    val: float
    dx: float = 0.0
    dy: float = 0.0
    dxx: float = 0.0
    dxy: float = 0.0
    dyy: float = 0.0

    # numpy scalars defer to the jet's reflected operators instead of
    # broadcasting over its six fields.
    __array_ufunc__ = None

    # A real term changes the value alone, a real factor or divisor scales
    # each field: no 0.0 is added to a -0.0, and no inf * 0.0 makes a nan.

    def __add__(self, other):
        a0, a1, a2, a3, a4, a5 = self
        if type(other) is not Jet2:
            c = _real(other)
            if c is None:
                raise _refused("+", other)
            return _new(Jet2, (a0 + c, a1, a2, a3, a4, a5))
        b0, b1, b2, b3, b4, b5 = other
        return _new(Jet2, (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5))

    __radd__ = __add__

    def __sub__(self, other):
        a0, a1, a2, a3, a4, a5 = self
        if type(other) is not Jet2:
            c = _real(other)
            if c is None:
                return NotImplemented
            return _new(Jet2, (a0 - c, a1, a2, a3, a4, a5))
        b0, b1, b2, b3, b4, b5 = other
        return _new(Jet2, (a0 - b0, a1 - b1, a2 - b2, a3 - b3, a4 - b4, a5 - b5))

    def __rsub__(self, other):
        c = _real(other)
        if c is None:
            return NotImplemented
        a0, a1, a2, a3, a4, a5 = self
        return _new(Jet2, (c - a0, -a1, -a2, -a3, -a4, -a5))

    def __neg__(self):
        a0, a1, a2, a3, a4, a5 = self
        return _new(Jet2, (-a0, -a1, -a2, -a3, -a4, -a5))

    def __mul__(self, other):
        a0, a1, a2, a3, a4, a5 = self
        if type(other) is not Jet2:
            c = _real(other)
            if c is None:
                raise _refused("*", other)
            return _new(Jet2, (a0 * c, a1 * c, a2 * c, a3 * c, a4 * c, a5 * c))
        # Grouped so that a*b and b*a agree bitwise (addition of the same
        # products in commuted operand order).
        b0, b1, b2, b3, b4, b5 = other
        return _new(Jet2, (
            a0 * b0,
            a1 * b0 + a0 * b1,
            a2 * b0 + a0 * b2,
            (a3 * b0 + a0 * b3) + 2.0 * (a1 * b1),
            (a4 * b0 + a0 * b4) + (a1 * b2 + a2 * b1),
            (a5 * b0 + a0 * b5) + 2.0 * (a2 * b2),
        ))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Jet2:
            return _div(self, other)
        c = _real(other)
        if c is None:
            return NotImplemented
        if c == 0.0:
            raise DomainError("division by a jet with value 0")
        return self * (1.0 / c)  # each field times the 1/c of _div

    def __rtruediv__(self, other):
        c = _real(other)
        if c is None:
            return NotImplemented
        return _div((c, -0.0, -0.0, -0.0, -0.0, -0.0), self)  # -0.0 - t is -t, for t = 0.0 too

    def __pow__(self, exponent):
        p = _real(exponent)  # numpy.int64 and numpy.float64 too: float fields
        if p is None:
            return NotImplemented
        if p == 0.0:  # the constant 1, with no inf * 0.0 made a nan
            return _new(Jet2, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        if p == 1.0:  # the base itself, signed zeros included
            return self
        v = self.val
        # Any nonzero base for an integral p; a positive one for any other p.
        if v == 0.0 and p < 0.0 or v <= 0.0 and not p.is_integer():
            raise DomainError(f"pow: base {v!r} outside the domain of x ** {p!r}")
        return _chain(self, v**p, p * v ** (p - 1.0), p * (p - 1.0) * v ** (p - 2.0))

    def _unordered(self, other):
        # Jets have no order.  Returning NotImplemented would let tuple
        # order compare a jet with a tuple field by field.
        raise TypeError("Jet2 values have no order")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


# Builds a record without its generated __new__'s argument binding: every field, in order.
_new = tuple.__new__


def _real(v):
    """A real operand as a float, else None; a Jet2 operand never reaches it."""
    # float and int first: the numbers.Real test is an ABC lookup.
    return float(v) if isinstance(v, (float, int, numbers.Real)) else None


def _refused(op: str, v) -> TypeError:
    # + and * raise instead of returning NotImplemented: Python would then
    # fall back to tuple concatenation or repetition.
    return TypeError(f"unsupported operand type for {op} with a Jet2: '{type(v).__name__}'")


def _div(a, b) -> Jet2:
    a0, a1, a2, a3, a4, a5 = a
    b0, b1, b2, b3, b4, b5 = b
    if b0 == 0.0:
        raise DomainError("division by a jet with value 0")
    # Quotient rule, written around q = a/b so the second-order terms
    # reuse the already-computed first-order ones.
    iw = 1.0 / b0
    q = a0 * iw
    qx = (a1 - q * b1) * iw
    qy = (a2 - q * b2) * iw
    return _new(Jet2, (
        q,
        qx,
        qy,
        (a3 - 2.0 * qx * b1 - q * b3) * iw,
        (a4 - qx * b2 - qy * b1 - q * b4) * iw,
        (a5 - 2.0 * qy * b2 - q * b5) * iw,
    ))


def seed_xy(x: float, y: float) -> tuple[Jet2, Jet2]:
    """Coordinate seeds for evaluating an expression at the point (x, y):
    ``(Jet2(x, 1.0), Jet2(y, 0.0, 1.0))``."""
    return _new(Jet2, (float(x), 1.0, 0.0, 0.0, 0.0, 0.0)), _new(Jet2, (float(y), 0.0, 1.0, 0.0, 0.0, 0.0))


def _chain(a: Jet2, val: float, d1: float, d2: float) -> Jet2:
    # Chain rule through second order for a scalar map with derivatives
    # d1, d2 at a.val.
    _, ax, ay, axx, axy, ayy = a
    return _new(Jet2, (
        val,
        d1 * ax,
        d1 * ay,
        d1 * axx + d2 * (ax * ax),
        d1 * axy + d2 * (ax * ay),
        d1 * ayy + d2 * (ay * ay),
    ))


def sin(a: Jet2) -> Jet2:
    v = a.val
    try:
        s, c = math.sin(v), math.cos(v)
    except ValueError:  # math refuses +-inf alone
        raise DomainError(f"sin: argument {v!r} not in (-inf, inf)") from None
    return _chain(a, s, c, -s)


def cos(a: Jet2) -> Jet2:
    v = a.val
    try:
        s, c = math.sin(v), math.cos(v)
    except ValueError:
        raise DomainError(f"cos: argument {v!r} not in (-inf, inf)") from None
    return _chain(a, c, -s, -c)


def exp(a: Jet2) -> Jet2:
    e = math.exp(a.val)
    return _chain(a, e, e, e)


def log(a: Jet2) -> Jet2:
    v = a.val
    if v <= 0.0:
        raise DomainError(f"log: argument {v!r} not in (0, inf)")
    iv = 1.0 / v
    return _chain(a, math.log(v), iv, -iv * iv)


def sqrt(a: Jet2) -> Jet2:
    v = a.val
    if v <= 0.0:
        raise DomainError(f"sqrt: argument {v!r} not in (0, inf)")
    s = math.sqrt(v)
    d1 = 0.5 / s
    return _chain(a, s, d1, -0.5 * d1 / v)


def sinh(a: Jet2) -> Jet2:
    s, c = math.sinh(a.val), math.cosh(a.val)
    return _chain(a, s, c, s)


def cosh(a: Jet2) -> Jet2:
    s, c = math.sinh(a.val), math.cosh(a.val)
    return _chain(a, c, s, c)


def tanh(a: Jet2) -> Jet2:
    t = math.tanh(a.val)
    sech2 = 1.0 - t * t
    return _chain(a, t, sech2, -2.0 * t * sech2)


def atan(a: Jet2) -> Jet2:
    v = a.val
    d1 = 1.0 / (1.0 + v * v)
    return _chain(a, math.atan(v), d1, -2.0 * v * d1 * d1)


def atanh(a: Jet2) -> Jet2:
    v = a.val
    if not -1.0 < v < 1.0:
        raise DomainError(f"atanh: argument {v!r} not in (-1, 1)")
    d1 = 1.0 / ((1.0 - v) * (1.0 + v))
    return _chain(a, math.atanh(v), d1, 2.0 * v * d1 * d1)
