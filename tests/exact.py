"""Exact invariants of a jet's floats, in rational arithmetic.

Every float is an exact rational, so the true cross product, volumes, nn,
K, d^2 and K/d^4 of the jet actually evaluated are ``fractions.Fraction``
values.  The forward error of a float result is measured against them.
A value the jet leaves undefined (K and d^2 at nn = 0, the ratio at V = 0)
is None.
"""

from fractions import Fraction
from typing import NamedTuple, Optional

from helpers import jet_rows


class Exact(NamedTuple):
    c: tuple[Fraction, Fraction, Fraction]
    vols: tuple[Fraction, Fraction, Fraction, Fraction]  # Vx, Vy, Vxy, V
    nn: Fraction
    K: Optional[Fraction]
    d2: Optional[Fraction]
    ratio: Optional[Fraction]


def exact_invariants(sj, amb) -> Exact:
    # Each float is an integer over a power of two.  Scaled by the largest
    # denominator D the 18 of them are integers, and so is everything
    # below: c carries D^2, the volumes D^3, nn D^4 and num D^6.
    parts = [[v.as_integer_ratio() for v in row] for row in jet_rows(sj)]
    D = max(den for row in parts for _, den in row)
    f, (x0, x1, x2), (y0, y1, y2), f_xx, f_xy, f_yy = ([n * (D // den) for n, den in row] for row in parts)
    c = (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0)
    vx, vy, vxy, v = (sum(r * ci for r, ci in zip(row, c)) for row in (f_xx, f_yy, f_xy, f))
    s0, s1, s2 = amb.signature
    nn = s0 * c[0] ** 2 + s1 * c[1] ** 2 + s2 * c[2] ** 2
    num = s0 * s1 * s2 * (vx * vy - vxy * vxy)
    return Exact(
        tuple(Fraction(ci, D**2) for ci in c),
        tuple(Fraction(vol, D**3) for vol in (vx, vy, vxy, v)),
        Fraction(nn, D**4),
        Fraction(num * D**2, nn**2) if nn else None,
        Fraction(v * v, D**2 * abs(nn)) if nn else None,
        Fraction(num * D**6, v**4) if v else None,
    )


def relative_error(got: float, exact: Fraction) -> Fraction:
    """|got - exact| / |exact|, or |got| where exact is 0."""
    err = abs(Fraction(got) - exact)
    return err / abs(exact) if exact else err
