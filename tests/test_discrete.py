"""The ratio K/d^4 from sampled positions alone (``discrete.py``).

At the interior points of a 5 x 4 grid on each regular catalog surface
(every one but the plane, whose tangent planes pass through the origin),
the discrete ratio at step h has an error of order h^2: it falls 4.0x
from h = 1e-2 to h = 5e-3 (on the paraboloid, a quadratic, it is exact).
The Richardson pair (4 R(h/2) - R(h)) / 3 at h = 1e-2 comes within
3.7e-9 relative of the pass's ratio, and the test allows 1e-6.  In exact
arithmetic on the sampled floats, the stencil of f A gives R / det(A)^2
exactly for integer matrices A.  A pass that swaps Vx and Vxy fails the
first test on five of the six surfaces.
"""

import math
import random
from fractions import Fraction

import pytest

from discrete import mapped, ratio, stencil
from titeica.invariants import point_invariants
from titeica.surfaces import _grid_axes, catalog, catalog_entries, eval_surface

H = 1e-2
REGULAR = [name for name, _, _ in catalog_entries() if name != "plane"]


def interior(s):
    """The points of the 5 x 4 grid on the domain of ``s`` off its edge rows and columns."""
    xs, ys = _grid_axes(s.domain, 5, 4)
    return [(x, y) for y in ys[1:-1] for x in xs[1:-1]]


@pytest.mark.parametrize("name", REGULAR)
def test_the_ratio_from_sampled_positions_is_the_pass_ratio(name):
    s = catalog(name)
    sign = math.prod(s.ambient.signature)
    for x, y in interior(s):
        want = point_invariants(eval_surface(s, x, y), s.ambient).ratio
        coarse, fine = (ratio(stencil(s, x, y, h), h, sign) for h in (H, H / 2))
        assert abs((4 * fine - coarse) / 3 - want) <= 1e-6 * abs(want)


@pytest.mark.parametrize("name", REGULAR)
def test_the_sampled_ratio_obeys_the_scaling_law_exactly(name):
    s = catalog(name)
    rng = random.Random(name)
    p = [[tuple(map(Fraction, f)) for f in row] for row in stencil(s, *interior(s)[0], H)]
    h = Fraction(H)
    r = ratio(p, h, 1)
    assert r != 0
    for _ in range(3):
        det = 0
        while det == 0:
            a = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            det = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1]) - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                   + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
        assert ratio(mapped(p, a), h, 1) == r / det**2
