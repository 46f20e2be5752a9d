"""Generative checks of the paper's claims on drawn patches, points and maps.

Each property states its bound.  ``derandomize=True`` fixes the examples,
so a run gives the same result every time, ``database=None`` keeps no
failing examples between runs, and ``deadline=None`` lets a slow machine
take its time over an example.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from titeica import jet
from titeica.centroaffine import CentroAffineMap, apply_map
from titeica.errors import SingularPointError
from titeica.invariants import classify, identity_residual, point_invariants
from titeica.surfaces import EUCLIDEAN, MINKOWSKI, Box, SurfaceDef, catalog, eval_surface

# For a failing example Hypothesis imports libcst to print a patch; a libcst
# that warns on import would turn a property's failure into an internal error
# of the whole pytest run under ``filterwarnings = error``.
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

SETTINGS = settings(derandomize=True, database=None, deadline=None)

# The exponents (i, j) of x^i y^j with i + j <= 4.
TERMS = [(i, j) for i in range(5) for j in range(5 - i)]


def monge_patch(coeffs):
    """The graph of u = sum c_ij x^i y^j over ``TERMS`` on (-1, 1)^2."""

    def height(x, y):
        acc = jet.Jet2(0.0)
        for (i, j), c in zip(TERMS, coeffs):
            acc = acc + x**i * y**j * c
        return acc

    return SurfaceDef("poly", lambda x, y: (x, y, height(x, y)), Box(-1.0, 1.0, -1.0, 1.0), EUCLIDEAN)


coordinate = st.floats(-0.99, 0.99)
polynomial_jets = st.builds(
    lambda coeffs, x, y: eval_surface(monge_patch(coeffs), x, y),
    st.lists(st.floats(-2.0, 2.0), min_size=len(TERMS), max_size=len(TERMS)), coordinate, coordinate)
vectors = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)


def rotation(w):
    """The Cayley transform of the skew matrix of w: a rotation."""
    k = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    return np.linalg.solve(np.eye(3) - k, np.eye(3) + k)


@st.composite
def maps(draw, log10_det):
    """R diag(s) Q with rotations R and Q and singular values s within a
    factor 10^3 of each other, so the condition number is at most 1e3;
    |det| is 10^log10_det, and a drawn sign reflects one axis."""
    logs = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3)))
    s = 10.0 ** (logs - logs.mean() + draw(log10_det) / 3.0)
    s[0] *= draw(st.sampled_from([1.0, -1.0]))
    return CentroAffineMap.of(rotation(draw(vectors)) @ np.diag(s) @ rotation(draw(vectors)))


@SETTINGS
@given(polynomial_jets)
def test_ratio_sign_law(sj):
    # The two forms differ in det(S) only: the Minkowski ratio is bitwise
    # minus the Euclidean one, signed zeros included.
    try:
        mink, eucl = point_invariants(sj, MINKOWSKI).ratio, point_invariants(sj, EUCLIDEAN).ratio
    except SingularPointError:
        assume(False)
    assert mink == -eucl and math.copysign(1.0, mink) == -math.copysign(1.0, eucl), (mink, eucl)


@SETTINGS
@given(polynomial_jets, maps(st.floats(-2.0, 2.0)), st.sampled_from([EUCLIDEAN, MINKOWSKI]))
def test_ratio_scales_by_det_squared(sj, a, amb):
    # The ratio after the map, times det^2, is the ratio before to within
    # 1e-9 (|Vx Vy| + Vxy^2) / V^4 of the source jet: the numerator's
    # rounding scale, relative to its terms rather than to its value.
    try:
        before, after = point_invariants(sj, amb).ratio, point_invariants(a.act(sj), amb).ratio
    except SingularPointError:
        assume(False)
    v = point_invariants(sj, amb)
    bound = 1e-9 * (abs(v.Vx * v.Vy) + v.Vxy**2) / v.V**4
    assert abs(after * a.det**2 - before) <= bound, (before, after, a)


@SETTINGS
@given(polynomial_jets, st.sampled_from([EUCLIDEAN, MINKOWSKI]))
def test_classical_curvature_meets_the_volume_ratio(sj, amb):
    # The paper's identity: sign(<n,n>) (LN - M^2) / (EG - F^2) / d^4, the
    # classical route, is det(S) (Vx Vy - Vxy^2) / V^4 to within
    # 1e-9 (|Vx Vy| + Vxy^2) / V^4, the numerator's rounding scale.
    try:
        residual = identity_residual(sj, amb)
    except SingularPointError:
        assume(False)
    v = point_invariants(sj, amb)
    assert residual <= 1e-9 * (abs(v.Vx * v.Vy) + v.Vxy**2) / v.V**4, (residual, v, amb)


@functools.cache
def base_verdict(name):
    return classify(catalog(name), grid=(10, 10))


@SETTINGS
@given(maps(st.just(0.0)))
def test_unimodular_maps_keep_the_classification(a):
    # det = +-1 leaves K/d^4 unchanged: the verdict is the same and the
    # constant moves by at most 1e-9 of itself.
    for name in ("sphere-origin", "titeica-xyz", "minkowski-sphere"):
        base = base_verdict(name)
        verdict = classify(apply_map(catalog(name), a), grid=(10, 10))
        assert verdict.is_titeica == base.is_titeica, name
        assert abs(verdict.ratio_constant - base.ratio_constant) <= 1e-9 * abs(base.ratio_constant), name
