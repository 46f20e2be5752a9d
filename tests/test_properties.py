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

import exprgen
from titeica import GeometryError, SingularPointError, jet
from titeica.centroaffine import CentroAffineMap, apply_map, verify_scaling
from titeica.invariants import classify, identity_residual, point_invariants, scan_grid
from titeica.jet import seed_xy
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
@given(polynomial_jets, maps(st.floats(-6.0, 6.0)), st.sampled_from([EUCLIDEAN, MINKOWSKI]))
def test_ratio_scales_by_det_squared(sj, a, amb):
    # The ratio after the map, times det^2, is the ratio before to within
    # 1e-9 (|Vx Vy| + Vxy^2) / V^4 of the source jet: the numerator's
    # rounding scale, relative to its terms rather than to its value.  |det A|
    # runs from 1e-6 to 1e6, and the bound divides by V four times, as the
    # ratio does, so it stays finite wherever the ratio is.
    try:
        before, after = point_invariants(sj, amb).ratio, point_invariants(a.act(sj), amb).ratio
    except SingularPointError:
        assume(False)
    v = point_invariants(sj, amb)
    bound = 1e-9 * (abs(v.Vx * v.Vy) + v.Vxy**2) / v.V / v.V / v.V / v.V
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
    assert residual <= 1e-9 * (abs(v.Vx * v.Vy) + v.Vxy**2) / v.V / v.V / v.V / v.V, (residual, v, amb)


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


def graph(expr, c, x, y):
    """The coordinate jets of the graph (x, y, c + u(x, y)) of the ``exprgen``
    tree ``u`` at the jets ``x`` and ``y``."""
    return x, y, c + exprgen.eval_jet(expr, x, y)


def conditioned_height(rng, c, x, y, max_tries=1000):
    """An ``exprgen`` tree u, drawn from ``rng``, whose graph has a
    well-conditioned K/d^4 at (x, y), with the pass there.  On a graph
    Vx, Vy, Vxy are u_xx, u_yy, u_xy and V is c + u - x u_x - y u_y.  A
    tree is kept when |num| >= 1e-3 sigma^2, where sigma = g (g + |u_xx| +
    |u_xy| + |u_yy|) with g = 1 + |u_x| + |u_y| bounds the terms of num
    and their rounding under a change of parameters, and when |V| >= 1e-2
    (|c + u| + |x u_x| + |y u_y|).  ``exprgen.random_height`` always has
    a term in both coordinates, so most trees pass."""
    for _ in range(max_tries):
        expr = exprgen.random_height(rng, int(rng.integers(1, 4)))
        try:
            exprgen.guarded_value(expr, x, y)
            sj = graph(expr, c, *seed_xy(x, y))
            q = point_invariants(sj, EUCLIDEAN)
        except (exprgen.Reject, GeometryError):
            continue
        h = sj[2]
        g = 1.0 + abs(h.dx) + abs(h.dy)
        sigma = g * (g + abs(h.dxx) + abs(h.dxy) + abs(h.dyy))
        if abs(q.num) >= 1e-3 * sigma**2 and abs(q.V) >= 1e-2 * (abs(h.val) + abs(x * h.dx) + abs(y * h.dy)):
            return expr, q
    raise AssertionError(f"no well-conditioned height at ({x}, {y})")


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
       st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_ratio_is_unchanged_by_a_random_diffeomorphism(seed, c, a, b, s, t):
    # Under (s, t) -> (s + a t^2, t + b sin s), with det J = 1 - 2ab t cos s
    # in [0.25, 1.75], V_ij becomes det J J^T V J and V becomes det J V, so
    # K/d^4 = num / V^4 is a point function of the surface and agrees at
    # matched points within 1e-12 of itself; num / V^3 would change by det J.
    def warp(s, t):
        return s + a * (t * t), t + b * jet.sin(s)

    warped = warp(*seed_xy(s, t))
    x, y = (w.val for w in warped)
    expr, q = conditioned_height(np.random.default_rng(seed), c, x, y)
    p = point_invariants(graph(expr, c, *warped), EUCLIDEAN)
    assert abs(p.ratio - q.ratio) <= 1e-12 * abs(q.ratio), (expr, q.ratio, p.ratio)


# Maps under which a graph's image is compared: I, a stretch, a general
# matrix, a small multiple of I and a permutation with -0.0 entries.
GRAPH_MAPS = [CentroAffineMap.of([m[i:i + 3] for i in (0, 3, 6)]) for m in (
    (1, 0, 0, 0, 1, 0, 0, 0, 1), (2, 0, 0, 0, 1, 0, 0, 0, 1), (1.3, 0.2, -0.4, 0.1, 0.9, 0.3, -0.2, 0.5, 1.1),
    (1e-3, 0, 0, 0, 1e-3, 0, 0, 0, 1e-3), (-0.0, 1, 0, 1, -0.0, 0, 0, 0, -1))]


def grid_outcomes(s, grid):
    """``repr`` of ``scan_grid``, ``classify`` (or its error),
    ``verify_scaling`` under each of ``GRAPH_MAPS`` and ``scan_grid`` of
    each ``apply_map`` image of ``s``; an error is its type and message."""
    def outcome(run):
        try:
            return repr(run())
        except Exception as exc:  # every error must match, whatever its type
            return type(exc).__name__, str(exc)

    runs = [lambda: scan_grid(s, grid), lambda: classify(s, grid)]
    for a in GRAPH_MAPS:
        runs += [lambda a=a: verify_scaling(s, a, grid, 1e-8), lambda a=a: scan_grid(apply_map(s, a), grid)]
    return [outcome(run) for run in runs]


def assert_graph_rows_match(height, box, grid):
    # A graph's mix gives its height u alone; the pass and verify_scaling
    # write the seeds' 0s and 1s in, and must give every float, signed
    # zeros and NaN included, that (x, y, u) gives.
    for amb in (EUCLIDEAN, MINKOWSKI):
        graph_rows = SurfaceDef("h", height, box, amb)
        general = SurfaceDef("h", lambda x, y: (x, y, height(x, y)), box, amb)
        assert grid_outcomes(graph_rows, grid) == grid_outcomes(general, grid), amb.name


@pytest.mark.parametrize("height", [
    lambda x, y: x * x * -1.0 + 3.0,  # u_yy = -0.0 everywhere
    lambda x, y: 1.0 / (x * y),
    lambda x, y: x * x - y * y,  # d = 0 where x = +-y
    lambda x, y: jet.Jet2(0.0),  # every tangent plane holds the origin
    lambda x, y: x * 1e308 * 10.0 + y * y,  # u_x = inf
    lambda x, y: x * 1e308 * 10.0 - x * 1e308 * 10.0 + y * y,  # u_x = nan
    lambda x, y: jet.sqrt(x * y - 0.5),  # a DomainError inside the box
], ids=["minus-x-squared", "titeica", "saddle", "zero", "inf-slope", "nan-slope", "domain-error"])
def test_graph_rows_match_the_general_form(height):
    assert_graph_rows_match(height, Box(-1.0, 1.5, -0.5, 1.5), (7, 6))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from([Box(-1.5, 1.5, -1.5, 1.5), Box(0.5, 2.0, -1.0, 0.25)]))
def test_graph_rows_match_the_general_form_on_drawn_heights(seed, box):
    rng = np.random.default_rng(seed)
    expr = exprgen.random_height(rng, int(rng.integers(1, 4)))
    assert_graph_rows_match(lambda x, y: exprgen.eval_jet(expr, x, y), box, (6, 5))


# Ratios with ties (a few values drawn often) and negative medians (every
# ratio negated).
ratio_lists = st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-2.5, -1.0, 1e-300, 3.0]),
                       min_size=1, max_size=9)


@SETTINGS
@given(ratio_lists, st.sampled_from([1.0, -1.0]))
def test_the_spread_is_read_at_the_ends_of_the_sorted_ratios(ratios, sign):
    # classify takes max |r - median| from the two ends of the sorted ratios:
    # |r - m| is largest at an end for any m and rounding is monotone, so the
    # spread is the one every ratio gives, bit for bit.
    ratios = sorted(sign * r for r in ratios)
    n = len(ratios)
    median = ratios[n // 2] if n % 2 else ratios[n // 2 - 1] / 2 + ratios[n // 2] / 2
    assume(median != 0.0)  # a zero median has spread inf, from neither form
    every = max(abs(r - median) for r in ratios) / abs(median)
    ends = max(ratios[-1] - median, median - ratios[0]) / abs(median)
    assert every.hex() == ends.hex()
