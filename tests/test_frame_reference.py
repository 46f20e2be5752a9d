"""The one-pass invariant core against the three-frame reference.

Volumes, fundamental forms and d are compared by repr, which is == plus
the sign of zero; errors by type and message, at every point.  K and K/d^4
are held to the exact invariants of ``tests/exact.py``: the core takes
them from the volumes, the reference through EG - F^2.
"""

import numpy as np
import pytest

import frame_reference as ref
from exact import exact_invariants, relative_error
from helpers import random_polynomial_patch
from titeica import invariants
from titeica.errors import SingularPointError
from titeica.surfaces import (
    EUCLIDEAN,
    MINKOWSKI,
    SurfaceJet,
    catalog,
    catalog_names,
    eval_surface,
    grid_points,
)

AMBIENTS = (EUCLIDEAN, MINKOWSKI)
BITWISE_VIEWS = ("fundamental_forms", "tangent_distance")
# relative error bounds against the exact value (measured: 1.2e-13, 1.7e-14)
EXACT_VIEWS = (("gaussian_curvature", "K", 1e-12), ("titeica_ratio", "ratio", 1e-13))


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def assert_matches_reference(sj):
    assert outcome(invariants.oriented_volumes, sj) == outcome(ref.oriented_volumes, sj)
    for amb in AMBIENTS:
        for name in BITWISE_VIEWS:
            got = outcome(getattr(invariants, name), sj, amb)
            assert got == outcome(getattr(ref, name), sj, amb), (name, amb.name)
        exact = None
        for name, field, bound in EXACT_VIEWS:
            want = outcome(getattr(ref, name), sj, amb)
            if isinstance(want, tuple):
                assert outcome(getattr(invariants, name), sj, amb) == want, (name, amb.name)
                continue
            got = getattr(invariants, name)(sj, amb)
            exact = exact or exact_invariants(sj, amb)
            want = getattr(exact, field)
            assert relative_error(got, want) <= bound, (name, amb.name, got, float(want))


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_grid_matches_reference(name):
    s = catalog(name)
    for x, y in grid_points(s.domain, 20, 20):
        assert_matches_reference(eval_surface(s, x, y))


def test_random_polynomial_patches_match_reference():
    rng = np.random.default_rng(59)
    for _ in range(200):
        s = random_polynomial_patch(rng)
        x, y = (float(v) for v in rng.uniform(-0.95, 0.95, size=2))
        assert_matches_reference(eval_surface(s, x, y))


def _jet(f_x, f_y):
    return SurfaceJet((1.0, 2.0, 3.0), f_x, f_y, (0.5, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 2.0))


def test_degenerate_frames_raise_like_reference():
    parallel = _jet((1.0, 2.0, 3.0), (2.0, 4.0, 6.0))
    with pytest.raises(SingularPointError, match="degenerate tangent plane"):
        ref.fundamental_forms(parallel, EUCLIDEAN)
    assert_matches_reference(parallel)
    # c = f_x x f_y = (k, k, 0) is null under (-,+,+) but not Euclidean-null
    null_normal = _jet((0.5, -0.5, 101.3), (2.0, -2.0, 99.7))
    with pytest.raises(SingularPointError, match="normal vector is null"):
        ref.fundamental_forms(null_normal, MINKOWSKI)
    assert_matches_reference(null_normal)
