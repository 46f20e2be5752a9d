"""The one-pass invariants against the three-frame reference.

Where ``point_invariants`` returns, its four volumes and d are compared
to the reference by repr, which is == plus the sign of zero, and the
reference's K and K/d^4 must return too; where it raises, the
reference's ``titeica_ratio`` must raise the same error type and
message.  K and K/d^4 are held to the exact invariants of
``tests/exact.py``: the pass takes them from the volumes, the reference
through EG - F^2.
``identity_residual`` is compared by repr to its expression built from
the reference's fundamental forms, which pins the forms it computes
inline.
"""

import math

import numpy as np
import pytest

import frame_reference as ref
from exact import exact_invariants, relative_error
from helpers import jet_of_rows, random_polynomial_patch, surface_names
from titeica import SingularPointError
from titeica.invariants import identity_residual, point_invariants
from titeica.surfaces import (
    EUCLIDEAN,
    MINKOWSKI,
    catalog,
    eval_surface,
    grid_points,
)

AMBIENTS = (EUCLIDEAN, MINKOWSKI)
# (field, its reading of the pass, the reference, relative error bound
# against the exact value; measured: 1.2e-13, 1.7e-14)
EXACT_VIEWS = (
    ("K", lambda p: p.K, ref.gaussian_curvature, 1e-12),
    ("ratio", lambda p: p.ratio, ref.titeica_ratio, 1e-13),
)


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def assert_matches_reference(sj):
    for amb in AMBIENTS:
        try:
            p = point_invariants(sj, amb)
        except Exception as exc:
            assert (type(exc), str(exc)) == outcome(ref.titeica_ratio, sj, amb), amb.name
            continue
        assert repr(p[:4]) == repr(ref.oriented_volumes(sj)), amb.name
        assert repr(p.d) == outcome(ref.tangent_distance, sj, amb), amb.name
        exact = exact_invariants(sj, amb)
        for field, read, reference, bound in EXACT_VIEWS:
            assert not isinstance(outcome(reference, sj, amb), tuple), (field, amb.name)
            got, want = read(p), getattr(exact, field)
            assert relative_error(got, want) <= bound, (field, amb.name, got, float(want))


def reference_residual(sj, amb):
    """``identity_residual``'s expression, with the forms of the reference."""
    p = point_invariants(sj, amb)
    e, f, g, l, m, n = ref.fundamental_forms(sj, amb)
    disc = e * g - f * f
    sign = 1.0 if p.nn > 0.0 else -1.0
    return abs(sign * (l * n - m * m) / disc / p.d / p.d / p.d / p.d - p.ratio) if disc else math.inf


def assert_residual_matches_reference(sj):
    for amb in AMBIENTS:
        assert outcome(identity_residual, sj, amb) == outcome(reference_residual, sj, amb), amb.name


@pytest.mark.parametrize("name", surface_names())
def test_catalog_grid_matches_reference(name):
    s = catalog(name)
    for x, y in grid_points(s.domain, 20, 20):
        assert_matches_reference(eval_surface(s, x, y))


@pytest.mark.parametrize("name", surface_names())
def test_identity_residual_matches_reference_forms_on_catalog_grid(name):
    s = catalog(name)
    for x, y in grid_points(s.domain, 30, 30):
        assert_residual_matches_reference(eval_surface(s, x, y))


def test_identity_residual_matches_reference_forms_on_random_polynomials():
    rng = np.random.default_rng(61)
    for _ in range(200):
        s = random_polynomial_patch(rng)
        for x, y in rng.uniform(-0.95, 0.95, size=(3, 2)).tolist():
            assert_residual_matches_reference(eval_surface(s, x, y))


def test_random_polynomial_patches_match_reference():
    rng = np.random.default_rng(59)
    for _ in range(200):
        s = random_polynomial_patch(rng)
        x, y = (float(v) for v in rng.uniform(-0.95, 0.95, size=2))
        assert_matches_reference(eval_surface(s, x, y))


def _jet(f_x, f_y):
    return jet_of_rows((1.0, 2.0, 3.0), f_x, f_y, (0.5, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 2.0))


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
