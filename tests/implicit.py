"""A second route to K/d^4: the bordered Hessian of a defining function.

A surface that is the level set F = 0 has, at its point p, with the
gradient g and the Hessian H of F there,

    K/d^4 = -det(S) det[[H, g], [g^T, 0]] / (p . g)^4

(R. Goldman, "Curvature formulas for implicit curves and surfaces",
CAGD 22, 2005).  This route needs no parametrization, no normal and no
square root; ``titeica.invariants.point_invariants`` must agree with it
wherever it returns.  Each defining function below maps p to (g, H).
"""

import numpy as np


def bordered_ratio(p, gradient, hessian, det_s):
    """K/d^4 at p of the level set of a function with this gradient and Hessian at p."""
    m = np.zeros((4, 4))
    m[:3, :3], m[:3, 3], m[3, :3] = hessian, gradient, gradient
    return -det_s * float(np.linalg.det(m)) / float(np.dot(p, gradient)) ** 4


def titeica_xyz(p):
    """F = xyz - 1."""
    x, y, z = p
    return np.array([y * z, x * z, x * y]), np.array([[0.0, z, y], [z, 0.0, x], [y, x, 0.0]])


def sphere(center):
    """F = |p - center|^2 - R^2, for any R."""
    return lambda p: (2.0 * (p - np.asarray(center)), 2.0 * np.eye(3))


def paraboloid(p):
    """F = z - x^2 - y^2."""
    x, y, _ = p
    return np.array([-2.0 * x, -2.0 * y, 1.0]), np.diag([-2.0, -2.0, 0.0])


def minkowski_sphere(p):
    """F = -x0^2 + x1^2 + x2^2 + 1."""
    s = np.array([-1.0, 1.0, 1.0])
    return 2.0 * s * p, 2.0 * np.diag(s)


def monge(u):
    """F = z - u(x, y), from the 2-jet ``u`` of the height at the point."""
    _, ux, uy, uxx, uxy, uyy = u
    return np.array([-ux, -uy, 1.0]), -np.array([[uxx, uxy, 0.0], [uxy, uyy, 0.0], [0.0, 0.0, 0.0]])
