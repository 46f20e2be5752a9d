"""K/d^4 from sampled positions alone: the paper's volume quotient on a
3x3 stencil of central differences.

:func:`stencil` reads only the values ``c.val`` of ``eval_surface`` at
the nine points (x + i h, y + j h), i, j in {-1, 0, 1}.  :func:`ratio`
takes f_x, f_y, f_xx, f_xy and f_yy from them by central differences,
each with an error of order h^2, and forms det(S)(Vx Vy - Vxy^2)/V^4
with each volume det(w; f_x; f_y) written as w . (f_x x f_y).  It uses
only +, -, * and /, so it runs on floats and on ``fractions.Fraction``
values alike.  The differences are linear in the positions, so under a
centro-affine map f -> f A the discrete ratio scales by 1/det(A)^2
exactly, at every step h.
"""

from titeica.surfaces import eval_surface

__all__ = ["mapped", "ratio", "stencil"]


def stencil(s, x, y, h) -> list:
    """The positions f(x + i h, y + j h) of ``s``, as rows j = -1, 0, 1 of
    columns i = -1, 0, 1, each a tuple of its three coordinate values."""
    return [[tuple(c.val for c in eval_surface(s, x + i * h, y + j * h)) for i in (-1, 0, 1)]
            for j in (-1, 0, 1)]


def mapped(p, a) -> list:
    """The stencil ``p`` with each position the row vector f times the 3x3 matrix ``a``."""
    return [[tuple(sum(f[k] * a[k][j] for k in range(3)) for j in range(3)) for f in row] for row in p]


def ratio(p, h, sign):
    """det(S)(Vx Vy - Vxy^2)/V^4 of the stencil ``p`` with step ``h``, where
    det(S) is ``sign``, from central differences at its centre."""
    (sw, s, se), (w, f, e), (nw, n, ne) = p
    fx = [(b - a) / (2 * h) for a, b in zip(w, e)]
    fy = [(b - a) / (2 * h) for a, b in zip(s, n)]
    fxx = [(a - 2 * c + b) / (h * h) for a, c, b in zip(w, f, e)]
    fyy = [(a - 2 * c + b) / (h * h) for a, c, b in zip(s, f, n)]
    fxy = [(a - b - c + d) / (4 * h * h) for a, b, c, d in zip(ne, se, nw, sw)]
    c = (fx[1] * fy[2] - fx[2] * fy[1], fx[2] * fy[0] - fx[0] * fy[2], fx[0] * fy[1] - fx[1] * fy[0])
    vx, vy, vxy, v = (sum(a * b for a, b in zip(u, c)) for u in (fxx, fyy, fxy, f))
    return sign * (vx * vy - vxy * vxy) / v**4
