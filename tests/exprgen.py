"""Random well-conditioned expression trees for the jet-vs-oracle suite.

Trees are built over the two coordinates, small constants, the four
arithmetic operations, integer powers and the elementary functions.  A
guarded float evaluation rejects samples whose stencil neighbourhood
comes within the safety margins of a domain boundary (log/sqrt near 0,
atanh near +-1, small divisors) or whose values grow large enough to
drown the finite-difference oracle in roundoff.
"""

import math

from titeica import jet

UNARY = {
    "sin": (jet.sin, math.sin),
    "cos": (jet.cos, math.cos),
    "exp": (jet.exp, math.exp),
    "log": (jet.log, math.log),
    "sqrt": (jet.sqrt, math.sqrt),
    "sinh": (jet.sinh, math.sinh),
    "cosh": (jet.cosh, math.cosh),
    "tanh": (jet.tanh, math.tanh),
    "atan": (jet.atan, math.atan),
    "atanh": (jet.atanh, math.atanh),
}
_UNARY_NAMES = sorted(UNARY)
_BINARY = ("add", "sub", "mul", "div")

VALUE_LIMIT = 8.0
BOUNDARY_MARGIN = 0.011  # > 1e-2, so the whole fd stencil stays clear


class Reject(Exception):
    pass


def random_expr(rng, depth):
    if depth == 0:
        k = int(rng.integers(0, 3))
        if k == 0:
            return ("x",)
        if k == 1:
            return ("y",)
        return ("const", float(rng.uniform(0.5, 1.5)))
    roll = rng.uniform()
    if roll < 0.45:
        name = _UNARY_NAMES[int(rng.integers(0, len(_UNARY_NAMES)))]
        return (name, random_expr(rng, depth - 1))
    if roll < 0.55:
        return ("powi", random_expr(rng, depth - 1), int(rng.integers(-2, 4)))
    op = _BINARY[int(rng.integers(0, len(_BINARY)))]
    return (op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def _of_one_axis(rng, axis):
    """The square, or a unary function, of the coordinate ``axis``."""
    if rng.uniform() < 0.25:
        return ("powi", (axis,), 2)
    return (_UNARY_NAMES[int(rng.integers(0, len(_UNARY_NAMES)))], (axis,))


def random_height(rng, depth):
    """A tree that always has a term in both coordinates: a ``random_expr``
    of ``depth - 1`` plus or times f(x) g(y), f and g from
    ``_of_one_axis``.  Its u_xy is rarely 0, where a plain ``random_expr``
    is often a tree of x or of y alone, whose graph has K = 0."""
    op = "add" if rng.uniform() < 0.5 else "mul"
    return (op, random_expr(rng, depth - 1), ("mul", _of_one_axis(rng, "x"), _of_one_axis(rng, "y")))


def guarded_value(node, x, y):
    """Float evaluation that rejects ill-conditioned samples."""
    tag = node[0]
    if tag == "x":
        v = x
    elif tag == "y":
        v = y
    elif tag == "const":
        v = node[1]
    elif tag == "powi":
        base = guarded_value(node[1], x, y)
        n = node[2]
        if n < 0 and abs(base) < 0.3:
            raise Reject
        v = base**n
    elif tag in UNARY:
        a = guarded_value(node[1], x, y)
        if tag in ("log", "sqrt") and a < 0.05:
            raise Reject
        if tag == "atanh" and abs(a) > 0.9:
            raise Reject
        if tag == "exp" and a > 2.0:
            raise Reject
        if tag in ("sinh", "cosh") and abs(a) > 2.5:
            raise Reject
        v = UNARY[tag][1](a)
    else:
        a = guarded_value(node[1], x, y)
        b = guarded_value(node[2], x, y)
        if tag == "add":
            v = a + b
        elif tag == "sub":
            v = a - b
        elif tag == "mul":
            v = a * b
        else:
            if abs(b) < 0.3:
                raise Reject
            v = a / b
    if not math.isfinite(v) or abs(v) > VALUE_LIMIT:
        raise Reject
    return v


def eval_float(node, x, y):
    """Plain float evaluation (the oracle path: math module only)."""
    tag = node[0]
    if tag == "x":
        return x
    if tag == "y":
        return y
    if tag == "const":
        return node[1]
    if tag == "powi":
        return eval_float(node[1], x, y) ** node[2]
    if tag in UNARY:
        return UNARY[tag][1](eval_float(node[1], x, y))
    a = eval_float(node[1], x, y)
    b = eval_float(node[2], x, y)
    if tag == "add":
        return a + b
    if tag == "sub":
        return a - b
    if tag == "mul":
        return a * b
    return a / b


def eval_jet(node, jx, jy):
    tag = node[0]
    if tag == "x":
        return jx
    if tag == "y":
        return jy
    if tag == "const":
        return jet.Jet2(float(node[1]))
    if tag == "powi":
        return eval_jet(node[1], jx, jy) ** node[2]
    if tag in UNARY:
        return UNARY[tag][0](eval_jet(node[1], jx, jy))
    a = eval_jet(node[1], jx, jy)
    b = eval_jet(node[2], jx, jy)
    if tag == "add":
        return a + b
    if tag == "sub":
        return a - b
    if tag == "mul":
        return a * b
    return a / b


def sample_cases(rng, count):
    """(expr, x, y) triples whose stencil neighbourhood is safe."""
    cases = []
    while len(cases) < count:
        expr = random_expr(rng, int(rng.integers(1, 4)))
        x = float(rng.uniform(-2.0, 2.0))
        y = float(rng.uniform(-2.0, 2.0))
        try:
            for ddx in (-BOUNDARY_MARGIN, 0.0, BOUNDARY_MARGIN):
                for ddy in (-BOUNDARY_MARGIN, 0.0, BOUNDARY_MARGIN):
                    guarded_value(expr, x + ddx, y + ddy)
        except Reject:
            continue
        cases.append((expr, x, y))
    return cases
