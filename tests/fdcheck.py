"""Independent finite-difference oracle for jet derivatives.

Central differences on a 9-point stencil, with separate steps for first
and second derivatives (the optimal step scales like eps^(1/3) for first
derivatives and eps^(1/4) for second ones in double precision).  This
module exists so the test suite can validate the forward-mode jets
against an unrelated computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from titeica.jet import Jet2

__all__ = ["FDSettings", "OracleError", "fd_jet"]


class OracleError(Exception):
    """The finite-difference oracle could not produce an estimate."""


@dataclass(frozen=True)
class FDSettings:
    """Step sizes: h1 for first derivatives, h2 for second derivatives."""

    h1: float = 1e-6
    h2: float = 1e-4

    def __post_init__(self):
        if not (0.0 < self.h1 < 1e-2 and 0.0 < self.h2 < 1e-2):
            raise ValueError(f"steps must lie in (0, 1e-2): h1={self.h1}, h2={self.h2}")


def fd_jet(
    fn: Callable[[float, float], float],
    p: tuple[float, float],
    settings: FDSettings = FDSettings(),
) -> Jet2:
    """Central-difference estimate of the full second-order jet of fn at p."""
    x, y = p
    h1, h2 = settings.h1, settings.h2

    def probe(px: float, py: float) -> float:
        try:
            v = float(fn(px, py))
        except Exception as exc:
            raise OracleError(f"oracle function failed at stencil point ({px}, {py}): {exc}") from exc
        if not math.isfinite(v):
            raise OracleError(f"non-finite oracle value at stencil point ({px}, {py})")
        return v

    f0 = probe(x, y)
    dx = (probe(x + h1, y) - probe(x - h1, y)) / (2.0 * h1)
    dy = (probe(x, y + h1) - probe(x, y - h1)) / (2.0 * h1)
    dxx = (probe(x + h2, y) - 2.0 * f0 + probe(x - h2, y)) / (h2 * h2)
    dyy = (probe(x, y + h2) - 2.0 * f0 + probe(x, y - h2)) / (h2 * h2)
    dxy = (
        probe(x + h2, y + h2)
        - probe(x + h2, y - h2)
        - probe(x - h2, y + h2)
        + probe(x - h2, y - h2)
    ) / (4.0 * h2 * h2)
    return Jet2(f0, dx, dy, dxx, dxy, dyy)
