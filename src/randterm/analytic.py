"""Closed-form radial solutions used as convergence oracles.

Both cases live on [-2,2]^2 with unit speed and q(x) = |x|.  With zero running
cost the only motionless point is the origin and

    v(x) = |x| - (1 - exp(-lam |x|)) / lam.

With running cost K(x) = |x| the cost of heading straight to the origin is

    J(x) = (lam + 1)/lam * ( |x| - (1 - exp(-lam |x|)) / lam ),

and v = min(q, J): stopping immediately wins outside a circle whose radius
solves J(r) = r, shrinking from 2 to 1 as lam grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid2D, GridProblem
from .idle import edge_wait_cost

DOMAIN = (-2.0, 2.0)

CASES = ("trivial", "circular")


@dataclass(frozen=True)
class RadialCase:
    case: str
    lam: float

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError("unknown case %r" % (self.case,))
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")

    def problem(self, grid):
        """The case on grid: unit speed, q = |x| and K = 0 (trivial) or |x|
        (circular); the radius is one read-only array, K and q both."""
        R = grid.radius()
        K = 0.0 if self.case == "trivial" else R
        return GridProblem(grid=grid, f=1.0, K=K, q=R, lam=self.lam)


def radial_grid(n):
    """The n x n grid over DOMAIN x DOMAIN."""
    lo, hi = DOMAIN
    return Grid2D.spanning((lo, hi, lo, hi), n, n)


def _exact(case, r):
    """Analytic value over an array of radii."""
    m = edge_wait_cost(r, case.lam)  # heading straight to the origin
    if case.case == "trivial":
        return m
    return np.minimum(r, (case.lam + 1.0) / case.lam * m)


def exact_value(case, point):
    """Analytic value at an (x, y) point (or at a radius given as a scalar)."""
    r = float(np.hypot(*point)) if np.ndim(point) else float(abs(point))
    return float(_exact(case, np.array(r)))


def exact_field(case, grid):
    """Analytic value sampled on a whole grid."""
    return _exact(case, grid.radius())


def free_boundary_radius(lam):
    """Radius of the stop-immediately circle in the circular case: the positive
    root of (lam+1)/lam * (r - (1 - e^{-lam r})/lam) = r, bracketed in (1, 2),
    by bisection of [0.5, 2.5] down to adjacent floats."""
    if not 0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    lo, hi = 0.5, 2.5
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if (lam + 1.0) / lam * float(edge_wait_cost(mid, lam)) < mid:
            lo = mid
        else:
            hi = mid
    return hi


def error_norms(V, exact, grid, mask=None):
    """(line Linf, normalized L2, Linf) of V - exact.

    The line norm is taken over the horizontal gridline through y = 0; the L2
    norm is normalized by the domain area; masked points are excluded.
    """
    err = np.abs(np.asarray(V) - np.asarray(exact))
    live = np.ones_like(err, dtype=bool) if mask is None else ~np.asarray(mask)
    ys = grid.ys()
    j0 = int(np.argmin(np.abs(ys)))
    line = err[j0, :][live[j0, :]]
    line_linf = float(line.max()) if line.size else 0.0
    area = (grid.h * (grid.nx - 1)) * (grid.h * (grid.ny - 1))
    l2 = float(math.sqrt(grid.h ** 2 * np.sum(err[live] ** 2)) / area)
    linf = float(err[live].max())
    return line_linf, l2, linf
