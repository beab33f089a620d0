"""Point-source travel-time fields and the expected-response terminal cost.

For a vehicle with isotropic speed f the minimum travel time u_i to a call
location solves |grad u_i| f = 1 with u_i = 0 at the source; mixing the fields
by the call probabilities gives the terminal cost

    q(x) = sum_i P_i u_i(x),

which feeds the grid solvers as the expected response time if a call arrives
while the vehicle sits at x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import march

INF = math.inf


def check_call_probabilities(probabilities):
    """ValueError unless the call probabilities are >= 0 and sum to 1."""
    total = float(np.sum(probabilities))
    if abs(total - 1.0) > 1e-12 or not np.all(np.asarray(probabilities) >= 0):
        raise ValueError("call probabilities must be >= 0 and sum to 1 "
                         "(sum %g)" % total)


@dataclass
class CallSpec:
    """Call locations (snapped to the nearest gridpoint) and probabilities."""

    locations: list  # (x, y) points
    probabilities: list

    def __post_init__(self):
        check_call_probabilities(self.probabilities)
        if len(self.locations) != len(self.probabilities):
            raise ValueError("locations and probabilities length mismatch")


def eikonal_solve(grid, f, source, mask=None):
    """Fast-Marching solve of |grad u| f = 1 from a single source gridpoint.

    source is a (j, i) index pair; masked points stay at +inf (state
    constraint: motion along boundary rows/columns is allowed, leaving the
    domain is not).  Marches (grid.march, compiled when it can be built)
    from u = 0 at the source with grid.quadrant_update at K = 1, q = 0 and
    lambda = 0, where its equation is |grad u| f = 1.
    """
    nx, ny = grid.nx, grid.ny
    f = np.broadcast_to(np.asarray(f, float), (ny, nx))  # a number stays one
    blocked = (np.zeros((ny, nx), dtype=bool) if mask is None
               else np.asarray(mask, dtype=bool).reshape(ny, nx))
    if not np.all((f > 0) | blocked):
        raise ValueError("speed must be positive off the mask")
    sidx = int(np.ravel_multi_index(source, (ny, nx)))
    blocked = blocked.ravel()
    if blocked[sidx]:
        raise ValueError("source lies on a masked point")
    u = np.full(nx * ny, INF)
    u[sidx] = 0.0
    one, zero = (np.broadcast_to(v, (ny, nx)) for v in (1.0, 0.0))
    march(grid, u, [sidx], blocked, f, one, zero, zero)
    return u.reshape(ny, nx)


def response_cost(grid, f, calls, q=None):
    """Probability-weighted sum of per-call travel-time fields, added into q
    (new zeros when None) and returned.  Every call is placed on the grid
    (ValueError outside it) before the first march."""
    sources = [grid.nearest_index(loc) for loc in calls.locations]
    q = np.zeros((grid.ny, grid.nx)) if q is None else q
    for src, prob in zip(sources, calls.probabilities):
        if prob != 0.0:  # scaled in place, and freed before the next solve
            u = eikonal_solve(grid, f, src)
            u *= prob
            q += u
            del u
    return q
