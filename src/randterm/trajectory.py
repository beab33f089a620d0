"""Approximate optimal trajectories by gradient descent on the value field.

The descent follows -grad V through a bilinearly interpolated gradient
(central differences away from masked points, one-sided toward the interior
next to them).  Near the free boundary the gradient of V degenerates whenever
the running cost vanishes, so once the path comes within a few cells of the
numerically extracted boundary it finishes with a straight segment to the
nearest boundary point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import motionless_set, neighbours

SNAP_CELLS = 3.0  # straight-line snap distance, in grid cells


@dataclass
class TrajectoryPath:
    points: np.ndarray  # (n, 2) polyline of (x, y)
    values: np.ndarray  # interpolated V along the polyline
    status: str = "ok"  # ok | max_steps | stalled


def gradient_field(V, mask, h):
    """Per-axis derivative fields; one-sided toward the interior where a
    neighbor is masked or outside the grid."""
    usable = np.isfinite(V) & ~mask
    Vw, Ve, Vs, Vn = neighbours(V, np.nan)
    uw, ue, us, un = neighbours(usable, False)
    Gx, Gy = np.zeros_like(V), np.zeros_like(V)
    for G, Vm, Vp, ok_m, ok_p in ((Gx, Vw, Ve, uw, ue), (Gy, Vs, Vn, us, un)):
        central = ok_m & ok_p
        G[central] = (Vp[central] - Vm[central]) / (2 * h)
        fwd = ~ok_m & ok_p
        G[fwd] = (Vp[fwd] - V[fwd]) / h
        bwd = ok_m & ~ok_p
        G[bwd] = (V[bwd] - Vm[bwd]) / h
        G[~usable] = 0.0
    return Gx, Gy


def _bilinear(field, grid, x, y):
    fx = (x - grid.origin[0]) / grid.h
    fy = (y - grid.origin[1]) / grid.h
    i = min(max(int(math.floor(fx)), 0), grid.nx - 2)
    j = min(max(int(math.floor(fy)), 0), grid.ny - 2)
    tx = min(max(fx - i, 0.0), 1.0)
    ty = min(max(fy - j, 0.0), 1.0)
    f00 = field[j, i]
    f01 = field[j, i + 1]
    f10 = field[j + 1, i]
    f11 = field[j + 1, i + 1]
    return ((1 - ty) * ((1 - tx) * f00 + tx * f01)
            + ty * ((1 - tx) * f10 + tx * f11))


def trace(solution, problem, start, step=None):
    """Gradient-descent polyline from start to its motionless endpoint.

    Stops on entering the motionless set, or snaps straight to the nearest
    free-boundary point once within SNAP_CELLS * h of it.  Arclength per step
    is at most h/2.
    """
    grid = problem.grid
    h = grid.h
    step = h / 2 if step is None else min(step, h / 2)
    mset = motionless_set(solution, problem)
    boundary = mset.boundary_points
    boundary_vals = solution.V[mset.boundary_mask]
    mask = problem.mask()
    Vsafe = np.where(mask, 0.0, solution.V)
    Gx, Gy = map(np.nan_to_num,
                 gradient_field(np.where(mask, np.nan, solution.V), mask, h))
    snap_dist = SNAP_CELLS * h

    x, y = float(start[0]), float(start[1])
    pts = [(x, y)]
    j0, i0 = grid.nearest_index((x, y))
    if solution.motionless[j0, i0]:
        return TrajectoryPath(np.array(pts),
                              np.array([_bilinear(Vsafe, grid, x, y)]))

    max_steps = 10 * (grid.nx + grid.ny)
    status = "max_steps"
    for _ in range(max_steps):
        if boundary.size:
            d2 = (boundary[:, 0] - x) ** 2 + (boundary[:, 1] - y) ** 2
            # snap only to boundary at or below the current value: passing
            # near a higher-valued motionless region must not capture the path
            vcur = _bilinear(Vsafe, grid, x, y)
            near = (d2 <= snap_dist ** 2) & (boundary_vals <= vcur + h)
            if np.any(near):
                k = int(np.flatnonzero(near)[np.argmin(d2[near])])
                pts.append((float(boundary[k, 0]), float(boundary[k, 1])))
                status = "ok"
                break
        gx = _bilinear(Gx, grid, x, y)
        gy = _bilinear(Gy, grid, x, y)
        norm = math.hypot(gx, gy)
        if norm < 1e-14:
            status = "stalled"
            break
        x -= step * gx / norm
        y -= step * gy / norm
        x = min(max(x, grid.origin[0]), grid.origin[0] + h * (grid.nx - 1))
        y = min(max(y, grid.origin[1]), grid.origin[1] + h * (grid.ny - 1))
        pts.append((x, y))
        j0, i0 = grid.nearest_index((x, y))
        if solution.motionless[j0, i0]:
            status = "ok"
            break
    pts_arr = np.array(pts)
    vals = np.array([_bilinear(Vsafe, grid, px, py) for px, py in pts_arr])
    return TrajectoryPath(pts_arr, vals, status=status)
