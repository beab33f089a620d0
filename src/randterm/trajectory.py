"""Approximate optimal trajectories by gradient descent on the value field.

The descent follows -grad V through a bilinearly interpolated gradient
(central differences away from masked points, one-sided toward the interior
next to them).  Near the free boundary the gradient of V degenerates whenever
the running cost vanishes, so once the path comes within a few cells of the
numerically extracted boundary it finishes with a straight segment to the
nearest boundary point.

trace reads only the tiles near its path: squares of TILE x TILE cells, each
evaluated the first time the path comes near it and kept for the rest of the
call.  A tile is cut from V, the mask and the motionless set with a one-cell
halo, so gradient_field and grid.free_boundary see at its edge cells the
neighbours those have in the whole grid; its work and memory grow with the
path, not the grid, and it gives what the same rules give on the whole grid,
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# motionless_set stays reachable as trajectory.motionless_set, the name
# perfbench traces; trace applies its rule, free_boundary, tile by tile
from .grid import free_boundary, motionless_set, neighbours  # noqa: F401

SNAP_CELLS = 3.0  # straight-line snap distance, in grid cells
TILE = 32  # cells per side of the tiles trace reads


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


class _Tiles:
    """V (0 on masked points), the gradient (NaN as 0) and the free boundary
    of a solution, tile by tile.  Tile (a, b) owns the cells j in
    [a TILE, a TILE + TILE), i in [b TILE, b TILE + TILE).  It keeps the
    fields on those cells and one more row and column, all the corners of a
    bilinear cell anchored in it, as flat float rows, and the free-boundary
    points it owns as (row-major index, x, y, V)."""

    def __init__(self, solution, problem):
        self.solution, self.problem = solution, problem
        self.grid = g = problem.grid
        self.xs, self.ys = g.xs(), g.ys()
        self.tiles = {}

    def tile(self, a, b):
        """(width, V, Gx, Gy, boundary points) of tile (a, b)."""
        t = self.tiles.get((a, b))
        if t is None:
            t = self.tiles[a, b] = self._evaluate(a, b)
        return t

    def _evaluate(self, a, b):
        sol, g = self.solution, self.grid
        j0, i0 = a * TILE, b * TILE
        # the kept cells and a one-cell halo, as far as the grid goes
        hj, hi = max(j0 - 1, 0), max(i0 - 1, 0)
        cells = np.s_[hj:j0 + TILE + 2, hi:i0 + TILE + 2]
        V, mask = sol.V[cells], self.problem.mask(cells)
        Gx, Gy = map(np.nan_to_num,
                      gradient_field(np.where(mask, np.nan, V), mask, g.h))
        kept = np.s_[j0 - hj:j0 - hj + TILE + 1, i0 - hi:i0 - hi + TILE + 1]
        fields = [memoryview(F[kept].ravel())
                  for F in (np.where(mask, 0.0, V), Gx, Gy)]
        owned = np.s_[j0 - hj:j0 - hj + TILE, i0 - hi:i0 - hi + TILE]
        j, i = np.nonzero(free_boundary(sol.motionless[cells], mask)[owned])
        j += j0
        i += i0
        points = list(zip((j * g.nx + i).tolist(), self.xs[i].tolist(),
                          self.ys[j].tolist(), sol.V[j, i].tolist()))
        return (V[kept].shape[1], *fields, points)

    def sample(self, x, y):
        """V, Gx and Gy at (x, y), each interpolated bilinearly in the grid
        cell that holds the point, or the nearest one."""
        g = self.grid
        fx = (x - g.origin[0]) / g.h
        fy = (y - g.origin[1]) / g.h
        i = min(max(int(math.floor(fx)), 0), g.nx - 2)
        j = min(max(int(math.floor(fy)), 0), g.ny - 2)
        tx = min(max(fx - i, 0.0), 1.0)
        ty = min(max(fy - j, 0.0), 1.0)
        width, *fields, _ = self.tile(j // TILE, i // TILE)
        k = j % TILE * width + i % TILE
        return [(1 - ty) * ((1 - tx) * f[k] + tx * f[k + 1])
                + ty * ((1 - tx) * f[k + width] + tx * f[k + width + 1])
                for f in fields]

    def nearest_boundary(self, x, y, d2_max, v_max):
        """(x, y) of the free-boundary point nearest to (x, y) among those
        with squared distance at most d2_max and V at most v_max, ties going
        to the first in row-major order; None when there is none.  Only the
        tiles within SNAP_CELLS + 1 cells of the point's cell are read."""
        g = self.grid
        reach = math.ceil(SNAP_CELLS) + 1
        j = math.floor((y - g.origin[1]) / g.h)
        i = math.floor((x - g.origin[0]) / g.h)
        best = None
        for a in range(max((j - reach) // TILE, 0),
                       min((j + 1 + reach) // TILE, (g.ny - 1) // TILE) + 1):
            for b in range(max((i - reach) // TILE, 0),
                           min((i + 1 + reach) // TILE, (g.nx - 1) // TILE)
                           + 1):
                for k, bx, by, bv in self.tile(a, b)[-1]:
                    dx = bx - x
                    dy = by - y
                    d2 = dx * dx + dy * dy
                    if (d2 <= d2_max and bv <= v_max
                            and (best is None or (d2, k) < best[:2])):
                        best = (d2, k, bx, by)
        return None if best is None else best[2:]


def start_index(problem, start):
    """(j, i) of the grid point nearest to an (x, y) start; ValueError when
    it lies outside the grid or on a masked point, where V is +inf."""
    j, i = problem.grid.nearest_index(start)
    if problem.mask((j, i)):
        raise ValueError("trajectory start %r lies on a masked point"
                         % (start,))
    return j, i


def trace(solution, problem, start):
    """Gradient-descent polyline from start to its motionless endpoint.

    Stops on entering the motionless set, or snaps straight to the nearest
    free-boundary point once within SNAP_CELLS * h of it.  Each step moves
    h/2 along -grad V (less where the grid's edge clamps it), for at most
    10 (nx + ny) steps; ValueError for a start that start_index refuses.
    """
    grid = problem.grid
    h = grid.h
    step = h / 2
    tiles = _Tiles(solution, problem)
    snap_dist = SNAP_CELLS * h

    x, y = float(start[0]), float(start[1])
    j0, i0 = start_index(problem, (x, y))
    v, gx, gy = tiles.sample(x, y)
    pts, vals = [(x, y)], [v]
    if solution.motionless[j0, i0]:
        return TrajectoryPath(np.array(pts), np.array(vals))

    max_steps = 10 * (grid.nx + grid.ny)
    status = "max_steps"
    for _ in range(max_steps):
        # snap only to boundary at or below the current value: passing near
        # a higher-valued motionless region must not capture the path
        end = tiles.nearest_boundary(x, y, snap_dist ** 2, v + h)
        if end is not None:
            pts.append(end)
            vals.append(tiles.sample(*end)[0])
            status = "ok"
            break
        norm = math.hypot(gx, gy)
        if norm < 1e-14:
            status = "stalled"
            break
        x -= step * gx / norm
        y -= step * gy / norm
        x = min(max(x, grid.origin[0]), grid.origin[0] + h * (grid.nx - 1))
        y = min(max(y, grid.origin[1]), grid.origin[1] + h * (grid.ny - 1))
        v, gx, gy = tiles.sample(x, y)
        pts.append((x, y))
        vals.append(v)
        j0, i0 = grid.nearest_index((x, y))
        if solution.motionless[j0, i0]:
            status = "ok"
            break
    return TrajectoryPath(np.array(pts), np.array(vals), status=status)
