"""Isotropic randomly-terminated problems on uniform 2-D Cartesian grids.

The value function of a process that moves with speed f, pays running cost K,
and on Poisson termination (rate lambda) pays the terminal cost q, solves the
obstacle-form equation

    V = q + (1/lambda) * min( K - f |grad V| , 0 ).

The upwind discretization replaces |grad V| by the Rouy-Tourin one-sided
maximum in each axis.  Each gridpoint value is the minimum of q and four
quadrant solutions, each a root of a quadratic; this is causal in the smaller
neighbors, so a Fast-Marching sweep (heap ordered acceptance) solves the whole
system non-iteratively; the same marching skeleton serves the eikonal travel
times.  A Gauss-Seidel sweeping solver is kept as an independent oracle.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

INF = math.inf


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid with equal spacing in both axes: x_i = x0 + i h, y_j = y0 + j h."""

    nx: int
    ny: int
    h: float
    origin: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need at least 2 gridpoints per axis")
        if self.h <= 0:
            raise ValueError("spacing must be positive")

    def xs(self):
        return self.origin[0] + self.h * np.arange(self.nx)

    def ys(self):
        return self.origin[1] + self.h * np.arange(self.ny)

    def meshgrid(self):
        """X, Y arrays of shape (ny, nx); fields are indexed [j, i]."""
        return np.meshgrid(self.xs(), self.ys())

    def nearest_index(self, point):
        """(j, i) index of the gridpoint closest to an (x, y) point."""
        i = int(round((point[0] - self.origin[0]) / self.h))
        j = int(round((point[1] - self.origin[1]) / self.h))
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise ValueError("point %r outside the grid" % (point,))
        return j, i


def _as_field(value, grid):
    arr = np.empty((grid.ny, grid.nx))
    arr[:] = value
    return arr


@dataclass
class GridProblem:
    """Speed f > 0, running cost K >= 0, terminal cost q (+inf on masked
    points), termination rate lambda > 0 (spatially varying allowed)."""

    grid: Grid2D
    f: np.ndarray
    K: np.ndarray
    q: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        g = self.grid
        self.f = _as_field(self.f, g)
        self.K = _as_field(self.K, g)
        self.q = _as_field(self.q, g)
        self.lam = _as_field(self.lam, g)
        mask = self.mask()
        if not np.all(self.f[~mask] > 0):
            raise ValueError("speed must be positive")
        if not np.all(self.K[~mask] >= 0):
            raise ValueError("running cost must be nonnegative")
        if not np.all(self.lam[~mask] > 0):
            raise ValueError("termination rate must be positive")
        if not np.all(np.isfinite(self.q[~mask])):
            raise ValueError("terminal cost must be finite off the mask")

    def mask(self):
        """True on out-of-domain points (q = +inf); never accepted by solvers."""
        return self.q == np.inf


@dataclass
class GridSolution:
    V: np.ndarray
    order: np.ndarray  # acceptance index per point, -1 if never accepted
    motionless_mask: np.ndarray
    status: str = "ok"
    sweeps: int = 0


@dataclass
class MotionlessSet:
    mask: np.ndarray
    boundary_mask: np.ndarray
    boundary_points: np.ndarray  # (x, y) rows


def one_sided_update(v1, K, q, f, lam, h):
    """Solve the discretized equation using a single upwind neighbor:
    V = (h K + lam h q + f v1) / (lam h + f)."""
    return (h * K + lam * h * q + f * v1) / (lam * h + f)


def quadrant_update(v1, v2, K, q, f, lam, h):
    """Solve f^2 [ (V-v1)^2 + (V-v2)^2 ] / h^2 = (K + lam q - lam V)^2 for the
    smallest root with V >= max(v1, v2); falls back to the one-sided form with
    min(v1, v2) when no such root exists."""
    lo = min(v1, v2)
    hi = max(v1, v2)
    if not math.isfinite(hi):
        if math.isfinite(lo):
            return one_sided_update(lo, K, q, f, lam, h)
        return INF
    g = f / h
    s = K + lam * q
    a = 2.0 * g * g - lam * lam
    b = -2.0 * g * g * (v1 + v2) + 2.0 * lam * s
    c = g * g * (v1 * v1 + v2 * v2) - s * s
    roots = _real_roots(a, b, c)
    tol = 1e-12 * max(1.0, abs(hi))
    best = None
    for r in roots:
        # discard spurious roots introduced by squaring (negative upwind slope)
        if r >= hi - tol and s - lam * r >= -1e-12 * max(1.0, abs(s)):
            if best is None or r < best:
                best = r
    if best is None:
        return one_sided_update(lo, K, q, f, lam, h)
    return max(best, hi)


def _real_roots(a, b, c):
    """Real roots of a x^2 + b x + c, cancellation-safe; handles a == 0."""
    if a == 0.0:
        if b == 0.0:
            return []
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    if b >= 0.0:
        t = -0.5 * (b + sq)
    else:
        t = -0.5 * (b - sq)
    if t == 0.0:
        return [0.0]
    return [t / a, c / t]


def node_update(neighbors, K, q, f, lam, h):
    """Value at a gridpoint given its four neighbor values (east, north, west,
    south; missing neighbors as +inf): min of q and the four quadrant updates."""
    v1, v2, v3, v4 = neighbors
    best = q
    for a, b in ((v1, v2), (v2, v3), (v3, v4), (v4, v1)):
        if min(a, b) >= best:
            continue  # only smaller neighbors can lower the value
        cand = quadrant_update(a, b, K, q, f, lam, h)
        if cand < best:
            best = cand
    return best


def discretization_residual(problem, V):
    """Pointwise residual of the upwind obstacle equation, vectorized; zero on
    masked points."""
    h = problem.grid.h
    Vp = np.pad(V, 1, constant_values=INF)
    dxm = (V - Vp[1:-1, :-2]) / h
    dxp = (V - Vp[1:-1, 2:]) / h
    dym = (V - Vp[:-2, 1:-1]) / h
    dyp = (V - Vp[2:, 1:-1]) / h
    gx = np.maximum(np.maximum(dxm, dxp), 0.0)
    gy = np.maximum(np.maximum(dym, dyp), 0.0)
    grad = np.sqrt(gx * gx + gy * gy)
    rhs = problem.q + np.minimum(problem.K - problem.f * grad, 0.0) / problem.lam
    res = V - rhs
    res[problem.mask()] = 0.0
    return res


def local_minima_mask(q):
    """Non-strict local minima under 4-neighbor comparison; plateaus are all
    seeded.  Masked (+inf) points are excluded."""
    qp = np.pad(q, 1, constant_values=INF)
    m = np.isfinite(q)
    for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        m &= q <= qp[1 + dj : qp.shape[0] - 1 + dj, 1 + di : qp.shape[1] - 1 + di]
    return m


def _march(nx, ny, V, seeds, blocked, update):
    """Fast-Marching skeleton (Sethian 1996) of fmm_solve and eikonal_solve.

    V (flat, row-major) is lowered in place.  Points are accepted in
    (value, index) order from the seeds; for each unaccepted, unblocked
    4-neighbor n of a point accepted with value va, cand = update(va, vo, n)
    with vo the best accepted neighbor of n on the other axis (+inf if none).
    A point is pushed when first reached or when its value drops.  Returns
    the acceptance index per point, -1 if never accepted.
    """
    state = [0] * (nx * ny)  # 0 far, 1 considered, 2 accepted
    order = [-1] * (nx * ny)
    heap = [(V[idx], idx) for idx in seeds]
    heapq.heapify(heap)
    for idx in seeds:
        state[idx] = 1
    n_accepted = 0
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        va, idx = pop(heap)
        if state[idx] == 2:  # stale: a lower entry was accepted first
            continue
        state[idx] = 2
        order[idx] = n_accepted
        n_accepted += 1
        j, i = divmod(idx, nx)
        # (neighbor, inside?, (step to its other-axis neighbors, exist?))
        xo = (nx, j > 0, j < ny - 1)
        yo = (1, i > 0, i < nx - 1)
        for n, inside, (s, lo, hi) in ((idx + 1, i < nx - 1, xo),
                                       (idx - 1, i > 0, xo),
                                       (idx + nx, j < ny - 1, yo),
                                       (idx - nx, j > 0, yo)):
            if not inside or state[n] == 2 or blocked[n]:
                continue
            vo = INF
            if lo and state[n - s] == 2:
                vo = V[n - s]
            if hi and state[n + s] == 2 and V[n + s] < vo:
                vo = V[n + s]
            cand = update(va, vo, n)
            if cand < V[n]:
                V[n] = cand
            elif state[n]:
                continue
            state[n] = 1
            push(heap, (V[n], n))
    return order


def fmm_solve(problem):
    """Non-iterative solve: initialize V = q, seed the local minima of q, and
    march (see _march), updating each neighbor through the single quadrant
    spanned by the newly accepted point and its best accepted orthogonal
    neighbor (quadrant_update).  Masked points are never accepted.

    Heap ties break on row-major index.  O(M log M) for M gridpoints.
    """
    g = problem.grid
    h = g.h
    # flat python lists are noticeably faster than ndarray scalar access here
    V = problem.q.ravel().tolist()
    fv = problem.f.ravel().tolist()
    Kv = problem.K.ravel().tolist()
    qv = problem.q.ravel().tolist()
    lamv = problem.lam.ravel().tolist()

    def update(va, vo, n):
        return quadrant_update(va, vo, Kv[n], qv[n], fv[n], lamv[n], h)

    seeds = np.flatnonzero(local_minima_mask(problem.q).ravel()).tolist()
    order = _march(g.nx, g.ny, V, seeds, problem.mask().ravel().tolist(), update)
    Varr = np.array(V).reshape(g.ny, g.nx)
    return GridSolution(Varr, np.array(order).reshape(g.ny, g.nx),
                        _motionless_mask(problem, Varr))


def default_motionless_eps(problem):
    """Tolerance for V == q on the grid.  Wherever stopping is optimal the
    obstacle binds exactly (solvers only ever lower V below its q start), so a
    roundoff-scale tolerance suffices; truncation-scale tolerances drown the
    shallow contrasts that occur at large termination rates."""
    live = ~problem.mask()
    scale = float(np.max(np.abs(problem.q[live]), initial=0.0))
    return 1e-9 * max(1.0, scale)


def _motionless_mask(problem, V, eps=None):
    """q - V <= eps on live points; eps defaults to default_motionless_eps."""
    if eps is None:
        eps = default_motionless_eps(problem)
    live = ~problem.mask()
    gap = np.full(problem.q.shape, INF)
    gap[live] = problem.q[live] - V[live]
    return gap <= eps


def motionless_set(solution, problem, eps=None):
    """Points where staying put is optimal (q - V <= eps), plus the free
    boundary: motionless points with at least one moving 4-neighbor."""
    live = ~problem.mask()
    mask = _motionless_mask(problem, solution.V, eps)
    inner = np.pad(mask | ~live, 1, constant_values=True)
    has_moving_nbr = ~(
        inner[1:-1, :-2] & inner[1:-1, 2:] & inner[:-2, 1:-1] & inner[2:, 1:-1]
    )
    boundary = mask & has_moving_nbr
    X, Y = problem.grid.meshgrid()
    pts = np.column_stack([X[boundary], Y[boundary]])
    return MotionlessSet(mask=mask, boundary_mask=boundary, boundary_points=pts)


def sweep_oracle(problem, tol=1e-12, max_sweeps=2000):
    """Gauss-Seidel application of node_update in four alternating sweep
    orders; iterative test oracle for fmm_solve."""
    g = problem.grid
    nx, ny = g.nx, g.ny
    h = g.h
    orders = [
        (range(ny), range(nx)),
        (range(ny), range(nx - 1, -1, -1)),
        (range(ny - 1, -1, -1), range(nx)),
        (range(ny - 1, -1, -1), range(nx - 1, -1, -1)),
    ]
    Vl = problem.q.tolist()
    fl, Kl, ql = problem.f.tolist(), problem.K.tolist(), problem.q.tolist()
    laml, livel = problem.lam.tolist(), (~problem.mask()).tolist()
    status, sweep = "not_converged", 0
    for sweep in range(1, max_sweeps + 1):
        change = 0.0
        jorder, iorder = orders[(sweep - 1) % 4]
        for j in jorder:
            row = Vl[j]
            up = Vl[j - 1] if j > 0 else None
            dn = Vl[j + 1] if j < ny - 1 else None
            for i in iorder:
                if not livel[j][i]:
                    continue
                v1 = row[i + 1] if i < nx - 1 else INF
                v3 = row[i - 1] if i > 0 else INF
                v2 = dn[i] if dn is not None else INF
                v4 = up[i] if up is not None else INF
                new = node_update((v1, v2, v3, v4), Kl[j][i], ql[j][i],
                                  fl[j][i], laml[j][i], h)
                d = abs(new - row[i])
                if d > change:
                    change = d
                row[i] = new
        if change <= tol:
            status = "ok"
            break
    Varr = np.array(Vl)
    return GridSolution(Varr, np.full((ny, nx), -1),
                        _motionless_mask(problem, Varr), status=status,
                        sweeps=sweep)


def semi_lagrangian_update(v1, v2, K, q, f, lam, h, xatol=1e-12):
    """Control-theoretic form of the quadrant solve: minimize over the convex
    weights xi of the two neighbors,

        C(xi) = [ (K + lam q) tau(xi) + xi1 v1 + xi2 v2 ] / (1 + lam tau(xi)),

    with tau(xi) = (h/f) sqrt(xi1^2 + xi2^2).  At interior minimizers this
    coincides with the quadrant quadratic root; at vertex minimizers with the
    one-sided form.
    """
    if not math.isfinite(v1) and not math.isfinite(v2):
        return INF
    if not math.isfinite(v2):
        return one_sided_update(v1, K, q, f, lam, h)
    if not math.isfinite(v1):
        return one_sided_update(v2, K, q, f, lam, h)

    s = K + lam * q

    def cost(x1):
        x2 = 1.0 - x1
        tau = (h / f) * math.sqrt(x1 * x1 + x2 * x2)
        return (s * tau + x1 * v1 + x2 * v2) / (1.0 + lam * tau)

    from scipy.optimize import minimize_scalar

    res = minimize_scalar(cost, bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": xatol})
    return min(res.fun, cost(0.0), cost(1.0))
