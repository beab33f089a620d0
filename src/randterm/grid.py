"""Isotropic randomly-terminated problems on uniform 2-D Cartesian grids.

The value function of a process that moves with speed f, pays running cost K,
and on Poisson termination (rate lambda) pays the terminal cost q, solves the
obstacle-form equation

    V = q + (1/lambda) * min( K - f |grad V| , 0 ).

The upwind discretization replaces |grad V| by the Rouy-Tourin one-sided
maximum in each axis.  Each gridpoint value is the minimum of q and four
quadrant solutions, each a root of a quadratic; this is causal in the smaller
neighbors, so a Fast-Marching sweep (heap ordered acceptance) solves the whole
system non-iteratively.  With K = 1, q = 0 and lambda = 0 the same equation
is the eikonal |grad u| f = 1, so the one march and its one update also give
the travel times of eikonal_solve.  It runs as compiled C (march.c) where a
C compiler is available, with results equal bit for bit to the Python
march.  A Gauss-Seidel sweeping solver is kept as an independent oracle.  A
live point is motionless by the graph nodes' rule, graph.motionless: V within
1e-12 max(1, |q|) of its own q (the solvers only lower V from q, so where
stopping pays V = q to roundoff).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import native
from .graph import check_tol, motionless

INF = math.inf

# The most points a grid, or nodes a graph or idle file, may have: every array
# of a problem is sized by it, so it is checked before any is allocated.  It
# lies below 2^31, so march's acceptance index fits an int32.
MAX_NODES = 10_000_000


def _check_counts(nx, ny):
    """ValueError unless 2 <= nx, ny and nx * ny <= MAX_NODES."""
    if nx < 2 or ny < 2:
        raise ValueError("the grid needs at least 2 points per axis")
    if nx * ny > MAX_NODES:
        raise ValueError("grid of %d x %d points exceeds %d points"
                         % (nx, ny, MAX_NODES))


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid with equal spacing in both axes: x_i = x0 + i h, y_j = y0 + j h."""

    nx: int
    ny: int
    h: float
    origin: tuple = (0.0, 0.0)

    def __post_init__(self):
        _check_counts(self.nx, self.ny)
        if not 0 < self.h < INF:
            raise ValueError("spacing must be positive and finite")
        if not all(map(math.isfinite, self.origin)):
            raise ValueError("grid origin must be finite")

    @classmethod
    def spanning(cls, extent, nx, ny):
        """The nx x ny grid over extent (x0, x1, y0, y1); ValueError for counts
        out of range (checked first), a non-finite extent or unequal steps."""
        _check_counts(nx, ny)
        try:
            x0, x1, y0, y1 = extent = [float(v) for v in extent]
        except OverflowError:  # an integer past float range
            extent = [INF]
        if not all(map(math.isfinite, extent)):
            raise ValueError("grid extent must be finite")
        hx = (x1 - x0) / (nx - 1)
        hy = (y1 - y0) / (ny - 1)
        if abs(hx - hy) > 1e-12 * max(abs(hx), abs(hy)):
            raise ValueError("grid spacing must match in both axes")
        return cls(nx, ny, hx, (x0, y0))

    def xs(self):
        return self.origin[0] + self.h * np.arange(self.nx)

    def ys(self):
        return self.origin[1] + self.h * np.arange(self.ny)

    def axes(self):
        """x as a (1, nx) row and y as an (ny, 1) column: np.meshgrid of
        xs() and ys(), without its copies, once broadcast together."""
        return self.xs()[None, :], self.ys()[:, None]

    def radius(self):
        """|x| = hypot(x, y) at every point, as a new read-only grid, so
        that it can serve as several fields of one problem."""
        R = np.hypot(*self.axes())
        R.flags.writeable = False
        return R

    def nearest_index(self, point):
        """(j, i) index of the gridpoint closest to an (x, y) point."""
        i, j = (round(v) if math.isfinite(v) else -1 for v in (
            (point[0] - self.origin[0]) / self.h,
            (point[1] - self.origin[1]) / self.h))
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise ValueError("point %r outside the grid" % (point,))
        return j, i


@dataclass
class GridProblem:
    """Speed f > 0, running cost K >= 0, terminal cost q (+inf on masked
    points), termination rate lambda > 0 (spatially varying allowed).

    Each field is kept at its information size: a number becomes a
    read-only (ny, nx) view of that one float (stride 0), a float64 array
    of the grid's shape is kept as given, not copied, as GraphProblem keeps
    its arrays, and anything else is copied into a new float64 grid.  An
    array that may share memory with a writable field before it (the same
    writable array given for K and q, say) is copied, so that no two
    writable fields share memory; a read-only array may serve several
    fields (the loaders' radius grid as K and q)."""

    grid: Grid2D
    f: np.ndarray
    K: np.ndarray
    q: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        shape = (self.grid.ny, self.grid.nx)
        kept = []
        for name in ("f", "K", "q", "lam"):
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.shape == shape
                    and a.dtype == np.float64):
                a = np.asarray(a, float)
                a = (np.broadcast_to(a, shape) if a.ndim == 0
                     else np.full(shape, a))
            elif any(np.may_share_memory(a, b) for b in kept):
                a = a.copy()
            if a.flags.writeable:
                kept.append(a)
            setattr(self, name, a)
        live = ~self.mask()
        for what, field, ok in (
                ("speed must be positive and", self.f, self.f > 0),
                ("running cost must be nonnegative and", self.K, self.K >= 0),
                ("termination rate must be positive and", self.lam,
                 self.lam > 0),
                ("terminal cost must be", self.q, True)):
            if not np.all((ok & np.isfinite(field))[live]):
                raise ValueError(what + " finite off the mask")

    def mask(self, cells=...):
        """True on out-of-domain points (q = +inf); never accepted by solvers.
        cells, an index of q, restricts it to those points."""
        return self.q[cells] == np.inf


@dataclass
class GridSolution:
    V: np.ndarray
    # int32 acceptance index per point of fmm_solve, -1 if never accepted;
    # None for sweep_oracle, which accepts no point
    order: np.ndarray | None
    motionless: np.ndarray
    status: str = "ok"
    iterations: int = 0  # passes of sweep_oracle; 0 for fmm_solve
    heap_operations: int = 0  # march heap pushes + pops; 0 for sweep_oracle


def one_sided_update(v1, K, q, f, lam, h):
    """Solve the discretized equation using a single upwind neighbor:
    V = (h K + lam h q + f v1) / (lam h + f)."""
    return (h * K + lam * h * q + f * v1) / (lam * h + f)


def quadrant_update(v1, v2, K, q, f, lam, h):
    """Solve f^2 [ (V-v1)^2 + (V-v2)^2 ] / h^2 = (K + lam q - lam V)^2 for the
    smallest root with V >= max(v1, v2); falls back to the one-sided form with
    min(v1, v2) when no such root exists.

    The quadratic is solved for the offset x = V - lo from the smaller
    neighbour lo, with d = hi - lo and s = K + lam (q - lo):

        (f/h)^2 [ x^2 + (x - d)^2 ] = (s - lam x)^2.

    Its terms are of the size of the increment, so they do not cancel where
    V is large and its gradient small.  With K = 1, q = 0 and lam = 0 it is
    the two-axis update of the eikonal |grad u| f = 1 (eikonal_solve)."""
    lo = min(v1, v2)
    hi = max(v1, v2)
    if not math.isfinite(hi):
        if math.isfinite(lo):
            return one_sided_update(lo, K, q, f, lam, h)
        return INF
    g = f / h
    d = hi - lo
    s = K + lam * (q - lo)
    a = 2.0 * g * g - lam * lam
    b = -2.0 * g * g * d + 2.0 * lam * s
    c = g * g * d * d - s * s
    tol = 1e-12 * max(1.0, abs(hi))
    best = None
    for x in _real_roots(a, b, c):
        # discard spurious roots introduced by squaring (negative upwind slope)
        if x >= d - tol and s - lam * x >= -1e-12 * max(1.0, abs(s)):
            if best is None or x < best:
                best = x
    if best is None:
        return one_sided_update(lo, K, q, f, lam, h)
    return max(lo + best, hi)


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
    south; missing neighbors as +inf): min of q and each quadrant's update."""
    v1, v2, v3, v4 = neighbors
    best = q
    for a, b in ((v1, v2), (v2, v3), (v3, v4), (v4, v1)):
        if min(a, b) >= best:
            continue  # only smaller neighbors can lower the value
        cand = quadrant_update(a, b, K, q, f, lam, h)
        if cand < best:
            best = cand
    return best


def neighbours(a, fill):
    """The 4-neighbours of every point of a 2-D field, as the views (west,
    east, south, north) = a[j, i-1], a[j, i+1], a[j-1, i], a[j+1, i], with
    fill beyond the edges."""
    p = np.pad(a, 1, constant_values=fill)
    return p[1:-1, :-2], p[1:-1, 2:], p[:-2, 1:-1], p[2:, 1:-1]


def discretization_residual(problem, V):
    """Pointwise residual of the upwind obstacle equation, vectorized; zero on
    masked points."""
    h = problem.grid.h
    with np.errstate(invalid="ignore"):  # inf - inf on masked points
        dxm, dxp, dym, dyp = ((V - n) / h for n in neighbours(V, INF))
        gx = np.maximum(np.maximum(dxm, dxp), 0.0)
        gy = np.maximum(np.maximum(dym, dyp), 0.0)
        grad = np.sqrt(gx * gx + gy * gy)
        rhs = problem.q + np.minimum(problem.K - problem.f * grad,
                                     0.0) / problem.lam
        res = V - rhs
    res[problem.mask()] = 0.0
    return res


def local_minima_mask(q):
    """Non-strict local minima under 4-neighbor comparison; plateaus are all
    seeded.  Masked (+inf) points are excluded."""
    m = np.isfinite(q)
    for n in neighbours(q, INF):
        m &= q <= n
    return m


def _march(g, V, seeds, blocked, fields, steps):
    """The Python march, the reference for march.c; see march."""
    nx, ny, h = g.nx, g.ny, g.h
    # flat python lists are noticeably faster than ndarray scalar access; a
    # field of step 0 repeats its one value at every point
    Vl, seeds, blocked = (a.tolist() for a in (V, seeds, blocked))
    f, K, q, lam = (a.tolist() * (nx * ny if s == 0 else 1)
                    for a, s in zip(fields, steps))
    order = [-1] * (nx * ny)  # the state: -1 far, -2 considered, else turn
    heap = [(Vl[idx], idx) for idx in seeds]
    heapq.heapify(heap)
    for idx in seeds:
        order[idx] = -2
    n_accepted, pushes = 0, len(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        va, idx = pop(heap)
        if order[idx] >= 0:  # stale: a lower entry was accepted first
            continue
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
            if not inside or order[n] >= 0 or blocked[n]:
                continue
            vo = INF
            if lo and order[n - s] >= 0:
                vo = Vl[n - s]
            if hi and order[n + s] >= 0 and Vl[n + s] < vo:
                vo = Vl[n + s]
            cand = quadrant_update(va, vo, K[n], q[n], f[n], lam[n], h)
            if cand < Vl[n]:
                Vl[n] = cand
            elif order[n] == -2:
                continue
            order[n] = -2
            push(heap, (Vl[n], n))
            pushes += 1
    V[:] = Vl
    return np.array(order, np.int32), 2 * pushes


def _field(a):
    """(values, step) of a march field of the grid's size: its one value
    and step 0 where every stride is 0 (a field broadcast from one number),
    else its values as one contiguous float64 row (a copy only where a is
    not one already) and step 1."""
    a = np.asarray(a, dtype=np.float64)
    if not any(a.strides):
        return np.full(1, a.flat[0]), 0
    return np.ascontiguousarray(a).ravel(), 1


def march(grid, V, seeds, blocked, f, K, q, lam):
    """Fast-Marching pass (Sethian 1996) with quadrant_update over the
    fields f, K, q and lam: that of fmm_solve, and with K = 1, q = 0 and
    lam = 0 that of eikonal_solve.  A field of the grid's shape whose
    strides are all 0 (a GridProblem constant) is passed on as its one
    value with step 0; march.c reads point n of a field at n * step.

    V (flat float64) is lowered in place; blocked is a flat boolean array of
    points never accepted.  Points are accepted in (value, index) order from
    the seeds; for each unaccepted, unblocked 4-neighbor n of a point
    accepted with value va, the update gets va and vo, the best accepted
    neighbor of n on the other axis (+inf if none).  A point is pushed when
    first reached or when its value drops.  Runs march.c when the native
    library can be built (see native.library), else the Python march, with
    the same results bit for bit.  The acceptance index is its only state
    per point: -1 far, -2 considered, and from 0 up the turn of an accepted
    point; every considered point is accepted before the heap empties.
    Returns that index as int32 (MAX_NODES < 2^31), -1 where never
    accepted, and the heap pushes + pops (every push is popped).
    """
    npts = grid.nx * grid.ny
    seeds = np.asarray(seeds, dtype=np.int64)
    blocked = np.ascontiguousarray(blocked)
    if (V.dtype != np.float64 or blocked.dtype != bool
            or any(np.size(a) != npts for a in (V, blocked, f, K, q, lam))
            or not np.all((seeds >= 0) & (seeds < npts))):
        raise ValueError("march arrays must have nx * ny = %d points and "
                         "seeds lie in range" % npts)
    fields, steps = zip(*map(_field, (f, K, q, lam)))
    lib = native.library()
    if lib is None:
        return _march(grid, V, seeds, blocked, fields, steps)
    order = np.empty(npts, dtype=np.int32)
    pushes = lib.march(grid.nx, grid.ny, V, seeds, seeds.size,
                       blocked.view(np.uint8), order, grid.h,
                       *(x for pair in zip(fields, steps) for x in pair))
    if pushes < 0:
        raise MemoryError("out of memory for the march heap")
    return order, 2 * pushes


def fmm_solve(problem):
    """Non-iterative solve: initialize V = q, seed the local minima of q, and
    march, updating each neighbor through the single quadrant spanned by the
    newly accepted point and its best accepted orthogonal neighbor
    (quadrant_update).  Masked points are never accepted.

    Heap ties break on row-major index.  O(M log M) for M gridpoints.
    """
    g = problem.grid
    V = problem.q.flatten()
    seeds = np.flatnonzero(local_minima_mask(problem.q))
    blocked = problem.mask().ravel()
    order, ops = march(g, V, seeds, blocked, problem.f, problem.K, problem.q,
                       problem.lam)
    V = V.reshape(g.ny, g.nx)
    return GridSolution(V, order.reshape(g.ny, g.nx),
                        motionless(V, problem.q) & ~problem.mask(),
                        heap_operations=ops)


def free_boundary(motionless, blocked):
    """Motionless points with at least one moving 4-neighbour; blocked
    (masked) points and points beyond the edges do not count as moving."""
    w, e, s, n = neighbours(motionless | blocked, True)
    return motionless & ~(w & e & s & n)


def motionless_set(solution, problem):
    """The (x, y) points of the free boundary of solution.motionless, as an
    (n, 2) array in row-major order."""
    j, i = np.nonzero(free_boundary(solution.motionless, problem.mask()))
    g = problem.grid
    return np.column_stack([g.xs()[i], g.ys()[j]])


def sweep_oracle(problem, tol=1e-12, max_iters=2000):
    """Gauss-Seidel application of node_update in four alternating sweep
    orders; iterative test oracle for fmm_solve.  Non-convergence is
    reported through the status field, carrying the last iterate, and one
    warning on the "randterm" logger naming the max residual."""
    check_tol(tol)
    g = problem.grid
    nx, ny = g.nx, g.ny
    h = g.h
    rows, cols = range(ny), range(nx)
    orders = [(rows, cols), (rows, cols[::-1]), (rows[::-1], cols),
              (rows[::-1], cols[::-1])]
    Vl = problem.q.tolist()
    fl, Kl, ql = problem.f.tolist(), problem.K.tolist(), problem.q.tolist()
    laml, livel = problem.lam.tolist(), (~problem.mask()).tolist()
    status, sweep = "not_converged", 0
    for sweep in range(1, max_iters + 1):
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
    if status != "ok":
        import logging  # here, not at import: it adds 5 ms to every start-up
        res = np.abs(discretization_residual(problem, Varr)).max()
        logging.getLogger("randterm").warning(
            "sweeping did not converge after %d iterations; max residual "
            "%.3e", sweep, res)
    return GridSolution(Varr, None,
                        motionless(Varr, problem.q) & ~problem.mask(),
                        status=status, iterations=sweep)
