import math
import os

import numpy as np
import pytest

from randterm import grid, io, native
from randterm.trajectory import SNAP_CELLS, TrajectoryPath, gradient_field
from randterm.cli import random_graph_problem
from randterm.graph import GraphProblem, sort_edges

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
JSON_SCENARIOS = ["maze.json", "radial_circular.json", "radial_trivial.json",
                  "slow_disk.json"]
# 21 x 21 points on [-2, 2]^2, masked (q = +inf) over [0.8, 1.2]^2
MASKED_RECT = {"grid": {"n": 21, "extent": [-2.0, 2.0, -2.0, 2.0]},
               "lambda": 0.5, "f": 1.0, "K": 1.0,
               "q": {"rects": {"default": 1.0, "rects": [
                   {"x": [0.8, 1.2], "y": [0.8, 1.2], "value": math.inf}]}}}


def scenario(name):
    return os.path.join(SCENARIOS, name)


def make_graph(q, edges, p, node_count=None):
    """Build a GraphProblem from terminal costs and (i, j, K) edges; self-loops
    with K=0 are added automatically, p is uniform.  Each row is sorted by j,
    and of edges given twice the last K counts."""
    M = node_count or len(q)
    src, dst, K = map(np.array, zip(*[(i, i, 0.0) for i in range(M)], *edges))
    order, again = sort_edges(src, dst)
    keep = np.delete(order, again - 1)  # the last of each run of equals
    return GraphProblem.from_edges(M, src[keep], dst[keep], K[keep],
                                   np.full(keep.size, p), q)


def fig1b(p):
    """Three-node chain: q=(1,10,0), free transitions; V = (min(1,10p),0,0)."""
    return make_graph([1.0, 10.0, 0.0], [(0, 1, 0.0), (1, 2, 0.0)], p)


def fig2(p, C=1.0):
    """Chain q=(10,9,0), K=(1,C); V_0 = 2+8p when C=1."""
    return make_graph([10.0, 9.0, 0.0], [(0, 1, 1.0), (1, 2, C)], p)


def semi_lagrangian_update(v1, v2, K, q, f, lam, h):
    """Control-theoretic form of grid.quadrant_update, its test oracle:
    minimize over the convex weights xi of the two neighbors,

        C(xi) = [ (K + lam q) tau(xi) + xi1 v1 + xi2 v2 ] / (1 + lam tau(xi)),

    with tau(xi) = (h/f) sqrt(xi1^2 + xi2^2).  At interior minimizers this
    coincides with the quadrant quadratic root; at vertex minimizers with the
    one-sided form.
    """
    if not math.isfinite(v1) and not math.isfinite(v2):
        return math.inf
    if not math.isfinite(v2):
        return grid.one_sided_update(v1, K, q, f, lam, h)
    if not math.isfinite(v1):
        return grid.one_sided_update(v2, K, q, f, lam, h)

    s = K + lam * q

    def cost(x1):
        x2 = 1.0 - x1
        tau = (h / f) * math.sqrt(x1 * x1 + x2 * x2)
        return (s * tau + x1 * v1 + x2 * v2) / (1.0 + lam * tau)

    from scipy.optimize import minimize_scalar

    res = minimize_scalar(cost, bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": 1e-12})
    return min(res.fun, cost(0.0), cost(1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=range(5))
def random_problem(request):
    return random_graph_problem(request.param, nodes=60, degree=5)


@pytest.fixture(scope="session")
def compiled_march():
    """Skip the test where the native library (native.library), and so the
    compiled march and scanner, cannot be built."""
    if native.library() is None:
        pytest.skip("the native library cannot be built here (no working C "
                    "compiler or writable cache); the Python twins run")


def both_paths(run):
    """(run() with the native library, run() with the Python twins)."""
    compiled = run()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(native, "library", lambda: None)
        return compiled, run()


def bit_equal(a, b):
    """Same float64 bits (so -0.0 != 0.0 and inf == inf)."""
    return np.array_equal(np.asarray(a).view(np.int64),
                          np.asarray(b).view(np.int64))


def read_lines(path):
    """What io._read_lines makes of a graph or idle file, comparable with
    ==: the node count and scalar, and each array's dtype and bytes, or the
    FormatError message."""
    with open(path, "rb") as fh:
        data = fh.read()
    grammar = io._IDLE if io.is_idle_scenario(path, data) else io._GRAPH
    try:
        M, value, points, edges, rows = io._read_lines(
            path, io._scan(data, *grammar) or io._parse(path, data, *grammar),
            grammar[1])
    except io.FormatError as exc:
        return str(exc)
    return repr((M, value)), [(a.dtype.str, a.tobytes())
                              for a in (*points, *edges, rows)]


def graph_problem(path, default_p=None):
    """What io.load_graph makes of a graph file, comparable with ==: the
    node count and each array's dtype and bytes, or the FormatError
    message."""
    try:
        return problem_bytes(io.load_graph(path, default_p))
    except io.FormatError as exc:
        return str(exc)


def problem_bytes(pb):
    """A GraphProblem comparable with ==: the node count and each array's
    dtype and bytes."""
    return pb.node_count, [(a.dtype.str, a.tobytes())
                           for a in (pb.indptr, pb.dst, pb.K, pb.p, pb.q)]


def _bilinear(field, g, x, y):
    fx = (x - g.origin[0]) / g.h
    fy = (y - g.origin[1]) / g.h
    i = min(max(int(math.floor(fx)), 0), g.nx - 2)
    j = min(max(int(math.floor(fy)), 0), g.ny - 2)
    tx = min(max(fx - i, 0.0), 1.0)
    ty = min(max(fy - j, 0.0), 1.0)
    f00 = field[j, i]
    f01 = field[j, i + 1]
    f10 = field[j + 1, i]
    f11 = field[j + 1, i + 1]
    return ((1 - ty) * ((1 - tx) * f00 + tx * f01)
            + ty * ((1 - tx) * f10 + tx * f11))


def trace_oracle(solution, problem, start, step=None):
    """trajectory.trace on whole-grid arrays, its bit-identity oracle: the
    gradient and V of every point, and every free-boundary point scanned at
    each step."""
    g = problem.grid
    h = g.h
    step = h / 2 if step is None else min(step, h / 2)
    mset = grid.motionless_set(solution, problem)
    boundary = mset.boundary_points
    boundary_vals = solution.V[mset.boundary_mask]
    mask = problem.mask()
    Vsafe = np.where(mask, 0.0, solution.V)
    Gx, Gy = map(np.nan_to_num,
                 gradient_field(np.where(mask, np.nan, solution.V), mask, h))
    snap_dist = SNAP_CELLS * h

    x, y = float(start[0]), float(start[1])
    pts = [(x, y)]
    j0, i0 = g.nearest_index((x, y))
    if solution.motionless[j0, i0]:
        return TrajectoryPath(np.array(pts),
                              np.array([_bilinear(Vsafe, g, x, y)]))

    max_steps = 10 * (g.nx + g.ny)
    status = "max_steps"
    for _ in range(max_steps):
        if boundary.size:
            d2 = (boundary[:, 0] - x) ** 2 + (boundary[:, 1] - y) ** 2
            vcur = _bilinear(Vsafe, g, x, y)
            near = (d2 <= snap_dist ** 2) & (boundary_vals <= vcur + h)
            if np.any(near):
                k = int(np.flatnonzero(near)[np.argmin(d2[near])])
                pts.append((float(boundary[k, 0]), float(boundary[k, 1])))
                status = "ok"
                break
        gx = _bilinear(Gx, g, x, y)
        gy = _bilinear(Gy, g, x, y)
        norm = math.hypot(gx, gy)
        if norm < 1e-14:
            status = "stalled"
            break
        x -= step * gx / norm
        y -= step * gy / norm
        x = min(max(x, g.origin[0]), g.origin[0] + h * (g.nx - 1))
        y = min(max(y, g.origin[1]), g.origin[1] + h * (g.ny - 1))
        pts.append((x, y))
        j0, i0 = g.nearest_index((x, y))
        if solution.motionless[j0, i0]:
            status = "ok"
            break
    pts_arr = np.array(pts)
    vals = np.array([_bilinear(Vsafe, g, px, py) for px, py in pts_arr])
    return TrajectoryPath(pts_arr, vals, status=status)
