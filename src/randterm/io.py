"""Scenario file parsing and CSV emission.

Graph scenarios are line-oriented text:

    nodes M
    p VALUE            # optional default kill probability
    q I VALUE
    edge I J K [P]     # P falls back to the default

Self-loops are implicit (K = 0) unless stated.  Idle-time scenarios use the
same skeleton with a tau column instead of K/p:

    nodes M
    lambda VALUE
    edge I J TAU
    call I PROB

Grid scenarios are JSON descriptors: a grid block, a termination rate, and
per-field specs (constant value, radial piecewise, rectangles over a default,
or a CSV of cell values).  The terminal cost may instead be derived from call
locations via the travel-time mix.

All CSV output uses shortest round-trip decimals (repr) so identical runs are
byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .eikonal import CallSpec, response_cost
from .graph import GraphProblem, tightest_delta
from .grid import Grid2D, GridProblem
from .idle import IdleScenario


class FormatError(ValueError):
    """Malformed scenario file; message names the offending line."""


def _fmt(v):
    if v != v:
        return "nan"
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return repr(float(v))


def _parse_lines(path):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


def load_graph(path, default_p=None):
    """Parse a graph scenario file into a GraphProblem."""
    M = None
    q = {}
    K = {}
    p = {}
    for lineno, tok in _parse_lines(path):
        try:
            if tok[0] == "nodes" and len(tok) == 2:
                M = int(tok[1])
            elif tok[0] == "p" and len(tok) == 2:
                default_p = float(tok[1])
            elif tok[0] == "q" and len(tok) == 3:
                q[int(tok[1])] = float(tok[2])
            elif tok[0] == "edge" and len(tok) in (4, 5):
                edge = int(tok[1]), int(tok[2])
                kij = float(tok[3])
                pij = float(tok[4]) if len(tok) == 5 else None
            else:
                raise ValueError
        except ValueError:
            raise FormatError("%s:%d: cannot parse %r" % (path, lineno, " ".join(tok)))
        if tok[0] == "edge":
            if edge in K:
                raise FormatError("%s:%d: duplicate edge (%d,%d)"
                                  % ((path, lineno) + edge))
            K[edge] = kij
            if pij is not None:
                p[edge] = pij
    if M is None:
        raise FormatError("%s: missing 'nodes' line" % path)
    qarr = np.zeros(M)
    for i, v in q.items():
        if not 0 <= i < M:
            raise FormatError("%s: q index %d out of range" % (path, i))
        qarr[i] = v
    adjacency = [[i] for i in range(M)]
    for i, j in K:
        if not (0 <= i < M and 0 <= j < M):
            raise FormatError("%s: edge (%d,%d) out of range" % (path, i, j))
        if i != j:
            adjacency[i].append(j)
    for i in range(M):
        K.setdefault((i, i), 0.0)  # implicit free self-loop
    for i, nbrs in enumerate(adjacency):
        nbrs.sort()
        for j in nbrs:
            if (i, j) not in p:
                if default_p is None:
                    raise FormatError(
                        "%s: edge (%d,%d) has no p and no default" % (path, i, j))
                p[(i, j)] = default_p
    return GraphProblem(node_count=M, adjacency=adjacency, K=K, q=qarr, p=p,
                        delta=max(tightest_delta(K), 0.0))


def load_idle(path):
    """Parse an idle-time scenario file into an IdleScenario."""
    M = None
    lam = None
    tau = {}
    adjacency = {}
    calls = []
    indices = []  # (line number, node indices named on that line)
    for lineno, tok in _parse_lines(path):
        try:
            if tok[0] == "nodes" and len(tok) == 2:
                M = int(tok[1])
            elif tok[0] == "lambda" and len(tok) == 2:
                lam = float(tok[1])
            elif tok[0] == "edge" and len(tok) == 4:
                edge = int(tok[1]), int(tok[2])
                t = float(tok[3])
            elif tok[0] == "call" and len(tok) == 3:
                calls.append((int(tok[1]), float(tok[2])))
                indices.append((lineno, (calls[-1][0],)))
            else:
                raise ValueError
        except ValueError:
            raise FormatError("%s:%d: cannot parse %r" % (path, lineno, " ".join(tok)))
        if tok[0] == "edge":
            if edge in tau:
                raise FormatError("%s:%d: duplicate edge (%d,%d)"
                                  % ((path, lineno) + edge))
            tau[edge] = t
            adjacency.setdefault(edge[0], []).append(edge[1])
            indices.append((lineno, edge))
    if M is None or lam is None or not calls:
        raise FormatError("%s: needs 'nodes', 'lambda' and 'call' lines" % path)
    for lineno, nodes in indices:
        if not all(0 <= n < M for n in nodes):
            raise FormatError("%s:%d: node index out of range [0, %d)"
                              % (path, lineno, M))
    adj = [sorted(adjacency.get(i, [])) for i in range(M)]
    return IdleScenario(node_count=M, adjacency=adj, tau=tau, lam=lam,
                        call_nodes=[c[0] for c in calls],
                        call_probs=[c[1] for c in calls])


def is_idle_scenario(path):
    """True when the file carries travel times (a 'lambda' line)."""
    return any(tok[0] == "lambda" for _, tok in _parse_lines(path))


def write_graph_solution(path, problem, solution):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "V", "q", "motionless", "policy_successor"])
        for i in range(problem.node_count):
            w.writerow([i, _fmt(solution.V[i]), _fmt(problem.q[i]),
                        int(solution.motionless[i]), int(solution.policy[i])])


# --- grid scenario descriptors -------------------------------------------


def _build_field(spec, grid, base_dir):
    """Evaluate one field spec to an (ny, nx) array.

    Forms: number, {"constant": v}, {"radial": {"pieces": [{"range": [a, b],
    "value": v-or-"r"}], "default": v-or-"r"}}, {"rects": {"default": v,
    "rects": [{"x": [a, b], "y": [c, d], "value": v}]}}, {"disk": {"center":
    [x, y], "radius": r, "value": v, "default": v}}, {"csv": path}.
    """
    if isinstance(spec, (int, float)):
        return np.full((grid.ny, grid.nx), float(spec))
    if not isinstance(spec, dict):
        raise FormatError("bad field spec %r" % (spec,))
    if "constant" in spec:
        return np.full((grid.ny, grid.nx), float(spec["constant"]))
    if "radial" in spec:
        X, Y = grid.meshgrid()
        R = np.hypot(X, Y)

        def val(v):
            return R if v == "r" else float(v)

        out = np.empty_like(R)
        out[:] = val(spec["radial"].get("default", 0.0))
        for piece in spec["radial"].get("pieces", []):
            a, b = piece["range"]
            sel = (R >= float(a)) & (R <= float(b))
            out[sel] = np.broadcast_to(val(piece["value"]), R.shape)[sel]
        return out
    if "rects" in spec:
        X, Y = grid.meshgrid()
        out = np.full((grid.ny, grid.nx), float(spec["rects"]["default"]))
        for rect in spec["rects"].get("rects", []):
            (xa, xb), (ya, yb) = rect["x"], rect["y"]
            sel = (X >= xa) & (X <= xb) & (Y >= ya) & (Y <= yb)
            out[sel] = float(rect["value"])
        return out
    if "disk" in spec:
        X, Y = grid.meshgrid()
        d = spec["disk"]
        out = np.full((grid.ny, grid.nx), float(d.get("default", 0.0)))
        cx, cy = d["center"]
        sel = np.hypot(X - cx, Y - cy) <= float(d["radius"])
        out[sel] = float(d["value"])
        return out
    if "csv" in spec:
        arr = read_field_csv(os.path.join(base_dir, spec["csv"]))
        if arr.shape != (grid.ny, grid.nx):
            raise FormatError("csv field shape %r does not match grid" % (arr.shape,))
        return arr
    raise FormatError("bad field spec %r" % (spec,))


def load_grid_scenario(path, lam=None, n=None):
    """Parse a JSON grid scenario; returns (GridProblem, CallSpec-or-None).

    lam and n override the file's termination rate and per-axis point count
    (the latter only for square grids).
    """
    with open(path) as fh:
        doc = json.load(fh)
    base_dir = os.path.dirname(os.path.abspath(path))
    gspec = doc.get("grid") if isinstance(doc, dict) else None
    if not isinstance(gspec, dict):
        raise FormatError("%s: missing or ill-typed 'grid' object" % path)
    extent = gspec.get("extent")
    if not (isinstance(extent, list) and len(extent) == 4
            and all(isinstance(v, (int, float)) for v in extent)):
        raise FormatError("%s: 'grid.extent' must be four numbers "
                          "[x0, x1, y0, y1]" % path)
    x0, x1, y0, y1 = extent
    try:
        if "n" in gspec:
            nx = ny = int(gspec["n"])
        else:
            nx, ny = int(gspec["nx"]), int(gspec["ny"])
    except (KeyError, TypeError, ValueError):
        raise FormatError("%s: 'grid' needs an integer 'n', or 'nx' and 'ny'"
                          % path)
    if n is not None:
        if nx != ny:
            raise FormatError("--grid override needs a square scenario grid")
        nx = ny = int(n)
    if min(nx, ny) < 2:
        raise FormatError("%s: the grid needs at least 2 points per axis" % path)
    hx = (x1 - x0) / (nx - 1)
    hy = (y1 - y0) / (ny - 1)
    if abs(hx - hy) > 1e-12 * max(abs(hx), abs(hy)):
        raise FormatError("grid spacing must match in both axes")
    grid = Grid2D(nx=nx, ny=ny, h=hx, origin=(x0, y0))
    if lam is None:
        lam = doc.get("lambda")
    if lam is None:
        raise FormatError("%s: no termination rate (lambda)" % path)
    if "q" in doc and "calls" in doc:
        raise FormatError("%s: give either 'q' or 'calls', not both" % path)
    if "q" not in doc and "calls" not in doc:
        raise FormatError("%s: no terminal cost ('q' or 'calls')" % path)

    def field(key, default=None):
        try:
            return _build_field(doc.get(key, default), grid, base_dir)
        except (AttributeError, IndexError, KeyError, TypeError,
                ValueError) as exc:
            raise FormatError("%s: ill-formed field '%s' (%s)"
                              % (path, key, _reason(exc))) from None

    f, K = field("f", 1.0), field("K", 0.0)
    calls = None
    if "calls" in doc:
        calls = _call_spec(path, doc["calls"])
        q = response_cost(grid, f, calls)
    else:
        q = field("q")
    problem = GridProblem(grid=grid, f=f, K=K, q=q, lam=float(lam))
    return problem, calls


def _reason(exc):
    return "missing key %s" % exc if isinstance(exc, KeyError) else str(exc)


def _call_spec(path, calls):
    """CallSpec of a 'calls' list of {"location": [x, y], "prob": p}."""
    try:
        locations, probabilities = [], []
        for call in calls:
            x, y = call["location"]
            locations.append((float(x), float(y)))
            probabilities.append(float(call["prob"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("%s: 'calls' needs a list of {\"location\": [x, y], "
                          "\"prob\": p} (%s)" % (path, _reason(exc))) from None
    return CallSpec(locations=locations, probabilities=probabilities)


def read_field_csv(path):
    with open(path) as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    return np.array(rows)


def write_field_csv(path, field):
    """Row-major CSV, one grid row per line."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in np.asarray(field):
            w.writerow([_fmt(v) for v in row])


def write_mask_csv(path, mask):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in np.asarray(mask):
            w.writerow([int(v) for v in row])


def write_points_csv(path, points, header=("x", "y")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in np.asarray(points):
            w.writerow([_fmt(v) for v in row])


def write_trajectory_csv(path, traj):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "V"])
        for (x, y), v in zip(traj.points, traj.values):
            w.writerow([_fmt(x), _fmt(y), _fmt(v)])


def write_convergence_csv(path, rows):
    """rows: (grid, line_linf, l2, linf, order-or-None)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["grid", "line_Linf", "L2", "Linf", "order"])
        for n, e1, e2, e3, order in rows:
            w.writerow([n, _fmt(e1), _fmt(e2), _fmt(e3),
                        "" if order is None else _fmt(order)])
