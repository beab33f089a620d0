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

In both, M must lie in [1, MAX_NODES] (ten million); a larger count is
rejected before anything is allocated.

Grid scenarios are JSON descriptors: a grid block, a termination rate, and
per-field specs (constant value, radial piecewise, rectangles over a default,
or a CSV of cell values).  The terminal cost may instead be derived from call
locations via the travel-time mix.  Any key other than comment, grid, lambda,
f, K, q and calls, or grid.extent, n, nx and ny, is rejected.

All CSV output uses shortest round-trip decimals (repr) so identical runs are
byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import os
from array import array
from itertools import chain

import numpy as np

from .eikonal import CallSpec, response_cost
from .graph import GraphProblem, sort_edges, tightest_delta
from .grid import Grid2D, GridProblem
from .idle import IdleScenario


class FormatError(ValueError):
    """Malformed scenario file; message names the offending line."""


# The largest node count a graph or idle file may declare; every array of
# the problem is sized by it, so it is checked before anything is allocated.
MAX_NODES = 10_000_000


def _parse_lines(path):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


def _check_nodes(path, lineno, M):
    if not 1 <= M <= MAX_NODES:
        raise FormatError("%s:%d: nodes %d outside [1, %d]"
                          % (path, lineno, M, MAX_NODES))


def load_graph(path, default_p=None):
    """Parse a graph scenario file into a GraphProblem: the edges in file
    order, then the implicit self-loops, sorted stably by (i, j)."""
    M = None
    q = {}
    src, dst, lines, no_p = (array("q") for _ in range(4))
    K, p = array("d"), array("d")
    for lineno, tok in _parse_lines(path):
        try:
            if tok[0] == "nodes" and len(tok) == 2:
                M = int(tok[1])
            elif tok[0] == "p" and len(tok) == 2:
                default_p = float(tok[1])
            elif tok[0] == "q" and len(tok) == 3:
                q[int(tok[1])] = float(tok[2])
            elif tok[0] == "edge" and len(tok) in (4, 5):
                i, j, kij = int(tok[1]), int(tok[2]), float(tok[3])
                p.append(float(tok[4]) if len(tok) == 5 else math.nan)
                src.append(i)
                dst.append(j)
            else:
                raise ValueError
        except ValueError:
            raise FormatError("%s:%d: cannot parse %r" % (path, lineno, " ".join(tok)))
        except OverflowError:  # an index past int64, so past any node count
            raise FormatError("%s: edge (%d,%d) out of range" % (path, i, j))
        if tok[0] == "nodes":
            _check_nodes(path, lineno, M)
        elif tok[0] == "edge":
            if len(tok) == 4:
                no_p.append(len(K))
            K.append(kij)
            lines.append(lineno)
    n_file, loops = len(K), np.arange(M or 0)  # implicit free self-loops
    zeros = np.zeros(len(loops))
    file_src, file_dst = np.asarray(src, np.intp), np.asarray(dst, np.intp)
    src, dst = np.append(file_src, loops), np.append(file_dst, loops)
    order, again = sort_edges(src, dst)  # file order within an (i, j)
    repeated = order[again]
    for e in np.sort(repeated[repeated < n_file])[:1].tolist():
        raise FormatError("%s:%d: duplicate edge (%d,%d)"
                          % (path, lines[e], src[e], dst[e]))
    if M is None:
        raise FormatError("%s: missing 'nodes' line" % path)
    qarr = np.zeros(M)
    for i, v in q.items():
        if not 0 <= i < M:
            raise FormatError("%s: q index %d out of range" % (path, i))
        qarr[i] = v
    outside = (file_src < 0) | (file_src >= M) | (file_dst < 0) | (file_dst >= M)
    for e in np.flatnonzero(outside)[:1].tolist():
        raise FormatError("%s: edge (%d,%d) out of range"
                          % (path, file_src[e], file_dst[e]))
    rows = np.delete(order, again)  # again holds only implicit loops now
    unset = np.zeros(len(src), bool)
    unset[np.asarray(no_p, np.intp)] = unset[n_file:] = True
    src, dst, unset = src[rows], dst[rows], np.flatnonzero(unset[rows])
    if unset.size and default_p is None:
        raise FormatError("%s: edge (%d,%d) has no p and no default"
                          % (path, src[unset[0]], dst[unset[0]]))
    p = np.append(p, zeros)[rows]
    p[unset] = default_p
    return GraphProblem.from_edges(
        M, src, dst, np.append(K, zeros)[rows], p, qarr,
        delta=max(tightest_delta(file_src, file_dst, K), 0.0))


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
        if tok[0] == "nodes":
            _check_nodes(path, lineno, M)
        elif tok[0] == "edge":
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


def _write_csv(path, rows):
    """Rows as comma-separated lines ending in \\r\\n: the bytes csv.writer
    writes for rows of str, int and float (a float's str is its repr)."""
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


def write_graph_solution(path, problem, solution):
    _write_csv(path, chain(
        [("node", "V", "q", "motionless", "policy_successor")],
        zip(range(problem.node_count), solution.V.tolist(), problem.q.tolist(),
            solution.motionless.astype(int).tolist(), solution.policy.tolist())))


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
    unknown = ([k for k in doc if k not in
                ("comment", "grid", "lambda", "f", "K", "q", "calls")]
               + ["grid." + k for k in gspec if k not in
                  ("n", "nx", "ny", "extent")])
    if unknown:
        raise FormatError("%s: unknown keys %s"
                          % (path, ", ".join(map(repr, unknown))))
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
    _write_csv(path, (row.tolist() for row in np.asarray(field, float)))


def write_mask_csv(path, mask):
    _write_csv(path, (row.tolist() for row in np.asarray(mask).astype(int)))


def write_points_csv(path, points, header=("x", "y")):
    _write_csv(path, chain([header], np.asarray(points, float).tolist()))


def write_trajectory_csv(path, traj):
    rows = np.column_stack((np.reshape(traj.points, (-1, 2)), traj.values))
    _write_csv(path, chain([("x", "y", "V")], rows.astype(float).tolist()))


def write_convergence_csv(path, rows):
    """rows: (grid, line_linf, l2, linf, order-or-None)."""
    _write_csv(path, chain([("grid", "line_Linf", "L2", "Linf", "order")], (
        (n, float(e1), float(e2), float(e3), "" if order is None else float(order))
        for n, e1, e2, e3, order in rows)))
