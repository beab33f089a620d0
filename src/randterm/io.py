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
rejected before anything is allocated.  Both are read from the file's bytes
by the compiled scanner scan.c (see native), which accepts a strict subset
of this format, or else by a Python loop; the two read the same arrays.
scan.c reads the bytes in one pass, each line's numbers where they stand
and as float() reads them (see scan.c for how), into arrays sized by the
file's byte count (see _scan).  load_scenario takes either kind of file: a
file that scan.c reads under the graph grammar, which has no 'lambda'
line, is a graph file, and only the others are searched for one.

Grid scenarios are JSON descriptors: a grid block (an extent of four finite
numbers and integer point counts, made a grid by Grid2D.spanning, which
bounds the counts first), a number lambda, and per-field specs (constant
value, radial piecewise, rectangles over a default, or a CSV of cell
values).  The terminal cost may instead be derived from call locations via
the travel-time mix.  Any key other than comment, grid, lambda, f, K, q and
calls, or grid.extent, n, nx and ny, is rejected.

All CSV output uses shortest round-trip decimals, the bytes
",".join(map(str, row)) + "\r\n" gives for each row (a float's str is its
repr), so identical runs are byte-identical.  The numeric tables (fields,
masks, points, trajectories and graph solutions) are written by the
compiled writer csv.c (see native) where it builds, in blocks of rows
through one buffer, and else by the Python loop _write_csv, its twin; the
two write the same bytes.  The convergence table, with its blank cells,
always takes the Python loop.
"""

from __future__ import annotations

import csv
import json
import math
import os
from array import array
from io import BytesIO, TextIOWrapper
from itertools import chain

import numpy as np

from . import idle, native
from .eikonal import CallSpec, response_cost
from .graph import GraphProblem, sort_edges
from .grid import MAX_NODES, Grid2D, GridProblem
from .idle import IdleScenario


class FormatError(ValueError):
    """Malformed scenario file; message names the offending line."""


def check_nodes(M, where):
    """FormatError, prefixed by where, unless 1 <= M <= MAX_NODES."""
    if not 1 <= M <= MAX_NODES:
        raise FormatError("%s: nodes %d outside [1, %d]" % (where, M, MAX_NODES))


def _out_of_range(path, lineno, key, i, j):
    what = "edge (%d,%d)" % (i, j) if key == "edge" else "%s index %d" % (key, i)
    return FormatError("%s:%d: %s out of range" % (path, lineno, what))


def _read(path, data):
    """data, or the bytes of the file at path when data is None."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    return data


def _text(data):
    """data decoded as open(path) would decode the file: the locale's
    encoding, universal newlines."""
    return TextIOWrapper(BytesIO(data))


def _undecodable(path, data):
    """FormatError for bytes data that _text cannot decode: the path, the
    line (as universal newlines count them) and the codec's message, whose
    position counts from the start of the file."""
    try:
        data.decode(_text(b"").encoding)
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return FormatError("%s:%d: %s" % (path, line + 1, exc))
    raise AssertionError("%s decodes" % path)


def _lines(path, data):
    """The lines of _text(data); FormatError (_undecodable) where the bytes
    do not decode."""
    try:
        yield from _text(data)
    except UnicodeDecodeError:
        raise _undecodable(path, data) from None


def _parse(path, data, scalar, point, edge_sizes):
    """The per-line loop of _read_lines in Python: M, the last scalar (or
    None), and each row's line number, i, j, X, Y (NaN when not given) and
    token count, in file order."""
    M = value = None
    lines, src, dst = array("q"), array("q"), array("q")
    x, y, size = array("d"), array("d"), array("B")
    for lineno, raw in enumerate(_lines(path, data), 1):
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        key, n = tok[0], len(tok)
        try:
            if key == "edge" and n in edge_sizes:
                i, j, a = int(tok[1]), int(tok[2]), float(tok[3])
                b = float(tok[4]) if n == 5 else math.nan
            elif key == point and n == 3:
                i = j = int(tok[1])
                a, b = float(tok[2]), math.nan
            elif key == "nodes" and n == 2:
                M = int(tok[1])
            elif key == scalar and n == 2:
                value = float(tok[1])
            else:
                raise ValueError
        except ValueError:
            raise FormatError("%s:%d: cannot parse %r"
                              % (path, lineno, " ".join(tok)))
        if key == "nodes":
            check_nodes(M, "%s:%d" % (path, lineno))
        elif key != scalar:
            try:
                src.append(i)
                dst.append(j)
            except OverflowError:  # past int64, so past any node count
                raise _out_of_range(path, lineno, key, i, j)
            x.append(a)
            y.append(b)
            size.append(n)
            lines.append(lineno)
    return (M, value, *map(np.asarray, (lines, src, dst, x, y, size)))


def _scan(data, scalar, point, edge_sizes):
    """What _parse returns, from scan.c; None when the native library is
    unavailable or the file lies outside the grammar scan.c accepts (then
    _parse reads it, with its own messages).  scan.c reads the bytes in one
    pass into arrays sized by their count, a row for every _ROW_BYTES bytes,
    never by a number written in the file, and refuses a file with more
    rows than that.  The arrays are then shrunk in place to the rows read:
    views would keep the unused tail, whose last touched huge page costs up
    to 2 MB of RSS an array."""
    lib = native.library()
    if lib is None:
        return None
    cap = len(data) // _ROW_BYTES + 1
    out = [np.empty(cap, t) for t in (np.int64,) * 3 + (np.float64,) * 2
           + (np.uint8,)]
    meta, value = np.empty(2, np.int64), np.empty(1)
    rows = lib.scan(data, len(data), scalar.encode(), point.encode(),
                    max(edge_sizes), MAX_NODES, cap, *out, meta, value)
    if rows < 0:  # refused
        return None
    for a in out:
        a.resize(rows, refcheck=False)  # no view of a exists
    return (int(meta[0]) if meta[0] > 0 else None,
            float(value[0]) if meta[1] else None, *out)


# the capacity of _scan's arrays, in file bytes a row: 41 bytes of arrays a
# row, so about 5 for each byte of the file, where the shortest row,
# `q 0 0\n`, has 6 bytes and a row of repr floats some 30 to 60
_ROW_BYTES = 8


# the keywords of the two kinds of file: scalar, point and the edge lines'
# token counts (see _read_lines)
_GRAPH = ("p", "q", (4, 5))
_IDLE = ("lambda", "call", (4,))


def _rows(path, data, grammar):
    """What _parse returns for the file's bytes data: from scan.c where it
    reads them, else from _parse."""
    return _scan(data, *grammar) or _parse(path, data, *grammar)


def _read_lines(path, scanned, point):
    """The arrays of a graph or idle file from what _rows returns for it,
    for lines `nodes M`, `<scalar> V`, `<point> I V` and `edge I J X [Y]`.
    Returns M, the last scalar (or None), the points' (indices, values), the
    edges' (src, dst, X, Y, no Y given) in file order and then a self-loop
    (X = 0, no Y) at every node, and rows: their stable (i, j) order, each
    pair once.  FormatError names the line of a repeated edge or an index
    outside [0, M), or says that the nodes line is missing; _parse has
    refused malformed lines and node counts outside [1, MAX_NODES]."""
    M, value, lines, src, dst, x, y, size = scanned
    edge, loops = size != 3, np.arange(M or 0)
    es, ed = np.append(src[edge], loops), np.append(dst[edge], loops)
    order, again = sort_edges(es, ed)  # file order within an (i, j)
    repeated = order[again]
    for e in np.sort(repeated[repeated < np.count_nonzero(edge)])[:1].tolist():
        raise FormatError("%s:%d: duplicate edge (%d,%d)"
                          % (path, lines[edge][e], es[e], ed[e]))
    if M is None:
        raise FormatError("%s: missing 'nodes' line" % path)
    outside = (src < 0) | (src >= M) | (dst < 0) | (dst >= M)
    for e in np.flatnonzero(outside)[:1].tolist():
        raise _out_of_range(path, lines[e], "edge" if edge[e] else point,
                            src[e], dst[e])
    zeros = np.zeros(M)
    edges = (es, ed, np.append(x[edge], zeros), np.append(y[edge], zeros),
             np.append(size[edge] < 5, np.ones(M, bool)))
    # again holds only implicit loops now
    return M, value, (src[~edge], x[~edge]), edges, np.delete(order, again)


def load_graph(path, default_p=None):
    """Parse a graph scenario file into a GraphProblem: the edges in file
    order, then the implicit self-loops, sorted stably by (i, j).  A 'p'
    line replaces default_p."""
    return _graph_problem(path, _read_lines(
        path, _rows(path, _read(path, None), _GRAPH), "q"), default_p)


def load_scenario(path, default_p, sha256):
    """The problem of a graph or idle scenario file (see is_idle_scenario):
    load_graph's GraphProblem, or idle.build_problem of load_idle's
    IdleScenario.  sha256, a hashlib object, is updated with the file's
    bytes, which are read once and dropped once scanned.  The graph grammar
    of scan.c has no 'lambda' line, so a file that scan.c reads under it is
    a graph file, and only the others are searched for one."""
    data = _read(path, None)
    sha256.update(data)
    scanned = _scan(data, *_GRAPH)
    if scanned is None:
        if is_idle_scenario(path, data):
            return idle.build_problem(load_idle(path, data))
        scanned = _parse(path, data, *_GRAPH)
    del data
    lines = _read_lines(path, scanned, "q")
    del scanned  # _read_lines copied what it keeps
    return _graph_problem(path, lines, default_p)


def _graph_problem(path, lines, default_p):
    """The GraphProblem of what _read_lines returns for a graph file."""
    M, p_line, (qi, qv), (src, dst, K, p, no_p), rows = lines
    default_p = default_p if p_line is None else p_line
    src, dst, K, p = (a[rows] for a in (src, dst, K, p))
    unset = np.flatnonzero(no_p[rows])
    if unset.size and default_p is None:
        raise FormatError("%s: edge (%d,%d) has no p and no default"
                          % (path, src[unset[0]], dst[unset[0]]))
    p[unset] = default_p
    q = np.zeros(M)
    q[qi] = qv  # the last q line of a node counts
    return GraphProblem.from_edges(M, src, dst, K, p, q)


def load_idle(path, data=None):
    """Parse an idle-time scenario file into an IdleScenario.  data, when
    given, is the file's bytes, so that the file is not read again."""
    M, lam, (calls, probs), (src, dst, tau, _, _), rows = _read_lines(
        path, _rows(path, _read(path, data), _IDLE), "call")
    if lam is None or not calls.size:
        raise FormatError("%s: needs 'lambda' and 'call' lines" % path)
    return IdleScenario(node_count=M, src=src[rows], dst=dst[rows],
                        tau=tau[rows], lam=lam, call_nodes=calls,
                        call_probs=probs)


def is_idle_scenario(path, data=None):
    """True when the file has a 'lambda' line, its lines split as universal
    newlines split them; the search stops at the first.  data as for
    load_idle."""
    data = _read(path, data)
    return b"lambda" in data and any(
        line.split("#", 1)[0].split()[:1] == ["lambda"]
        for line in TextIOWrapper(BytesIO(data), errors="surrogateescape"))


def _write_csv(path, rows):
    """Rows as comma-separated lines ending in \\r\\n: the bytes csv.writer
    writes for rows of str, int and float (a float's str is its repr)."""
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


# rows of at most this many cells go to csv.c at once, through one buffer
_BLOCK_CELLS = 1 << 16


def _write_table(path, header, columns):
    """A numeric table: the header (a tuple of names; none when empty),
    then one line per row of columns (1-D arrays and 2-D blocks of one
    length, as np.column_stack joins them), where int columns hold ints
    below 2^53 and are written as ints, float columns as floats.
    csv_rows of csv.c writes the cells, but for the floats outside its range
    (see csv.c), whose repr it is handed; without the native library
    _write_csv writes the same bytes.
    """
    columns = [np.asarray(c) for c in columns]
    lib = native.library()
    if lib is None:
        cells = [(c[:, None] if c.ndim == 1 else c).tolist() for c in columns]
        _write_csv(path, chain([header] if header else [], (
            list(chain.from_iterable(row)) for row in zip(*cells))))
        return
    integer = np.concatenate([
        np.full(c.shape[1] if c.ndim == 2 else 1, c.dtype.kind != "f")
        for c in columns])
    step = max(1, _BLOCK_CELLS // max(1, integer.size))
    # at most 25 bytes a cell (a repr of 24 and its comma) and 2 a row
    out = np.empty(min(len(columns[0]), step) * (25 * integer.size + 2),
                   np.uint8)
    with open(path, "wb") as fh:
        if header:
            fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, len(columns[0]), step):
            block = np.column_stack([c[lo:lo + step] for c in columns])
            block = block.astype(np.float64, copy=False)
            size = np.abs(block)
            fast = (integer | (block == 0)
                    | ((size >= 1e-4) & (size < 2.0 ** 53)))
            texts = [str(v) for v in block[~fast].tolist()]
            lens = np.fromiter(map(len, texts), np.int64, len(texts))
            used = lib.csv_rows(block, *block.shape, integer.view(np.uint8),
                                "".join(texts).encode(), lens, len(texts), out)
            if used < 0:
                raise RuntimeError("csv.c and io disagree on the cells that "
                                   "repr writes")
            fh.write(out[:used])


def write_graph_solution(path, problem, solution):
    header = ("node", "V", "q", "motionless", "policy_successor")
    columns = (np.arange(problem.node_count), solution.V, problem.q,
               solution.motionless.astype(int), solution.policy)
    _write_table(path, header, columns)


# --- grid scenario descriptors -------------------------------------------


def _float(v):
    """float(v), but TypeError for a bool: JSON true is not a number."""
    if isinstance(v, bool):
        raise TypeError("%r is not a number" % v)
    return float(v)


def _build_field(spec, grid, base_dir):
    """Evaluate one field spec to an (ny, nx) array.

    Forms: number, {"constant": v}, {"radial": {"pieces": [{"range": [a, b],
    "value": v-or-"r"}], "default": v-or-"r"}}, {"rects": {"default": v,
    "rects": [{"x": [a, b], "y": [c, d], "value": v}]}}, {"disk": {"center":
    [x, y], "radius": r, "value": v, "default": v}}, {"csv": path}.
    """
    if type(spec) in (int, float):  # bool aside
        return np.full((grid.ny, grid.nx), float(spec))
    if not isinstance(spec, dict):
        raise FormatError("bad field spec %r" % (spec,))
    if "constant" in spec:
        return np.full((grid.ny, grid.nx), _float(spec["constant"]))
    if "radial" in spec:
        X, Y = grid.meshgrid()
        R = np.hypot(X, Y)

        def val(v):
            return R if v == "r" else _float(v)

        out = np.empty_like(R)
        out[:] = val(spec["radial"].get("default", 0.0))
        for piece in spec["radial"].get("pieces", []):
            a, b = piece["range"]
            sel = (R >= _float(a)) & (R <= _float(b))
            out[sel] = np.broadcast_to(val(piece["value"]), R.shape)[sel]
        return out
    if "rects" in spec:
        X, Y = grid.meshgrid()
        out = np.full((grid.ny, grid.nx), _float(spec["rects"]["default"]))
        for rect in spec["rects"].get("rects", []):
            xa, xb = map(_float, rect["x"])
            ya, yb = map(_float, rect["y"])
            sel = (X >= xa) & (X <= xb) & (Y >= ya) & (Y <= yb)
            out[sel] = _float(rect["value"])
        return out
    if "disk" in spec:
        X, Y = grid.meshgrid()
        d = spec["disk"]
        out = np.full((grid.ny, grid.nx), _float(d.get("default", 0.0)))
        cx, cy = map(_float, d["center"])
        sel = np.hypot(X - cx, Y - cy) <= _float(d["radius"])
        out[sel] = _float(d["value"])
        return out
    if "csv" in spec:
        arr = read_field_csv(os.path.join(base_dir, spec["csv"]))
        if arr.shape != (grid.ny, grid.nx):
            raise FormatError("csv field shape %r does not match grid" % (arr.shape,))
        return arr
    raise FormatError("bad field spec %r" % (spec,))


# what reading a malformed 'lambda', field spec, CSV field or 'calls' list
# raises
_MALFORMED = (ArithmeticError, AttributeError, LookupError, TypeError,
              ValueError, csv.Error)


def load_grid_scenario(path, lam=None, n=None, data=None):
    """Parse a JSON grid scenario into a GridProblem.

    lam and n override the file's termination rate and per-axis point count
    (the latter only for square grids); data as for load_idle.
    """
    data = _read(path, data)
    try:
        doc = json.load(_text(data))
    except UnicodeDecodeError:
        raise _undecodable(path, data) from None
    except (RecursionError,  # nested deeper than the decoder goes
            json.JSONDecodeError) as exc:
        raise FormatError("%s: %s" % (path, exc)) from None
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
            and all(type(v) in (int, float) for v in extent)):  # bool aside
        raise FormatError("%s: 'grid.extent' must be four numbers "
                          "[x0, x1, y0, y1]" % path)
    nx, ny = (gspec.get(k) for k in (("n", "n") if "n" in gspec
                                     else ("nx", "ny")))
    if not (type(nx) is int and type(ny) is int):  # bool aside
        raise FormatError("%s: 'grid' needs an integer 'n', or 'nx' and 'ny'"
                          % path)
    if n is not None:
        if nx != ny:
            raise FormatError("--grid override needs a square scenario grid")
        nx = ny = n
    try:
        grid = Grid2D.spanning(extent, nx, ny)
    except ValueError as exc:
        raise FormatError("%s: %s" % (path, exc)) from None
    try:
        lam = _float(doc.get("lambda") if lam is None else lam)
    except _MALFORMED:
        raise FormatError("%s: needs a number 'lambda'" % path) from None
    if "q" in doc and "calls" in doc:
        raise FormatError("%s: give either 'q' or 'calls', not both" % path)
    if "q" not in doc and "calls" not in doc:
        raise FormatError("%s: no terminal cost ('q' or 'calls')" % path)

    def field(key, default=None):
        try:
            return _build_field(doc.get(key, default), grid, base_dir)
        except _MALFORMED as exc:
            raise FormatError("%s: ill-formed field '%s' (%s)"
                              % (path, key, _reason(exc))) from None

    f, K = field("f", 1.0), field("K", 0.0)
    if "calls" in doc:
        calls = _call_spec(path, doc["calls"])
        # travel times are finite everywhere, so no point is masked: check
        # f, K and lambda on the whole grid before any eikonal solve
        GridProblem(grid=grid, f=f, K=K, q=0.0, lam=lam)
        q = response_cost(grid, f, calls)
    else:
        q = field("q")
    return GridProblem(grid=grid, f=f, K=K, q=q, lam=lam)


def _reason(exc):
    return "missing key %s" % exc if isinstance(exc, KeyError) else str(exc)


def _call_spec(path, calls):
    """CallSpec of a 'calls' list of {"location": [x, y], "prob": p}."""
    try:
        locations, probabilities = [], []
        for call in calls:
            x, y = call["location"]
            locations.append((_float(x), _float(y)))
            probabilities.append(_float(call["prob"]))
    except _MALFORMED as exc:
        raise FormatError("%s: 'calls' needs a list of {\"location\": [x, y], "
                          "\"prob\": p} (%s)" % (path, _reason(exc))) from None
    return CallSpec(locations=locations, probabilities=probabilities)


def read_field_csv(path):
    with open(path) as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    return np.array(rows)


def write_field_csv(path, field):
    """Row-major CSV, one grid row per line."""
    field = np.asarray(field, float)
    _write_table(path, (), [field])


def write_mask_csv(path, mask):
    mask = np.asarray(mask).astype(int)
    _write_table(path, (), [mask])


def write_points_csv(path, points):
    points = np.asarray(points, float)
    _write_table(path, ("x", "y"), [points])


def write_trajectory_csv(path, traj):
    rows = np.column_stack((np.reshape(traj.points, (-1, 2)),
                            traj.values)).astype(float)
    _write_table(path, ("x", "y", "V"), [rows])


def write_convergence_csv(path, rows):
    """rows: (grid, line_linf, l2, linf, order-or-None)."""
    _write_csv(path, chain([("grid", "line_Linf", "L2", "Linf", "order")], (
        (n, float(e1), float(e2), float(e3), "" if order is None else float(order))
        for n, e1, e2, e3, order in rows)))
