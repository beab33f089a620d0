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
file's byte count (see _scan).  load_graph takes either kind of file: a
file that scan.c reads under the graph grammar, which has no 'lambda'
line, is a graph file, and only the others are searched for one.

A graph file's rows become its GraphProblem in one compiled pass,
assemble() of scan.c: a counting pass by node, each row sorted by j by
insertion (one comparison an edge on a file written in (i, j) order), the
implicit self-loop merged in at its place.  _read_lines and _graph_problem
are its Python twin, which builds the same arrays bit for bit.  The twin
runs without the native library and for each file that assemble() refuses:
every file with a fault to name (the twin names it), and rows too far from
(i, j) order to sort by insertion.  Idle files, which are small, always
take _read_lines.

Grid scenarios are JSON descriptors: a grid block (an extent of four finite
numbers and integer point counts, n or else nx and ny, made a grid by
Grid2D.spanning, which bounds the counts first), a number lambda, and
per-field specs (constant value, radial piecewise, rectangles over a
default, or a CSV of cell values).  The terminal cost may instead be
derived from call locations via the travel-time mix, every call placed on
the grid before the first solve.  Any key other than comment, grid,
lambda, f, K, q and calls, or grid.extent, n, nx and ny, is rejected.  A
scenario becomes one GridProblem, which checks every field.

All CSV output uses shortest round-trip decimals, the bytes
",".join(map(str, row)) + "\r\n" gives for each row (a float's str is its
repr; a bool is written as the int 0 or 1), so identical runs are
byte-identical.  The numeric tables (fields, masks, points, trajectories
and graph solutions) are written by the compiled writer csv.c (see native)
where it builds, in blocks of rows through one buffer, and else by the
Python loop _write_csv, its twin; the two write the same bytes.  The
convergence table, with its blank cells, always takes the Python loop.
"""

from __future__ import annotations

import csv
import functools
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


def _read(path, sha256=None):
    """The bytes of the file at path; sha256, a hashlib object, is updated
    with them when given."""
    with open(path, "rb") as fh:
        data = fh.read()
    if sha256 is not None:
        sha256.update(data)
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


def _read_lines(path, scanned, point):
    """The arrays of a graph or idle file from what _scan, else _parse,
    returns for it, for lines `nodes M`, `<scalar> V`, `<point> I V` and
    `edge I J X [Y]`.  Returns M, the last scalar (or None), the points'
    (indices, values), the edges' (src, dst, X, Y, no Y given, line number)
    in file order and then a self-loop (X = 0, no Y, line 0) at every node,
    and rows: their stable (i, j) order, each pair once.  FormatError names
    the line of a repeated edge or an index outside [0, M), or says that the
    nodes line is missing; _parse has refused malformed lines and node
    counts outside [1, MAX_NODES]."""
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
             np.append(size[edge] < 5, np.ones(M, bool)),
             np.append(lines[edge], np.zeros(M, lines.dtype)))
    # again holds only implicit loops now
    return M, value, (src[~edge], x[~edge]), edges, np.delete(order, again)


def load_graph(path, default_p=None, sha256=None):
    """The problem of a graph or idle scenario file: a graph file's
    GraphProblem, each row's edges sorted by j, the implicit self-loops
    among them, or idle.build_problem of load_idle's IdleScenario.
    default_p is the p of a graph file's edges without one, replaced by the
    file's 'p' line; FormatError when it is given with an idle file, whose p
    come from lambda.  sha256 as for _read.  The bytes are read once and
    dropped once scanned, before the problem's arrays are built."""
    data = _read(path, sha256)
    scanned = _scan(data, *_GRAPH)
    if scanned is None:
        if is_idle_scenario(path, data):
            if default_p is not None:
                raise FormatError("%s: an idle file takes p from 'lambda'; "
                                  "a default p (--p) does not apply" % path)
            scenario = load_idle(path, data)
            try:
                return idle.build_problem(scenario)
            except ValueError as exc:  # a node that cannot reach a call
                raise FormatError("%s: %s" % (path, exc)) from None
        scanned = _parse(path, data, *_GRAPH)
    del data
    default_p = default_p if scanned[1] is None else scanned[1]
    return (_assemble(scanned, default_p)
            or _graph_problem(path, _read_lines(path, scanned, "q"),
                              default_p))


def _assemble(scanned, default_p):
    """The GraphProblem of what _scan or _parse returns for a graph file,
    with default_p the p of edges without one (None: no default), from
    assemble() of scan.c in one pass over the rows; None when the native
    library is unavailable or assemble() refuses the file (see scan.c).
    The edge arrays, sized for the rows and a loop a node, are then shrunk
    in place to the edges, as _scan's are."""
    lib = native.library()
    M, _, _, src, dst, x, y, size = scanned
    if lib is None or M is None:
        return None
    cap = len(src) + M
    indptr, to = np.empty(M + 1, np.int64), np.empty(cap, np.int64)
    K, p, q = np.empty(cap), np.empty(cap), np.empty(M)
    edges = lib.assemble(M, len(src), src, dst, x, y, size,
                         default_p is not None,
                         math.nan if default_p is None else default_p,
                         indptr, to, K, p, q)
    if edges < 0:  # refused
        return None
    for a in (to, K, p):
        a.resize(edges, refcheck=False)  # no view of a exists
    return GraphProblem(M, indptr, to, K, p, q)


def _graph_problem(path, lines, default_p):
    """The GraphProblem of what _read_lines returns for a graph file."""
    M, _, (qi, qv), (src, dst, K, p, no_p, line), rows = lines
    src, dst, K, p, line = (a[rows] for a in (src, dst, K, p, line))
    unset = np.flatnonzero(no_p[rows])
    if unset.size and default_p is None:
        e = unset[0]
        where = ("%s:%d: edge" % (path, line[e]) if line[e]
                 else "%s: implicit self-loop" % path)
        raise FormatError("%s (%d,%d) has no p and no default"
                          % (where, src[e], dst[e]))
    p[unset] = default_p
    q = np.zeros(M)
    q[qi] = qv  # the last q line of a node counts
    return GraphProblem.from_edges(M, src, dst, K, p, q)


def load_idle(path, data=None):
    """Parse an idle-time scenario file into an IdleScenario.  data, when
    given, is the file's bytes, so that the file is not read again."""
    data = _read(path) if data is None else data
    M, lam, (calls, probs), (src, dst, tau, *_), rows = _read_lines(
        path, _scan(data, *_IDLE) or _parse(path, data, *_IDLE), "call")
    if lam is None or not calls.size:
        raise FormatError("%s: needs 'lambda' and 'call' lines" % path)
    try:
        return IdleScenario(node_count=M, src=src[rows], dst=dst[rows],
                            tau=tau[rows], lam=lam, call_nodes=calls,
                            call_probs=probs)
    except ValueError as exc:  # a rate, a tau or call probabilities
        raise FormatError("%s: %s" % (path, exc)) from None


def is_idle_scenario(path, data=None):
    """True when the file has a 'lambda' line, its lines split as universal
    newlines split them; the search stops at the first.  data as for
    load_idle."""
    data = _read(path) if data is None else data
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
    below 2^53 and are written as ints, bool columns as 0 and 1 (a uint8
    view), float columns as floats.  csv_rows of csv.c writes the cells,
    but for the floats outside its range (see csv.c), whose repr it is
    handed; without the native library _write_csv writes the same bytes.
    """
    columns = [c.view(np.uint8) if c.dtype == bool else c
               for c in map(np.asarray, columns)]
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
               solution.motionless, solution.policy)
    _write_table(path, header, columns)


# --- grid scenario descriptors -------------------------------------------


def _float(v):
    """float(v), but TypeError for a bool: JSON true is not a number."""
    if isinstance(v, bool):
        raise TypeError("%r is not a number" % v)
    return float(v)


def _build_field(spec, grid, base_dir, radius):
    """Evaluate one field spec: its number for a constant, else an (ny, nx)
    array.  radius() gives grid.radius(), which a radial form of no pieces
    and default "r" returns as it is.

    Forms: number, {"constant": v}, {"radial": {"pieces": [{"range": [a, b],
    "value": v-or-"r"}], "default": v-or-"r"}}, {"rects": {"default": v,
    "rects": [{"x": [a, b], "y": [c, d], "value": v}]}}, {"disk": {"center":
    [x, y], "radius": r, "value": v, "default": v}}, {"csv": path}.  The
    geometric forms fill one output array from the grid's axes, broadcast
    against each other (Grid2D.axes).
    """
    if type(spec) in (int, float):  # bool aside
        return float(spec)
    if not isinstance(spec, dict):
        raise FormatError("bad field spec %r" % (spec,))
    if "constant" in spec:
        return _float(spec["constant"])
    shape = (grid.ny, grid.nx)
    X, Y = grid.axes()
    if "radial" in spec:
        R = radius()

        def val(v):
            return R if v == "r" else _float(v)

        default = val(spec["radial"].get("default", 0.0))
        pieces = spec["radial"].get("pieces", [])
        if not pieces:
            return default
        out = np.empty(shape)
        out[:] = default
        for piece in pieces:
            a, b = piece["range"]
            sel = (R >= _float(a)) & (R <= _float(b))
            out[sel] = np.broadcast_to(val(piece["value"]), shape)[sel]
        return out
    if "rects" in spec:
        out = np.full(shape, _float(spec["rects"]["default"]))
        for rect in spec["rects"].get("rects", []):
            xa, xb = map(_float, rect["x"])
            ya, yb = map(_float, rect["y"])
            sel = (X >= xa) & (X <= xb) & (Y >= ya) & (Y <= yb)
            out[sel] = _float(rect["value"])
        return out
    if "disk" in spec:
        d = spec["disk"]
        out = np.full(shape, _float(d.get("default", 0.0)))
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


def load_grid_scenario(path, lam=None, n=None, sha256=None):
    """Parse a JSON grid scenario into a GridProblem, built once.

    lam and n override the file's termination rate and per-axis point count
    (the latter only for square grids); sha256 as for _read.  The grid
    gives 'n', or 'nx' and 'ny', never both.  A 'calls' scenario's problem
    is built with q = 0, so that f, K and lambda are checked on the whole
    grid, and response_cost then adds the travel-time mix into its q; it
    places every call on the grid before the first eikonal solve, and
    a mix that overflows somewhere is refused.  A constant field stays one
    number (see GridProblem).  The radius grid |x| is built at most once a
    load, read-only, and a field that is just the radius (radial, default
    "r", no pieces) is that array, so K = q = |x| hold one grid.
    """
    data = _read(path, sha256)
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
    if "n" in gspec and ("nx" in gspec or "ny" in gspec):
        raise FormatError("%s: 'grid' gives 'n' and also 'nx' or 'ny'" % path)
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

    radius = functools.cache(grid.radius)  # built at most once a load

    def field(key, default=None):
        try:
            return _build_field(doc.get(key, default), grid, base_dir, radius)
        except _MALFORMED as exc:
            raise FormatError("%s: ill-formed field '%s' (%s)"
                              % (path, key, _reason(exc))) from None

    calls = _call_spec(path, doc["calls"]) if "calls" in doc else None
    problem = GridProblem(grid=grid, f=field("f", 1.0), K=field("K", 0.0),
                          q=(field("q") if calls is None
                             else np.zeros((grid.ny, grid.nx))), lam=lam)
    if calls is not None:
        try:
            response_cost(grid, problem.f, calls, problem.q)
        except ValueError as exc:  # a call outside the grid
            raise FormatError("%s: 'calls': %s" % (path, exc)) from None
        if not np.isfinite(problem.q).all():  # h / f past float range
            raise FormatError("%s: 'calls': the travel-time mix is not "
                              "finite at every grid point" % path)
    return problem


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
    try:
        return CallSpec(locations=locations, probabilities=probabilities)
    except ValueError as exc:  # probabilities that do not sum to 1
        raise FormatError("%s: 'calls': %s" % (path, exc)) from None


def read_field_csv(path):
    """The float64 grid of a CSV of cell values, one grid row per line;
    each row becomes an array as it is read, float() of each cell."""
    with open(path) as fh:
        rows = [np.fromiter(map(float, row), np.float64, len(row))
                for row in csv.reader(fh) if row]
    return np.array(rows)


def write_field_csv(path, field):
    """Row-major CSV, one grid row per line."""
    field = np.asarray(field, float)
    _write_table(path, (), [field])


def write_mask_csv(path, mask):
    _write_table(path, (), [np.asarray(mask, bool)])


def write_points_csv(path, points):
    points = np.asarray(points, float)
    _write_table(path, ("x", "y"), [points])


def write_trajectory_csv(path, traj):
    _write_table(path, ("x", "y", "V"),
                 [np.reshape(traj.points, (-1, 2)), traj.values])


def write_convergence_csv(path, rows):
    """rows: (grid, line_linf, l2, linf, order-or-None)."""
    _write_csv(path, chain([("grid", "line_Linf", "L2", "Linf", "order")], (
        (n, float(e1), float(e2), float(e3), "" if order is None else float(order))
        for n, e1, e2, e3, order in rows)))
