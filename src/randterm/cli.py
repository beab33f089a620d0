"""Command-line front end: scenario ingestion, solver runs, convergence tables.

Exit codes: 0 success, 2 validation/parse failure, 3 solver nonconvergence,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import analytic, graph, grid, io, trajectory


def _config_hash(scenario, flags):
    """scenario: the sha256 of the scenario file's bytes."""
    h = scenario.copy()
    h.update(json.dumps(flags, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _run(args, scenario, flags, solve, write, **keys):
    """Time solve(), then write(solution) the outputs and summary.json: the
    keys every solver shares, keys, and the keys write returns.  Exit code 3
    and no output when the solution's status is not "ok" (the solver has
    logged why).  scenario is the sha256 of the scenario file's bytes."""
    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    sol = solve()
    wall = time.perf_counter() - t0
    if sol.status != "ok":
        return 3
    flags = dict(flags, solver=args.solver)
    if args.solver in ("vi", "sweep"):  # the solvers that read --tol
        flags["tol"] = args.tol
    keys.update(write(sol), scenario=os.path.basename(args.scenario),
                solver=args.solver, status=sol.status,
                iterations=sol.iterations,
                heap_operations=sol.heap_operations, wall_time_s=wall,
                motionless_count=int(np.count_nonzero(sol.motionless)),
                config_hash=_config_hash(scenario, flags))
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(keys, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_run_graph(args):
    scenario = hashlib.sha256()
    problem = io.load_graph(args.scenario, args.p, scenario)
    if args.p is not None:
        problem.p[:] = args.p
    # the label-setting solvers check A1-A3 themselves (ValueError, exit 2);
    # value iteration does not need them
    solvers = {"dijkstra": graph.dijkstra_solve, "dial": graph.dial_solve,
               "vi": lambda pb: graph.value_iteration(pb, tol=args.tol)}

    def write(sol):
        io.write_graph_solution(os.path.join(args.out, "solution.csv"),
                                problem, sol)
        return {}

    return _run(args, scenario, {"p": args.p},
                lambda: solvers[args.solver](problem), write,
                nodes=problem.node_count)


def _parse_emit(values):
    """(kind, start point or None) of each --emit value; FormatError, naming
    the value, for an unknown kind or a malformed trajectory start."""
    out = []
    for item in map(str.strip, values):
        kind, colon, start = item.partition(":")
        try:
            if kind == "trajectory" and colon:
                x, y = map(float, start.split(","))  # ValueError unless two
                out.append((kind, (x, y)))
            elif item in ("value", "mask", "boundary"):
                out.append((item, None))
            elif item:
                raise ValueError
        except ValueError:
            raise io.FormatError("--emit %r: expected value, mask, boundary "
                                 "or trajectory:X,Y" % item) from None
    return out


def _grid_size(value, option="--grid"):
    """n of a grid size N or NxN (ASCII digits) given to option;
    FormatError for any other value."""
    size = re.fullmatch(r"([0-9]+)(?:x([0-9]+))?", value)
    if size is None:
        raise io.FormatError("%s %r: expected N or NxN" % (option, value))
    nx, ny = size.groups()
    if ny is not None and int(ny) != int(nx):
        raise io.FormatError("%s override must be square (NxN)" % option)
    return int(nx)


def cmd_run_grid(args):
    # before the load, so a typo costs no solve
    kinds = _parse_emit(args.emit or ["value"])
    n = None if args.grid is None else _grid_size(args.grid)
    scenario = hashlib.sha256()
    problem = io.load_grid_scenario(args.scenario, args.lam, n, scenario)
    for kind, start in kinds:
        if kind == "trajectory":  # ValueError outside the grid or masked
            trajectory.start_index(problem, start)
    solvers = {"fmm": grid.fmm_solve,
               "sweep": lambda pb: grid.sweep_oracle(pb, tol=args.tol)}

    def write(sol):
        keys = {}
        for kind, start in kinds:
            path = os.path.join(args.out, kind + ".csv")
            if kind == "value":
                io.write_field_csv(path, sol.V)
            elif kind == "mask":
                io.write_mask_csv(path, sol.motionless)
            elif kind == "boundary":
                io.write_points_csv(path, grid.motionless_set(sol, problem))
            else:
                traj = trajectory.trace(sol, problem, start)
                io.write_trajectory_csv(path, traj)
                keys["trajectory_status"] = traj.status
        return keys

    # the settings that take effect, so that every spelling of a run hashes
    # alike: the loaded grid size and lambda, and the parsed emits
    emit = sorted(kind if start is None else "%s:%r,%r" % (kind, *start)
                  for kind, start in kinds)
    flags = {"lambda": float(problem.lam[0, 0]),
             "grid": [problem.grid.nx, problem.grid.ny], "emit": emit}
    return _run(args, scenario, flags, lambda: solvers[args.solver](problem),
                write, grid=[problem.grid.nx, problem.grid.ny])


def cmd_run_convergence(args):
    os.makedirs(args.out, exist_ok=True)
    case = analytic.RadialCase(case=args.case, lam=args.lam)
    # every size is refused or accepted before the first solve
    grids = [analytic.radial_grid(_grid_size(t, "--grids"))
             for t in args.grids.split(",")]
    rows = []
    prev_linf = None
    for g in grids:
        sol = grid.fmm_solve(case.problem(g))
        exact = analytic.exact_field(case, g)
        line_linf, l2, linf = analytic.error_norms(sol.V, exact, g)
        # no order where either error is 0 (or there is no coarser grid)
        order = math.log2(prev_linf / linf) if prev_linf and linf else None
        rows.append((g.nx, line_linf, l2, linf, order))
        prev_linf = linf
    io.write_convergence_csv(os.path.join(args.out, "convergence.csv"), rows)
    for row in rows:
        print("%5d  line_Linf=%.6f  L2=%.6f  Linf=%.6f  order=%s"
              % (row[0], row[1], row[2], row[3],
                 "-" if row[4] is None else "%.3f" % row[4]))
    return 0


def random_graph_problem(seed, nodes=50, degree=4, p_range=(0.2, 0.9)):
    """Random strongly-A1-A3 instance, every non-self cost in [0.1, 5.1);
    shared by tests and the CLI generator."""
    rng = np.random.default_rng(seed)
    M = nodes
    # row i: a self-loop, a ring edge (strong connectivity) and random ones
    loops = np.arange(M)
    src = np.repeat(loops, degree + 1)
    dst = np.column_stack((loops, (loops + 1) % M,
                           rng.integers(0, M, size=(M, degree - 1)))).ravel()
    rows = np.delete(*graph.sort_edges(src, dst))  # each (i, j) once
    src, dst = src[rows], dst[rows]
    q = rng.uniform(0.0, 10.0, size=M)
    # draws in row order: p of a self-loop; K, then p, of any other edge
    moves = src != dst
    is_K = np.insert(np.zeros(len(dst), bool), np.flatnonzero(moves), True)
    draws = rng.uniform(np.where(is_K, 0.0, p_range[0]),
                        np.where(is_K, 5.0, p_range[1]))
    K = np.zeros(len(dst))
    K[moves] = 0.1 + draws[is_K]
    return graph.GraphProblem.from_edges(M, src, dst, K, draws[~is_K], q)


def cmd_random_graph(args):
    io.check_nodes(args.nodes, "random-graph")
    problem = random_graph_problem(args.seed, nodes=args.nodes)
    lines = ["nodes %d" % problem.node_count]
    lines += ["q %d %r" % iv for iv in enumerate(problem.q.tolist())]
    lines += ["edge %d %d %r %r" % e for e in zip(
        problem.src.tolist(), problem.dst.tolist(), problem.K.tolist(),
        problem.p.tolist())]
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="randterm",
        description="Solvers for deterministic processes terminated at a "
                    "Poisson-random time.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("run-graph", help="solve a graph scenario file")
    g.add_argument("scenario")
    g.add_argument("--solver", choices=("dijkstra", "dial", "vi"),
                   default="dijkstra")
    g.add_argument("--p", type=float, default=None,
                   help="override the kill probability on every edge")
    g.add_argument("--tol", type=float, default=1e-13)
    g.add_argument("--out", default=".")
    g.set_defaults(func=cmd_run_graph)

    r = sub.add_parser("run-grid", help="solve a JSON grid scenario")
    r.add_argument("scenario")
    r.add_argument("--solver", choices=("fmm", "sweep"), default="fmm")
    r.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="override the termination rate")
    r.add_argument("--grid", default=None, metavar="NxN",
                   help="override the grid resolution")
    r.add_argument("--emit", action="append", default=None,
                   help="value, mask, boundary, or trajectory:X,Y (repeatable)")
    r.add_argument("--tol", type=float, default=1e-12)
    r.add_argument("--out", default=".")
    r.set_defaults(func=cmd_run_grid)

    c = sub.add_parser("run-convergence",
                       help="error table against the radial closed forms")
    c.add_argument("case", choices=("trivial", "circular"))
    c.add_argument("--lambda", dest="lam", type=float, default=0.5)
    c.add_argument("--grids", default="101,201,401")
    c.add_argument("--out", default=".")
    c.set_defaults(func=cmd_run_convergence)

    m = sub.add_parser("random-graph",
                       help="emit a random valid graph scenario file")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--nodes", type=int, default=50)
    m.add_argument("--out", default="-")
    m.set_defaults(func=cmd_random_graph)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # io.FormatError too
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
