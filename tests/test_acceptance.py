"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 1's error-magnitude sub-check is expected to fail.  Its errors
against the closed form are about 3.7x SMALLER than the published table, with
clean first-order convergence (orders 0.99 and 1.00, which its order
sub-check asserts).  The evidence that the scheme itself is the documented
one is in this repository's tests: the FMM solves the discretization to
roundoff (max residual <= 1e-10, test_grid_solvers.TestSolutionProperties),
the independent Gauss-Seidel oracle agrees with it (criterion 8), and the
same code reproduces the paper's other error table (criterion 2).  An
earlier claim that it also reproduces the 1-D line errors of this table to
every printed digit cannot be checked without the paper: PAPER.md holds only
its abstract, so the published table exists here only as the constants of
test_criterion_1_first_table.
"""

import math
import time

import numpy as np
import pytest

from randterm import analytic, graph, grid, io, trajectory
from randterm.cli import random_graph_problem

from conftest import fig1b, fig2, scenario, semi_lagrangian_update


def _report(num, ok, detail):
    print("ACCEPTANCE %d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def _linf_errors(case_name, lam, grids=(101, 201, 401)):
    case = analytic.RadialCase(case_name, lam)
    errs = []
    for n in grids:
        pb = case.problem(analytic.radial_grid(n))
        sol = grid.fmm_solve(pb)
        exact = analytic.exact_field(case, pb.grid)
        errs.append(analytic.error_norms(sol.V, exact, pb.grid)[2])
    return errs


def test_criterion_1_first_table():
    published = (0.0449, 0.0259, 0.0147)
    t0 = time.perf_counter()
    errs = _linf_errors("trivial", 0.5)
    wall = time.perf_counter() - t0
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    ok_mag = all(abs(e - p) <= 0.15 * p for e, p in zip(errs, published))
    ok_order = all(abs(o - 1.0) <= 0.2 for o in orders)
    ok_time = wall < 10.0
    ok = ok_mag and ok_order and ok_time
    _report(1, ok,
            "Linf=%s vs published %s within 15%%: %s; orders=%s in 1.0+-0.2: %s; "
            "runtime %.2fs < 10s: %s"
            % (["%.4f" % e for e in errs], list(published), ok_mag,
               ["%.2f" % o for o in orders], ok_order, wall, ok_time))
    assert ok_order and ok_time
    # Documented honest failure: the published magnitudes are not reproduced
    # by the discretization this spec describes (ours are ~3.7x smaller with
    # the same first-order rate; see the module docstring).
    assert ok_mag, ("computed Linf errors %s are ~3.7x below the published "
                    "(0.0449, 0.0259, 0.0147); the same scheme reproduces "
                    "the second table (criterion 2)" % (errs,))


def test_criterion_2_second_table():
    err05 = _linf_errors("circular", 0.5)
    err25 = _linf_errors("circular", 25.0)
    pub05, pub25 = (0.0344, 0.0173, 0.0087), (0.0092, 0.0053, 0.0029)
    ok05 = all(abs(e - p) <= 0.15 * p for e, p in zip(err05, pub05))
    ok25 = all(abs(e - p) <= 0.25 * p for e, p in zip(err25, pub25))
    ok = ok05 and ok25
    _report(2, ok, "lam=0.5 Linf=%s (15%% of %s): %s; lam=25 Linf=%s "
            "(25%% of %s): %s"
            % (["%.4f" % e for e in err05], list(pub05), ok05,
               ["%.4f" % e for e in err25], list(pub25), ok25))
    assert ok


def test_criterion_3_free_boundary_radius():
    g = analytic.radial_grid(401)
    h = g.h
    means = []
    for lam in (0.5, 5.0, 25.0):
        pb = analytic.RadialCase("circular", lam).problem(g)
        sol = grid.fmm_solve(pb)
        mset = grid.motionless_set(sol, pb)
        radii = np.hypot(mset.boundary_points[:, 0], mset.boundary_points[:, 1])
        radii = radii[radii > 0.5]  # drop the isolated motionless origin
        means.append(float(radii.mean()))
    exact = [analytic.free_boundary_radius(l) for l in (0.5, 5.0, 25.0)]
    devs = [abs(m - e) for m, e in zip(means, exact)]
    ok_close = all(d <= 2 * h for d in devs)
    ok_mono = means[0] > means[1] > means[2]
    ok_bracket = all(1.0 < m < 2.0 for m in means)
    ok = ok_close and ok_mono and ok_bracket
    _report(3, ok, "mean radii %s vs exact %s, devs %s <= 2h=%.3f: %s; "
            "decreasing: %s; in (1,2): %s"
            % (["%.4f" % m for m in means], ["%.4f" % e for e in exact],
               ["%.4f" % d for d in devs], 2 * h, ok_close, ok_mono, ok_bracket))
    assert ok


def test_criterion_4_graph_oracles():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_vi = 0.0
    worst_dial = 0.0
    for k in range(100):
        nodes = int(rng.integers(20, 201))
        degree = int(rng.integers(3, 9))
        pb = random_graph_problem(k, nodes=nodes, degree=degree)
        dj = graph.dijkstra_solve(pb)
        vi = graph.value_iteration(pb, tol=1e-13)
        dl = graph.dial_solve(pb)
        worst_vi = max(worst_vi, float(np.max(np.abs(dj.V - vi.V))))
        worst_dial = max(worst_dial, float(np.max(np.abs(dj.V - dl.V))))
    wall = time.perf_counter() - t0
    ok = worst_vi <= 1e-9 and worst_dial <= 1e-12 and wall < 5.0
    _report(4, ok, "100 instances: |dijkstra-vi| %.2e <= 1e-9, "
            "|dijkstra-dial| %.2e <= 1e-12, runtime %.2fs < 5s"
            % (worst_vi, worst_dial, wall))
    assert ok


def test_criterion_5_closed_form_graph_values():
    oks = []
    for p in (0.05, 0.1, 0.5):
        sol = graph.dijkstra_solve(fig1b(p))
        oks.append(abs(sol.V[0] - min(1.0, 10 * p)) <= 1e-12)
    for p in (0.1, 0.5, 0.9):
        sol = graph.dijkstra_solve(fig2(p, C=1.0))
        oks.append(abs(sol.V[0] - (2 + 8 * p)) <= 1e-12)
    cyc = io.load_graph(scenario("two_node_cycle.txt"), default_p=0.25)
    vi = graph.value_iteration(cyc, tol=1e-14)
    oks.append(vi.status == "ok")
    oks.append(float(np.max(np.abs(vi.V - 4.0))) <= 1e-8)
    ok = all(oks)
    _report(5, ok, "chain V1=min(1,10p) and staircase V1=2+8p exact; "
            "two-node cycle V=1/p via value iteration: %s" % oks)
    assert ok


def test_criterion_6_update_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    checked = 0
    for _ in range(1000):
        v1, v2 = rng.uniform(0, 5, 2)
        K = rng.uniform(0, 3)
        q = rng.uniform(max(v1, v2), max(v1, v2) + 5)
        f = rng.uniform(0.3, 2)
        lam = rng.uniform(0.05, 5)
        h = rng.uniform(0.01, 0.5)
        a = min(q, grid.quadrant_update(v1, v2, K, q, f, lam, h))
        b = min(q, semi_lagrangian_update(v1, v2, K, q, f, lam, h))
        worst = max(worst, abs(a - b))
        checked += 1
    vertex_ok = (semi_lagrangian_update(0.7, math.inf, 1.0, 3.0, 1.0, 1.0, 0.5)
                 == pytest.approx(grid.one_sided_update(0.7, 1.0, 3.0, 1.0, 1.0,
                                                        0.5), abs=1e-12))
    ok = worst <= 1e-10 and vertex_ok
    _report(6, ok, "%d draws, max |quadrant - semi-Lagrangian| = %.2e <= 1e-10; "
            "vertex case matches one-sided: %s" % (checked, worst, vertex_ok))
    assert ok


def test_criterion_7_property_suites():
    oks = {}
    rng = np.random.default_rng(7)
    # obstacle bound and p-monotonicity / sandwich / nesting on random graphs
    graph_ok = True
    for seed in range(10):
        pb = random_graph_problem(seed, nodes=80, degree=5)
        sol = graph.dijkstra_solve(pb)
        graph_ok &= bool(np.all(sol.V <= pb.q + 1e-12))
        v0 = graph.solve_v0(pb)
        v1 = graph.solve_v1(pb)
        graph_ok &= bool(np.all(v0 <= sol.V + 1e-10))
        graph_ok &= bool(np.all(sol.V <= v1 + 1e-10))
        prev = None
        for p in (0.1, 0.3, 0.6, 0.9):
            up = random_graph_problem(seed, nodes=80, degree=5)
            up.p[:] = p
            s = graph.dijkstra_solve(up)
            if prev is not None:
                graph_ok &= bool(np.all(s.V >= prev.V - 1e-10))
                graph_ok &= bool(np.all(prev.motionless <= s.motionless))
            prev = s
    oks["graph bounds/sandwich/p-monotone/nesting"] = graph_ok
    # grid obstacle bound and lambda-monotonicity / nesting, without and with
    # a wall (q = +inf) across the free boundary
    g = analytic.radial_grid(101)
    X, Y = np.meshgrid(g.xs(), g.ys())
    wall = (np.abs(X - 1.0) <= 0.05) & (np.abs(Y) <= 1.0)
    eps = 1e-6 * 2 * math.sqrt(2.0)
    for name, masked in (("grid", False), ("masked grid", True)):
        grid_ok, prev = True, None
        for lam in (0.25, 0.5, 1.0, 5.0, 25.0):
            pb = analytic.RadialCase("circular", lam).problem(g)
            if masked:
                pb = grid.GridProblem(grid=g, f=1.0, K=pb.K, lam=lam,
                                      q=np.where(wall, math.inf, pb.q))
            live = ~pb.mask()
            sol = grid.fmm_solve(pb)
            grid_ok &= bool(np.all(np.isinf(sol.V[~live])))
            grid_ok &= bool(np.all(sol.V[live] <= pb.q[live] + 1e-12))
            with np.errstate(invalid="ignore"):  # inf - inf when masked
                mask = pb.q - sol.V <= eps
            if prev is not None:
                grid_ok &= bool(np.all(sol.V[live] >= prev[0][live] - 1e-10))
                grid_ok &= bool(np.all(prev[1] <= mask))
            prev = (sol.V, mask)
        oks["%s bounds/lambda-monotone/nesting" % name] = grid_ok
    # node_update monotone in each neighbor
    mono_ok = True
    for _ in range(300):
        nbrs = rng.uniform(0, 3, 4)
        K, f, lam = rng.uniform(0.1, 2, 3)
        q = rng.uniform(0, 6)
        base = grid.node_update(tuple(nbrs), K, q, f, lam, 0.2)
        k = int(rng.integers(0, 4))
        bumped = nbrs.copy()
        bumped[k] += rng.uniform(0, 1)
        mono_ok &= grid.node_update(tuple(bumped), K, q, f, lam, 0.2) >= base - 1e-12
    oks["node_update monotone"] = mono_ok
    ok = all(oks.values())
    _report(7, ok, "; ".join("%s: %s" % kv for kv in oks.items()))
    assert ok


def test_criterion_8_fmm_vs_sweep():
    sups = {}
    for name, lam in (("radial_trivial.json", None),
                      ("radial_circular.json", None),
                      ("maze.json", None)):
        pb = io.load_grid_scenario(scenario(name), lam=lam, n=101)
        fmm = grid.fmm_solve(pb)
        sw = grid.sweep_oracle(pb)
        live = ~pb.mask()
        sups[name] = float(np.max(np.abs(fmm.V[live] - sw.V[live])))
    ok = all(s <= 1e-8 for s in sups.values()) and sw.status == "ok"
    _report(8, ok, "sup |fmm - sweep| at 101^2: " +
            ", ".join("%s %.2e" % kv for kv in sups.items()))
    assert ok


def test_criterion_9_maze_qualitative():
    target = (9.0, 0.1)  # the likelier call location
    walls = ((3.0, 3.4, 0.0, 7.0), (6.6, 7.0, 3.0, 10.0))

    def in_wall(x, y):
        return any(xa <= x <= xb and ya <= y <= yb for xa, xb, ya, yb in walls)

    pb = io.load_grid_scenario(scenario("maze.json"), lam=0.01)
    h = pb.grid.h
    sol = grid.fmm_solve(pb)
    path = trajectory.trace(sol, pb, (5.0, 5.0))
    end = path.points[-1]
    dist = math.hypot(end[0] - target[0], end[1] - target[1])
    ok_reach = path.status == "ok" and dist <= 3 * h
    violations = sum(in_wall(x, y) for x, y in path.points)
    ok_walls = violations == 0

    pb2 = io.load_grid_scenario(scenario("maze.json"), lam=1.5)
    sol2 = grid.fmm_solve(pb2)
    jmin, imin = np.unravel_index(np.argmin(pb2.q), pb2.q.shape)
    others = (int(np.count_nonzero(sol2.motionless))
              - int(sol2.motionless[jmin, imin]))
    ok_waiting = others > 0
    ok = ok_reach and ok_walls and ok_waiting
    _report(9, ok, "lam=0.01 path ends %.3f from likelier call (<= 3h=%.2f): "
            "%s; wall violations %d: %s; lam=1.5 motionless beyond q-minimum: "
            "%d points: %s"
            % (dist, 3 * h, ok_reach, violations, ok_walls, others, ok_waiting))
    assert ok
