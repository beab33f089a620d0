import math

import numpy as np
import pytest

from randterm import graph
from randterm.cli import random_graph_problem
from randterm.io import load_graph

from conftest import fig1b, fig2, make_graph


def fig1a():
    return make_graph([0.0, 0.0], [(0, 1, 1.0), (1, 0, 1.0)], 0.5)


class TestValidate:
    def test_valid_two_node(self):
        pb = make_graph([1.0, 2.0], [(0, 1, 2.0), (1, 0, 2.0)], 0.5)
        assert graph.validate(pb) == []

    def test_missing_self_loop(self):
        pb = make_graph([0.0, 0.0], [(0, 1, 1.0), (1, 0, 1.0)], 0.5)
        pb.adjacency[0].remove(0)
        issues = graph.validate(pb)
        assert any("A1" in m and "0" in m for m in issues)

    def test_nonzero_self_cost(self):
        pb = fig1a()
        pb.K[(0, 0)] = 10.0
        assert any("A2" in m for m in graph.validate(pb))

    def test_p_out_of_range(self):
        pb = fig1a()
        pb.p[(0, 1)] = 1.0
        assert any("p out of (0,1)" in m for m in graph.validate(pb))

    def test_cost_below_delta(self):
        pb = fig2(0.5)
        pb.delta = 2.0
        assert any("A3" in m for m in graph.validate(pb))

    def test_nan_cost(self):
        pb = fig2(0.5)
        pb.K[(0, 1)] = math.nan
        assert any("A3" in m for m in graph.validate(pb))

    def test_all_violations_in_order(self):
        # nodes first (A1 or A2), then per edge in adjacency order, A3
        # before p, then q; row 1 is deliberately unsorted
        pb = make_graph([0.0, 1.0, 2.0], [(0, 1, 1.0), (1, 0, 1.0),
                                          (1, 2, 1.0), (2, 0, 1.0)], 0.5)
        pb.adjacency[0].remove(0)
        pb.K[(1, 1)] = 3.0
        pb.adjacency[1] = [2, 1, 0]
        pb.K[(1, 2)] = -1.0
        pb.K[(1, 0)] = math.nan
        pb.p[(1, 0)] = 1.0
        del pb.p[(2, 0)]
        pb.q[2] = math.inf
        assert graph.validate(pb) == [
            "A1 missing self-transition at node 0",
            "A2 nonzero self-cost at node 1",
            "A3 edge (1,2) cost -1 below delta 1",
            "A3 edge (1,0) cost nan below delta 1",
            "p out of (0,1) on edge (1,0)",
            "p out of (0,1) on edge (2,0)",
            "non-finite terminal cost",
        ]


class TestNormalizeSelfCosts:
    def test_identity_when_clean(self):
        pb = fig2(0.5)
        out = graph.normalize_self_costs(pb)
        assert np.allclose(out.q, pb.q)
        assert out.K == pb.K

    def test_single_node(self):
        pb = make_graph([3.0], [], 0.5)
        pb.K[(0, 0)] = 2.0
        out = graph.normalize_self_costs(pb)
        assert out.q[0] == pytest.approx(7.0)
        assert out.K[(0, 0)] == 0.0
        sol = graph.value_iteration(out)
        assert sol.V[0] == pytest.approx(7.0)

    def test_value_preserved(self):
        # costly self-loops shifted into q must not change the value function
        pb = make_graph([5.0, 1.0], [(0, 1, 3.0), (1, 0, 3.0)], 0.5)
        pb.K[(0, 0)] = 1.0
        ref = graph.value_iteration(pb).V
        out = graph.normalize_self_costs(pb)
        assert graph.validate(out) == []
        got = graph.value_iteration(out).V
        assert np.allclose(got, ref, atol=1e-12)

    def test_rejects_unrecoverable(self):
        pb = fig1a()
        pb.K[(0, 0)] = 10.0
        pb.K[(1, 1)] = 10.0
        with pytest.raises(ValueError):
            graph.normalize_self_costs(pb)


class TestInfiniteHorizonConversion:
    def test_uniform_costs(self):
        # Ktilde_ii = c, Ktilde_ij = c + d, alpha = 0.5 -> q = 2c, K_ij = d
        c, d = 2.0, 1.5
        adjacency = [[0, 1], [0, 1]]
        Kt = {(0, 0): c, (1, 1): c, (0, 1): c + d, (1, 0): c + d}
        pb = graph.from_infinite_horizon(Kt, adjacency, alpha=0.5)
        assert pb.uniform_p() == 0.5
        assert np.allclose(pb.q, 2 * c)
        assert pb.K[(0, 1)] == pytest.approx(d)

    def test_diagonal_zero(self):
        adjacency = [[0, 1], [0, 1]]
        Kt = {(0, 0): 0.0, (1, 1): 0.0, (0, 1): 2.0, (1, 0): 3.0}
        pb = graph.from_infinite_horizon(Kt, adjacency, alpha=0.5)
        assert np.allclose(pb.q, 0.0)
        assert pb.K[(0, 1)] == 2.0 and pb.K[(1, 0)] == 3.0

    def test_round_trip(self):
        adjacency = [[0, 1], [0, 1]]
        Kt = {(0, 0): 1.0, (1, 1): 2.0, (0, 1): 4.0, (1, 0): 5.0}
        pb = graph.from_infinite_horizon(Kt, adjacency, alpha=0.3)
        back, alpha = graph.to_infinite_horizon(pb)
        assert alpha == pytest.approx(0.3)
        for e, v in Kt.items():
            assert back[e] == pytest.approx(v)

    def test_rejects_negative_cost(self):
        adjacency = [[0, 1], [0, 1]]
        Kt = {(0, 0): 0.0, (1, 1): 10.0, (0, 1): 0.1, (1, 0): 0.1}
        with pytest.raises(ValueError):
            graph.from_infinite_horizon(Kt, adjacency, alpha=0.5)


class TestValueIteration:
    def test_two_node_cycle(self):
        # costly self-loops, optimal path loops forever: V = 1/p
        pb = fig1a()
        pb.K[(0, 0)] = 10.0
        pb.K[(1, 1)] = 10.0
        sol = graph.value_iteration(pb)
        assert sol.status == "ok"
        assert np.allclose(sol.V, 2.0, atol=1e-10)

    def test_fig1b(self):
        sol = graph.value_iteration(fig1b(0.05))
        assert np.allclose(sol.V, [0.5, 0.0, 0.0], atol=1e-12)

    def test_fig2(self):
        sol = graph.value_iteration(fig2(0.25))
        assert np.allclose(sol.V, [4.0, 1.0, 0.0], atol=1e-12)

    def test_node_without_out_edges(self):
        # node 2 has no edges: V_2 = inf from the first sweep on, and the
        # nan change inf - inf of later sweeps is skipped, not taken as
        # nonconvergence; V_1 climbs back to q_1 = 4 geometrically
        pb = make_graph([6.0, 4.0, 0.0], [(0, 1, 1.0), (1, 2, 1.0)], 0.5)
        pb.adjacency[2] = []
        sol = graph.value_iteration(pb)
        assert sol.V[:2] == pytest.approx([5.0, 4.0], abs=1e-12)
        assert sol.V[2] == math.inf
        assert sol.status == "ok" and sol.iterations == 46

    def test_missing_p_rejected(self):
        pb = fig2(0.5)
        del pb.p[(0, 1)]
        with pytest.raises(ValueError, match=r"edge \(0,1\)"):
            graph.value_iteration(pb)

    def test_nonconvergence_status(self):
        pb = fig1a()
        pb.K[(0, 0)] = 10.0
        pb.K[(1, 1)] = 10.0
        sol = graph.value_iteration(pb, max_iters=3)
        assert sol.status == "not_converged"
        assert sol.iterations == 3


class TestLabelSetting:
    def test_two_node_example(self):
        pb = make_graph([10.0, 1.0], [(0, 1, 2.0), (1, 0, 2.0)], 0.5)
        sol = graph.dijkstra_solve(pb)
        assert sol.V[1] == 1.0 and sol.motionless[1]
        assert sol.V[0] == pytest.approx(3.0)
        dial = graph.dial_solve(pb)
        assert np.allclose(dial.V, sol.V)

    def test_constant_q(self):
        pb = make_graph([3.0] * 4, [(i, (i + 1) % 4, 1.0) for i in range(4)], 0.3)
        sol = graph.dijkstra_solve(pb)
        assert np.allclose(sol.V, 3.0)
        assert sol.motionless.all()

    def test_sees_edited_cost(self):
        # the edge table is derived per solve, so dict edits reach it
        pb = make_graph([10.0, 1.0], [(0, 1, 2.0), (1, 0, 2.0)], 0.5)
        assert graph.dijkstra_solve(pb).V[0] == 3.0
        pb.K[(0, 1)] = 4.0
        assert graph.dijkstra_solve(pb).V[0] == 5.0

    def test_rejects_invalid(self):
        pb = fig1a()
        pb.K[(0, 0)] = 10.0
        with pytest.raises(ValueError):
            graph.dijkstra_solve(pb)

    def test_dial_rejects_zero_delta(self):
        with pytest.raises(ValueError):
            graph.dial_solve(fig1b(0.5))  # all costs zero -> delta 0

    def test_dial_single_node(self):
        pb = make_graph([4.0], [], 0.5)
        pb.delta = 1.0  # vacuous: no non-self edges
        sol = graph.dial_solve(pb)
        assert sol.V[0] == 4.0

    def test_seed_all_agrees(self, random_problem):
        a = graph.dijkstra_solve(random_problem)
        b = graph.dijkstra_solve(random_problem, seed_all=True)
        assert np.abs(a.V - b.V).max() == 0.0

    def test_acceptance_order_nondecreasing(self, random_problem):
        sol = graph.dijkstra_solve(random_problem)
        vals = sol.V[sol.acceptance_order]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_acceptance_order_causality(self, random_problem):
        # every moving node's successor is at least delta cheaper and was
        # accepted before it
        sol = graph.dijkstra_solve(random_problem)
        rank = np.empty(random_problem.node_count, dtype=int)
        rank[sol.acceptance_order] = np.arange(len(sol.acceptance_order))
        for i in np.flatnonzero(~sol.motionless):
            j = sol.policy[i]
            assert sol.V[i] >= sol.V[j] + random_problem.delta - 1e-9
            assert rank[j] < rank[i]

    def test_dial_equals_dijkstra(self, random_problem):
        a = graph.dijkstra_solve(random_problem)
        b = graph.dial_solve(random_problem)
        assert np.array_equal(a.V, b.V)
        assert np.array_equal(a.policy, b.policy)

    def test_dial_tiny_delta(self, tmp_path):
        # 6 / 1e-9 bucket widths: a bucket array would need 6e9 lists
        f = tmp_path / "tiny.txt"
        f.write_text("nodes 3\np 0.5\nq 0 5\nq 1 3\nq 2 0\n"
                     "edge 0 1 1e-9\nedge 1 2 1\n")
        pb = load_graph(str(f))
        assert pb.delta == 1e-9
        dial = graph.dial_solve(pb)
        assert np.array_equal(dial.V, graph.dijkstra_solve(pb).V)

    def test_deterministic(self, random_problem):
        a = graph.dijkstra_solve(random_problem)
        b = graph.dijkstra_solve(random_problem)
        assert np.array_equal(a.acceptance_order, b.acceptance_order)


class TestLimits:
    def test_v0_fig2(self):
        assert np.allclose(graph.solve_v0(fig2(0.5)), [2.0, 1.0, 0.0])

    def test_v1_fig2(self):
        assert np.allclose(graph.solve_v1(fig2(0.5)), [10.0, 1.0, 0.0])

    def test_constant_q(self):
        pb = make_graph([2.0] * 3, [(0, 1, 1.0), (1, 2, 1.0)], 0.5)
        assert np.allclose(graph.solve_v0(pb), 2.0)
        assert np.allclose(graph.solve_v1(pb), 2.0)

    def test_sandwich(self, random_problem):
        v0 = graph.solve_v0(random_problem)
        v1 = graph.solve_v1(random_problem)
        for p in (0.1, 0.5, 0.9):
            pb = random_graph_problem(0, nodes=60, degree=5, p_range=(p, p))
            sol = graph.dijkstra_solve(pb)
            w0 = graph.solve_v0(pb)
            w1 = graph.solve_v1(pb)
            assert np.all(w0 <= sol.V + 1e-9)
            assert np.all(sol.V <= w1 + 1e-9)
        assert np.all(v0 <= v1 + 1e-12)

    def test_v1_limit(self):
        base = random_graph_problem(7, nodes=40, degree=4)
        v1 = graph.solve_v1(base)
        prev = math.inf
        for k in (2, 4, 8):
            pb = random_graph_problem(7, nodes=40, degree=4,
                                      p_range=(1 - 10.0 ** -k,) * 2)
            gap = np.abs(graph.dijkstra_solve(pb).V - v1).max()
            assert gap <= prev + 1e-12
            prev = gap
        assert prev <= 1e-6

    def test_p_monotonicity(self):
        prev = None
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            pb = random_graph_problem(3, nodes=50, degree=4, p_range=(p, p))
            V = graph.dijkstra_solve(pb).V
            if prev is not None:
                assert np.all(prev <= V + 1e-10)
            prev = V

    def test_motionless_nesting(self):
        sets = []
        for p in (0.2, 0.5, 0.8):
            pb = random_graph_problem(11, nodes=50, degree=4, p_range=(p, p))
            sets.append(graph.dijkstra_solve(pb).motionless)
        assert np.all(sets[0] <= sets[1])
        assert np.all(sets[1] <= sets[2])

    def test_minima_memberships(self, random_problem):
        # global minima of q are motionless already at p -> 0; local minima
        # at p -> 1
        v0 = graph.solve_v0(random_problem)
        for g in random_problem.global_minima():
            assert v0[g] == random_problem.q[g]
        v1 = graph.solve_v1(random_problem)
        for l in random_problem.local_minima():
            assert v1[l] == pytest.approx(random_problem.q[l])

    def test_m1_strict(self):
        pb = fig2(0.5)
        diag = graph.m1_strict(pb)
        # node 0 is motionless in the p->1 limit but not strictly so
        assert 0 not in diag
        assert 1 not in diag  # q_1 = 9 = K_12 + q_2 with C=1... strict check
        pb2 = fig2(0.5, C=9.5)
        assert 1 in graph.m1_strict(pb2)


class TestPaths:
    def test_fig1b_path(self):
        sol = graph.dijkstra_solve(fig1b(0.05))
        assert graph.extract_path(sol, 0) == [0, 1, 2]

    def test_motionless_start(self):
        sol = graph.dijkstra_solve(fig1b(0.05))
        assert graph.extract_path(sol, 2) == [2]

    def test_path_cost_immediate(self):
        pb = fig1b(0.05)
        assert graph.path_cost(pb, [1]) == 10.0

    def test_path_cost_fig1b(self):
        pb = fig1b(0.1)
        assert graph.path_cost(pb, [0, 1, 2]) == pytest.approx(1.0)

    def test_path_cost_two_node(self):
        pb = make_graph([10.0, 1.0], [(0, 1, 2.0), (1, 0, 2.0)], 0.5)
        assert graph.path_cost(pb, [0, 1]) == pytest.approx(3.0)

    def test_path_cost_matches_value(self, random_problem):
        sol = graph.dijkstra_solve(random_problem)
        for start in range(0, random_problem.node_count, 7):
            path = graph.extract_path(sol, start)
            assert len(path) <= random_problem.node_count
            cost = graph.path_cost(random_problem, path)
            assert cost == pytest.approx(sol.V[start], abs=1e-9)

    def test_invalid_transition_rejected(self):
        pb = fig1b(0.5)
        with pytest.raises(ValueError):
            graph.path_cost(pb, [2, 0])


class TestObstacleBound:
    def test_v_below_q(self, random_problem):
        for solver in (graph.dijkstra_solve, graph.dial_solve,
                       graph.value_iteration):
            sol = solver(random_problem)
            assert np.all(sol.V <= random_problem.q + 1e-12)
