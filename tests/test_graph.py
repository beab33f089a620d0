import glob
import logging
import math
import os
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randterm import graph, idle, io, native
from randterm.cli import random_graph_problem
from randterm.io import load_graph

from conftest import (SCENARIOS, bit_equal, both_paths, fig1b, fig2,
                      make_graph)


def fig1a():
    return make_graph([0.0, 0.0], [(0, 1, 1.0), (1, 0, 1.0)], 0.5)


def drop_edge(pb, i, j):
    """pb without its edge (i, j)."""
    keep = np.arange(len(pb.dst)) != pb.edge(i, j)
    indptr = pb.indptr - (np.arange(len(pb.indptr)) > i)
    return graph.GraphProblem(pb.node_count, indptr, pb.dst[keep], pb.K[keep],
                              pb.p[keep], pb.q)


class TestGraphProblem:
    def test_from_edges_rows(self):
        # rows in the order given, a row without edges included
        pb = graph.GraphProblem.from_edges(3, [0, 0, 2], [1, 0, 2],
                                           [2.0, 0.0, 0.0], [0.5, 0.25, 0.5],
                                           [1.0, 2.0, 3.0])
        assert pb.indptr.tolist() == [0, 2, 2, 3]
        assert pb.dst.tolist() == [1, 0, 2]
        assert pb.src.tolist() == [0, 0, 2]
        assert pb.K.tolist() == [2.0, 0.0, 0.0]
        assert pb.p.tolist() == [0.5, 0.25, 0.5]
        assert pb.edge(0, 0) == 1 and pb.edge(2, 2) == 2
        assert pb.edge(1, 0) is None and pb.edge(0, 2) is None

    def test_from_edges_refuses_unsorted_or_outside_sources(self):
        # edges (1,1) (0,0) (0,1) (1,0) with K 0, 0, 1, 1 would land as the
        # rows (0,1,0) (0,0,0) | (1,1,1) (1,0,1): V = [1, 2], not [1, 0]
        p, q = [0.5] * 4, [1.0, 0.0]
        with pytest.raises(ValueError, match="nondecreasing"):
            graph.GraphProblem.from_edges(2, [1, 0, 0, 1], [1, 0, 1, 0],
                                          [0.0, 0.0, 1.0, 1.0], p, q)
        pb = graph.GraphProblem.from_edges(2, [0, 0, 1, 1], [0, 1, 0, 1],
                                           [0.0, 1.0, 1.0, 0.0], p, q)
        assert graph.value_iteration(pb).V.tolist() == [1.0, 0.0]
        for src in ([0, 0, 1, 5], [-1, 0, 1, 1]):
            with pytest.raises(ValueError, match=r"in \[0, 2\)"):
                graph.GraphProblem.from_edges(2, src, pb.dst, pb.K, p, q)

    @pytest.mark.parametrize("args, message", [
        # a dst out of range: value_iteration died with an IndexError
        ((2, [0, 1, 2], [0, 5], [0.0, 0.0], [0.5, 0.5], [1.0, 1.0]),
         "CSR rows over 2 nodes"),
        # a K longer than dst: it used to solve
        ((1, [0, 1], [0], [0.0, 0.0], [0.5], [1.0]), "CSR rows over 1 nodes"),
        ((1, [0, 1], [0], [0.0], [0.5, 0.5], [1.0]), "CSR rows over 1 nodes"),
        ((2, [0, 2, 1], [0, 1], [0.0, 0.0], [0.5, 0.5], [1.0, 1.0]),
         "CSR rows over 2 nodes"),
        ((2, [0, 1], [0], [0.0], [0.5], [1.0, 1.0]), r"indptr must hold 2 \+"),
        ((1, [0, 1], [0], [0.0], [0.5], [1.0, 2.0]), "and q 1$"),
        ((2, [0, 1, 2], [0, 1], [0.0, 0.0], [0.5, 0.5], [[1.0, 1.0]]),
         "and q 2$")])
    def test_refuses_arrays_that_are_not_rows(self, args, message):
        with pytest.raises(ValueError, match=message):
            graph.GraphProblem(*args)

    def test_from_edges_refuses_a_dst_out_of_range(self):
        with pytest.raises(ValueError, match="CSR rows over 2 nodes"):
            graph.GraphProblem.from_edges(2, [0, 1], [0, 5], [0.0, 0.0],
                                          [0.5, 0.5], [1.0, 1.0])

    def test_local_minima(self, random_problem):
        pb = random_problem
        q, src, dst = pb.q, pb.src, pb.dst
        expect = [i for i in range(pb.node_count)
                  if all(q[i] <= q[j] for j in dst[src == i])]
        assert pb.local_minima() == expect
        # no out-edges: vacuously minimal; a nan neighbour: not minimal
        flat = graph.GraphProblem(3, [0, 1, 1, 2], [1, 0], [1.0, 1.0],
                                  [0.5, 0.5], [1.0, math.nan, 0.0])
        assert flat.local_minima() == [1, 2]

    def test_uniform_p(self):
        assert fig2(0.25).uniform_p() == 0.25
        pb = fig2(0.25)
        pb.p[pb.edge(0, 1)] = 0.5
        assert pb.uniform_p() is None

    @pytest.mark.parametrize("lo, hi", [(0, 5), (-3, 40), (0, 2 ** 31 - 2),
                                        (0, 2 ** 31), (0, 2 ** 36),
                                        (-2 ** 63, 2 ** 63 - 1)])
    def test_sort_edges_is_lexsort(self, rng, lo, hi):
        # indices from files: any int64, duplicates and file order included
        for size in (0, 1, 200):
            src, dst = (np.sort(rng.integers(lo, hi, size, endpoint=True))
                        for _ in range(2))
            src[::3] = rng.permutation(src[::3])
            order, again = graph.sort_edges(src, dst)
            assert np.array_equal(order, np.lexsort((dst, src)))
            pairs = list(zip(src[order].tolist(), dst[order].tolist()))
            assert again.tolist() == [k for k in range(1, size)
                                      if pairs[k] == pairs[k - 1]]


class TestValidate:
    def test_valid_two_node(self):
        pb = make_graph([1.0, 2.0], [(0, 1, 2.0), (1, 0, 2.0)], 0.5)
        assert graph.validate(pb) == []

    def test_missing_self_loop(self):
        pb = drop_edge(fig1a(), 0, 0)
        issues = graph.validate(pb)
        assert any("A1" in m and "0" in m for m in issues)

    def test_nonzero_self_cost(self):
        pb = fig1a()
        pb.K[pb.edge(0, 0)] = 10.0
        assert any("A2" in m for m in graph.validate(pb))

    def test_p_out_of_range(self):
        pb = fig1a()
        pb.p[pb.edge(0, 1)] = 1.0
        assert any("p out of (0,1)" in m for m in graph.validate(pb))

    def test_cost_below_delta(self):
        # delta is the smallest non-self cost, and A3 needs it >= 0
        pb = fig2(0.5)
        assert pb.delta == 1.0
        pb.K[pb.edge(1, 2)] = -0.5
        assert pb.delta == -0.5
        assert graph.validate(pb) == ["A3 edge (1,2) cost -0.5 not >= 0"]

    def test_delta_of_the_costs(self):
        # nan wherever a nan cost sits, +inf without non-self edges, and
        # self-loop costs never count
        for order in ([(0, 1, math.nan), (1, 2, 1.0)],
                      [(1, 2, 1.0), (0, 1, math.nan)]):
            assert math.isnan(make_graph([0.0, 0.0, 0.0], order, 0.5).delta)
        pb = make_graph([0.0, 1.0], [], 0.5)
        assert pb.delta == math.inf
        pb.K[pb.edge(0, 0)] = -1.0
        assert pb.delta == math.inf

    def test_nan_cost(self):
        pb = fig2(0.5)
        pb.K[pb.edge(0, 1)] = math.nan
        assert any("A3" in m for m in graph.validate(pb))

    def test_all_violations_in_order(self):
        # nodes first (A1 or A2), then per edge in row order, A3
        # before p, then q; row 1 is deliberately unsorted and edge (2,0)
        # has no p
        pb = graph.GraphProblem(
            3, [0, 1, 4, 6], [1, 2, 1, 0, 0, 2],
            [1.0, -1.0, 3.0, math.nan, 1.0, 0.0],
            [0.5, 0.5, 0.5, 1.0, math.nan, 0.5], [0.0, 1.0, math.inf])
        assert math.isnan(pb.delta)
        assert graph.validate(pb) == [
            "A1 missing self-transition at node 0",
            "A2 nonzero self-cost at node 1",
            "A3 edge (1,2) cost -1 not >= 0",
            "A3 edge (1,0) cost nan not >= 0",
            "p out of (0,1) on edge (1,0)",
            "p out of (0,1) on edge (2,0)",
            "non-finite terminal cost",
        ]


class TestNormalizeSelfCosts:
    def test_identity_when_clean(self):
        pb = fig2(0.5)
        out = graph.normalize_self_costs(pb)
        assert np.allclose(out.q, pb.q)
        assert np.array_equal(out.K, pb.K)

    def test_single_node(self):
        pb = make_graph([3.0], [], 0.5)
        pb.K[pb.edge(0, 0)] = 2.0
        out = graph.normalize_self_costs(pb)
        assert out.q[0] == pytest.approx(7.0)
        assert out.K[out.edge(0, 0)] == 0.0
        sol = graph.value_iteration(out)
        assert sol.V[0] == pytest.approx(7.0)

    def test_value_preserved(self):
        # costly self-loops shifted into q must not change the value function
        pb = make_graph([5.0, 1.0], [(0, 1, 3.0), (1, 0, 3.0)], 0.5)
        pb.K[pb.edge(0, 0)] = 1.0
        ref = graph.value_iteration(pb).V
        out = graph.normalize_self_costs(pb)
        assert graph.validate(out) == []
        got = graph.value_iteration(out).V
        assert np.allclose(got, ref, atol=1e-12)

    def test_rejects_unrecoverable(self):
        pb = fig1a()
        pb.K[pb.edge(0, 0)] = 10.0
        pb.K[pb.edge(1, 1)] = 10.0
        with pytest.raises(ValueError):
            graph.normalize_self_costs(pb)


class TestInfiniteHorizonConversion:
    # two nodes, each row (i, 0) (i, 1)
    indptr, dst = [0, 2, 4], [0, 1, 0, 1]

    def test_uniform_costs(self):
        # Ktilde_ii = c, Ktilde_ij = c + d, alpha = 0.5 -> q = 2c, K_ij = d
        c, d = 2.0, 1.5
        pb = graph.from_infinite_horizon(self.indptr, self.dst,
                                         [c, c + d, c + d, c], alpha=0.5)
        assert pb.uniform_p() == 0.5
        assert np.allclose(pb.q, 2 * c)
        assert pb.K[pb.edge(0, 1)] == pytest.approx(d)

    def test_diagonal_zero(self):
        pb = graph.from_infinite_horizon(self.indptr, self.dst,
                                         [0.0, 2.0, 3.0, 0.0], alpha=0.5)
        assert np.allclose(pb.q, 0.0)
        assert pb.K[pb.edge(0, 1)] == 2.0 and pb.K[pb.edge(1, 0)] == 3.0

    def test_round_trip(self):
        Kt = [1.0, 4.0, 5.0, 2.0]
        pb = graph.from_infinite_horizon(self.indptr, self.dst, Kt, alpha=0.3)
        back, alpha = graph.to_infinite_horizon(pb)
        assert alpha == pytest.approx(0.3)
        assert back == pytest.approx(Kt)

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            graph.from_infinite_horizon(self.indptr, self.dst,
                                        [0.0, 0.1, 0.1, 10.0], alpha=0.5)

    @pytest.mark.parametrize("indptr, dst, Kt", [
        ([0, 2], [0], [1.0]), ([0, 1], [0], [1.0, 2.0]),
        ([0, 1, 2], [0, 5], [0.0, 0.0]), ([1, 2], [0], [0.0])])
    def test_rejects_arrays_that_are_not_rows(self, indptr, dst, Kt):
        with pytest.raises(ValueError, match="must form CSR rows over"):
            graph.from_infinite_horizon(indptr, dst, Kt, alpha=0.5)

    @staticmethod
    def discounted_values(src, dst, cost, node_count, alpha):
        """V_i = min_j { cost_ij + alpha V_j } over the edges (src, dst),
        iterated from V = 0 until it repeats: costs >= 0 make the iterates
        nondecreasing."""
        V = np.zeros(node_count)
        for _ in range(100000):
            new = np.full(node_count, np.inf)
            np.minimum.at(new, src, cost + alpha * V[dst])
            if np.array_equal(new, V):
                return V
            V = new
        raise AssertionError("discounted iteration did not settle")

    @staticmethod
    def costly_loops(seed, rng):
        """A random problem with a uniform p and a cost on every self-loop."""
        pb = random_graph_problem(seed, nodes=int(rng.integers(1, 30)),
                                  p_range=(rng.uniform(0.02, 0.98),) * 2)
        loops = pb.src == pb.dst
        pb.K[loops] = rng.uniform(0.0, 2.0, loops.sum())
        return pb

    def test_from_infinite_horizon_keeps_values(self, rng):
        # the paper's equivalence: the randomly-terminated problem has the
        # discounted problem's value function
        for seed in range(40):
            pb = self.costly_loops(seed, rng)
            src, dst, alpha = pb.src, pb.dst, rng.uniform(0.02, 0.98)
            # Ktilde_ij = Ktilde_jj + K_ij >= Ktilde_jj, so A3 survives
            Ktilde = pb.K[src == dst][dst] + np.where(src == dst, 0.0, pb.K)
            sol = graph.value_iteration(graph.from_infinite_horizon(
                pb.indptr, dst, Ktilde, alpha), tol=0)
            assert sol.status == "ok"
            ref = self.discounted_values(src, dst, Ktilde, pb.node_count,
                                         alpha)
            assert np.allclose(sol.V, ref, rtol=1e-13, atol=0)

    def test_to_infinite_horizon_keeps_values(self, rng):
        # one node, q = 3, K_00 = 2, p = 0.5: staying costs 2 + 0.5 * 3 a
        # step, discounted by 0.5, so V = 3.5 / 0.5 = 7 on both sides
        pb = make_graph([3.0], [], 0.5)
        pb.K[0] = 2.0
        Kt, alpha = graph.to_infinite_horizon(pb)
        assert Kt.tolist() == [3.5] and alpha == 0.5
        assert graph.value_iteration(pb).V[0] == pytest.approx(7.0)
        for seed in range(40):
            pb = self.costly_loops(seed, rng)
            Kt, alpha = graph.to_infinite_horizon(pb)
            sol = graph.value_iteration(pb, tol=0)
            assert sol.status == "ok"
            ref = self.discounted_values(pb.src, pb.dst, Kt, pb.node_count,
                                         alpha)
            assert np.allclose(sol.V, ref, rtol=1e-13, atol=0)

    def test_round_trips_keep_costs_and_values(self, rng):
        # problem -> (Ktilde, alpha) -> problem gives back Ktilde and V,
        # on the costly-loop problems whose shifted costs K_ij - K_jj stay
        # >= 0 (normalize_self_costs refuses the others)
        for seed in range(40):
            pb = self.costly_loops(seed, rng)
            moves = pb.src != pb.dst
            pb.K[moves] += pb.K[~moves][pb.dst[moves]]
            Kt, alpha = graph.to_infinite_horizon(pb)
            back = graph.from_infinite_horizon(pb.indptr, pb.dst, Kt, alpha)
            again, alpha_again = graph.to_infinite_horizon(back)
            assert np.allclose(again, Kt, rtol=1e-13, atol=0)
            assert alpha_again == pytest.approx(alpha, rel=1e-13)
            V, ref = (graph.value_iteration(a, tol=0).V for a in (back, pb))
            assert np.allclose(V, ref, rtol=1e-13, atol=0)


class TestValueIteration:
    def test_two_node_cycle(self):
        # costly self-loops, optimal path loops forever: V = 1/p
        pb = fig1a()
        pb.K[pb.edge(0, 0)] = 10.0
        pb.K[pb.edge(1, 1)] = 10.0
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
        pb = drop_edge(pb, 2, 2)
        sol = graph.value_iteration(pb)
        assert sol.V[:2] == pytest.approx([5.0, 4.0], abs=1e-12)
        assert sol.V[2] == math.inf
        assert sol.status == "ok" and sol.iterations == 46

    def test_missing_p_rejected(self):
        pb = fig2(0.5)
        pb.p[pb.edge(0, 1)] = math.nan
        with pytest.raises(ValueError, match=r"edge \(0,1\)"):
            graph.value_iteration(pb)

    def test_nonconvergence_status(self):
        pb = fig1a()
        pb.K[pb.edge(0, 0)] = 10.0
        pb.K[pb.edge(1, 1)] = 10.0
        sol = graph.value_iteration(pb, max_iters=3)
        assert sol.status == "not_converged"
        assert sol.iterations == 3

    def test_nonconvergence_logged_once(self, caplog):
        pb = fig1a()
        pb.K[pb.edge(0, 0)] = 10.0
        pb.K[pb.edge(1, 1)] = 10.0
        with caplog.at_level(logging.WARNING, logger="randterm"):
            graph.value_iteration(pb, max_iters=3)
        [record] = caplog.records
        assert record.name == "randterm"
        assert "did not converge after 3 iterations" in record.getMessage()


class TestLabelSetting:
    def test_two_node_example(self):
        pb = make_graph([10.0, 1.0], [(0, 1, 2.0), (1, 0, 2.0)], 0.5)
        sol = graph.dijkstra_solve(pb)
        assert sol.V[1] == 1.0 and sol.motionless[1]
        assert sol.V[0] == pytest.approx(3.0)
        dial = graph.dial_solve(pb)
        assert np.allclose(dial.V, sol.V)

    def test_heap_operations(self):
        # seed 2 (push 1); accepting 2 improves 0 to 4 and 1 to 1 (pushes 2,
        # 3) and reaches Far node 3 at its q = 0.2 (push 4); 3 and then 1 are
        # accepted, 1 improves 0 to 3.5 (push 5); 0 is accepted and its
        # entry at 4 is popped stale: 5 pushes and 5 pops, in Dial's bucket
        # order (width 0.5) too
        pb = make_graph([10.0, 5.0, 0.0, 0.2],
                        [(0, 1, 0.5), (1, 2, 1.0), (0, 2, 4.0), (3, 2, 1.0)],
                        0.5)
        for solve in (graph.dijkstra_solve, graph.dial_solve):
            sol = solve(pb)
            assert sol.V.tolist() == [3.5, 1.0, 0.0, 0.2]
            assert sol.acceptance_order.tolist() == [2, 3, 1, 0]
            assert sol.heap_operations == 10
        assert graph.value_iteration(pb).heap_operations == 0

    def test_constant_q(self):
        pb = make_graph([3.0] * 4, [(i, (i + 1) % 4, 1.0) for i in range(4)], 0.3)
        sol = graph.dijkstra_solve(pb)
        assert np.allclose(sol.V, 3.0)
        assert sol.motionless.all()

    def test_sees_edited_cost(self):
        # the edge arrays are the storage, so an edit reaches the next solve
        pb = make_graph([10.0, 1.0], [(0, 1, 2.0), (1, 0, 2.0)], 0.5)
        assert graph.dijkstra_solve(pb).V[0] == 3.0
        pb.K[pb.edge(0, 1)] = 4.0
        assert graph.dijkstra_solve(pb).V[0] == 5.0

    def test_rejects_invalid(self):
        pb = fig1a()
        pb.K[pb.edge(0, 0)] = 10.0
        with pytest.raises(ValueError):
            graph.dijkstra_solve(pb)

    def test_dial_rejects_zero_delta(self):
        with pytest.raises(ValueError):
            graph.dial_solve(fig1b(0.5))  # all costs zero -> delta 0

    def test_dial_single_node(self):
        # no non-self edges: delta is +inf, one bucket, and V = q
        for q in ([4.0], [4.0, 1.0, 2.0]):
            pb = make_graph(q, [], 0.5)
            assert pb.delta == math.inf
            sol = graph.dial_solve(pb)
            assert sol.V.tolist() == q and sol.motionless.all()

    def test_seed_all_agrees(self, random_problem):
        # the seed set cannot change V: seeding every node, not just the
        # local minima of q, gives the same values
        a = graph.dijkstra_solve(random_problem)
        b = graph._label_solve(random_problem,
                               range(random_problem.node_count))
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

    def test_dial_refuses_infinite_bucket_index(self):
        # (10 - 0) / 5e-324 overflows: no bucket index exists for q = 10
        pb = make_graph([0.0, 10.0, 1.0], [(2, 0, 5e-324)], 0.5)
        with pytest.raises(ValueError, match="delta = inf is not finite"):
            graph.dial_solve(pb)
        assert graph.dijkstra_solve(pb).V.tolist() == [0.0, 10.0, 5e-324]

    def test_dial_buckets_nondecreasing(self, random_problem):
        # buckets are accepted in order; within one the order is not by index
        sol = graph.dial_solve(random_problem)
        base, delta = random_problem.q.min(), random_problem.delta
        keys = [int((v - base) / delta)
                for v in sol.V[sol.acceptance_order].tolist()]
        assert keys == sorted(keys)

    def test_deterministic(self, random_problem):
        a = graph.dijkstra_solve(random_problem)
        b = graph.dijkstra_solve(random_problem)
        assert np.array_equal(a.acceptance_order, b.acceptance_order)


def scenario_problems():
    """(name, problem) of every graph and idle file in scenarios/, the graph
    files with p 0.5 where they give none and with p 0.3 on every edge."""
    for path in sorted(glob.glob(os.path.join(SCENARIOS, "*.txt"))):
        name = os.path.basename(path)
        with open(path, "rb") as fh:
            data = fh.read()
        if io.is_idle_scenario(path, data):
            yield name, idle.build_problem(io.load_idle(path, data))
            continue
        yield name, load_graph(path, default_p=0.5)
        pb = load_graph(path, default_p=0.3)
        pb.p[:] = 0.3
        yield name + " p 0.3", pb


@pytest.mark.usefixtures("compiled_march")
class TestCompiledLabelSetting:
    """dijkstra_solve, dial_solve and solve_v0 through label() of march.c
    give the Python loop's V bit for bit, and its acceptance order, heap
    operations and policy."""

    @staticmethod
    def check(pb):
        """Compare the paths on pb; the number of solvers (of dijkstra and
        dial) that did not refuse it."""
        def run(solve):
            try:
                return solve(pb)
            except ValueError as exc:  # A1-A3 or delta refused
                return str(exc)

        solved = 0
        for solve in (graph.dijkstra_solve, graph.dial_solve):
            compiled, python = both_paths(lambda: run(solve))
            if isinstance(compiled, str):
                assert compiled == python
                continue
            assert bit_equal(compiled.V, python.V)
            assert (compiled.acceptance_order.tolist()
                    == python.acceptance_order.tolist())
            assert compiled.heap_operations == python.heap_operations
            assert np.array_equal(compiled.policy, python.policy)
            assert np.array_equal(compiled.motionless, python.motionless)
            solved += 1
        if solved:
            assert bit_equal(*both_paths(lambda: graph.solve_v0(pb)))
        return solved

    def test_scenarios(self):
        solved = [name for name, pb in scenario_problems() if self.check(pb)]
        assert "idle_ring.txt" in solved and len(solved) >= 4

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed):
        assert self.check(random_graph_problem(seed, nodes=300)) == 2

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.integers(0, 3)), max_size=3 * n),
        st.sampled_from([0.25, 0.5, 0.75]))))
    def test_integer_costs(self, case):
        # integer q and K make many equal values and keys, so the index
        # breaks the heap's ties; a zero cost makes dial refuse the problem
        q, edges, p = case
        self.check(make_graph([float(v) for v in q],
                              [(i, j, float(k)) for i, j, k in edges if i != j],
                              p, node_count=len(q)))

    def test_dial_keys_past_two_to_the_53(self):
        # delta 1e-300 puts the bucket indices near 1e300: exact integers in
        # a double, so the C key orders as Python's int() key
        pb = random_graph_problem(5, nodes=300)
        pb.K[np.flatnonzero(pb.src != pb.dst)[7]] = 1e-300
        assert pb.delta == 1e-300
        sol = graph.dial_solve(pb)
        keys = [int((v - pb.q.min()) / pb.delta) for v in sol.V.tolist()]
        assert max(keys) > 2 ** 900 and len(set(keys)) > 250
        assert self.check(pb) == 2
        assert np.array_equal(sol.V, graph.dijkstra_solve(pb).V)

    def test_dial_one_bucket(self):
        # q spans less than delta, so every key is bucket 0 and the index
        # alone orders the pops of dial_solve
        pb = random_graph_problem(6, nodes=300)
        pb.q[:] = np.random.default_rng(6).uniform(0.0, 0.9 * pb.delta, 300)
        sol = graph.dial_solve(pb)
        assert {int((v - pb.q.min()) / pb.delta) for v in sol.V} == {0}
        assert sol.acceptance_order.size == 300
        assert self.check(pb) == 2

    def test_bad_arrays_raise(self):
        pb = make_graph([1.0, 0.0], [(0, 1, 1.0)], 0.5)
        const, surv = graph._terms(pb)

        def run(seeds, dst=pb.dst, V=pb.q):
            return graph._label_setting(pb.indptr, dst, const, surv, V, seeds)

        for seeds in ([2], [-1]):
            with pytest.raises(ValueError, match="CSR rows over 2 nodes"):
                run(seeds)
        with pytest.raises(ValueError, match="CSR rows over 2 nodes"):
            run([0], dst=[0, 5, 1])
        with pytest.raises(ValueError, match="one start value per node"):
            run([0], V=[1.0])

    def test_allocation_failure_is_memory_error(self, monkeypatch):
        monkeypatch.setattr(native, "library", lambda: types.SimpleNamespace(
            label=lambda *args: -1, distance_mix=lambda *args: -1))
        with pytest.raises(MemoryError):
            graph.dijkstra_solve(fig2(0.5))
        with pytest.raises(MemoryError):
            graph.distance_mix([0, 1, 1], [1], [1.0], [1], [1.0])


class TestDistanceMix:
    """graph.distance_mix, through distance_mix() of march.c and through
    the Python loop."""

    # 0 -> 1 (2), 1 -> 2 (3) and a self-loop at 0, which is never taken
    CHAIN = ([0, 2, 3, 3], [0, 1, 2], [5.0, 2.0, 3.0])

    def test_weighted_distances(self):
        # d(., 2) = (5, 3, 0) and d(., 1) = (2, 0, inf)
        for q in both_paths(lambda: graph.distance_mix(
                *self.CHAIN, [2, 1], [0.5, 0.5])):
            assert q.tolist() == [3.5, 1.5, math.inf]

    def test_zero_weight_is_skipped(self):
        # 0 * inf would be nan at node 2
        for q in both_paths(lambda: graph.distance_mix(
                *self.CHAIN, [2, 1], [1.0, 0.0])):
            assert q.tolist() == [5.0, 3.0, 0.0]

    @pytest.mark.parametrize("case, match", [
        (dict(length=[5.0, -2.0, 3.0]), ">= 0"),
        (dict(length=[5.0, math.nan, 3.0]), ">= 0"),
        (dict(targets=[3]), "CSR rows over 3 nodes"),
        (dict(targets=[-1]), "CSR rows over 3 nodes"),
        (dict(weights=[1.0, 0.0]), "one weight per target")])
    def test_bad_arguments_raise(self, case, match):
        # checked before either path runs
        args = dict(zip(("indptr", "dst", "length"), self.CHAIN),
                    targets=[2], weights=[1.0])
        with pytest.raises(ValueError, match=match):
            graph.distance_mix(**{**args, **case})


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
        q = random_problem.q
        for g in np.flatnonzero(q == q.min()).tolist():
            assert v0[g] == q[g]
        v1 = graph.solve_v1(random_problem)
        for l in random_problem.local_minima():
            assert v1[l] == pytest.approx(random_problem.q[l])


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
