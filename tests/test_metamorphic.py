"""Exact metamorphic relations: the solvers respect the symmetries of their
problems bit for bit, on the compiled library and on the Python twins.

- Scaling K and q by 2 scales V by 2, and halving the speed f doubles
  eikonal_solve's travel times.  Every operation of the updates is
  homogeneous (sums, products by the unscaled p, f, h and lambda, square
  roots of 4x, (f / 2) / h, the bucket (2v - 2 base) / (2 delta)), and a
  power of two changes no rounding, so the relations hold exactly.  Value
  iteration stops on an absolute change, so a scaled problem could stop a
  sweep apart; on these graphs both reach the fixed point exactly.
- Renaming the nodes of a graph renames dijkstra_solve's V.  Heap ties
  between equal keys break on the node index, so the acceptance order may
  change, but a node's value is the least of the same candidate values.
- Transposing or mirroring every field of a grid problem transposes or
  mirrors fmm_solve's V: the stencil and the quadrant update treat the two
  axes and both directions alike.
- sweep_oracle, which runs in Python only, gives 2V under the same scaling
  in the same number of sweeps, and V.T when every field is transposed.  It
  too stops on an absolute change, but on the four JSON scenarios at 41^2
  (and 81^2) its last sweep changes nothing, so the tolerance never
  decides.  Transposing swaps the roles of the sweep orders, which may
  take a sweep more to the same V (maze: 8 against 7).

These guard the index arithmetic of both twins on graphs and grid sizes
that no golden digest pins.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randterm import graph, io
from randterm.cli import random_graph_problem
from randterm.eikonal import eikonal_solve
from randterm.graph import GraphProblem
from randterm.grid import GridProblem, fmm_solve, sweep_oracle

from conftest import JSON_SCENARIOS, bit_equal, both_paths, scenario

GRAPHS = settings(max_examples=20, deadline=None, derandomize=True,
                  database=None)
SEEDS = st.integers(0, 2 ** 32 - 1)


def scaled(pb, c):
    """The graph problem pb with K and q multiplied by c."""
    return GraphProblem(pb.node_count, pb.indptr, pb.dst, c * pb.K, pb.p,
                        c * pb.q)


def relabelled(pb, perm):
    """The graph problem pb with node i named perm[i]; each row keeps the
    order of its edges."""
    src = perm[pb.src]
    order = np.argsort(src, kind="stable")
    q = np.empty_like(pb.q)
    q[perm] = pb.q
    return GraphProblem.from_edges(pb.node_count, src[order],
                                   perm[pb.dst][order], pb.K[order],
                                   pb.p[order], q)


def mapped(pb, fn, scale=1.0):
    """The grid problem pb with fn applied to every field, and K and q
    multiplied by scale."""
    return GridProblem(grid=pb.grid, f=fn(pb.f), K=scale * fn(pb.K),
                       q=scale * fn(pb.q), lam=fn(pb.lam))


@pytest.mark.parametrize("value", [
    lambda pb: graph.dijkstra_solve(pb).V, lambda pb: graph.dial_solve(pb).V,
    graph.solve_v0, lambda pb: graph.value_iteration(pb).V],
    ids=["dijkstra", "dial", "v0", "vi"])
@GRAPHS
@given(seed=SEEDS)
def test_graph_scaling(value, seed):
    pb = random_graph_problem(seed, nodes=300)
    assert both_paths(lambda: bit_equal(value(scaled(pb, 2.0)),
                                        2.0 * value(pb))) == (True, True)


@GRAPHS
@given(seed=SEEDS)
def test_dijkstra_relabelling(seed):
    pb = random_graph_problem(seed, nodes=300)
    perm = np.random.default_rng([seed, 1]).permutation(pb.node_count)
    renamed = relabelled(pb, perm)
    assert both_paths(lambda: bit_equal(
        graph.dijkstra_solve(renamed).V[perm],
        graph.dijkstra_solve(pb).V)) == (True, True)


@pytest.mark.parametrize("name", JSON_SCENARIOS)
def test_grid_scaling_transpose_mirror(name):
    pb = io.load_grid_scenario(scenario(name), n=201)
    centre = (100, 100)

    def relations():
        V = fmm_solve(pb).V
        return [bit_equal(fmm_solve(mapped(pb, np.asarray, 2.0)).V, 2.0 * V),
                bit_equal(fmm_solve(mapped(pb, np.transpose)).V, V.T),
                bit_equal(fmm_solve(mapped(pb, np.fliplr)).V, np.fliplr(V)),
                bit_equal(eikonal_solve(pb.grid, pb.f / 2.0, centre),
                          2.0 * eikonal_solve(pb.grid, pb.f, centre))]

    assert both_paths(relations) == ([True] * 4,) * 2


@pytest.mark.parametrize("name", JSON_SCENARIOS)
def test_sweep_oracle_scaling_transpose(name):
    pb = io.load_grid_scenario(scenario(name), n=41)
    solution = sweep_oracle(pb)
    doubled = sweep_oracle(mapped(pb, np.asarray, 2.0))
    transposed = sweep_oracle(mapped(pb, np.transpose))
    assert solution.status == doubled.status == transposed.status == "ok"
    assert bit_equal(doubled.V, 2.0 * solution.V)
    assert doubled.iterations == solution.iterations
    assert bit_equal(transposed.V, solution.V.T)
