"""Optimal idle-time repositioning: build a randomly-terminated graph problem
from travel times and a call-location distribution.

While idle, a vehicle may traverse edges taking time tau_ij; calls arrive as a
Poisson process with rate lam.  A transition commits the vehicle to complete
the edge, so a call arriving mid-edge waits for the remainder:

    K_ij = (exp(-lam tau_ij) - (1 - lam tau_ij)) / lam     (expected extra wait)
    p_ij = 1 - exp(-lam tau_ij)                            (call during the edge)

and the terminal cost q(x) is the expected travel time from x to the caller.
Solving the resulting problem yields the minimal expected wait time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import GraphProblem, sort_edges, tightest_delta

# placeholder only: self-loops are free and motionless nodes pay q directly,
# so no solver ever reads the self-loop probability
SELF_LOOP_P = 0.5


@dataclass
class IdleScenario:
    node_count: int
    adjacency: list  # out-neighbors per node, non-self edges
    tau: dict  # (i, j) -> traversal time > 0
    lam: float
    call_nodes: list
    call_probs: list

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("call rate must be positive")
        total = float(np.sum(self.call_probs))
        if abs(total - 1.0) > 1e-12 or not all(p >= 0 for p in self.call_probs):
            raise ValueError("call probabilities must be >= 0 and sum to 1 "
                             "(sum %g)" % total)
        for (i, j), t in self.tau.items():
            if i != j and not t > 0:
                raise ValueError("tau must be positive on edge (%d,%d)" % (i, j))


def edge_wait_cost(tau, lam):
    """Expected extra wait from committing to an edge of duration tau."""
    x = lam * tau
    if x < 1e-4:
        # series keeps precision where exp(-x) - (1 - x) cancels
        return tau * x / 2.0 * (1.0 - x / 3.0 + x * x / 12.0)
    return (math.exp(-x) - (1.0 - x)) / lam


def all_pairs_times(scenario):
    """Matrix of minimal travel times; d[x, y] = min time from x to y,
    +inf for unreachable pairs (Floyd-Warshall)."""
    M = scenario.node_count
    d = np.full((M, M), np.inf)
    np.fill_diagonal(d, 0.0)
    for (i, j), t in scenario.tau.items():
        if i != j and t < d[i, j]:
            d[i, j] = t
    for k in range(M):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def expected_response_times(scenario):
    """q(x) = sum over call nodes of P * d(x, call node).

    One scipy.sparse.csgraph Dijkstra call on the reversed travel-time graph
    gives d(., c) for every call node c of nonzero probability; the terms
    are added in call order.
    """
    # imported here so that importing randterm does not load csgraph
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    M = scenario.node_count
    calls = [(n, pr) for n, pr in zip(scenario.call_nodes, scenario.call_probs)
             if pr != 0]
    edges = [(i, j, t) for (i, j), t in scenario.tau.items() if i != j]
    src, dst, tau = zip(*edges) if edges else ((), (), ())
    reversed_tau = csr_matrix((tau, (dst, src)), shape=(M, M))
    dist = dijkstra(reversed_tau, indices=[n for n, _ in calls])
    q = np.zeros(M)
    for (_, prob), d in zip(calls, dist):
        q += prob * d
    return q


def build_problem(scenario):
    """Assemble the graph problem whose value function is the minimal expected
    wait time for the first call."""
    M = scenario.node_count
    q = expected_response_times(scenario)
    if not np.all(np.isfinite(q)):
        raise ValueError("some node cannot reach a call location")
    loops = np.arange(M)
    src = np.append(np.repeat(loops, [len(n) for n in scenario.adjacency]),
                    loops)
    dst = np.append(np.fromiter(chain.from_iterable(scenario.adjacency),
                                np.intp), loops)
    rows = np.delete(*sort_edges(src, dst))  # each (i, j) once
    src, dst = src[rows], dst[rows]
    K, p = np.zeros(len(src)), np.full(len(src), SELF_LOOP_P)
    moves = np.flatnonzero(src != dst)
    tau = [scenario.tau[e] for e in zip(src[moves].tolist(),
                                        dst[moves].tolist())]
    K[moves] = [edge_wait_cost(t, scenario.lam) for t in tau]
    p[moves] = [1.0 - math.exp(-scenario.lam * t) for t in tau]
    return GraphProblem.from_edges(M, src, dst, K, p, q,
                                   delta=tightest_delta(src, dst, K))
