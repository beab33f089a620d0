"""Optimal idle-time repositioning: build a randomly-terminated graph problem
from travel times and a call-location distribution.

While idle, a vehicle may traverse edges taking time tau_ij; calls arrive as a
Poisson process with rate lam.  A transition commits the vehicle to complete
the edge, so a call arriving mid-edge waits for the remainder:

    K_ij = (exp(-lam tau_ij) - (1 - lam tau_ij)) / lam     (expected extra wait)
    p_ij = 1 - exp(-lam tau_ij)                            (call during the edge)

and the terminal cost q(x) is the expected travel time from x to the caller,
found by the label-setting loop of the graph solvers (graph.distance_mix).
Solving the resulting problem yields the minimal expected wait time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eikonal import check_call_probabilities
from .graph import GraphProblem, distance_mix

# placeholder only: self-loops are free and motionless nodes pay q directly,
# so no solver ever reads the self-loop probability
SELF_LOOP_P = 0.5


@dataclass
class IdleScenario:
    """Travel times and call distribution of an idle-time scenario: edges
    (src, dst) with traversal times tau, sorted by (i, j), each pair once and
    with a self-loop at every node (whose tau is never read); calls at
    call_nodes with probabilities call_probs, in call order."""

    node_count: int
    src: np.ndarray
    dst: np.ndarray
    tau: np.ndarray
    lam: float
    call_nodes: np.ndarray
    call_probs: np.ndarray

    def __post_init__(self):
        self.src, self.dst, self.call_nodes = (
            np.asarray(a, np.intp) for a in (self.src, self.dst, self.call_nodes))
        self.tau, self.call_probs = (np.asarray(a, float)
                                     for a in (self.tau, self.call_probs))
        if not 0 < self.lam < math.inf:  # nan too
            raise ValueError("call rate must be positive and finite")
        check_call_probabilities(self.call_probs)
        if not (self.src.shape == self.dst.shape == self.tau.shape
                and self.call_nodes.shape == self.call_probs.shape):
            raise ValueError("src, dst and tau need one entry per edge, and "
                             "call_nodes and call_probs one per call")
        for name in ("call_nodes", "src", "dst"):
            nodes = getattr(self, name)
            for k in np.flatnonzero((nodes < 0)
                                    | (nodes >= self.node_count))[:1].tolist():
                raise ValueError("%s[%d] = %d outside [0, %d)"
                                 % (name, k, nodes[k], self.node_count))
        for k in np.flatnonzero(np.diff(self.src) < 0)[:1].tolist():
            raise ValueError("src must be nondecreasing: src[%d] = %d after %d"
                             % (k + 1, self.src[k + 1], self.src[k]))
        for e in np.flatnonzero((self.src != self.dst)
                                & ~(self.tau > 0))[:1].tolist():
            raise ValueError("tau must be positive on edge (%d,%d)"
                             % (self.src[e], self.dst[e]))


def edge_wait_cost(tau, lam):
    """Expected extra wait (e^{-lam tau} - 1 + lam tau) / lam from committing
    to edges of durations tau (an array), by math.exp per element, as np.exp
    differs from libm in the last bits."""
    shape, tau = np.shape(tau), np.ravel(tau).astype(float)
    with np.errstate(over="ignore"):  # inf, as floats, past float range
        x = lam * tau
        out = (np.array([math.exp(-v) for v in x.tolist()]) - (1.0 - x)) / lam
    # the series keeps precision where e^{-x} - (1 - x) cancels
    small = x < 1e-4
    t, x = tau[small], x[small]
    out[small] = t * x / 2.0 * (1.0 - x / 3.0 + x * x / 12.0)
    return out.reshape(shape)


def all_pairs_times(scenario):
    """Matrix of minimal travel times; d[x, y] = min time from x to y,
    +inf for unreachable pairs (Floyd-Warshall)."""
    M = scenario.node_count
    d = np.full((M, M), np.inf)
    np.fill_diagonal(d, 0.0)
    moves = scenario.src != scenario.dst
    np.minimum.at(d, (scenario.src[moves], scenario.dst[moves]),
                  scenario.tau[moves])
    for k in range(M):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def expected_response_times(scenario):
    """q(x) = sum over call nodes of P * d(x, call node): graph.distance_mix
    over the moves (the label-setting loop of the solvers, run from each
    call node of nonzero probability), which adds the terms in call order.
    """
    moves = scenario.src != scenario.dst
    counts = np.bincount(scenario.src[moves], minlength=scenario.node_count)
    return distance_mix(np.append(0, np.cumsum(counts)), scenario.dst[moves],
                        scenario.tau[moves], scenario.call_nodes,
                        scenario.call_probs)


def build_problem(scenario):
    """Assemble the graph problem whose value function is the minimal expected
    wait time for the first call."""
    q = expected_response_times(scenario)
    if not np.all(np.isfinite(q)):
        raise ValueError("some node cannot reach a call location")
    src, dst = scenario.src, scenario.dst
    K, p = np.zeros(len(src)), np.full(len(src), SELF_LOOP_P)
    moves = np.flatnonzero(src != dst)
    tau = scenario.tau[moves]
    K[moves] = edge_wait_cost(tau, scenario.lam)
    p[moves] = [1.0 - math.exp(-scenario.lam * t) for t in tau.tolist()]
    return GraphProblem.from_edges(scenario.node_count, src, dst, K, p, q)
