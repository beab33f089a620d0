"""Randomly-terminated control problems on finite directed graphs.

A process moves along graph edges, paying a transition cost per edge, and is
killed after each transition with an edge-dependent probability, at which point
it pays the terminal cost of the node it just reached.  The value function
satisfies

    V_i = min_{j in N(i)} { K_ij + p_ij q_j + (1 - p_ij) V_j }.

Under the structural assumptions A1 (self-loops everywhere), A2 (free
self-transitions) and A3 (non-self transition costs bounded below by delta >= 0)
the system is causal and can be solved by label-setting (Dijkstra-like or
Dial-like) methods as well as by plain value iteration.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

MOTIONLESS_RTOL = 1e-12


@dataclass
class GraphProblem:
    """Directed graph with transition costs, terminal costs and kill probabilities.

    adjacency[i] lists the out-neighbors of node i (self-loops included when A1
    holds).  K and p are keyed by edge (i, j).  delta is the stored lower bound
    on non-self transition costs (assumption A3).
    """

    node_count: int
    adjacency: list
    K: dict
    q: np.ndarray
    p: dict
    delta: float = 0.0

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)

    def edges(self):
        for i, nbrs in enumerate(self.adjacency):
            for j in nbrs:
                yield i, j

    def uniform_p(self):
        """The common termination probability, or None if p varies by edge."""
        vals = set(self.p.values())
        if len(vals) == 1:
            return vals.pop()
        return None

    def local_minima(self):
        """Nodes whose terminal cost is <= that of every out-neighbor."""
        q = self.q.tolist()
        return [i for i, nbrs in enumerate(self.adjacency)
                if all(q[i] <= q[j] for j in nbrs)]

    def global_minima(self):
        qmin = self.q.min()
        return [i for i in range(self.node_count) if self.q[i] == qmin]


@dataclass
class GraphSolution:
    V: np.ndarray
    policy: np.ndarray
    motionless: np.ndarray
    acceptance_order: np.ndarray = None
    status: str = "ok"
    iterations: int = 0
    updates: int = 0  # improving updates made by label setting


def validate(problem):
    """Check assumptions A1-A3 and probability ranges; returns a list of violations."""
    issues = []
    M = problem.node_count
    for i in range(M):
        if i not in problem.adjacency[i]:
            issues.append("A1 missing self-transition at node %d" % i)
        elif problem.K.get((i, i), 0.0) != 0.0:
            issues.append("A2 nonzero self-cost at node %d" % i)
    for i, j in problem.edges():
        if j != i and not problem.K[(i, j)] >= problem.delta:  # nan too
            issues.append(
                "A3 edge (%d,%d) cost %g below delta %g"
                % (i, j, problem.K[(i, j)], problem.delta)
            )
        pij = problem.p.get((i, j))
        if pij is None or not (0.0 < pij < 1.0):
            issues.append("p out of (0,1) on edge (%d,%d)" % (i, j))
    if not np.all(np.isfinite(problem.q)):
        issues.append("non-finite terminal cost")
    return issues


def _require_valid(problem):
    issues = validate(problem)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))


def tightest_delta(K):
    """Smallest non-self transition cost (0 without non-self edges)."""
    offdiag = [v for (i, j), v in K.items() if i != j]
    return min(offdiag) if offdiag else 0.0


def normalize_self_costs(problem):
    """Shift nonzero self-transition costs into the terminal costs.

    Produces an equivalent problem with K_ii = 0:
        q_i  <- q_i + K_ii / p
        K_ij <- K_ij - K_jj.
    Requires a uniform termination probability and A1; fails if some shifted
    edge cost would go negative (A3 is not recoverable then).
    """
    p = problem.uniform_p()
    if p is None:
        raise ValueError("normalize_self_costs requires a uniform p")
    for i in range(problem.node_count):
        if i not in problem.adjacency[i]:
            raise ValueError("A1 missing self-transition at node %d" % i)
    q_new = problem.q.copy()
    K_new = {}
    for i, j in problem.edges():
        if i == j:
            q_new[i] = problem.q[i] + problem.K.get((i, i), 0.0) / p
            K_new[(i, i)] = 0.0
        else:
            kij = problem.K[(i, j)] - problem.K.get((j, j), 0.0)
            if kij < 0:
                raise ValueError(
                    "edge (%d,%d): K_ij - K_jj = %g < 0, A3 unsatisfiable"
                    % (i, j, kij)
                )
            K_new[(i, j)] = kij
    return GraphProblem(
        node_count=problem.node_count,
        adjacency=[list(n) for n in problem.adjacency],
        K=K_new,
        q=q_new,
        p=dict(problem.p),
        delta=tightest_delta(K_new),
    )


def from_infinite_horizon(Ktilde, adjacency, alpha):
    """Convert a discounted infinite-horizon problem into a randomly-terminated one.

    With discount alpha in (0,1):  p = 1 - alpha, q_i = Ktilde_ii / p,
    K_ij = Ktilde_ij - p q_j, K_ii = 0.  Expected path costs agree with the
    discounted costs of the original problem.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0,1)")
    M = len(adjacency)
    p = 1.0 - alpha
    q = np.empty(M)
    for i in range(M):
        if i not in adjacency[i]:
            raise ValueError("self-transition missing at node %d" % i)
        q[i] = Ktilde[(i, i)] / p
    K = {}
    p_edges = {}
    for i, nbrs in enumerate(adjacency):
        for j in nbrs:
            if i == j:
                K[(i, i)] = 0.0
            else:
                kij = Ktilde[(i, j)] - p * q[j]
                if kij < 0:
                    raise ValueError(
                        "edge (%d,%d): converted cost %g < 0, A3 unsatisfiable"
                        % (i, j, kij)
                    )
                K[(i, j)] = kij
            p_edges[(i, j)] = p
    return GraphProblem(
        node_count=M,
        adjacency=[list(n) for n in adjacency],
        K=K,
        q=q,
        p=p_edges,
        delta=tightest_delta(K),
    )


def to_infinite_horizon(problem):
    """Inverse of from_infinite_horizon; returns (Ktilde, alpha)."""
    p = problem.uniform_p()
    if p is None:
        raise ValueError("conversion requires a uniform p")
    Ktilde = {}
    for i, j in problem.edges():
        if i == j:
            Ktilde[(i, i)] = p * problem.q[i]
        else:
            Ktilde[(i, j)] = problem.K[(i, j)] + p * problem.q[j]
    return Ktilde, 1.0 - p


def _edge_terms(problem, sources, v0=False):
    """(i, j, const, surv) for the edges leaving each node i of sources, j in
    increasing order; built per solve since callers may edit K and p.

    const + surv * V_j repeats the float operations of
    K_ij + p_ij q_j + (1 - p_ij) V_j; the V0 limit is p_ij = 0.
    """
    q = problem.q.tolist()
    K, P, adjacency = problem.K, problem.p, problem.adjacency
    for i in sources:
        for j in sorted(adjacency[i]):
            pij = 0.0 if v0 else P[i, j]
            yield i, j, K[i, j] + pij * q[j], 1.0 - pij


def _out_rows(problem, sources):
    """Per node i of sources, (j, const, surv) for its out-neighbors j in
    increasing order; other nodes get empty rows."""
    rows = [[] for _ in range(problem.node_count)]
    for i, j, const, surv in _edge_terms(problem, sources):
        rows[i].append((j, const, surv))
    return rows


def _in_rows(problem, v0=False):
    """Per node j, (i, const, surv) for its in-neighbors i != j in node order."""
    rows = [[] for _ in range(problem.node_count)]
    for i, j, const, surv in _edge_terms(problem, range(problem.node_count),
                                         v0):
        if i != j:
            rows[j].append((i, const, surv))
    return rows


def _policy_and_motionless(problem, V):
    """Greedy successor per node (ties to lowest index, self for motionless)."""
    q = problem.q
    motionless = np.abs(V - q) <= MOTIONLESS_RTOL * np.maximum(1.0, np.abs(q))
    moving = np.flatnonzero(~motionless).tolist()
    rows = _out_rows(problem, moving)
    policy = np.arange(problem.node_count)
    values = V.tolist()
    for i in moving:
        best, best_j = math.inf, i
        for j, const, surv in rows[i]:
            cand = const + surv * values[j]
            if cand < best:
                best, best_j = cand, j
        policy[i] = best_j
    return policy, motionless


def value_iteration(problem, initial=None, tol=1e-13, max_iters=100000,
                    gauss_seidel=False):
    """Fixed-point iteration for the optimality equation (the general oracle).

    Does not require A1-A3.  Jacobi sweeps by default; Gauss-Seidel in natural
    node order when requested.  Non-convergence is reported through the status
    field, carrying the last iterate.
    """
    V = (problem.q if initial is None else np.asarray(initial, float)).tolist()
    rows = _out_rows(problem, range(problem.node_count))
    status, it = "not_converged", 0
    for it in range(1, max_iters + 1):
        W = V if gauss_seidel else V.copy()
        change = 0.0
        for i, row in enumerate(rows):
            best = math.inf
            for j, const, surv in row:
                cand = const + surv * V[j]
                if cand < best:
                    best = cand
            change = max(change, abs(best - W[i]))
            W[i] = best
        V = W
        if change <= tol:
            status = "ok"
            break
    del rows  # one edge table in memory at a time
    V = np.array(V)
    policy, motionless = _policy_and_motionless(problem, V)
    return GraphSolution(V, policy, motionless, status=status, iterations=it)


def _label_setting(rows, V, seeds, key):
    """Accept nodes in increasing (key(V_j), j) order from a heap, relaxing
    their in-edge rows; the list V, starting at q, is lowered in place.  An
    entry is stale once its node's key has changed.  Returns the acceptance
    order and the number of improving updates."""
    FAR, CONSIDERED, ACCEPTED = 0, 1, 2
    state = bytearray(len(V))
    heap = []
    for i in seeds:
        state[i] = CONSIDERED
        heapq.heappush(heap, (key(V[i]), i))
    order, updates = [], 0
    while heap:
        k, j = heapq.heappop(heap)
        if state[j] == ACCEPTED or key(V[j]) != k:
            continue
        state[j] = ACCEPTED
        order.append(j)
        vj = V[j]
        for i, const, surv in rows[j]:
            if state[i] == ACCEPTED:
                continue
            cand = const + surv * vj
            if cand < V[i]:
                V[i] = cand
                updates += 1
                state[i] = CONSIDERED
                heapq.heappush(heap, (key(cand), i))
            elif state[i] == FAR:
                state[i] = CONSIDERED
                heapq.heappush(heap, (key(V[i]), i))
    return order, updates


def _label_solve(problem, seeds, key):
    """_label_setting from V = q, then the policy; the in-edge rows are freed
    before the policy builds its forward rows."""
    V = problem.q.tolist()
    order, updates = _label_setting(_in_rows(problem), V, seeds, key)
    V = np.array(V)
    policy, motionless = _policy_and_motionless(problem, V)
    return GraphSolution(V, policy, motionless, updates=updates,
                         acceptance_order=np.array(order, dtype=int))


def dijkstra_solve(problem, seed_all=False):
    """Label-setting solve by acceptance in nondecreasing value order.

    Tentative values start at q; the initial Considered set is the local minima
    of q (or every node when seed_all is set).  Heap ties break on the lowest
    node index so acceptance order is deterministic.
    """
    _require_valid(problem)
    seeds = range(problem.node_count) if seed_all else problem.local_minima()
    return _label_solve(problem, seeds, float)


def dial_solve(problem):
    """Bucket-based label setting; requires delta > 0.

    Considered nodes are accepted a bucket of width delta (above min q) at a
    time, lowest index first within a bucket: no member of a bucket can
    influence another, since every non-self transition costs at least delta.
    Produces the same values as dijkstra_solve (bucket order only permutes
    equal-cost work).  The bucket index is the key of the shared heap, so no
    bucket array is allocated, however fine delta is.
    """
    _require_valid(problem)
    if problem.delta <= 0.0:
        raise ValueError("dial_solve requires delta > 0")
    base, delta = float(problem.q.min()), problem.delta
    return _label_solve(problem, problem.local_minima(),
                        lambda v: int((v - base) / delta))


def solve_v0(problem):
    """Zero-kill-rate limit: undiscounted optimal stopping, by label setting.

    V0_i = min( min_{j != i} { K_ij + V0_j },  q_i ).
    """
    _require_valid(problem)
    V = problem.q.tolist()
    _label_setting(_in_rows(problem, v0=True), V,
                   range(problem.node_count), float)
    return np.array(V)


def solve_v1(problem):
    """Certain-kill limit: single-step lookahead, one pass over the edges."""
    _require_valid(problem)
    V = np.full(problem.node_count, np.inf)
    for i, j in problem.edges():
        cand = problem.K[(i, j)] + problem.q[j]
        if cand < V[i]:
            V[i] = cand
    return V


def m1_strict(problem):
    """Diagnostic: nodes where staying put strictly beats every single
    transition (q_i < K_ij + q_j for all out-neighbors j != i), mapped to the
    positive margin min_j (K_ij + q_j - q_i).

    Each such node becomes motionless for kill probabilities close enough
    to 1; the margin indicates how robust that is, but no certified
    probability threshold is claimed.
    """
    out = {}
    for i in range(problem.node_count):
        margin = math.inf
        for j in problem.adjacency[i]:
            if j == i:
                continue
            margin = min(margin,
                         problem.K[(i, j)] + problem.q[j] - problem.q[i])
        if margin > 0:
            out[i] = margin
    return out


def extract_path(solution, start):
    """Follow the greedy policy from start to its motionless node.

    Returns the finite node sequence ending at the first motionless node; the
    process then idles there forever.
    """
    path = [start]
    seen = {start}
    i = start
    while not solution.motionless[i]:
        i = int(solution.policy[i])
        if i in seen:
            raise RuntimeError("policy cycle detected at node %d" % i)
        path.append(i)
        seen.add(i)
    return path


def path_cost(problem, path):
    """Exact expected cost of an eventually-motionless path.

    The path is the finite prefix ending at its motionless node.  With
    survival products S_t = prod_{s<=t} (1 - p_s) along the path,

        J = sum_{t=1}^{m-1} S_{t-1} p_t Cost(y_0..y_t)  +  S_{m-1} Cost(y_0..y_m),

    where Cost accumulates transition costs plus the terminal cost at the
    endpoint.  Once the motionless node is reached, every later termination
    pays the same amount, so the series closes without truncation.
    """
    last = path[-1]
    if last not in problem.adjacency[last]:
        raise ValueError("path endpoint %d has no self-loop" % last)
    for a, b in zip(path, path[1:]):
        if b not in problem.adjacency[a]:
            raise ValueError("invalid transition (%d,%d)" % (a, b))
    m = len(path) - 1
    if m == 0:
        return float(problem.q[last])
    total = 0.0
    survive = 1.0
    running = 0.0
    for t in range(1, m + 1):
        a, b = path[t - 1], path[t]
        running += problem.K[(a, b)]
        cost_t = running + problem.q[b]
        if t < m:
            pt = problem.p[(a, b)]
            total += survive * pt * cost_t
            survive *= 1.0 - pt
        else:
            total += survive * cost_t
    return total
