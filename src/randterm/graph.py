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
from itertools import chain, repeat

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


def _edges(problem):
    """The edge table (indptr, src, dst, K, p) in CSR arrays: row i holds the
    edges (i, j) in the order of adjacency[i], and p is nan where an edge has
    none.  Built per call, reading each dict once, so edits to problem.K and
    problem.p reach it."""
    adjacency, n = problem.adjacency, problem.node_count
    counts = np.fromiter(map(len, adjacency), np.intp, n)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    m = int(indptr[-1])

    def keys():  # (i, j) in table order, without a list of them
        return zip(chain.from_iterable(map(repeat, range(n), counts.tolist())),
                   chain.from_iterable(adjacency))

    src = np.repeat(np.arange(n), counts)
    dst = np.fromiter(chain.from_iterable(adjacency), np.intp, m)
    K = np.fromiter(map(problem.K.__getitem__, keys()), float, m)
    p = np.fromiter(map(problem.p.get, keys(), repeat(math.nan)), float, m)
    return indptr, src, dst, K, p


def _checked(problem):
    """The edge table and the violations of A1-A3 and of the probability
    ranges, node by node and then edge by edge in problem.edges() order."""
    edges = indptr, src, dst, K, p = _edges(problem)
    n, loop = problem.node_count, src == dst
    has_loop = np.bincount(src[loop], minlength=n) > 0
    costly = np.bincount(src[loop & (K != 0.0)], minlength=n) > 0
    issues = [("A2 nonzero self-cost at node %d" if has_loop[i] else
               "A1 missing self-transition at node %d") % i
              for i in np.flatnonzero(~has_loop | costly).tolist()]
    below = ~loop & ~(K >= problem.delta)  # nan too
    bad_p = ~((0.0 < p) & (p < 1.0))
    for e in np.flatnonzero(below | bad_p).tolist():
        if below[e]:
            issues.append("A3 edge (%d,%d) cost %g below delta %g"
                          % (src[e], dst[e], K[e], problem.delta))
        if bad_p[e]:
            issues.append("p out of (0,1) on edge (%d,%d)" % (src[e], dst[e]))
    if not np.all(np.isfinite(problem.q)):
        issues.append("non-finite terminal cost")
    return edges, issues


def validate(problem):
    """Check assumptions A1-A3 and probability ranges; returns a list of violations."""
    return _checked(problem)[1]


def _require_valid(problem):
    """The edge table of a problem that satisfies A1-A3; ValueError if not."""
    edges, issues = _checked(problem)
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))
    return edges


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


def _terms(problem, edges):
    """Per edge, const and surv with const + surv * V_j repeating the float
    operations of K_ij + p_ij q_j + (1 - p_ij) V_j."""
    indptr, src, dst, K, p = edges
    with np.errstate(invalid="ignore", over="ignore"):  # silent, as floats
        return K + p * problem.q[dst], 1.0 - p


def _row_min(indptr, values):
    """Minimum of values over each CSR row, skipping nan, and inf where a row
    has no other value: what a scan from inf that keeps each `<` gives."""
    out = np.fmin.reduceat(np.append(values, np.inf), indptr[:-1])
    out[(indptr[:-1] == indptr[1:]) | np.isnan(out)] = np.inf
    return out


def _solution(problem, V, edges, const, surv, **stats):
    """GraphSolution of V with the motionless set and the greedy successor
    per node (ties to lowest index, self for motionless)."""
    indptr, src, dst = edges[:3]
    q = problem.q
    with np.errstate(invalid="ignore", over="ignore"):
        cand = const + surv * V[dst]
        motionless = np.abs(V - q) <= MOTIONLESS_RTOL * np.maximum(1.0, abs(q))
    best = _row_min(indptr, cand)
    lowest = _row_min(indptr, np.where(cand == best[src], dst, np.inf))
    moving = ~motionless & (best < np.inf)
    policy = np.arange(problem.node_count)
    policy[moving] = lowest[moving]
    return GraphSolution(V, policy, motionless, **stats)


def value_iteration(problem, initial=None, tol=1e-13, max_iters=100000):
    """Fixed-point iteration for the optimality equation (the general oracle).

    Does not require A1-A3, but every edge needs a p.  Each Jacobi sweep is
    a row minimum over the edge table.  Non-convergence is reported through
    the status field, carrying the last iterate.
    """
    edges = indptr, src, dst, K, p = _edges(problem)
    for e in np.flatnonzero(np.isnan(p))[:1].tolist():  # the first, if any
        raise ValueError("p missing or nan on edge (%d,%d)" % (src[e], dst[e]))
    const, surv = _terms(problem, edges)
    V = np.array(problem.q if initial is None else initial, dtype=float)
    status, it = "not_converged", 0
    for it in range(1, max_iters + 1):
        with np.errstate(invalid="ignore", over="ignore"):
            best = _row_min(indptr, const + surv * V[dst])
            change = np.fmax.reduce(np.abs(best - V), initial=0.0)  # skips nan
        V = best
        if change <= tol:
            status = "ok"
            break
    return _solution(problem, V, edges, const, surv, status=status,
                     iterations=it)


def _label_setting(edges, const, surv, q, seeds, key):
    """Accept nodes in increasing (key(V_j), j) order from a heap, relaxing
    the in-edges i -> j, i != j, of each accepted j in node order i; V starts
    at q.  An entry is stale once its node's key has changed.  Returns V, the
    acceptance order and the number of improving updates."""
    indptr, src, dst = edges[:3]
    moves = np.flatnonzero(src != dst)
    rev = moves[np.argsort(dst[moves], kind="stable")]
    # reverse CSR in memoryviews (no Python object per edge): the in-edges
    # of j are the slices ptr[j]:ptr[j + 1]
    ptr = memoryview(np.searchsorted(dst[rev], np.arange(len(indptr))))
    src, const, surv = (memoryview(a[rev]) for a in (src, const, surv))
    FAR, CONSIDERED, ACCEPTED = 0, 1, 2
    V = q.tolist()
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
        lo, hi = ptr[j], ptr[j + 1]
        for i, cij, sij in zip(src[lo:hi], const[lo:hi], surv[lo:hi]):
            if state[i] == ACCEPTED:
                continue
            cand = cij + sij * vj
            if cand < V[i]:
                V[i] = cand
                updates += 1
                state[i] = CONSIDERED
                heapq.heappush(heap, (key(cand), i))
            elif state[i] == FAR:
                state[i] = CONSIDERED
                heapq.heappush(heap, (key(V[i]), i))
    return np.array(V), order, updates


def _label_solve(problem, edges, seeds, key):
    """_label_setting from V = q over the edge table, then the policy."""
    const, surv = _terms(problem, edges)
    V, order, updates = _label_setting(edges, const, surv, problem.q, seeds,
                                       key)
    return _solution(problem, V, edges, const, surv, updates=updates,
                     acceptance_order=np.array(order, dtype=int))


def dijkstra_solve(problem, seed_all=False):
    """Label-setting solve by acceptance in nondecreasing value order.

    Tentative values start at q; the initial Considered set is the local minima
    of q (or every node when seed_all is set).  Heap ties break on the lowest
    node index so acceptance order is deterministic.
    """
    edges = _require_valid(problem)
    seeds = range(problem.node_count) if seed_all else problem.local_minima()
    return _label_solve(problem, edges, seeds, float)


def dial_solve(problem):
    """Bucket-based label setting; requires delta > 0.

    Considered nodes are accepted a bucket of width delta (above min q) at a
    time, lowest index first within a bucket: no member of a bucket can
    influence another, since every non-self transition costs at least delta.
    Produces the same values as dijkstra_solve (bucket order only permutes
    equal-cost work).  The bucket index is the key of the shared heap, so no
    bucket array is allocated, however fine delta is.
    """
    edges = _require_valid(problem)
    if problem.delta <= 0.0:
        raise ValueError("dial_solve requires delta > 0")
    base, delta = float(problem.q.min()), problem.delta
    return _label_solve(problem, edges, problem.local_minima(),
                        lambda v: int((v - base) / delta))


def solve_v0(problem):
    """Zero-kill-rate limit: undiscounted optimal stopping, by label setting.

    V0_i = min( min_{j != i} { K_ij + V0_j },  q_i ).
    """
    edges = indptr, src, dst, K, p = _require_valid(problem)
    # the p_ij = 0 limit of the edge terms: const K_ij, surv 1
    return _label_setting(edges, K, np.ones_like(K), problem.q,
                          range(problem.node_count), float)[0]


def solve_v1(problem):
    """Certain-kill limit: single-step lookahead, min_j K_ij + q_j."""
    indptr, src, dst, K, p = _require_valid(problem)
    return _row_min(indptr, K + problem.q[dst])


def m1_strict(problem):
    """Diagnostic: nodes where staying put strictly beats every single
    transition (q_i < K_ij + q_j for all out-neighbors j != i), mapped to the
    positive margin min_j (K_ij + q_j - q_i).

    Each such node becomes motionless for kill probabilities close enough
    to 1; the margin indicates how robust that is, but no certified
    probability threshold is claimed.
    """
    indptr, src, dst, K, p = _edges(problem)
    q = problem.q
    with np.errstate(invalid="ignore", over="ignore"):
        margin = _row_min(indptr, np.where(src == dst, np.inf,
                                           K + q[dst] - q[src]))
    return {i: margin[i] for i in np.flatnonzero(margin > 0).tolist()}


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
