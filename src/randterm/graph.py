"""Randomly-terminated control problems on finite directed graphs.

A process moves along graph edges, paying a transition cost per edge, and is
killed after each transition with an edge-dependent probability, at which point
it pays the terminal cost of the node it just reached.  The value function
satisfies

    V_i = min_{j in N(i)} { K_ij + p_ij q_j + (1 - p_ij) V_j }.

Under the structural assumptions A1 (self-loops everywhere), A2 (free
self-transitions) and A3 (non-self transition costs bounded below by delta >= 0)
the system is causal and can be solved by label-setting (Dijkstra-like or
Dial-like) methods as well as by plain value iteration.  Node i is motionless
(staying put optimal) where |V_i - q_i| <= 1e-12 max(1, |q_i|), and only
where V_i = q_i if q_i is infinite; grid points share this rule, motionless.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import native


@dataclass
class GraphProblem:
    """Directed graph with transition costs, terminal costs and kill
    probabilities, stored as compressed sparse rows.

    Row i holds the out-edges (i, j) of node i (self-loops included when A1
    holds) at positions indptr[i]:indptr[i + 1] of dst, K and p, in the
    order they were given in.
    """

    node_count: int
    indptr: np.ndarray
    dst: np.ndarray
    K: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.indptr, self.dst = (np.asarray(a, np.intp)
                                 for a in (self.indptr, self.dst))
        self.K, self.p, self.q = (np.asarray(a, float)
                                  for a in (self.K, self.p, self.q))

    @classmethod
    def from_edges(cls, node_count, src, dst, K, p, q):
        """Problem of edges listed row by row (src nondecreasing, in range)."""
        if len(src) and (src[0] < 0 or src[-1] >= node_count
                         or np.any(np.diff(src) < 0)):
            raise ValueError("src must be nondecreasing in [0, %d)" % node_count)
        counts = np.bincount(src, minlength=node_count)
        return cls(node_count=node_count, indptr=np.append(0, np.cumsum(counts)),
                   dst=dst, K=K, p=p, q=q)

    @property
    def src(self):
        """The source node of every edge."""
        return np.repeat(np.arange(self.node_count), np.diff(self.indptr))

    @property
    def delta(self):
        """The delta of A3: the smallest non-self transition cost, nan if
        any is nan, +inf without non-self edges."""
        return float(np.min(self.K[self.src != self.dst], initial=math.inf))

    def edge(self, i, j):
        """Position of the first edge (i, j) in dst, K and p, or None."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        at = lo + np.flatnonzero(self.dst[lo:hi] == j)
        return int(at[0]) if at.size else None

    def uniform_p(self):
        """The common termination probability, or None if p varies by edge."""
        same = self.p.size and np.all(self.p == self.p[0])
        return float(self.p[0]) if same else None

    def local_minima(self):
        """Nodes whose terminal cost is <= that of every out-neighbor."""
        src = self.src
        above = src[~(self.q[src] <= self.q[self.dst])]  # nan too
        return np.flatnonzero(
            np.bincount(above, minlength=self.node_count) == 0).tolist()


def sort_edges(src, dst):
    """The stable order that sorts edges by (src, dst), and the positions in
    it of the edges equal to the one before."""
    lo = int(min(src.min(initial=0), dst.min(initial=0)))
    span = int(max(src.max(initial=0), dst.max(initial=0))) - lo + 1
    # one int64 key per edge when it cannot overflow: the same order, and a
    # stable argsort of it takes a tenth of lexsort's time on file order
    order = (np.argsort((src - lo) * span + (dst - lo), kind="stable")
             if span < 2 ** 31 else np.lexsort((dst, src)))
    again = 1 + np.flatnonzero((np.diff(src[order]) == 0)
                               & (np.diff(dst[order]) == 0))
    return order, again


@dataclass
class GraphSolution:
    V: np.ndarray
    policy: np.ndarray
    motionless: np.ndarray
    acceptance_order: np.ndarray = None
    status: str = "ok"
    iterations: int = 0
    heap_operations: int = 0  # label-setting heap pushes + pops; 0 for VI


def validate(problem):
    """Check assumptions A1-A3 and probability ranges; returns the
    violations, node by node and then edge by edge in row order."""
    n, src, dst, K, p = (problem.node_count, problem.src, problem.dst,
                         problem.K, problem.p)
    loop = src == dst
    has_loop = np.bincount(src[loop], minlength=n) > 0
    costly = np.bincount(src[loop & (K != 0.0)], minlength=n) > 0
    issues = [("A2 nonzero self-cost at node %d" if has_loop[i] else
               "A1 missing self-transition at node %d") % i
              for i in np.flatnonzero(~has_loop | costly).tolist()]
    below = ~loop & ~(K >= 0.0)  # nan too
    bad_p = ~((0.0 < p) & (p < 1.0))
    for e in np.flatnonzero(below | bad_p).tolist():
        if below[e]:
            issues.append("A3 edge (%d,%d) cost %g not >= 0"
                          % (src[e], dst[e], K[e]))
        if bad_p[e]:
            issues.append("p out of (0,1) on edge (%d,%d)" % (src[e], dst[e]))
    if not np.all(np.isfinite(problem.q)):
        issues.append("non-finite terminal cost")
    return issues


def _require_valid(problem):
    """ValueError unless the problem satisfies A1-A3, naming the first five
    violations and the count of the rest (validate lists them all)."""
    issues = validate(problem)
    if len(issues) > 5:
        issues[5:] = ["and %d more" % (len(issues) - 5)]
    if issues:
        raise ValueError("invalid problem: " + "; ".join(issues))


def normalize_self_costs(problem):
    """Shift nonzero self-transition costs into the terminal costs.

    Produces an equivalent problem (the same rows and V) with K_ii = 0:
        q_i  <- q_i + K_ii / p
        K_ij <- K_ij - K_jj.
    Requires a uniform termination probability and A1; fails if some shifted
    edge cost would go negative (A3 is not recoverable then).
    """
    p = problem.uniform_p()
    if p is None:
        raise ValueError("normalize_self_costs requires a uniform p")
    src, dst = problem.src, problem.dst
    loops = np.flatnonzero(src == dst)
    nodes, first = np.unique(src[loops], return_index=True)
    for i in np.setdiff1d(np.arange(problem.node_count), nodes)[:1].tolist():
        raise ValueError("A1 missing self-transition at node %d" % i)
    K_self = problem.K[loops[first]]
    with np.errstate(invalid="ignore", over="ignore"):  # silent, as floats
        K = np.where(src == dst, 0.0, problem.K - K_self[dst])
        q = problem.q + K_self / p
    for e in np.flatnonzero(K < 0)[:1].tolist():
        raise ValueError("edge (%d,%d): K_ij - K_jj = %g < 0, A3 "
                         "unsatisfiable" % (src[e], dst[e], K[e]))
    return GraphProblem(problem.node_count, problem.indptr.copy(), dst.copy(),
                        K, problem.p.copy(), q)


def from_infinite_horizon(indptr, dst, Ktilde, alpha):
    """The randomly-terminated problem whose V solves the discounted one,
    V_i = min_j { Ktilde_ij + alpha V_j } with alpha in (0, 1), over the CSR
    rows indptr, dst and Ktilde (ValueError unless they fit, see _rows):
    K = Ktilde, q = 0 and p = 1 - alpha through normalize_self_costs, so
    q_i = Ktilde_ii / p and K_ij = Ktilde_ij - Ktilde_jj."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0,1)")
    indptr, dst, Ktilde, _, _ = _rows(indptr, dst, Ktilde, Ktilde, [])
    n = indptr.size - 1
    return normalize_self_costs(GraphProblem(
        n, indptr, dst, Ktilde, np.full(dst.size, 1.0 - alpha), np.zeros(n)))


def to_infinite_horizon(problem):
    """The discounted problem of a randomly-terminated one with a uniform p,
    as (Ktilde, alpha): Ktilde_ij = K_ij + p q_j, one float per edge in the
    problem's edge order, and alpha = 1 - p.  Its equation
    V_i = min_j { Ktilde_ij + alpha V_j } is the problem's own."""
    p = problem.uniform_p()
    if p is None:
        raise ValueError("conversion requires a uniform p")
    return _terms(problem)[0], 1.0 - p


def check_tol(tol):
    """ValueError unless tol is finite and >= 0: a negative tol can never be
    met, and an infinite one is met by any first iterate."""
    if not (0.0 <= tol < math.inf):
        raise ValueError("tol must be finite and >= 0, got %r" % tol)


def _terms(problem):
    """Per edge, const and surv with const + surv * V_j repeating the float
    operations of K_ij + p_ij q_j + (1 - p_ij) V_j."""
    p = problem.p
    with np.errstate(invalid="ignore", over="ignore"):  # silent, as floats
        return problem.K + p * problem.q[problem.dst], 1.0 - p


def _row_min(indptr, values):
    """Minimum of values over each CSR row, skipping nan, and inf where a row
    has no other value: what a scan from inf that keeps each `<` gives."""
    out = np.fmin.reduceat(np.append(values, np.inf), indptr[:-1])
    out[(indptr[:-1] == indptr[1:]) | np.isnan(out)] = np.inf
    return out


# motionless works through V and q in flat blocks of at most this many
# cells, so that its float temporaries stay small
_MOTIONLESS_CELLS = 1 << 16


def motionless(V, q):
    """Where V meets q: within 1e-12 max(1, |q|) of each point's own q, and
    exactly where q is infinite (grid solvers leave out masked points).  V
    and q have one shape; q may be a constant field's stride-0 view."""
    out = np.empty(np.shape(V), bool)
    flat, V, q = (np.reshape(a, -1) for a in (out, V, q))
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, flat.size, _MOTIONLESS_CELLS):
            v, w = (a[lo:lo + _MOTIONLESS_CELLS] for a in (V, q))
            flat[lo:lo + _MOTIONLESS_CELLS] = (v == w) | (np.isfinite(w) & (
                np.abs(v - w) <= 1e-12 * np.maximum(1.0, abs(w))))
    return out


def _solution(problem, V, const, surv, **stats):
    """GraphSolution of V with the motionless set and the greedy successor
    per node (ties to lowest index, self for motionless)."""
    indptr, src, dst = problem.indptr, problem.src, problem.dst
    with np.errstate(invalid="ignore", over="ignore"):
        cand = const + surv * V[dst]
    still = motionless(V, problem.q)
    best = _row_min(indptr, cand)
    lowest = _row_min(indptr, np.where(cand == best[src], dst, np.inf))
    moving = ~still & (best < np.inf)
    policy = np.arange(problem.node_count)
    policy[moving] = lowest[moving]
    return GraphSolution(V, policy, still, **stats)


def value_iteration(problem, tol=1e-13, max_iters=100000):
    """Fixed-point iteration for the optimality equation (the general oracle).

    Does not require A1-A3, but every edge needs a p in [0, 1] and every
    node a q that is not nan.  Each Jacobi sweep is a row minimum over the
    edge arrays.  Non-convergence is reported through the status field,
    carrying the last iterate, and one warning on the "randterm" logger.
    """
    check_tol(tol)
    bad = ~((0.0 <= problem.p) & (problem.p <= 1.0))  # nan too
    for e in np.flatnonzero(bad)[:1].tolist():  # the first
        raise ValueError("p missing, nan or outside [0, 1] on edge (%d,%d)"
                         % (problem.src[e], problem.dst[e]))
    for i in np.flatnonzero(np.isnan(problem.q))[:1].tolist():
        raise ValueError("terminal cost nan at node %d" % i)
    indptr, dst = problem.indptr, problem.dst
    const, surv = _terms(problem)
    V = problem.q.copy()
    status, it, change = "not_converged", 0, math.inf
    for it in range(1, max_iters + 1):
        with np.errstate(invalid="ignore", over="ignore"):
            best = _row_min(indptr, const + surv * V[dst])
            change = np.fmax.reduce(np.abs(best - V), initial=0.0)  # skips nan
        V = best
        if change <= tol:
            status = "ok"
            break
    if status != "ok":
        import logging  # here, not at import: it adds 5 ms to every start-up
        logging.getLogger("randterm").warning(
            "value iteration did not converge after %d iterations; last "
            "change %.3e", it, change)
    return _solution(problem, V, const, surv, status=status, iterations=it)


def _rows(indptr, dst, const, surv, seeds):
    """indptr, dst, const, surv and seeds as contiguous int64 and float64
    arrays, after a ValueError unless they form CSR rows over
    len(indptr) - 1 nodes with every seed among the nodes."""
    indptr, dst, seeds = (np.ascontiguousarray(a, np.int64)
                          for a in (indptr, dst, seeds))
    const, surv = (np.ascontiguousarray(a, np.float64) for a in (const, surv))
    n = indptr.size - 1
    if (n < 0 or indptr[0] != 0 or np.any(np.diff(indptr) < 0)
            or not indptr[-1] == dst.size == const.size == surv.size
            or not np.all((dst >= 0) & (dst < n))
            or not np.all((seeds >= 0) & (seeds < n))):
        raise ValueError("arrays must form CSR rows over %d nodes and "
                         "seeds lie in range" % max(n, 0))
    return indptr, dst, const, surv, seeds


def _label_setting(indptr, dst, const, surv, V, seeds, base=0.0, delta=0.0):
    """Accept nodes in increasing (key(V_j), j) order from a heap, relaxing
    the in-edges i -> j, i != j, of each accepted j in edge order, over the
    CSR rows indptr, dst, const and surv (see _rows): V_i drops to
    const_ij + surv_ij * V_j when that is lower.  V starts at the given
    values (one per node).  The key is V_j when delta is 0, and Dial's
    bucket int((V_j - base) / delta) otherwise.  Every drop of V_i pushes a
    new entry and key is nondecreasing, so the first popped entry of a node
    carries its current key; the node is accepted there and its later
    entries are skipped.  Runs label() of march.c, its C twin, when the
    native library can be built (see native.library), else the Python loop,
    with the same results bit for bit.  Returns V, the acceptance order and
    the heap pushes + pops (every push is popped)."""
    indptr, dst, const, surv, seeds = _rows(indptr, dst, const, surv, seeds)
    n = indptr.size - 1
    V = np.array(V, dtype=np.float64)
    if V.shape != (n,):
        raise ValueError("label setting needs one start value per node")
    lib = native.library()
    if lib is not None:
        order = np.empty(n, dtype=np.int64)
        pushes = lib.label(n, indptr, dst, const, surv, seeds, seeds.size,
                           base, delta, V, order)
        if pushes < 0:
            raise MemoryError("out of memory for the label-setting heap")
        return V, order[order >= 0], 2 * pushes
    key = float if delta == 0.0 else (lambda v: int((v - base) / delta))
    src = np.repeat(np.arange(n), np.diff(indptr))
    moves = np.flatnonzero(src != dst)
    rev = moves[np.argsort(dst[moves], kind="stable")]
    # reverse CSR in memoryviews (no Python object per edge): the in-edges
    # of j are the slices ptr[j]:ptr[j + 1]
    ptr = memoryview(np.searchsorted(dst[rev], np.arange(n + 1)))
    src, const, surv = (memoryview(a[rev]) for a in (src, const, surv))
    FAR, CONSIDERED, ACCEPTED = 0, 1, 2
    V = V.tolist()
    state = bytearray(n)
    heap = []
    for i in seeds.tolist():
        state[i] = CONSIDERED
        heapq.heappush(heap, (key(V[i]), i))
    order, pushes = [], len(heap)
    while heap:
        j = heapq.heappop(heap)[1]
        if state[j] == ACCEPTED:
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
            elif state[i] != FAR:
                continue
            state[i] = CONSIDERED
            heapq.heappush(heap, (key(V[i]), i))
            pushes += 1
    return np.array(V), np.array(order, dtype=np.int64), 2 * pushes


def distance_mix(indptr, dst, length, targets, weights):
    """sum over targets t of weight_t * d(., t), where d(i, t) is the least
    total length of a path i -> ... -> t along the CSR rows indptr, dst and
    length (self-loops skipped; +inf where no path reaches t).  The terms of
    nonzero weight are added in target order.  Lengths must be >= 0.  Each
    d(., t) is _label_setting's V from V = +inf but V_t = 0, with const the
    lengths and surv 1; distance_mix() of march.c, its C twin, finds the
    in-edges once for all targets when the native library can be built,
    with the same result bit for bit."""
    indptr, dst, length, ones, targets = _rows(
        indptr, dst, length, np.ones(np.size(length)), targets)
    weights = np.ascontiguousarray(weights, np.float64)
    if weights.shape != targets.shape:
        raise ValueError("distance_mix needs one weight per target")
    if not np.all(length >= 0.0):  # nan too
        raise ValueError("path lengths must be >= 0")
    n = indptr.size - 1
    q = np.zeros(n)
    lib = native.library()
    if lib is not None:
        if lib.distance_mix(n, indptr, dst, length, ones, targets, weights,
                            targets.size, q) < 0:
            raise MemoryError("out of memory for the label-setting heap")
        return q
    for t, w in zip(targets.tolist(), weights.tolist()):
        if w != 0.0:
            start = np.full(n, np.inf)
            start[t] = 0.0
            q += w * _label_setting(indptr, dst, length, ones, start, [t])[0]
    return q


def _label_solve(problem, seeds, base=0.0, delta=0.0):
    """_label_setting from V = q over the edge arrays, then the policy."""
    const, surv = _terms(problem)
    V, order, ops = _label_setting(problem.indptr, problem.dst, const, surv,
                                   problem.q, seeds, base, delta)
    return _solution(problem, V, const, surv, heap_operations=ops,
                     acceptance_order=order)


def dijkstra_solve(problem):
    """Label-setting solve by acceptance in nondecreasing value order.

    Tentative values start at q; the initial Considered set is the local minima
    of q.  Heap ties break on the lowest node index so acceptance order is
    deterministic.
    """
    _require_valid(problem)
    return _label_solve(problem, problem.local_minima())


def dial_solve(problem):
    """Bucket-based label setting; requires delta > 0 (+inf, without
    non-self edges, makes one bucket).

    Considered nodes are accepted by bucket of width delta above min q, the
    buckets in nondecreasing order.  No member of a bucket can improve
    another, since every non-self transition costs at least delta, so every
    value equals dijkstra_solve's.  Within a bucket the order is not by
    index: a Far neighbour enters at its unimproved q_i, which can fall in
    the bucket being accepted after higher indices of it have gone.  The
    bucket index is the key of the shared heap, so no bucket array is
    allocated.  Label setting keeps min q <= V <= q, so every bucket index
    is at most (max q - min q) / delta; a delta that leaves this quotient
    infinite is refused with ValueError.
    """
    _require_valid(problem)
    base, delta = float(problem.q.min()), problem.delta
    if delta <= 0.0:
        raise ValueError("dial_solve requires delta > 0")
    top = (float(problem.q.max()) - base) / delta
    if not math.isfinite(top):
        raise ValueError("dial_solve: (max q - min q) / delta = %r is not "
                         "finite (delta %r too small)" % (top, delta))
    return _label_solve(problem, problem.local_minima(), base, delta)


def solve_v0(problem):
    """Zero-kill-rate limit: undiscounted optimal stopping, by label setting.

    V0_i = min( min_{j != i} { K_ij + V0_j },  q_i ).
    """
    _require_valid(problem)
    # the p_ij = 0 limit of the edge terms: const K_ij, surv 1
    return _label_setting(problem.indptr, problem.dst, problem.K,
                          np.ones_like(problem.K), problem.q,
                          np.arange(problem.node_count))[0]


def solve_v1(problem):
    """Certain-kill limit: single-step lookahead, min_j K_ij + q_j."""
    _require_valid(problem)
    return _row_min(problem.indptr, problem.K + problem.q[problem.dst])


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
    if problem.edge(last, last) is None:
        raise ValueError("path endpoint %d has no self-loop" % last)
    edges = [problem.edge(a, b) for a, b in zip(path, path[1:])]
    if None in edges:
        t = edges.index(None)
        raise ValueError("invalid transition (%d,%d)" % (path[t], path[t + 1]))
    m = len(path) - 1
    if m == 0:
        return float(problem.q[last])
    total = 0.0
    survive = 1.0
    running = 0.0
    for t, e in enumerate(edges, 1):
        running += problem.K[e]
        cost_t = running + problem.q[path[t]]
        if t < m:
            pt = problem.p[e]
            total += survive * pt * cost_t
            survive *= 1.0 - pt
        else:
            total += survive * cost_t
    return total
