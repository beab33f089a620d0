import math

import numpy as np
import pytest

from randterm import graph, idle

from conftest import bit_equal, both_paths, scenario
from randterm.io import load_idle


def idle_scenario(n, tau, lam=1.0, calls=((0, 1.0),)):
    """IdleScenario of travel times {(i, j): tau}: rows sorted by (i, j),
    with a free self-loop at every node that tau does not give."""
    tau = {**{(i, i): 0.0 for i in range(n)}, **tau}
    keys = sorted(tau)
    return idle.IdleScenario(node_count=n, src=[i for i, _ in keys],
                             dst=[j for _, j in keys],
                             tau=[tau[e] for e in keys], lam=lam,
                             call_nodes=[c[0] for c in calls],
                             call_probs=[c[1] for c in calls])


def random_idle(seed, n=40, whole=False):
    """Random travel times over a ring of nodes 0..n-4 and random edges out
    of them; the last three nodes have no out-edges, so they reach no call
    node.  Two of the six calls have probability 0.  whole: integer times,
    which make many equal distances."""
    rng = np.random.default_rng(seed)

    def draw():
        return float(rng.integers(1, 4) if whole else rng.uniform(0.1, 3.0))

    tau = {(i, (i + 1) % (n - 3)): draw() for i in range(n - 3)}
    for i, j in zip(rng.integers(0, n - 3, 2 * n).tolist(),
                    rng.integers(0, n, 2 * n).tolist()):
        if i != j:
            tau[(i, j)] = draw()
    w = rng.uniform(0.5, 1.5, size=6)
    w[[1, 4]] = 0.0
    nodes = rng.choice(n - 3, size=6, replace=False).tolist()
    return idle_scenario(n, tau, calls=list(zip(nodes, w / w.sum())))


def csgraph_q(sc):
    """q by scipy.sparse.csgraph's Dijkstra on the reversed travel-time
    graph, added in call order: an oracle outside the package."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    moves, M = sc.src != sc.dst, sc.node_count
    rev = csr_matrix((sc.tau[moves], (sc.dst[moves], sc.src[moves])),
                     shape=(M, M))
    called = sc.call_probs != 0
    q = np.zeros(M)
    for prob, d in zip(sc.call_probs[called].tolist(),
                       dijkstra(rev, indices=sc.call_nodes[called])):
        q += prob * d
    return q


def ring(n=6, tau=1.0, lam=1.0, calls=((0, 0.5), (3, 0.5))):
    tau_d = {}
    for i in range(n):
        j = (i + 1) % n
        tau_d[(i, j)] = tau
        tau_d[(j, i)] = tau
    return idle_scenario(n, tau_d, lam=lam, calls=calls)


class TestScenario:
    def test_probabilities_must_sum(self):
        with pytest.raises(ValueError):
            ring(calls=((0, 0.5), (3, 0.6)))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            ring(calls=((0, 1.5), (3, -0.5)))

    def test_tau_positive(self):
        with pytest.raises(ValueError):
            ring(tau=-1.0)
        with pytest.raises(ValueError):
            ring(tau=float("nan"))

    def test_lam_positive(self):
        for lam in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ring(lam=lam)

    @pytest.mark.parametrize("change, match", [
        (dict(call_nodes=[-1]), r"call_nodes\[0\] = -1 outside \[0, 2\)"),
        (dict(call_nodes=[2]), r"call_nodes\[0\] = 2 outside \[0, 2\)"),
        (dict(src=[0, 0, 1, 2]), r"src\[3\] = 2 outside"),
        (dict(dst=[0, 1, -3, 1]), r"dst\[2\] = -3 outside"),
        (dict(src=[0, 1, 0, 1]), r"nondecreasing: src\[2\] = 0 after 1"),
        (dict(tau=[0.0, 1.0, 1.0]), "one entry per edge"),
        (dict(call_probs=[0.5, 0.5]), "one per call")])
    def test_indices_checked(self, change, match):
        # out-of-range nodes and unsorted rows are refused before any
        # travel time is computed
        good = dict(node_count=2, src=[0, 0, 1, 1], dst=[0, 1, 0, 1],
                    tau=[0.0, 1.0, 1.0, 0.0], lam=1.0, call_nodes=[1],
                    call_probs=[1.0])
        idle.IdleScenario(**good)
        with pytest.raises(ValueError, match=match):
            idle.IdleScenario(**{**good, **change})


class TestEdgeWaitCost:
    def test_closed_form(self):
        # lam = tau = 1: K = e^-1, p = 1 - e^-1
        assert idle.edge_wait_cost(1.0, 1.0) == pytest.approx(math.exp(-1))

    def test_small_rate_limit(self):
        # K -> lam tau^2 / 2 as lam tau -> 0
        tau, lam = 2.0, 1e-8
        assert idle.edge_wait_cost(tau, lam) == pytest.approx(
            lam * tau ** 2 / 2, rel=1e-6)

    def test_series_matches_direct(self):
        # across the series/direct switchover
        for x in (1e-5, 9e-5, 2e-4, 1e-2):
            direct = (math.exp(-x) - (1 - x)) / 1.0
            assert idle.edge_wait_cost(x, 1.0) == pytest.approx(direct, rel=1e-8)

    def test_monotone_in_tau(self):
        ks = idle.edge_wait_cost(np.linspace(0.1, 5, 40), 0.7)
        assert np.all(np.diff(ks) > 0)

    def test_arrays_match_scalar_formula(self, rng):
        # bit for bit the per-edge formula of a scalar tau, over lam tau from
        # the series range past float range, with no RuntimeWarning
        def scalar(tau, lam):
            x = lam * tau
            if x < 1e-4:
                return tau * x / 2.0 * (1.0 - x / 3.0 + x * x / 12.0)
            return (math.exp(-x) - (1.0 - x)) / lam

        tau = 10.0 ** rng.uniform(-12, 300, (3, 200))
        for lam in (1e-300, 1e-8, 0.7, 25.0, 1e10):
            K = idle.edge_wait_cost(tau, lam)
            assert K.shape == tau.shape
            assert bit_equal(K, [[scalar(t, lam) for t in row]
                                 for row in tau.tolist()])
        assert math.isinf(idle.edge_wait_cost(1e300, 1e10))


class TestTravelTimes:
    def test_single_edge(self):
        sc = ring(n=2, calls=((0, 1.0),))
        d = idle.all_pairs_times(sc)
        assert d[0, 1] == 1.0 and d[1, 0] == 1.0

    def test_path_additivity(self):
        sc = ring(n=3, calls=((0, 1.0),))
        d = idle.all_pairs_times(sc)
        assert d[0, 1] == 1.0 and d[0, 2] == 1.0  # ring of 3

    def test_dijkstra_matches_floyd_warshall(self, rng):
        # expected_response_times against the Floyd-Warshall matrix, for a
        # few and for many call nodes
        n = 30
        tau = {}
        for i in range(n):
            for j in rng.integers(0, n, size=4):
                j = int(j)
                if j != i and (i, j) not in tau:
                    tau[(i, j)] = float(rng.uniform(0.1, 3.0))
            j = (i + 1) % n
            if (i, j) not in tau:
                tau[(i, j)] = 1.0
        for calls in (3, 20):
            nodes = rng.choice(n, size=calls, replace=False).tolist()
            w = rng.uniform(0.5, 1.5, size=calls)
            sc = idle_scenario(n, tau, calls=list(zip(nodes, w / w.sum())))
            d = idle.all_pairs_times(sc)
            ref = sum(pr * d[:, c] for c, pr in zip(nodes, sc.call_probs))
            q = idle.expected_response_times(sc)
            assert np.allclose(q, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_compiled_matches_python_and_csgraph(self, seed):
        # the compiled and the Python path of graph.distance_mix, and
        # csgraph's Dijkstra, bit for bit, with unreachable nodes and calls
        # of probability 0
        sc = random_idle(seed, whole=seed % 2 == 1)
        compiled, python = both_paths(
            lambda: idle.expected_response_times(sc))
        assert bit_equal(compiled, python)
        assert bit_equal(compiled, csgraph_q(sc))
        assert np.isinf(compiled).any() and np.isfinite(compiled).any()

    def test_ring_file_compiled_matches_python(self):
        sc = load_idle(scenario("idle_ring.txt"))
        compiled, python = both_paths(
            lambda: idle.expected_response_times(sc))
        assert bit_equal(compiled, python)
        assert bit_equal(compiled, csgraph_q(sc))

    def test_unreachable_is_inf(self):
        sc = idle_scenario(2, {(0, 1): 1.0}, calls=((1, 1.0),))
        d = idle.all_pairs_times(sc)
        assert d[1, 0] == math.inf


class TestBuildProblem:
    def test_valid_and_solvable(self):
        pb = idle.build_problem(ring())
        assert graph.validate(pb) == []
        sol = graph.dijkstra_solve(pb)
        # symmetric ring, both calls equidistant: staying put is optimal
        assert np.allclose(sol.V, 1.5)
        assert sol.motionless.all()

    def test_point_mass_call(self):
        sc = ring(calls=((2, 1.0),))
        pb = idle.build_problem(sc)
        assert pb.q[2] == 0.0
        assert pb.q.argmin() == 2
        sol = graph.dijkstra_solve(pb)
        assert sol.motionless[2] and sol.V[2] == 0.0

    def test_point_mass_value_is_discounted_travel(self):
        # single call node: moving toward it beats waiting when lam is small,
        # and V reflects expected arrival time along the shortest path
        sc = ring(n=4, lam=0.1, calls=((0, 1.0),))
        pb = idle.build_problem(sc)
        sol = graph.dijkstra_solve(pb)
        path = graph.extract_path(sol, 2)
        assert path[-1] == 0
        assert graph.path_cost(pb, path) == pytest.approx(sol.V[2], abs=1e-12)
        assert sol.V[2] < pb.q[2]  # repositioning helps

    def test_matches_per_edge_reference(self, rng):
        # the rows, K and p of build_problem against the per-edge scalar
        # formulas over the edges in (i, j) order, bit for bit
        n, lam = 12, float(10.0 ** rng.uniform(-3.0, 2.0))
        tau = {(i, (i + 1) % n): 1.0 for i in range(n)}
        for i, j in rng.integers(0, n, size=(30, 2)).tolist():
            if i != j:  # lam tau on both sides of the series switch
                tau[(i, j)] = float(10.0 ** rng.uniform(-6.0, 1.0) / lam)
        pb = idle.build_problem(idle_scenario(n, tau, lam=lam))

        def wait(t):
            x = lam * t
            return ((math.exp(-x) - (1.0 - x)) / lam if x >= 1e-4 else
                    t * x / 2.0 * (1.0 - x / 3.0 + x * x / 12.0))

        rows = sorted([(i, i, 0.0, idle.SELF_LOOP_P) for i in range(n)]
                      + [(i, j, wait(t), 1.0 - math.exp(-lam * t))
                         for (i, j), t in tau.items()])
        src, dst, K, p = map(np.array, zip(*rows))
        ref = graph.GraphProblem.from_edges(n, src, dst, K, p, pb.q)
        for name in ("indptr", "dst", "K", "p"):
            assert bit_equal(getattr(pb, name), getattr(ref, name)), name
        assert pb.delta == K[src != dst].min()

    def test_unreachable_call_rejected(self):
        sc = idle_scenario(2, {(0, 1): 1.0})
        with pytest.raises(ValueError):
            idle.build_problem(sc)

    def test_file_round_trip(self):
        sc = load_idle(scenario("idle_ring.txt"))
        pb = idle.build_problem(sc)
        assert pb.node_count == 6
        assert pb.delta == pytest.approx(math.exp(-1))
