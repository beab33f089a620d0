import math

import numpy as np
import pytest

from randterm import grid

from conftest import both_paths, semi_lagrangian_update

SQ = 2 * (math.sqrt(2) - 1)


class TestOneSided:
    def test_closed_form(self):
        assert grid.one_sided_update(0.0, 1.0, 2.0, 1.0, 1.0, 1.0) == \
            pytest.approx(1.5)

    def test_constant_solution(self):
        c = 3.7
        assert grid.one_sided_update(c, 0.0, c, 1.3, 0.8, 0.1) == \
            pytest.approx(c)

    def test_large_lambda_limit(self):
        q = 2.0
        got = grid.one_sided_update(0.0, 1.0, q, 1.0, 1e12, 0.5)
        assert got == pytest.approx(q, rel=1e-9)

    def test_upwind_consistency(self, rng):
        # result > V1 whenever result < q
        for _ in range(200):
            v1 = rng.uniform(0, 5)
            K, f, lam, h = rng.uniform(0.01, 3, 4)
            q = rng.uniform(0, 10)
            out = grid.one_sided_update(v1, K, q, f, lam, h)
            if out < q:
                assert out > v1


class TestQuadrant:
    def test_symmetric_example(self):
        # 2V^2 = (2-V)^2 -> V = 2(sqrt(2)-1)
        assert grid.quadrant_update(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0) == \
            pytest.approx(SQ)

    def test_motionless_constant(self):
        c = 1.8
        assert grid.quadrant_update(c, c, 0.0, c, 1.0, 0.5, 0.1) == \
            pytest.approx(c)

    def test_fallback_to_one_sided(self):
        got = grid.quadrant_update(0.0, 1e6, 1.0, 2.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(grid.one_sided_update(0.0, 1.0, 2.0,
                                                          1.0, 1.0, 1.0))

    def test_infinite_neighbor(self):
        got = grid.quadrant_update(0.5, math.inf, 1.0, 2.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(grid.one_sided_update(0.5, 1.0, 2.0,
                                                          1.0, 1.0, 1.0))
        assert grid.quadrant_update(math.inf, math.inf, 1, 2, 1, 1, 1) == \
            math.inf

    def test_monotone_in_neighbors(self, rng):
        for _ in range(300):
            v1, v2 = rng.uniform(0, 4, 2)
            K, f, lam = rng.uniform(0.1, 2, 3)
            h = rng.uniform(0.05, 1)
            q = rng.uniform(max(v1, v2), max(v1, v2) + 4)
            base = grid.quadrant_update(v1, v2, K, q, f, lam, h)
            bumped = grid.quadrant_update(v1 + 0.1, v2, K, q, f, lam, h)
            assert bumped >= base - 1e-12

    def test_smaller_neighbor_dependence(self, rng):
        # raising a neighbor already above the result must not change it
        for _ in range(200):
            v1, v2 = rng.uniform(0, 4, 2)
            K, f, lam = rng.uniform(0.1, 2, 3)
            h = rng.uniform(0.05, 1)
            q = rng.uniform(max(v1, v2), max(v1, v2) + 4)
            out = grid.quadrant_update(v1, v2, K, q, f, lam, h)
            if out < max(v1, v2):
                hi_is_2 = v2 >= v1
                out2 = (grid.quadrant_update(v1, v2 + 5, K, q, f, lam, h)
                        if hi_is_2 else
                        grid.quadrant_update(v1 + 5, v2, K, q, f, lam, h))
                assert out2 == pytest.approx(out, abs=1e-10)


class TestTravel:
    def test_one_sided(self, rng):
        # a + s from the smaller neighbour when the other is s or more above
        assert grid.travel_update(0.5, 0.75, 0.25) == 0.75  # |a - b| == s
        for _ in range(200):
            a, s = rng.uniform(0, 4), rng.uniform(0.01, 2)
            for b in (a + s + rng.uniform(0, 4), math.inf):
                assert b - a >= s
                assert grid.travel_update(a, b, s) == a + s

    def test_symmetric(self, rng):
        for _ in range(200):
            a, b = rng.uniform(0, 4, 2)
            s = rng.uniform(0.01, 2)
            assert grid.travel_update(a, b, s) == grid.travel_update(b, a, s)

    def test_equal_neighbours(self):
        for a, s in ((0.0, 1.0), (2.5, 0.3), (1e3, 1e-3)):
            assert grid.travel_update(a, a, s) == \
                pytest.approx(a + s / math.sqrt(2), rel=1e-15)

    def test_square_by_multiplication_on_both_paths(self):
        # at d = b - a below, libm's pow(d, 2.0) (1.0750354493863283) is one
        # ulp from d * d (1.0750354493863286), the correctly rounded square,
        # and the update tells them apart; point 1 of a 2 x 2 march between
        # seeds 0 (value a) and 3 (value b) takes the two-axis update
        a, b, s = 0.0, 1.0368391627375619, 1.25
        d = b - a
        assert math.pow(d, 2.0) != d * d
        want = 0.5 * (a + b + math.sqrt(2.0 * s * s - d * d))
        by_pow = 0.5 * (a + b + math.sqrt(2.0 * s * s - math.pow(d, 2.0)))
        assert want != by_pow
        assert grid.travel_update(a, b, s) == want

        def run():
            V = np.array([a, math.inf, math.inf, b])
            grid.march(grid.Grid2D(2, 2, s), V, [0, 3], np.zeros(4, bool),
                       np.ones(4))
            return V[1]

        assert both_paths(run) == (want, want)


class TestNodeUpdate:
    def test_all_infinite(self):
        got = grid.node_update((math.inf,) * 4, 1.0, 2.5, 1.0, 1.0, 0.1)
        assert got == 2.5

    def test_symmetric(self):
        got = grid.node_update((0.0, 0.0, 0.0, 0.0), 1.0, 1.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(SQ)

    def test_residual_zero(self, rng):
        # the returned value satisfies the upwind equation given the neighbors
        h = 0.2
        for _ in range(200):
            nbrs = tuple(rng.uniform(0, 3, 4))
            K, f, lam = rng.uniform(0.1, 2, 3)
            q = rng.uniform(0, 6)
            V = grid.node_update(nbrs, K, q, f, lam, h)
            v1, v2, v3, v4 = nbrs
            gx = max((V - v3) / h, (V - v1) / h, 0.0)
            gy = max((V - v4) / h, (V - v2) / h, 0.0)
            rhs = q + min(K - f * math.hypot(gx, gy), 0.0) / lam
            assert V == pytest.approx(rhs, abs=1e-11)


class TestSemiLagrangian:
    def test_symmetric_example(self):
        got = semi_lagrangian_update(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(SQ, abs=1e-9)

    def test_vertex_case(self):
        got = semi_lagrangian_update(0.0, math.inf, 1.0, 2.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(1.5)

    def test_constant(self):
        c = 2.2
        assert semi_lagrangian_update(c, c, 0.0, c, 1.0, 0.5, 0.1) == \
            pytest.approx(c)

    def test_matches_quadrant(self, rng):
        worst = 0.0
        for _ in range(1000):
            v1, v2 = rng.uniform(0, 5, 2)
            K = rng.uniform(0, 3)
            q = rng.uniform(max(v1, v2), max(v1, v2) + 5)
            f = rng.uniform(0.3, 2)
            lam = rng.uniform(0.05, 5)
            h = rng.uniform(0.01, 0.5)
            a = grid.quadrant_update(v1, v2, K, q, f, lam, h)
            b = semi_lagrangian_update(v1, v2, K, q, f, lam, h)
            worst = max(worst, abs(a - b))
        assert worst <= 1e-10
