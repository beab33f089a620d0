import math

import numpy as np
import pytest

from randterm import analytic, grid


def radial_problem(case, lam, n=101):
    g = grid.Grid2D(nx=n, ny=n, h=4.0 / (n - 1), origin=(-2.0, -2.0))
    X, Y = g.meshgrid()
    R = np.hypot(X, Y)
    K = R if case == "circular" else 0.0
    return grid.GridProblem(grid=g, f=1.0, K=K, q=R, lam=lam)


class TestFmmAgainstSweep:
    @pytest.mark.parametrize("case,lam", [("trivial", 0.5), ("circular", 0.5),
                                          ("circular", 5.0)])
    def test_agreement(self, case, lam):
        pb = radial_problem(case, lam, n=61)
        fmm = grid.fmm_solve(pb)
        sw = grid.sweep_oracle(pb)
        assert sw.status == "ok"
        assert np.max(np.abs(fmm.V - sw.V)) <= 1e-10

    def test_agreement_variable_coefficients(self, rng):
        g = grid.Grid2D(nx=41, ny=31, h=0.1)
        for walls in (False, True):
            f = rng.uniform(0.5, 2.0, (31, 41))
            K = rng.uniform(0.0, 1.0, (31, 41))
            q = rng.uniform(0.0, 3.0, (31, 41))
            lam = rng.uniform(0.2, 2.0, (31, 41))
            if walls:  # +inf terminal cost masks the points out
                q[5:25, 12] = math.inf
                q[10, 20:38] = math.inf
                q[rng.random((31, 41)) < 0.1] = math.inf
            pb = grid.GridProblem(grid=g, f=f, K=K, q=q, lam=lam)
            fmm = grid.fmm_solve(pb)
            sw = grid.sweep_oracle(pb)
            assert sw.status == "ok"
            live = ~pb.mask()
            assert np.max(np.abs(fmm.V[live] - sw.V[live])) <= 1e-9
            assert np.all(np.isinf(fmm.V[~live]))
            assert np.array_equal(fmm.motionless_mask, sw.motionless_mask)


class TestSolutionProperties:
    def test_residual_small(self):
        pb = radial_problem("circular", 1.0, n=81)
        sol = grid.fmm_solve(pb)
        res = grid.discretization_residual(pb, sol.V)
        assert np.max(np.abs(res)) <= 1e-10

    def test_obstacle_bounds(self):
        pb = radial_problem("circular", 1.0, n=81)
        sol = grid.fmm_solve(pb)
        assert np.all(sol.V <= pb.q + 1e-12)
        assert np.all(sol.V >= pb.q.min() - 1e-12)

    def test_acceptance_order_monotone(self):
        pb = radial_problem("trivial", 0.5, n=61)
        sol = grid.fmm_solve(pb)
        flatV = sol.V.ravel()
        flat_order = sol.order.ravel()
        acc = flat_order >= 0
        assert acc.all()
        vals = flatV[np.argsort(flat_order[acc])]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_lambda_monotonicity(self):
        # larger termination rate -> less time to benefit from moving -> V grows
        prev = None
        for lam in (0.25, 0.5, 1.0, 5.0, 25.0):
            sol = grid.fmm_solve(radial_problem("circular", lam, n=61))
            if prev is not None:
                assert np.all(sol.V >= prev - 1e-10)
            prev = sol.V

    def test_motionless_nesting(self):
        # motionless set grows with lambda (circular case: disk shrinks toward
        # r=1 from outside, so M = {r >= r_lam} grows)
        sols = {}
        pbs = {}
        for lam in (0.5, 2.0, 10.0):
            pbs[lam] = radial_problem("circular", lam, n=61)
            sols[lam] = grid.fmm_solve(pbs[lam])
        eps = 1e-6 * 2.0 * math.sqrt(2.0)
        m_small = grid.motionless_set(sols[0.5], pbs[0.5], eps=eps).mask
        m_mid = grid.motionless_set(sols[2.0], pbs[2.0], eps=eps).mask
        m_big = grid.motionless_set(sols[10.0], pbs[10.0], eps=eps).mask
        assert np.all(m_small <= m_mid)
        assert np.all(m_mid <= m_big)

    def test_large_lambda_approaches_q(self):
        pb_template = radial_problem("trivial", 1.0, n=41)
        prev_gap = None
        for lam in (1.0, 10.0, 100.0, 1000.0):
            pb = grid.GridProblem(grid=pb_template.grid, f=1.0, K=0.0,
                                  q=pb_template.q, lam=lam)
            sol = grid.fmm_solve(pb)
            gap = float(np.max(pb.q - sol.V))
            assert gap <= 1.01 / lam  # v >= q - f|grad q|/lam with |grad q|<=1
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap

    def test_constant_q_positive_K_all_motionless(self):
        g = grid.Grid2D(nx=21, ny=21, h=0.1)
        pb = grid.GridProblem(grid=g, f=1.0, K=0.5, q=2.0, lam=1.0)
        sol = grid.fmm_solve(pb)
        assert np.allclose(sol.V, 2.0)
        assert sol.motionless_mask.all()

    def test_constant_q_zero_K_all_motionless(self):
        g = grid.Grid2D(nx=21, ny=21, h=0.1)
        pb = grid.GridProblem(grid=g, f=1.0, K=0.0, q=2.0, lam=1.0)
        sol = grid.fmm_solve(pb)
        assert np.allclose(sol.V, 2.0)


class TestMask:
    def build(self):
        g = grid.Grid2D(nx=31, ny=31, h=0.1)
        q = np.full((31, 31), 3.0)
        q[10:20, 14:17] = math.inf  # interior wall
        q[5, 5] = 0.0
        return grid.GridProblem(grid=g, f=1.0, K=0.0, q=q, lam=0.5)

    def test_masked_points_never_accepted(self):
        pb = self.build()
        sol = grid.fmm_solve(pb)
        m = pb.mask()
        assert np.all(np.isinf(sol.V[m]))
        assert np.all(sol.order[m] == -1)
        assert np.all(np.isfinite(sol.V[~m]))

    def test_value_detours_around_wall(self):
        pb = self.build()
        sol = grid.fmm_solve(pb)
        # point straight across the wall from the source must cost more than
        # the unobstructed point at equal euclidean distance
        jsrc, isrc = 5, 5
        far = sol.V[15, 25]
        d = math.hypot((25 - isrc) * 0.1, (15 - jsrc) * 0.1)
        free = analytic.exact_value(analytic.RadialCase("trivial", 0.5), d)
        assert far > free + 1e-3

    def test_sweep_handles_mask(self):
        pb = self.build()
        fmm = grid.fmm_solve(pb)
        sw = grid.sweep_oracle(pb)
        live = ~pb.mask()
        assert np.max(np.abs(fmm.V[live] - sw.V[live])) <= 1e-10

    def test_minus_inf_q_rejected(self):
        # only q = +inf marks a wall; -inf is a non-finite terminal cost
        g = grid.Grid2D(nx=5, ny=5, h=0.25)
        q = np.ones((5, 5))
        q[2, 2] = -math.inf
        with pytest.raises(ValueError, match="finite off the mask"):
            grid.GridProblem(grid=g, f=1.0, K=0.0, q=q, lam=0.5)


class TestSweepStatus:
    def test_nonconvergence_reported(self):
        pb = radial_problem("circular", 0.5, n=61)
        sol = grid.sweep_oracle(pb, max_sweeps=1)
        assert sol.status == "not_converged"
        assert sol.sweeps == 1


class TestMotionlessSet:
    def test_boundary_points_on_circle(self):
        lam = 1.0
        pb = radial_problem("circular", lam, n=101)
        sol = grid.fmm_solve(pb)
        mset = grid.motionless_set(sol, pb)
        radii = np.hypot(mset.boundary_points[:, 0], mset.boundary_points[:, 1])
        # the origin is an isolated motionless point; the circle is the rest
        radii = radii[radii > 0.5]
        r_exact = analytic.free_boundary_radius(lam)
        assert radii.size > 0
        assert np.max(np.abs(radii - r_exact)) <= 2 * pb.grid.h

    def test_trivial_case_origin_only(self):
        pb = radial_problem("trivial", 0.5, n=101)
        sol = grid.fmm_solve(pb)
        mset = grid.motionless_set(sol, pb)
        jj, ii = np.nonzero(mset.mask)
        assert len(jj) == 1
        assert (jj[0], ii[0]) == pb.grid.nearest_index((0.0, 0.0))
