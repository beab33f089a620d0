import math

import numpy as np
import pytest

from randterm import analytic, grid, trajectory
from randterm.analytic import RadialCase, radial_grid


class TestGradientField:
    def test_linear_field_exact(self):
        g = grid.Grid2D(nx=21, ny=21, h=0.1)
        X, Y = g.meshgrid()
        V = 2.0 * X - 3.0 * Y
        mask = np.zeros_like(V, dtype=bool)
        Gx, Gy = trajectory.gradient_field(V, mask, g.h)
        assert np.allclose(Gx, 2.0, atol=1e-12)
        assert np.allclose(Gy, -3.0, atol=1e-12)

    def test_one_sided_next_to_mask(self):
        g = grid.Grid2D(nx=5, ny=5, h=1.0)
        X, _ = g.meshgrid()
        V = X.copy()
        mask = np.zeros_like(V, dtype=bool)
        mask[2, 3] = True
        V[2, 3] = np.nan
        Gx, _ = trajectory.gradient_field(V, mask, g.h)
        assert Gx[2, 2] == pytest.approx(1.0)  # backward difference
        assert Gx[2, 3] == 0.0  # masked point carries no gradient


class TestTrivialCase:
    def test_straight_descent_to_origin(self):
        pb = RadialCase("trivial", 0.5).problem(radial_grid(101))
        sol = grid.fmm_solve(pb)
        path = trajectory.trace(sol, pb, (1.5, 0.0))
        assert path.status == "ok"
        end = path.points[-1]
        assert math.hypot(*end) <= 2 * pb.grid.h
        # descent follows the radial direction: lateral drift stays small
        assert np.max(np.abs(path.points[:, 1])) <= 2 * pb.grid.h
        assert np.all(np.diff(path.values) <= 1e-10)

    def test_diagonal_start(self):
        pb = RadialCase("trivial", 0.5).problem(radial_grid(101))
        sol = grid.fmm_solve(pb)
        path = trajectory.trace(sol, pb, (1.0, 1.0))
        assert path.status == "ok"
        assert math.hypot(*path.points[-1]) <= 2 * pb.grid.h
        # stays near the diagonal
        dev = np.abs(path.points[:, 0] - path.points[:, 1]) / math.sqrt(2.0)
        assert dev.max() <= 2 * pb.grid.h


class TestCircularCase:
    def test_outside_start_is_motionless(self):
        lam = 1.0
        pb = RadialCase("circular", lam).problem(radial_grid(101))
        sol = grid.fmm_solve(pb)
        r_star = analytic.free_boundary_radius(lam)
        path = trajectory.trace(sol, pb, (r_star + 0.3, 0.0))
        assert len(path.points) == 1

    def test_inside_start_reaches_origin(self):
        lam = 1.0
        pb = RadialCase("circular", lam).problem(radial_grid(101))
        sol = grid.fmm_solve(pb)
        path = trajectory.trace(sol, pb, (0.8, 0.0))
        assert path.status == "ok"
        assert math.hypot(*path.points[-1]) <= 2 * pb.grid.h


class TestStepControl:
    def test_step_capped_at_half_cell(self):
        pb = RadialCase("trivial", 0.5).problem(radial_grid(51))
        sol = grid.fmm_solve(pb)
        path = trajectory.trace(sol, pb, (1.5, 0.0), step=10.0)
        seg = np.linalg.norm(np.diff(path.points[:-1], axis=0), axis=1)
        assert seg.max() <= pb.grid.h / 2 + 1e-12

    def test_max_steps_status(self):
        # a flat-but-not-motionless field cannot happen with these solvers, so
        # force the budget instead: tiny steps on a long path
        pb = RadialCase("trivial", 0.5).problem(radial_grid(21))
        sol = grid.fmm_solve(pb)
        path = trajectory.trace(sol, pb, (1.9, 1.9), step=1e-5)
        assert path.status in ("ok", "max_steps")
        assert len(path.points) <= 10 * (pb.grid.nx + pb.grid.ny) + 2
