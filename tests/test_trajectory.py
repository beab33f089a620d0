import json
import math
import tracemalloc

import numpy as np
import pytest

from randterm import analytic, grid, io, native, trajectory
from randterm.analytic import RadialCase, radial_grid

from conftest import JSON_SCENARIOS, MASKED_RECT, scenario, trace_oracle


class TestGradientField:
    def test_linear_field_exact(self):
        g = grid.Grid2D(nx=21, ny=21, h=0.1)
        X, Y = np.meshgrid(g.xs(), g.ys())
        V = 2.0 * X - 3.0 * Y
        mask = np.zeros_like(V, dtype=bool)
        Gx, Gy = trajectory.gradient_field(V, mask, g.h)
        assert np.allclose(Gx, 2.0, atol=1e-12)
        assert np.allclose(Gy, -3.0, atol=1e-12)

    def test_one_sided_next_to_mask(self):
        g = grid.Grid2D(nx=5, ny=5, h=1.0)
        X, _ = np.meshgrid(g.xs(), g.ys())
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
        path = trajectory.trace(sol, pb, (1.5, 0.0))
        seg = np.linalg.norm(np.diff(path.points[:-1], axis=0), axis=1)
        assert seg.max() <= pb.grid.h / 2 + 1e-12

    def test_masked_start_refused(self, tmp_path):
        # V is +inf on a masked point: no path starts there
        path = tmp_path / "masked.json"
        path.write_text(json.dumps(MASKED_RECT))
        pb = io.load_grid_scenario(str(path))
        sol = grid.fmm_solve(pb)
        for start in ((1.0, 1.0), (1.05, 0.95)):
            with pytest.raises(ValueError, match="lies on a masked point"):
                trajectory.trace(sol, pb, start)
        assert trajectory.trace(sol, pb, (0.5, 0.5)).status == "ok"

    def test_max_steps_status(self):
        # no solver gives a field that never reaches its motionless set, so
        # hand-build one: the ramp V = x with nothing motionless; the path
        # walks left, clamps at the edge and uses up its 10 (nx + ny) steps
        g = grid.Grid2D(nx=21, ny=11, h=0.1)
        pb = grid.GridProblem(grid=g, f=1.0, K=1.0, q=5.0, lam=1.0)
        V = np.broadcast_to(g.xs(), (g.ny, g.nx)).copy()
        sol = grid.GridSolution(V, None, np.zeros((g.ny, g.nx), bool))
        path = assert_same_trace(sol, pb, (1.5, 0.5))
        assert path.status == "max_steps"
        assert len(path.points) == 10 * (g.nx + g.ny) + 1
        assert path.points[-1].tolist() == [0.0, 0.5]


def assert_same_trace(sol, pb, start):
    """trace gives trace_oracle's points, values and status, bit for bit."""
    path = trajectory.trace(sol, pb, start)
    want = trace_oracle(sol, pb, start)
    assert path.points.tobytes() == want.points.tobytes()
    assert path.values.tobytes() == want.values.tobytes()
    assert path.status == want.status
    return path


def tile_of(g, point):
    """The tile of the grid cell that anchors point's interpolation."""
    x, y = point
    i = min(max(math.floor((x - g.origin[0]) / g.h), 0), g.nx - 2)
    j = min(max(math.floor((y - g.origin[1]) / g.h), 0), g.ny - 2)
    return j // trajectory.TILE, i // trajectory.TILE


class TestTiledTrace:
    @pytest.mark.parametrize("n", [101, 201])
    @pytest.mark.parametrize("name", JSON_SCENARIOS)
    def test_matches_the_whole_grid_trace(self, name, n):
        pb = io.load_grid_scenario(scenario(name), None, n)
        sol = grid.fmm_solve(pb)
        g, mask = pb.grid, pb.mask()
        rng = np.random.default_rng(n)
        starts = []
        while len(starts) < 20:
            start = tuple(rng.uniform(g.origin, (g.xs()[-1], g.ys()[-1])))
            if not mask[g.nearest_index(start)]:
                starts.append(start)
        statuses = {assert_same_trace(sol, pb, s).status for s in starts}
        assert "ok" in statuses

    def test_snap_window_crosses_a_tile_edge(self):
        # the origin, the trivial case's only motionless point, is the first
        # cell of a tile; a path from the lower left snaps to it from the
        # tile before
        n = 2 * trajectory.TILE + 1
        pb = RadialCase("trivial", 0.5).problem(radial_grid(n))
        sol = grid.fmm_solve(pb)
        path = assert_same_trace(sol, pb, (-1.5, -0.6))
        assert path.status == "ok" and path.points[-1].tolist() == [0.0, 0.0]
        assert tile_of(pb.grid, path.points[-2]) != tile_of(pb.grid,
                                                             path.points[-1])

    def test_snap_window_crosses_the_grid_edge(self):
        # the origin two cells from the grid's lower and left edges
        g = grid.Grid2D.spanning((-0.08, 3.92, -0.08, 3.92), 101, 101)
        pb = RadialCase("trivial", 0.5).problem(g)
        sol = grid.fmm_solve(pb)
        path = assert_same_trace(sol, pb, (1.5, 1.0))
        assert path.status == "ok" and path.points[-1].tolist() == [0.0, 0.0]
        x, y = path.points[-2]
        reach = math.ceil(trajectory.SNAP_CELLS) + 1
        assert math.floor((y - g.origin[1]) / g.h) - reach < 0

    def test_snap_tie_goes_to_the_first_point_in_row_major_order(self):
        # q is the distance to the nearer of (10, 8) and (10, 12), both
        # motionless; the start is sqrt(5) from each, within the snap radius
        g = grid.Grid2D(nx=21, ny=21, h=1.0)
        X, Y = np.meshgrid(g.xs(), g.ys())
        q = np.minimum(np.hypot(X - 10, Y - 8), np.hypot(X - 10, Y - 12))
        pb = grid.GridProblem(grid=g, f=1.0, K=0.0, q=q, lam=0.5)
        sol = grid.fmm_solve(pb)
        path = assert_same_trace(sol, pb, (11.0, 10.0))
        assert path.points.tolist() == [[11.0, 10.0], [10.0, 8.0]]


@pytest.fixture(scope="module")
def radial_801():
    """The grid workload's radial case: radial_circular.json at 801^2, its
    fmm solution, and the start perfbench draws at seed 7."""
    if native.library() is None:
        pytest.skip("an 801^2 solve needs the compiled march")
    pb = io.load_grid_scenario(scenario("radial_circular.json"), None, 801)
    rng = np.random.default_rng(7)
    r, a = rng.uniform(0.8, 1.0), rng.uniform(0.0, 2 * math.pi)
    start = tuple(float("%.4f" % v) for v in (r * math.cos(a), r * math.sin(a)))
    return pb, grid.fmm_solve(pb), start


class TestRadial801:
    def test_matches_the_whole_grid_trace(self, radial_801):
        pb, sol, start = radial_801
        assert assert_same_trace(sol, pb, start).status == "ok"

    def test_memory_grows_with_the_path(self, radial_801):
        # the whole-grid trace peaks near 40 MB above its entry here
        pb, sol, start = radial_801
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            trajectory.trace(sol, pb, start)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 8 * pb.grid.nx * pb.grid.ny
