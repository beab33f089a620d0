import ctypes
import glob
import logging
import math
import os
import re
import shutil
import subprocess
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randterm import analytic, graph, grid, io, native
from randterm.analytic import RadialCase, radial_grid
from randterm.eikonal import eikonal_solve

from conftest import SCENARIOS, bit_equal, both_paths, scenario


class TestGeometry:
    def test_spanning_grid(self):
        assert (grid.Grid2D.spanning((-2, 2, -2.0, 2.0), 5, 5)
                == grid.Grid2D(5, 5, 1.0, (-2.0, -2.0)))
        assert radial_grid(401).h == 4.0 / 400

    @pytest.mark.parametrize("extent, n, message", [
        ((0.0, 1.0, 0.0, 1.0), 10 ** 400, "exceeds"),
        ((0.0, 1.0, 0.0, 1.0), 1, "at least 2 points"),
        ((0, 10 ** 400, 0, 1), 11, "extent must be finite"),
        ((0, 1, math.nan, 1), 11, "extent must be finite"),
        ((0, 2, 0, 1), 11, "spacing must match"),
        ((-1e308, 1e308, -1e308, 1e308), 11, "positive and finite"),
        ((1, 0, 1, 0), 11, "positive and finite"),
    ])
    def test_spanning_rejects(self, extent, n, message):
        with pytest.raises(ValueError, match=message):
            grid.Grid2D.spanning(extent, n, n)

    @pytest.mark.parametrize("point", [(math.inf, 0.5), (0.5, math.nan),
                                       (1.2, 0.5), (-0.06, 0.5)])
    def test_nearest_index_outside(self, point):
        with pytest.raises(ValueError, match="outside the grid"):
            grid.Grid2D.spanning((0, 1, 0, 1), 11, 11).nearest_index(point)

    def test_neighbours(self):
        a = np.arange(12.0).reshape(3, 4)
        west, east, south, north = grid.neighbours(a, -1.0)
        assert (west[1, 1], east[1, 1], south[1, 1], north[1, 1]) == (
            a[1, 0], a[1, 2], a[0, 1], a[2, 1])
        assert (west[:, 0] == -1).all() and (east[:, -1] == -1).all()
        assert (south[0] == -1).all() and (north[-1] == -1).all()


class TestFmmAgainstSweep:
    @pytest.mark.parametrize("case,lam", [("trivial", 0.5), ("circular", 0.5),
                                          ("circular", 5.0)])
    def test_agreement(self, case, lam):
        pb = RadialCase(case, lam).problem(radial_grid(61))
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
            assert np.array_equal(fmm.motionless, sw.motionless)


class TestSolutionProperties:
    def test_residual_small(self):
        pb = RadialCase("circular", 1.0).problem(radial_grid(81))
        sol = grid.fmm_solve(pb)
        res = grid.discretization_residual(pb, sol.V)
        assert np.max(np.abs(res)) <= 1e-10

    def test_obstacle_bounds(self):
        pb = RadialCase("circular", 1.0).problem(radial_grid(81))
        sol = grid.fmm_solve(pb)
        assert np.all(sol.V <= pb.q + 1e-12)
        assert np.all(sol.V >= pb.q.min() - 1e-12)

    def test_acceptance_order_monotone(self):
        pb = RadialCase("trivial", 0.5).problem(radial_grid(61))
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
            pb = RadialCase("circular", lam).problem(radial_grid(61))
            sol = grid.fmm_solve(pb)
            if prev is not None:
                assert np.all(sol.V >= prev - 1e-10)
            prev = sol.V

    def test_motionless_nesting(self):
        # motionless set grows with lambda (circular case: disk shrinks toward
        # r=1 from outside, so M = {r >= r_lam} grows)
        sols = {}
        pbs = {}
        for lam in (0.5, 2.0, 10.0):
            pbs[lam] = RadialCase("circular", lam).problem(radial_grid(61))
            sols[lam] = grid.fmm_solve(pbs[lam])
        # a truncation-scale tolerance, not the solvers' roundoff-scale one
        eps = 1e-6 * 2.0 * math.sqrt(2.0)
        m_small, m_mid, m_big = (pbs[lam].q - sols[lam].V <= eps
                                 for lam in (0.5, 2.0, 10.0))
        assert np.all(m_small <= m_mid)
        assert np.all(m_mid <= m_big)

    def test_large_lambda_approaches_q(self):
        pb_template = RadialCase("trivial", 1.0).problem(radial_grid(41))
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
        assert sol.motionless.all()

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

    def test_residual_zero_on_mask(self):
        # inf - inf on masked points raises no warning (an error here)
        pb = self.build()
        res = grid.discretization_residual(pb, grid.fmm_solve(pb).V)
        assert np.all(res[pb.mask()] == 0.0)
        assert np.max(np.abs(res)) <= 1e-10

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
        pb = RadialCase("circular", 0.5).problem(radial_grid(61))
        sol = grid.sweep_oracle(pb, max_iters=1)
        assert sol.status == "not_converged"
        assert sol.iterations == 1

    def test_nonconvergence_logged_once(self, caplog):
        pb = RadialCase("circular", 0.5).problem(radial_grid(61))
        with caplog.at_level(logging.WARNING, logger="randterm"):
            sol = grid.sweep_oracle(pb, max_iters=2)
        [record] = caplog.records
        assert record.name == "randterm"
        res = np.abs(grid.discretization_residual(pb, sol.V)).max()
        assert record.getMessage() == (
            "sweeping did not converge after 2 iterations; max residual "
            "%.3e" % res)


class TestMotionlessSet:
    def test_boundary_points_on_circle(self):
        lam = 1.0
        pb = RadialCase("circular", lam).problem(radial_grid(101))
        sol = grid.fmm_solve(pb)
        mset = grid.motionless_set(sol, pb)
        radii = np.hypot(mset.boundary_points[:, 0], mset.boundary_points[:, 1])
        # the origin is an isolated motionless point; the circle is the rest
        radii = radii[radii > 0.5]
        r_exact = analytic.free_boundary_radius(lam)
        assert radii.size > 0
        assert np.max(np.abs(radii - r_exact)) <= 2 * pb.grid.h

    @pytest.mark.parametrize("far_q", [None, 1e10])
    @pytest.mark.parametrize("solve", [grid.fmm_solve, grid.sweep_oracle])
    def test_trivial_case_origin_only(self, solve, far_q):
        # a costly far corner widens no other point's motionless tolerance
        pb = RadialCase("trivial", 0.5).problem(radial_grid(101))
        if far_q is not None:
            pb.q[0, 0] = far_q
        sol = solve(pb)
        mset = grid.motionless_set(sol, pb)
        jj, ii = np.nonzero(sol.motionless)
        assert len(jj) == 1
        assert (jj[0], ii[0]) == pb.grid.nearest_index((0.0, 0.0))
        assert mset.boundary_points.tolist() == [[0.0, 0.0]]

    @pytest.mark.parametrize("solve", [grid.fmm_solve, grid.sweep_oracle])
    def test_boundary_of_the_solution(self, solve):
        # the free boundary is read off solution.motionless: motionless points
        # with a live, moving 4-neighbour (a masked one does not count); the
        # circular case with a wall (q = +inf) across its free boundary
        case = RadialCase("circular", 1.0).problem(radial_grid(41))
        X, Y = np.meshgrid(case.grid.xs(), case.grid.ys())
        wall = (np.abs(X - 1.0) <= 0.1) & (np.abs(Y) <= 1.0)
        pb = grid.GridProblem(grid=case.grid, f=1.0, K=case.K, lam=1.0,
                              q=np.where(wall, math.inf, case.q))
        sol = solve(pb)
        moving = ~sol.motionless & ~pb.mask()
        padded = np.pad(moving, 1)
        expected = sol.motionless & (padded[1:-1, :-2] | padded[1:-1, 2:]
                                     | padded[:-2, 1:-1] | padded[2:, 1:-1])
        assert np.array_equal(sol.motionless,
                              graph.motionless(sol.V, pb.q) & ~pb.mask())
        assert not sol.motionless[pb.mask()].any()
        mset = grid.motionless_set(sol, pb)
        assert expected.any() and pb.mask().any()
        assert np.array_equal(mset.boundary_mask, expected)
        assert np.array_equal(mset.boundary_points,
                              np.column_stack([X[expected], Y[expected]]))
        # what it reads is the solution's set, not one recomputed from V
        sol.motionless = np.zeros_like(sol.motionless)
        assert not grid.motionless_set(sol, pb).boundary_mask.any()


def random_problem(rng, nx, ny):
    """Random fields on an nx x ny grid: plateaus of q (rounded values),
    masked points, zero running costs and a scalar or pointwise lambda."""
    shape = (ny, nx)
    q = np.round(rng.uniform(0.0, 3.0, shape), int(rng.integers(0, 3)))
    q[rng.random(shape) < rng.uniform(0.0, 0.3)] = math.inf
    K = rng.uniform(0.0, 2.0, shape) * (rng.random(shape) < 0.7)
    lam = rng.uniform(0.05, 5.0, shape if rng.random() < 0.5 else None)
    g = grid.Grid2D(nx=nx, ny=ny, h=rng.uniform(0.05, 1.0))
    return grid.GridProblem(grid=g, f=rng.uniform(0.2, 3.0, shape), K=K, q=q,
                            lam=lam)


@pytest.mark.usefixtures("compiled_march")
class TestCompiledMarch:
    """fmm_solve through march.c gives the Python march's V, bit for bit,
    its acceptance order and its heap operations."""

    @staticmethod
    def check(pb):
        compiled, python = both_paths(lambda: grid.fmm_solve(pb))
        assert bit_equal(compiled.V, python.V)
        assert np.array_equal(compiled.order, python.order)
        assert compiled.heap_operations == python.heap_operations
        return compiled

    @pytest.mark.parametrize("name", sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(SCENARIOS,
                                                            "*.json"))))
    def test_scenarios(self, name):
        sol = self.check(io.load_grid_scenario(scenario(name)))
        assert sol.heap_operations >= 2 * (sol.order >= 0).sum()

    def test_constant_q_index_order(self):
        # every point is a seed at the one value q and stays there (K > 0),
        # so the index alone orders the pops: row-major acceptance
        g = grid.Grid2D(nx=37, ny=23, h=0.1)
        sol = self.check(grid.GridProblem(grid=g, f=1.0, K=0.5, q=2.0,
                                          lam=1.0))
        assert np.all(sol.V == 2.0)
        assert sol.order.ravel().tolist() == list(range(37 * 23))
        assert sol.heap_operations == 2 * 37 * 23

    def test_constant_q_varied_fields(self):
        # with K = 0 an update can land an ulp below q, and masked points
        # break the rows; the index still decides every tie of a seed
        rng = np.random.default_rng(5)
        g = grid.Grid2D(nx=41, ny=29, h=0.07)
        q = np.full((29, 41), 1.5)
        q[rng.random((29, 41)) < 0.1] = math.inf
        pb = grid.GridProblem(grid=g, f=rng.uniform(0.3, 3.0, (29, 41)),
                              K=0.0, q=q,
                              lam=rng.uniform(0.1, 4.0, (29, 41)))
        assert grid.local_minima_mask(pb.q).sum() == (~pb.mask()).sum()
        self.check(pb)

    @pytest.mark.parametrize("case, lam, n", [("circular", 0.5, 201),
                                              ("trivial", 5.0, 101)])
    def test_radial(self, case, lam, n):
        self.check(RadialCase(case, lam).problem(radial_grid(n)))

    def test_masked_plateaus_rectangular(self):
        rng = np.random.default_rng(3)
        pb = grid.GridProblem(
            grid=grid.Grid2D(nx=57, ny=43, h=0.1),
            f=rng.uniform(0.2, 3.0, (43, 57)), K=0.0,
            q=np.round(rng.uniform(0.0, 3.0, (43, 57))),
            lam=rng.uniform(0.1, 4.0, (43, 57)))
        pb.q[10:35, 20] = math.inf
        assert pb.mask().any() and grid.local_minima_mask(pb.q).sum() > 50
        self.check(pb)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 16), st.integers(2, 16))
    def test_random_fields(self, seed, nx, ny):
        self.check(random_problem(np.random.default_rng(seed), nx, ny))


class TestFieldStorage:
    """A constant field is one read-only float, an array of the grid's shape
    is kept as given, and neither changes a bit of a solve."""

    @staticmethod
    def problems():
        """Problems with a constant f and lambda, in pairs: as numbers, and
        as full arrays of the same values."""
        rng = np.random.default_rng(11)
        g = grid.Grid2D(nx=37, ny=29, h=0.08)
        q = np.round(rng.uniform(0.0, 3.0, (29, 37)), 1)
        q[rng.random((29, 37)) < 0.1] = math.inf
        K = rng.uniform(0.0, 2.0, (29, 37))
        radial = RadialCase("circular", 0.5).problem(radial_grid(61))
        for g, K, q, f, lam in ((g, K, q, 0.7, 1.3),
                                (radial.grid, radial.K, radial.q, 1.0, 0.5)):
            shape = (g.ny, g.nx)
            yield [grid.GridProblem(grid=g, f=f1, K=K, q=q, lam=lam1)
                   for f1, lam1 in ((f, lam), (np.full(shape, f),
                                               np.full(shape, lam)))]

    def test_numbers_and_arrays_solve_alike(self):
        for numbers, arrays in self.problems():
            assert numbers.f.strides == numbers.lam.strides == (0, 0)
            assert arrays.f.strides != (0, 0)
            runs = [*both_paths(lambda: grid.fmm_solve(numbers)),
                    *both_paths(lambda: grid.fmm_solve(arrays))]
            for sol in runs[1:]:
                assert bit_equal(sol.V, runs[0].V)
                assert np.array_equal(sol.order, runs[0].order)
                assert sol.heap_operations == runs[0].heap_operations
            times = [*both_paths(lambda: eikonal_solve(numbers.grid,
                                                       numbers.f, (2, 3))),
                     *both_paths(lambda: eikonal_solve(arrays.grid,
                                                       arrays.f, (2, 3)))]
            for u in times[1:]:
                assert bit_equal(u, times[0])

    def test_constant_is_read_only(self):
        pb = grid.GridProblem(grid=grid.Grid2D(nx=5, ny=4, h=1.0), f=2.0,
                              K=0.0, q=1.0, lam=0.5)
        for field in (pb.f, pb.K, pb.q, pb.lam):
            assert field.shape == (4, 5) and field.strides == (0, 0)
            with pytest.raises(ValueError, match="read-only"):
                field[1, 2] = 3.0
        assert pb.f[3, 4] == 2.0 and pb.lam[0, 0] == 0.5

    def test_array_kept_without_a_copy(self):
        g = grid.Grid2D(nx=5, ny=4, h=1.0)
        f, K, q = (np.full((4, 5), v) for v in (1.0, 2.0, 3.0))
        lam = np.full((4, 5), 1)  # ints: copied into a new float64 grid
        pb = grid.GridProblem(grid=g, f=f, K=K, q=q, lam=lam)
        assert pb.f is f and pb.K is K and pb.q is q
        assert pb.lam.dtype == np.float64 and not np.shares_memory(pb.lam,
                                                                   lam)

    def test_no_two_writable_fields_alias(self):
        # the circular case gives K and q the same radii
        pb = RadialCase("circular", 0.5).problem(radial_grid(21))
        assert np.array_equal(pb.K, pb.q) and not np.shares_memory(pb.K, pb.q)
        a = np.full((4, 5), 2.0)
        pb = grid.GridProblem(grid=grid.Grid2D(nx=5, ny=4, h=1.0), f=a,
                              K=a, q=a[::-1], lam=a)
        fields = (pb.f, pb.K, pb.q, pb.lam)
        assert pb.f is a and all(x.flags.writeable for x in fields)
        assert not any(np.shares_memory(x, y) for k, x in enumerate(fields)
                       for y in fields[k + 1:])

    def test_motionless_in_blocks(self):
        # more cells than a block, V on, near and off q, and a constant q
        rng = np.random.default_rng(2)
        q = rng.uniform(-5.0, 5.0, (300, 301))
        q[rng.random(q.shape) < 0.05] = math.inf
        step = rng.choice([0.0, 1e-13, -4e-12, 1e-3], q.shape)
        for q in (q, np.broadcast_to(2.5, q.shape)):
            with np.errstate(invalid="ignore"):
                V = q + step
            with np.errstate(invalid="ignore", over="ignore"):
                whole = (V == q) | (np.isfinite(q) & (
                    np.abs(V - q) <= 1e-12 * np.maximum(1.0, abs(q))))
            assert np.array_equal(graph.motionless(V, q), whole)


class TestKernelLoading:
    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        clear = native.library.cache_clear  # tests may patch native.library
        clear()
        yield
        clear()

    def fallback_warnings(self, caplog, out):
        """Solve twice, then load and solve a graph file and write both
        solutions into the directory out, which the library also serves;
        the messages logged on the "randterm" channel."""
        pb = RadialCase("circular", 0.5).problem(radial_grid(11))
        with caplog.at_level(logging.WARNING, logger="randterm"):
            grid.fmm_solve(pb)
            io.write_field_csv(str(out / "value.csv"), grid.fmm_solve(pb).V)
            chain = io.load_graph(scenario("three_node_chain.txt"),
                                  default_p=0.5)
            io.write_graph_solution(str(out / "solution.csv"), chain,
                                    graph.dijkstra_solve(chain))
        assert (out / "value.csv").exists() and (out / "solution.csv").exists()
        return [r.getMessage() for r in caplog.records]

    def test_no_compiler(self, caplog, monkeypatch, tmp_path):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        assert self.fallback_warnings(caplog, tmp_path) == [
            "compiled code unavailable, using the Python twins: "
            "no C compiler (cc or gcc) found"]

    @pytest.mark.usefixtures("compiled_march")
    def test_compile_error(self, caplog, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "_CFLAGS",
                            native._CFLAGS + ("-std=no-such-standard",))
        [message] = self.fallback_warnings(caplog, tmp_path)
        assert "using the Python twins: compile error: " in message

    @pytest.mark.usefixtures("compiled_march")
    def test_unwritable_cache(self, caplog, monkeypatch, tmp_path):
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        [message] = self.fallback_warnings(caplog, tmp_path)
        assert ("using the Python twins: cache directory is not writable"
                in message)

    @pytest.mark.usefixtures("compiled_march")
    def test_built_once_into_the_cache(self, monkeypatch, tmp_path):
        assert native.library() is not None
        built = list((tmp_path / "cache" / "randterm").glob("*/*"))
        assert [p.name for p in built] == ["native.so"]
        native.library.cache_clear()
        monkeypatch.setattr(subprocess, "run", None)  # no second build
        assert native.library() is not None

    @pytest.mark.usefixtures("compiled_march")
    def test_bad_arrays_raise(self):
        g, blocked = grid.Grid2D(nx=4, ny=4, h=1.0), np.zeros(16, dtype=bool)
        for V, seeds, f in ((np.zeros(12), [0], np.ones(16)),
                            (np.zeros(16), [0], np.ones(15)),
                            (np.zeros(16), [16], np.ones(16)),
                            (np.zeros(16), [-1], np.ones(16))):
            with pytest.raises(ValueError, match="nx \\* ny = 16 points"):
                grid.march(g, V, seeds, blocked, f)

    def test_unreadable_source(self, caplog, monkeypatch, tmp_path):
        # a package installed without one of its C sources runs the twins
        monkeypatch.setattr(native, "_SOURCES",
                            native._SOURCES + ("missing.c",))
        [message] = self.fallback_warnings(caplog, tmp_path)
        assert message.startswith("compiled code unavailable, using the "
                                  "Python twins: cannot read a C source")
        assert "missing.c" in message

    def test_package_data_covers_sources(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        root = os.path.join(os.path.dirname(__file__), "..")
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            project = tomllib.load(fh)
        data = project["tool"]["setuptools"]["package-data"]["randterm"]
        assert set(native._SOURCES) <= set(data)

    @pytest.mark.parametrize("source", native._SOURCES)
    def test_source_free_of_warnings(self, source, tmp_path):
        # built as native.library() builds it, so that the warnings of the
        # optimisation passes show too
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            pytest.skip("no C compiler (cc or gcc) found")
        path = os.path.join(os.path.dirname(native.__file__), source)
        run = subprocess.run([cc, *native._CFLAGS, "-Wall", "-Wextra",
                              "-Werror", "-o", str(tmp_path / "lib.so"), path,
                              "-lm"], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    @pytest.mark.usefixtures("compiled_march")
    def test_declarations_match_the_c_definitions(self):
        # ctypes checks no arity: a declaration that drifts from its C
        # definition passes wrong arguments without an error.  Each
        # non-static function must be declared with its C return type and,
        # parameter by parameter, its scalar type or pointer element type.
        scalars = {"int64_t": ctypes.c_int64, "int": ctypes.c_int,
                   "double": ctypes.c_double}
        elements = {"int64_t": np.int64, "double": np.float64,
                    "uint8_t": np.uint8, "char": np.uint8}
        lib, defined, drift = native.library(), [], []
        for source in native._SOURCES:
            with open(os.path.join(os.path.dirname(native.__file__),
                                   source)) as fh:
                text = fh.read()
            for restype, name, params in re.findall(
                    r"^(?!static\b)(\w+) (\w+)\(([^)]*)\)\s*\{", text, re.M):
                defined.append(name)
                fn, params = getattr(lib, name), params.split(",")
                if (fn.restype is not scalars[restype] or fn.argtypes is None
                        or len(fn.argtypes) != len(params)):
                    drift.append(name)
                    continue
                for param, argtype in zip(params, fn.argtypes):
                    ctype = param.replace("const", "").split("*")[0].split()[0]
                    if "*" not in param:
                        same = argtype is scalars[ctype]
                    elif argtype is ctypes.c_char_p:
                        same = ctype == "char"
                    else:
                        same = (getattr(argtype, "_dtype_", None)
                                == np.dtype(elements[ctype]))
                    if not same:
                        drift.append("%s: %s" % (name, param.strip()))
        assert sorted(defined) == ["assemble", "csv_rows", "distance_mix",
                                   "label", "march", "scan"]
        assert drift == []

    def test_allocation_failure_is_memory_error(self, monkeypatch):
        monkeypatch.setattr(native, "library", lambda: types.SimpleNamespace(
            march=lambda *args: -1))
        with pytest.raises(MemoryError):
            eikonal_solve(grid.Grid2D(nx=3, ny=3, h=1.0), 1.0, (1, 1))
