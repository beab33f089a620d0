import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randterm import eikonal
from randterm.grid import Grid2D, march, neighbours

from conftest import bit_equal, both_paths


def unit_grid(n=51, extent=2.0):
    return Grid2D.spanning((-extent, extent, -extent, extent), n, n)


class TestCallSpec:
    def test_probabilities_must_sum(self):
        with pytest.raises(ValueError):
            eikonal.CallSpec(locations=[(0, 0), (1, 1)],
                             probabilities=[0.5, 0.6])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            eikonal.CallSpec(locations=[(0, 0), (1, 1)],
                             probabilities=[1.5, -0.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            eikonal.CallSpec(locations=[(0, 0)], probabilities=[0.5, 0.5])


class TestEikonalSolve:
    def test_distance_from_center(self):
        g = unit_grid(n=101)
        src = g.nearest_index((0.0, 0.0))
        u = eikonal.eikonal_solve(g, 1.0, src)
        X, Y = np.meshgrid(g.xs(), g.ys())
        R = np.hypot(X, Y)
        err = np.abs(u - R)
        # first-order scheme; error on this grid is O(h) up to log factors
        assert err.max() <= 4 * g.h
        assert u[src] == 0.0

    def test_axis_values_exact(self):
        # along a gridline through the source the update chain is exact
        g = unit_grid(n=41)
        sj, si = g.nearest_index((0.0, 0.0))
        u = eikonal.eikonal_solve(g, 1.0, (sj, si))
        xs = g.xs()
        assert np.allclose(u[sj, :], np.abs(xs), atol=1e-12)

    def test_speed_scaling(self):
        g = unit_grid(n=41)
        src = g.nearest_index((0.0, 0.0))
        u1 = eikonal.eikonal_solve(g, 1.0, src)
        u2 = eikonal.eikonal_solve(g, 2.0, src)
        assert np.allclose(u2, u1 / 2.0, atol=1e-12)

    def test_mask_blocks_and_detours(self):
        g = Grid2D(nx=41, ny=41, h=0.1)
        mask = np.zeros((41, 41), dtype=bool)
        mask[10:31, 20] = True
        src = (20, 5)
        u = eikonal.eikonal_solve(g, 1.0, src, mask=mask)
        assert np.all(np.isinf(u[mask]))
        # straight-line distance from (0.5, 2.0) to (3.5, 2.0) is 3.0 but the
        # wall forces a detour
        assert u[20, 35] > 3.5

    def test_upwind_residual_masked_variable_speed(self):
        # every reached point solves the two-axis upwind equation from its
        # smaller neighbors: |(u - a)^+, (u - b)^+| = h / f
        rng = np.random.default_rng(7)
        g = Grid2D(nx=47, ny=39, h=0.05)
        mask = rng.random((39, 47)) < 0.1
        mask[5:30, 20] = True
        mask[20, 25:45] = True
        mask[3, 4] = False
        f = rng.uniform(0.5, 2.0, (39, 47))
        u = eikonal.eikonal_solve(g, f, (3, 4), mask=mask)
        assert np.all(np.isinf(u[mask]))
        west, east, south, north = neighbours(u, math.inf)
        a, b = np.minimum(west, east), np.minimum(south, north)
        with np.errstate(invalid="ignore"):  # inf - inf on masked points
            grad = np.hypot(np.maximum(u - a, 0.0), np.maximum(u - b, 0.0))
        check = np.isfinite(u)
        check[3, 4] = False
        assert check.sum() > 0.8 * (~mask).sum()
        assert np.max(np.abs(grad - g.h / f)[check]) <= 1e-12

    def test_speed_must_be_positive_off_mask(self):
        g = Grid2D(nx=11, ny=11, h=0.1)
        f = np.ones((11, 11))
        f[2, 2] = 0.0
        with pytest.raises(ValueError, match="speed"):
            eikonal.eikonal_solve(g, f, (5, 5))
        mask = np.zeros((11, 11), dtype=bool)
        mask[2, 2] = True
        u = eikonal.eikonal_solve(g, f, (5, 5), mask=mask)
        assert np.isinf(u[2, 2]) and np.isfinite(u[~mask]).all()

    def test_masked_source_rejected(self):
        g = Grid2D(nx=11, ny=11, h=0.1)
        mask = np.zeros((11, 11), dtype=bool)
        mask[5, 5] = True
        with pytest.raises(ValueError):
            eikonal.eikonal_solve(g, 1.0, (5, 5), mask=mask)


@pytest.mark.usefixtures("compiled_march")
class TestCompiledMarch:
    """eikonal_solve through march.c gives the Python march's u, bit for
    bit."""

    def test_walls_rectangular(self):
        rng = np.random.default_rng(7)
        g = Grid2D(nx=47, ny=39, h=0.05)
        mask = rng.random((39, 47)) < 0.1
        mask[5:30, 20] = True
        mask[3, 4] = False
        f = rng.uniform(0.5, 2.0, (39, 47))
        for m in (None, mask):
            compiled, python = both_paths(
                lambda: eikonal.eikonal_solve(g, f, (3, 4), mask=m))
            assert bit_equal(compiled, python)

    def test_mirror_sources_tie(self):
        # two sources mirrored across the middle column at constant speed:
        # equal travel times on both halves, so the index breaks the ties
        g = Grid2D(nx=41, ny=31, h=0.1)
        seeds = [15 * 41 + 12, 15 * 41 + 28]
        blocked = np.zeros(41 * 31, dtype=bool)

        def run():
            u = np.full(41 * 31, math.inf)
            u[seeds] = 0.0
            order, ops = march(g, u, seeds, blocked, np.ones(41 * 31))
            return u, order, ops

        (u, order, ops), (u_py, order_py, ops_py) = both_paths(run)
        assert bit_equal(u, u_py)
        assert np.array_equal(order, order_py)
        assert ops == ops_py >= 2 * 41 * 31
        assert np.unique(u).size < u.size // 2

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 16), st.integers(2, 16),
           st.booleans())
    def test_random_fields(self, seed, nx, ny, masked):
        rng = np.random.default_rng(seed)
        g = Grid2D(nx=nx, ny=ny, h=rng.uniform(0.05, 1.0))
        f = rng.uniform(0.2, 3.0, (ny, nx))
        src = (int(rng.integers(ny)), int(rng.integers(nx)))
        mask = None
        if masked:
            mask = rng.random((ny, nx)) < 0.3
            mask[src] = False
        compiled, python = both_paths(
            lambda: eikonal.eikonal_solve(g, f, src, mask=mask))
        assert bit_equal(compiled, python)


class TestResponseCost:
    def test_single_call_is_travel_time(self):
        g = unit_grid(n=41)
        calls = eikonal.CallSpec(locations=[(1.0, 0.0)], probabilities=[1.0])
        q = eikonal.response_cost(g, 1.0, calls)
        u = eikonal.eikonal_solve(g, 1.0, g.nearest_index((1.0, 0.0)))
        assert np.array_equal(q, u)

    def test_mixture(self):
        g = unit_grid(n=41)
        locs = [(1.0, 0.0), (-1.0, 0.0)]
        calls = eikonal.CallSpec(locations=locs, probabilities=[0.25, 0.75])
        q = eikonal.response_cost(g, 1.0, calls)
        u1 = eikonal.eikonal_solve(g, 1.0, g.nearest_index(locs[0]))
        u2 = eikonal.eikonal_solve(g, 1.0, g.nearest_index(locs[1]))
        assert np.allclose(q, 0.25 * u1 + 0.75 * u2, atol=1e-12)

    def test_zero_probability_call_skipped(self):
        g = unit_grid(n=21)
        calls = eikonal.CallSpec(locations=[(0.0, 0.0), (1.0, 1.0)],
                                 probabilities=[1.0, 0.0])
        q = eikonal.response_cost(g, 1.0, calls)
        u = eikonal.eikonal_solve(g, 1.0, g.nearest_index((0.0, 0.0)))
        assert np.array_equal(q, u)

    def test_minimum_at_likeliest_call(self):
        g = unit_grid(n=81)
        calls = eikonal.CallSpec(locations=[(1.0, 1.0), (-1.0, -1.0)],
                                 probabilities=[0.9, 0.1])
        q = eikonal.response_cost(g, 1.0, calls)
        j, i = np.unravel_index(np.argmin(q), q.shape)
        x, y = g.xs()[i], g.ys()[j]
        assert math.hypot(x - 1.0, y - 1.0) <= 2 * g.h
