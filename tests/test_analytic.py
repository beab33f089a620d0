import math

import numpy as np
import pytest

from randterm import analytic, grid


class TestRadialCase:
    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            analytic.RadialCase("bogus", 1.0)

    def test_nonpositive_rate_rejected(self):
        for lam in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                analytic.RadialCase("trivial", lam)


class TestExactValue:
    def test_trivial_closed_form(self):
        # lam = 0.5, r = 2: 2 - (1 - e^-1)/0.5 = 2 - 2(1 - e^-1)
        case = analytic.RadialCase("trivial", 0.5)
        expect = 2.0 - 2.0 * (1.0 - math.exp(-1.0))
        assert analytic.exact_value(case, 2.0) == pytest.approx(expect, abs=1e-14)
        assert expect == pytest.approx(0.7357588823428847)

    def test_trivial_origin(self):
        case = analytic.RadialCase("trivial", 3.0)
        assert analytic.exact_value(case, 0.0) == 0.0

    def test_trivial_small_rate_series(self):
        # v -> lam r^2 / 2 as lam -> 0
        case = analytic.RadialCase("trivial", 1e-9)
        assert analytic.exact_value(case, 1.5) == pytest.approx(
            1e-9 * 1.5 ** 2 / 2, rel=1e-6)

    def test_point_argument(self):
        case = analytic.RadialCase("trivial", 0.5)
        assert analytic.exact_value(case, (1.0, 1.0)) == pytest.approx(
            analytic.exact_value(case, math.sqrt(2.0)), abs=1e-14)

    def test_circular_min_structure(self):
        case = analytic.RadialCase("circular", 1.0)
        r_star = analytic.free_boundary_radius(1.0)
        # outside the circle stopping wins: v = q = r
        r_out = r_star + 0.2
        assert analytic.exact_value(case, r_out) == pytest.approx(r_out)
        # inside, moving wins strictly
        r_in = r_star - 0.2
        assert analytic.exact_value(case, r_in) < r_in

    def test_field_matches_pointwise(self):
        g = grid.Grid2D(nx=21, ny=21, h=0.2, origin=(-2.0, -2.0))
        case = analytic.RadialCase("circular", 2.0)
        F = analytic.exact_field(case, g)
        X, Y = np.meshgrid(g.xs(), g.ys())
        assert F[7, 13] == pytest.approx(
            analytic.exact_value(case, (X[7, 13], Y[7, 13])), abs=1e-14)


class TestFreeBoundaryRadius:
    def test_defining_equation(self):
        for lam in (0.3, 0.5, 1.0, 5.0, 25.0):
            r = analytic.free_boundary_radius(lam)
            j = (lam + 1.0) / lam * (r - (1.0 - math.exp(-lam * r)) / lam)
            assert j == pytest.approx(r, abs=1e-11)

    def test_monotone_decreasing_in_rate(self):
        lams = np.geomspace(0.1, 100.0, 30)
        rs = [analytic.free_boundary_radius(l) for l in lams]
        assert np.all(np.diff(rs) < 0)

    def test_matches_brentq(self):
        # scipy's root finder as an outside oracle; the two differ by at
        # most 1.3e-12 (at lam = 1e-3), where rounding blurs the root
        from scipy.optimize import brentq

        for lam in np.geomspace(1e-3, 1e3, 13).tolist():
            r = brentq(lambda r: (lam + 1.0) / lam * float(
                analytic.edge_wait_cost(r, lam)) - r, 0.5, 2.5,
                xtol=1e-13, rtol=8.9e-16)
            assert analytic.free_boundary_radius(lam) == pytest.approx(
                r, abs=1e-11)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_rate_rejected(self, lam):
        with pytest.raises(ValueError, match="positive and finite"):
            analytic.free_boundary_radius(lam)

    def test_limits(self):
        assert analytic.free_boundary_radius(1e-3) == pytest.approx(2.0, abs=2e-3)
        assert analytic.free_boundary_radius(1e3) == pytest.approx(1.0, abs=2e-3)
        for lam in (0.5, 1.0, 25.0):
            assert 1.0 < analytic.free_boundary_radius(lam) < 2.0


class TestErrorNorms:
    def test_zero_error(self):
        g = grid.Grid2D(nx=11, ny=11, h=0.4, origin=(-2.0, -2.0))
        F = np.ones((11, 11))
        assert analytic.error_norms(F, F, g) == (0.0, 0.0, 0.0)

    def test_constant_error(self):
        # |e| = c everywhere: line and sup norms are c; the L2 norm is
        # sqrt(h^2 * N * c^2) / area
        g = grid.Grid2D(nx=11, ny=11, h=0.4, origin=(-2.0, -2.0))
        c = 0.3
        F = np.zeros((11, 11))
        line, l2, linf = analytic.error_norms(F + c, F, g)
        assert line == pytest.approx(c)
        assert linf == pytest.approx(c)
        area = 16.0
        assert l2 == pytest.approx(math.sqrt(g.h ** 2 * 121 * c ** 2) / area)

    def test_mask_excluded(self):
        g = grid.Grid2D(nx=11, ny=11, h=0.4, origin=(-2.0, -2.0))
        err = np.zeros((11, 11))
        err[3, 3] = 100.0
        mask = np.zeros((11, 11), dtype=bool)
        mask[3, 3] = True
        line, l2, linf = analytic.error_norms(err, np.zeros_like(err), g,
                                              mask=mask)
        assert linf == 0.0 and l2 == 0.0

    def test_line_norm_uses_middle_row(self):
        g = grid.Grid2D(nx=11, ny=11, h=0.4, origin=(-2.0, -2.0))
        err = np.zeros((11, 11))
        err[5, 2] = 0.7  # y = 0 row
        err[0, 2] = 5.0  # elsewhere
        line, _, linf = analytic.error_norms(err, np.zeros_like(err), g)
        assert line == pytest.approx(0.7)
        assert linf == pytest.approx(5.0)


class TestSolverConvergence:
    def test_trivial_first_order(self):
        case = analytic.RadialCase("trivial", 0.5)
        errs = []
        for n in (51, 101, 201):
            g = analytic.radial_grid(n)
            sol = grid.fmm_solve(case.problem(g))
            errs.append(analytic.error_norms(sol.V, analytic.exact_field(case, g),
                                             g)[2])
        rate = math.log2(errs[0] / errs[1])
        assert rate == pytest.approx(1.0, abs=0.2)
        rate = math.log2(errs[1] / errs[2])
        assert rate == pytest.approx(1.0, abs=0.2)
