"""Solvers for deterministic control processes terminated at a Poisson-random
time: label-setting and value-iteration on graphs, Fast-Marching and sweeping
on 2-D grids, plus the idle-vehicle repositioning construction and the
conversions between graph problems and discounted infinite-horizon ones."""

from .graph import (
    GraphProblem,
    GraphSolution,
    dial_solve,
    dijkstra_solve,
    extract_path,
    from_infinite_horizon,
    normalize_self_costs,
    path_cost,
    solve_v0,
    solve_v1,
    to_infinite_horizon,
    validate,
    value_iteration,
)
from .grid import (
    Grid2D,
    GridProblem,
    GridSolution,
    fmm_solve,
    motionless_set,
    sweep_oracle,
)
from .eikonal import CallSpec, eikonal_solve, response_cost
from .analytic import RadialCase, error_norms, exact_field, exact_value, \
    free_boundary_radius
from .idle import IdleScenario, build_problem, expected_response_times
from .trajectory import TrajectoryPath, trace

__version__ = "0.1.0"
