"""Sensor-based 2D motion planning and simulation.

Three planners over a shared simulator: NSPMR, an 8-direction local planner
with loop-escape priority rules, plus Bug1 and Bug2 boundary-following
baselines. Scenario files, deterministic world generation, a grid oracle
for benchmark ratios, and CSV/SVG trajectory output round out the toolkit.
"""

from .geometry import GeometryError, Point2, Polygon, circular_diff
from .output import (
    BenchRow,
    bench_row,
    format_report_table,
    make_report,
    read_trajectory_csv,
    render_svg,
    write_report_csv,
    write_svg,
    write_trajectory_csv,
)
from .planner import NspmrState, desired_angle, filter_candidates, select_direction
from .sensing import DIRECTIONS, SensorReading, scan
from .sim import (
    PLANNERS,
    RunResult,
    SimulationError,
    audit_collisions,
    default_max_iters,
    grid_oracle,
    iteration_ceiling,
    path_length,
    run,
)
from .world import (
    BUILTIN_NAMES,
    OUTCOME_GOAL,
    OUTCOME_LIMIT,
    OUTCOME_STUCK,
    OUTCOME_UNREACHABLE,
    Bounds,
    Obstacle,
    Scenario,
    ScenarioError,
    Trajectory,
    builtin_scenario,
    generate_world,
    make_trajectory,
    parse_scenario,
    serialize_scenario,
    step_dynamics,
    tick_duration,
    validate_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "BenchRow",
    "Bounds",
    "DIRECTIONS",
    "GeometryError",
    "NspmrState",
    "Obstacle",
    "OUTCOME_GOAL",
    "OUTCOME_LIMIT",
    "OUTCOME_STUCK",
    "OUTCOME_UNREACHABLE",
    "PLANNERS",
    "Point2",
    "Polygon",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SensorReading",
    "SimulationError",
    "Trajectory",
    "audit_collisions",
    "bench_row",
    "builtin_scenario",
    "circular_diff",
    "default_max_iters",
    "desired_angle",
    "filter_candidates",
    "format_report_table",
    "generate_world",
    "grid_oracle",
    "iteration_ceiling",
    "make_report",
    "make_trajectory",
    "parse_scenario",
    "path_length",
    "read_trajectory_csv",
    "render_svg",
    "run",
    "scan",
    "select_direction",
    "serialize_scenario",
    "step_dynamics",
    "tick_duration",
    "validate_scenario",
    "write_report_csv",
    "write_svg",
    "write_trajectory_csv",
]
