"""Run loop, planner dispatch, metrics, collision audit, and the grid shortest-path oracle.

run() dispatches to the NSPMR loop here or to the Bug planners in bugs; every
planner returns a world.Trajectory and one of the world.OUTCOME_* values.
One robot step per tick: the robot covers delta/2 (or its diagonal) while
moving obstacles hold still, then the world advances by dt = (delta/2)/V.
Travel time is derived from path length, not ticks, so diagonal steps are
not undercharged.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .bugs import bug1_result, bug2_result
from .geometry import EPS_GEOM, Point2, PointLocation, _segment_hits, distance, point_in_polygon
from .lattice import _lattice_path, _lattice_shape
from .planner import NspmrState, nspmr_step
from .world import (
    OUTCOME_GOAL,
    OUTCOME_LIMIT,
    OUTCOME_STUCK,
    Scenario,
    ScenarioError,
    Trajectory,
    make_trajectory,
    step_dynamics,
    tick_duration,
    validate_scenario,
)

PLANNERS = ("nspmr", "bug1", "bug2")


class SimulationError(RuntimeError):
    """Internal inconsistency (a run produced a colliding trajectory)."""


@dataclass(frozen=True)
class RunResult:
    outcome: str
    length: float
    travel_time: float
    iterations: int
    max_departures_per_cell: int
    backtrack_count: int


def iteration_ceiling(s: Scenario) -> int:
    """8 departures per lattice cell inside bounds: an upper bound on moves."""
    nx, ny = _lattice_shape(s.bounds, s.delta / 2)
    return 8 * nx * ny


def default_max_iters(s: Scenario) -> int:
    # 10x the termination ceiling: reaching it means a bug, not a tight budget
    return 10 * iteration_ceiling(s)


def path_length(t) -> float:
    """Sum of consecutive waypoint distances; accepts a Trajectory or points."""
    pts = t.waypoints if hasattr(t, "waypoints") else tuple(Point2(*p) for p in t)
    if not pts:
        raise ValueError("need at least one waypoint")
    return sum(distance(a, b) for a, b in zip(pts, pts[1:]))


def _run_nspmr(s: Scenario, max_iters: int, rules_enabled: bool):
    dt = tick_duration(s)
    state = NspmrState(start=s.start)
    world = s
    waypoints = [s.start]
    events: list[str] = []
    directions: list[float | None] = []
    outcome = OUTCOME_LIMIT
    for _ in range(max_iters):
        state, ev = nspmr_step(state, world, rules_enabled)
        if ev.kind == "goal_reached":
            outcome = OUTCOME_GOAL
            break
        if ev.kind == "stuck":
            outcome = OUTCOME_STUCK
            break
        waypoints.append(ev.new_pos)
        events.append(ev.kind)
        directions.append(ev.direction)
        if s.is_dynamic:
            world = step_dynamics(world, dt)
    return make_trajectory(s, waypoints, events, directions), outcome


def run(s: Scenario, planner: str, max_iters: int | None = None, *, rules_enabled: bool = True):
    """Execute one planner on one scenario; returns (Trajectory, RunResult).

    rules_enabled=False runs the direction chooser without its loop-escape
    rules, as a control; it applies to the nspmr planner only.
    """
    violations = validate_scenario(s)
    if violations:
        raise ScenarioError("; ".join(violations))
    if max_iters is None:
        max_iters = default_max_iters(s)
    if max_iters <= 0:
        raise ValueError("max_iters must be positive")
    if planner == "nspmr":
        traj, outcome = _run_nspmr(s, max_iters, rules_enabled)
    elif planner == "bug1":
        traj, outcome = bug1_result(s, max_iters)
    elif planner == "bug2":
        traj, outcome = bug2_result(s, max_iters)
    else:
        raise ValueError(f"unknown planner {planner!r}; expected one of {PLANNERS}")
    problems = audit_collisions(traj, s)
    if problems:
        raise SimulationError("collision audit failed: " + "; ".join(problems[:3]))
    length = path_length(traj)
    # planned departures per node of the delta/2 lattice anchored at the start
    half = s.delta / 2
    x0, y0 = s.start
    moved_departures = Counter(
        (round((p.x - x0) / half), round((p.y - y0) / half))
        for p, kind in zip(traj.waypoints, traj.events)
        if kind == "moved"
    )
    result = RunResult(
        outcome=outcome,
        length=length,
        travel_time=length / s.speed,
        iterations=len(traj.waypoints) - 1,
        max_departures_per_cell=max(moved_departures.values(), default=0),
        backtrack_count=sum(1 for e in traj.events if e == "backtracked"),
    )
    return traj, result


# --- safety audit ------------------------------------------------------------------

def audit_collisions(t: Trajectory, s: Scenario) -> list[str]:
    """Check every waypoint and segment against the obstacle poses current at
    its timestamp; an empty list means the trajectory is safe. Each waypoint
    and directed segment (p, q) is tested once per pose of the world, so a
    static world audits a repeated one from memory. A segment collides when it
    meets a boundary or its midpoint lies INSIDE."""
    out = []
    world = s
    dt = tick_duration(s)
    n = len(t.waypoints)
    memo: dict = {}  # waypoint or (p, q) -> indices of the obstacles it touches in this pose
    shapes = [(i, ob.shape, ob.shape.bbox()) for i, ob in enumerate(world.obstacles)]
    for k in range(n):
        p = t.waypoints[k]
        found = memo.get(p)
        if found is None:
            found = memo[p] = []
            for i, shape, (x0, y0, x1, y1) in shapes:
                # beyond EPS_GEOM of the bbox a point cannot even touch the boundary
                if (
                    x0 - EPS_GEOM <= p.x <= x1 + EPS_GEOM
                    and y0 - EPS_GEOM <= p.y <= y1 + EPS_GEOM
                    and point_in_polygon(p, shape) is not PointLocation.OUTSIDE
                ):
                    found.append(i)
        for i in found:
            out.append(f"waypoint {k} inside obstacle {i}")
        if k < n - 1:
            q = t.waypoints[k + 1]
            found = memo.get((p, q))
            if found is None:
                found = memo[p, q] = []
                (lox, hix), (loy, hiy) = sorted((p.x, q.x)), sorted((p.y, q.y))
                for i, shape, (x0, y0, x1, y1) in shapes:
                    if hix >= x0 and lox <= x1 and hiy >= y0 and loy <= y1 and (
                        _segment_hits(p, q, shape)
                        or point_in_polygon(Point2((p.x + q.x) / 2, (p.y + q.y) / 2), shape) is PointLocation.INSIDE
                    ):
                        found.append(i)
            for i in found:
                out.append(f"segment {k} intersects obstacle {i}")
            if world.is_dynamic:
                world = step_dynamics(world, dt)
                memo.clear()
                shapes = [(i, ob.shape, ob.shape.bbox()) for i, ob in enumerate(world.obstacles)]
    return out


# --- optimality oracle ----------------------------------------------------------------

def grid_oracle(s: Scenario, resolution: float) -> float | None:
    """Shortest 8-connected lattice path start->goal, or None when the grid
    disconnects them. A lower-bound reference: the grid ignores clearance.

    The value is the shortest lattice length a*resolution + b*resolution*sqrt(2),
    found by jump-point search with its pruning rules for steps that may cut
    corners (see lattice._lattice_path). Another search order may add the
    steps in another order, so values agree to within 1e-12, not bit for bit."""
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError("resolution must be finite and positive")
    return _lattice_path(s, resolution, 0.0)
