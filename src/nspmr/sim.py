"""Run loop, planner dispatch, metrics, collision audit, and the grid shortest-path oracle.

run() dispatches to the NSPMR loop here or to the Bug planners in bugs; every
planner returns a world.Trajectory and one of the world.OUTCOME_* values.
One robot step per tick: the robot covers delta/2 (or its diagonal) while
moving obstacles hold still, then the world advances one tick, (delta/2)/V.
Travel time is derived from path length, not ticks, so diagonal steps are
not undercharged.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import compress, cycle, islice

from .bugs import bug1_result, bug2_result
from .geometry import Point2, PointLocation, _segment_hits, point_in_polygon, segment_intersection
from .lattice import _lattice_path, _lattice_shape
from .planner import NspmrState, _walk
from .world import (
    OUTCOME_GOAL,
    OUTCOME_LIMIT,
    OUTCOME_STUCK,
    Scenario,
    ScenarioError,
    Trajectory,
    make_trajectory,
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
    """8 departures per node of the delta/2 lattice over the bounds. The planner
    keeps its walk strictly inside the bounds and rule II caps planned moves at
    8 per node, so this bounds the planned moves, and retreats <= planned moves,
    as each pops a trail entry that a move pushed."""
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
    return sum(map(math.dist, pts, pts[1:]))


def _run_nspmr(s: Scenario, max_iters: int, rules_enabled: bool):
    """Walk planner._walk until the goal, stuck or max_iters. With the rules off in
    a static world the next node depends on the node alone, so the walk is
    periodic from its first repeated node: it is walked up to that node, and
    the rest of the budget repeats the cycle's waypoints, directions and events.
    Returns the trajectory, the outcome and the loop (j, k) or None: waypoint k repeats j."""
    state = NspmrState(start=s.start)
    waypoints = [s.start]
    events: list[str] = []
    directions: list[float | None] = []
    outcome = OUTCOME_LIMIT
    loop = None
    first = None if rules_enabled or s.is_dynamic else {state.node: 0}  # node -> its first waypoint index
    for k, (kind, direction, pos) in enumerate(_walk(state, s, rules_enabled), 1):
        if direction is None:  # the walk's last step: goal_reached or stuck
            outcome = OUTCOME_GOAL if kind == "goal_reached" else OUTCOME_STUCK
            break
        waypoints.append(pos)
        events.append(kind)
        directions.append(direction)
        if first is not None and (j := first.setdefault(state.node, k)) < k:
            # waypoint k repeats waypoint j, so every later step repeats the one k - j before it
            for seq in (waypoints, events, directions):
                seq.extend(islice(cycle(seq[j - k:]), max_iters - k))
            loop = j, k
            break
        if k == max_iters:
            break
    return make_trajectory(s, waypoints, events, directions), outcome, loop


def run(s: Scenario, planner: str, max_iters: int | None = None, *, rules_enabled: bool = True):
    """Execute one planner on one scenario; returns (Trajectory, RunResult).

    rules_enabled=False runs the direction chooser without its loop-escape
    rules, as a control; the Bug planners have no such rules and refuse it. In
    a static world such a run is stepped up to its first repeated node and then
    repeats the cycle that node closes to the end of the budget, which gives the
    same result as stepping it throughout.
    """
    violations = validate_scenario(s)
    if violations:
        raise ScenarioError("; ".join(violations))
    if max_iters is None:
        max_iters = default_max_iters(s)
    if isinstance(max_iters, bool) or not isinstance(max_iters, int) or max_iters <= 0:
        raise ValueError(f"max_iters must be a positive integer, got {max_iters!r}")
    if not isinstance(rules_enabled, bool) or (not rules_enabled and planner in ("bug1", "bug2")):
        raise ValueError(f"rules_enabled must be a bool, and True for bug1 and bug2; got {rules_enabled!r} for {planner!r}")
    s = replace(s)  # a copy: the planner and the audit share the poses cached along its next_tick, freed on return
    loop = None
    if planner == "nspmr":
        traj, outcome, loop = _run_nspmr(s, max_iters, rules_enabled)
    elif planner == "bug1":
        traj, outcome = bug1_result(s, max_iters)
    elif planner == "bug2":
        traj, outcome = bug2_result(s, max_iters)
    else:
        raise ValueError(f"unknown planner {planner!r}; expected one of {PLANNERS}")
    wps, events = traj.waypoints, traj.events
    # a loop (j, k) repeats wps[j:k] from k on, so wps[:k + 1] hold every distinct waypoint and
    # directed segment of the static pose: the whole run is audited only to list what they fail
    if loop is None or _pose_messages(wps, 0, loop[1] + 1, s):
        problems = audit_collisions(traj, s)
        if problems:
            raise SimulationError("collision audit failed: " + "; ".join(problems[:3]))
    length = path_length(traj)
    # planned departures per node of the delta/2 lattice anchored at the start, counted per distinct
    # departure point first: a loop's departures j..k-1 once, times their whole repeats, and the rest
    # one by one; a run without one counts as a loop after its last departure, repeated 0 times
    j, k = loop or (len(events), len(events) + 1)
    reps, r = divmod(len(events) - j, k - j)
    departures = Counter(compress(wps, map("moved".__eq__, events[: j + r])))
    departures.update({p: reps * n for p, n in Counter(compress(wps[j:k], map("moved".__eq__, events[j:k]))).items()})
    half = s.delta / 2
    x0, y0 = s.start
    moved_departures: dict[tuple[int, int], int] = {}
    for p, n in departures.items():
        node = round((p.x - x0) / half), round((p.y - y0) / half)
        moved_departures[node] = moved_departures.get(node, 0) + n
    result = RunResult(
        outcome=outcome,
        length=length,
        travel_time=length / s.speed,
        iterations=len(wps) - 1,
        max_departures_per_cell=max(moved_departures.values(), default=0),
        backtrack_count=events.count("backtracked"),
    )
    return traj, result


# --- safety audit ------------------------------------------------------------------

def audit_collisions(t: Trajectory, s: Scenario) -> list[str]:
    """Check every waypoint against the bounds, and every waypoint and segment against the obstacle
    poses current at its timestamp; an empty list means the trajectory is safe. A static world is one
    pose, audited obstacle by obstacle over all distinct waypoints and directed segments at once; a
    moving world audits each tick's waypoint and segment in that tick's pose, read along s.next_tick.
    A waypoint not strictly inside the bounds is outside them, and a segment collides when it meets a
    boundary or its midpoint lies INSIDE. Messages come by waypoint, segment, obstacle index."""
    wps = t.waypoints
    if not s.is_dynamic:
        return _pose_messages(wps, 0, len(wps), s)
    out, world = [], s
    for k in range(len(wps) - 1):
        out += _pose_messages(wps, k, k + 1, world)
        world = world.next_tick
    return out + _pose_messages(wps, len(wps) - 1, len(wps), world)


def _pose_messages(wps, lo: int, hi: int, world: Scenario) -> list[str]:
    """Audit messages for the waypoints wps[lo:hi] and the segments (p, q) leaving them, in world's pose.

    A segment meets an obstacle's boundary when _segment_hits finds a hit. The spread L of the waypoints
    bounds a segment's axis extent; with S = max(1, w, h, L) for a w x h bbox, a segment of axis extent
    >= 2e-4 max(1, w, h) bounds _segment_hits' margin by 2e-5 S, so segment_intersection runs where its
    bbox meets an edge's grown by m = 3e-5 S. Shorter ones near the bbox go to _segment_hits, which
    farther out finds only what segment_intersection's parallel test takes, EPS_GEOM S^2 / |pq| off the
    line. A waypoint near the bbox starts a kept segment or is the pose's last. A midpoint INSIDE lies
    over EPS_GEOM from the boundary, where parity is exact for coordinates under 1e6: from an OUTSIDE p
    the segment crosses an edge, which segment_intersection takes as parallel lines (|qp x r| <= |r x s|
    <= EPS_GEOM S^2) or with t, u in [0, 1] up to rounding. So only a p not OUTSIDE needs the midpoint test."""
    points, segments = set(wps[lo:hi]), set(zip(wps[lo:hi], wps[lo + 1 : hi + 1]))
    xs, ys = zip(*points, *wps[hi : hi + 1])  # the waypoints of the pose and the end of its last segment
    (x_lo, x_hi), (y_lo, y_hi), b = (min(xs), max(xs)), (min(ys), max(ys)), world.bounds
    outside = set() if b.xmin < x_lo <= x_hi < b.xmax and b.ymin < y_lo <= y_hi < b.ymax else {p for p in points if not b.contains(p)}
    touched: dict = {}  # waypoint or (p, q) -> indices of the obstacles it touches
    for i, shape in enumerate(world.shapes):
        x0, y0, x1, y1 = shape.bbox
        m, cut = 3e-5 * max(1.0, x1 - x0, y1 - y0, x_hi - x_lo, y_hi - y_lo), 2e-4 * max(1.0, x1 - x0, y1 - y0)
        lx, ly, hx, hy = x0 - m, y0 - m, x1 + m, y1 + m
        if x_hi < lx or hx < x_lo or y_hi < ly or hy < y_lo:  # no waypoint comes near
            continue
        cands = [(p, q) for p, q in segments
                 if (p.x >= lx or q.x >= lx) and (p.x <= hx or q.x <= hx) and (p.y >= ly or q.y >= ly) and (p.y <= hy or q.y <= hy)]
        near = {p for p in {wps[hi - 1], *(p for p, _ in cands)} if point_in_polygon(p, shape) is not PointLocation.OUTSIDE}
        if not (cands or near):
            continue
        hit = {(p, q) for p, q in cands if abs(q.x - p.x) < cut > abs(q.y - p.y) and _segment_hits(p, q, shape)}
        for ea, eb, _, _, lx, ly, hx, hy in shape._edge_table:
            lx, ly, hx, hy = lx - m, ly - m, hx + m, hy + m
            hit.update([(p, q) for p, q in cands if (p.x >= lx or q.x >= lx) and (p.x <= hx or q.x <= hx)
                        and (p.y >= ly or q.y >= ly) and (p.y <= hy or q.y <= hy) and segment_intersection(p, q, ea, eb)])
        hit.update([(p, q) for p, q in cands if p in near and (p, q) not in hit
                    and point_in_polygon(Point2((p.x + q.x) / 2, (p.y + q.y) / 2), shape) is PointLocation.INSIDE])
        for key in [*near, *hit]:
            touched.setdefault(key, []).append(i)
    if not (touched or outside):
        return []
    out = []
    for k in range(lo, hi):
        out += [f"waypoint {k} outside bounds"] * (wps[k] in outside)
        out += [f"waypoint {k} inside obstacle {i}" for i in touched.get(wps[k], ())]
        # wps[k:k + 2] is segment k's key (p, q); at the last waypoint it is (p,), which is no key
        out += [f"segment {k} intersects obstacle {i}" for i in touched.get(wps[k : k + 2], ())]
    return out


# --- optimality oracle ----------------------------------------------------------------

def grid_oracle(s: Scenario, resolution: float) -> float | None:
    """Shortest 8-connected lattice length start->goal, a*resolution + b*resolution*sqrt(2), or None
    when the grid disconnects them. The lattice snaps the start and goal to nodes, ignores clearance
    and lets diagonal steps cut corners, so the value is neither a bound on a route's length nor a
    reachability test. Jump-point search finds it (see lattice._lattice_path); another search order
    may add the steps in another order, so values agree to within 1e-12, not bit for bit."""
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError("resolution must be finite and positive")
    return _lattice_path(s, resolution, 0.0)
