"""Run loop, metrics, collision audit, grid oracle."""

import math
import random
from collections import Counter
from dataclasses import replace
from itertools import islice

import pytest

from nspmr import planner, sim, world as world_module
from nspmr.geometry import GeometryError, Point2, PointLocation, Polygon, _segment_hits, point_in_polygon, segment_intersection
from nspmr.planner import NspmrState
from nspmr.sim import (
    RunResult,
    SimulationError,
    audit_collisions,
    default_max_iters,
    grid_oracle,
    iteration_ceiling,
    path_length,
    run,
)
from nspmr.world import (
    BUILTIN_NAMES,
    Bounds,
    Obstacle,
    Scenario,
    ScenarioError,
    Trajectory,
    builtin_scenario,
    generate_world,
    make_trajectory,
    step_dynamics,
    tick_duration,
)

DIAG_25 = 25 * math.sqrt(2)

# Independently summed reference chain (hand-computed before wiring it here):
# (0,0) (5.3,5.3) (5.3,10.3) (8,10.3) (8,8) (18.3,18.3) (18.3,22.3) (21,22.3)
# (21,21) (25,25) -> 5.3*sqrt2 + 5 + 2.7 + 2.3 + 10.3*sqrt2 + 4 + 2.7 + 1.3 + 4*sqrt2
REFERENCE_CHAIN = [
    (0, 0), (5.3, 5.3), (5.3, 10.3), (8, 10.3), (8, 8),
    (18.3, 18.3), (18.3, 22.3), (21, 22.3), (21, 21), (25, 25),
]
REFERENCE_CHAIN_LENGTH = 45.7185858


def _empty(start=Point2(0, 0), goal=Point2(25, 25)):
    return Scenario(name="e", bounds=Bounds(-2, -2, 27, 27), start=start, goal=goal)


def _rect(x0, y0, x1, y1):
    return Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


# --- path_length ------------------------------------------------------------------

def test_path_length_examples():
    assert path_length([(0, 0), (3, 4)]) == 5
    assert path_length([(0, 0)]) == 0
    with pytest.raises(ValueError):
        path_length([])


def test_path_length_reference_chain():
    assert path_length(REFERENCE_CHAIN) == pytest.approx(REFERENCE_CHAIN_LENGTH, abs=1e-6)


# --- run: empty world -------------------------------------------------------------

def test_empty_world_pure_diagonal():
    traj, res = run(_empty(), "nspmr")
    assert res.outcome == "goal_reached"
    assert res.length == pytest.approx(DIAG_25, abs=1e-9)
    assert res.iterations == 100
    assert res.backtrack_count == 0
    assert traj.waypoints[0] == Point2(0, 0)
    assert traj.waypoints[-1] == Point2(25, 25)


def test_travel_time_is_length_over_speed():
    _, res = run(_empty(), "nspmr")
    assert res.travel_time * 10.0 == pytest.approx(res.length, rel=1e-9)


def test_timestamps_count_ticks():
    traj, _ = run(_empty(goal=Point2(2, 0)), "nspmr")
    dt = 0.25 / 10.0
    assert traj.timestamps == tuple(i * dt for i in range(len(traj.waypoints)))
    assert tick_duration(_empty()) == dt


def test_step_sizes_are_lattice_steps():
    traj, _ = run(_empty(goal=Point2(7, 3)), "nspmr")
    for a, b in zip(traj.waypoints, traj.waypoints[1:]):
        d = math.dist(a, b)
        assert min(abs(d - 0.25), abs(d - 0.25 * math.sqrt(2))) < 1e-12


def test_run_is_deterministic():
    # back-to-back runs on one Scenario: nothing, such as a scan memo, leaks between them
    for name in BUILTIN_NAMES:
        s = builtin_scenario(name)
        for rules in (True, False):
            t1, r1 = run(s, "nspmr", 2000, rules_enabled=rules)
            t2, r2 = run(s, "nspmr", 2000, rules_enabled=rules)
            assert t1 == t2, name
            assert r1 == r2, name


def test_run_scenario1_reaches_goal():
    s = builtin_scenario("scenario1")
    traj, res = run(s, "nspmr")
    assert res.outcome == "goal_reached"
    assert math.dist(traj.waypoints[-1], s.goal) <= s.delta / 2
    assert res.iterations <= iteration_ceiling(s)
    assert res.max_departures_per_cell <= 8
    assert audit_collisions(traj, s) == []


def test_run_validates_scenario():
    bad = Scenario(name="b", bounds=Bounds(0, 0, 10, 10), start=Point2(0, 0), goal=Point2(5, 5))
    with pytest.raises(ScenarioError):
        run(bad, "nspmr")


def test_run_rejects_unknown_planner():
    with pytest.raises(ValueError, match="planner"):
        run(_empty(), "rrt")


def test_run_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        run(_empty(), "nspmr", 0)


@pytest.mark.parametrize("planner", sim.PLANNERS)
@pytest.mark.parametrize("budget", [10.5, 10.0, True, False, "5", 0, -3])
def test_run_refuses_a_budget_that_is_not_a_positive_integer(planner, budget):
    # every planner refuses it up front with one message, before any step is taken
    with pytest.raises(ValueError, match=r"^max_iters must be a positive integer, got "):
        run(builtin_scenario("scenario1"), planner, budget)


@pytest.mark.parametrize("name, rules_enabled", [("bug1", False), ("bug2", False), ("nspmr", "no"), ("bug1", "no"),
                                                 ("nspmr", 1), ("bug2", 0), ("nspmr", None)])
def test_run_refuses_rules_enabled_that_is_not_a_bool_or_is_off_for_a_bug_planner(name, rules_enabled):
    # the Bug planners have no loop-escape rules to turn off; every planner refuses it up front with one message
    with pytest.raises(ValueError, match=r"^rules_enabled must be a bool, and True for bug1 and bug2; got "):
        run(builtin_scenario("scenario1"), name, rules_enabled=rules_enabled)


def test_iteration_limit_outcome():
    traj, res = run(_empty(), "nspmr", 5)
    assert res.outcome == "iteration_limit"
    assert res.iterations == 5


def test_default_budget_is_ten_ceilings():
    s = _empty()
    assert default_max_iters(s) == 10 * iteration_ceiling(s)
    assert iteration_ceiling(s) == 8 * 117 * 117


def _slit_frame(x0, y0, x1, y1, t=0.1, s=0.01):
    """A square frame with walls t thick and a slit s wide in the middle of its bottom wall, as one CCW polygon."""
    mx = (x0 + x1) / 2
    return Polygon((
        Point2(mx + s / 2, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1), Point2(x0, y0),
        Point2(mx - s / 2, y0), Point2(mx - s / 2, y0 + t), Point2(x0 + t, y0 + t), Point2(x0 + t, y1 - t),
        Point2(x1 - t, y1 - t), Point2(x1 - t, y0 + t), Point2(mx + s / 2, y0 + t),
    ))


@pytest.mark.parametrize("w", [5, 6])
def test_walk_stays_inside_the_bounds_and_its_moves_under_the_ceiling(w):
    # The outer frame's 1 cm slit lets the point robot out of the bounds unless the
    # planner refuses moves that leave them; the goal sits in a sealed pocket.
    s = Scenario(
        name=f"slit_frames_{w}",
        bounds=Bounds(0, 0, w, w),
        start=Point2(1, 1),
        goal=Point2(w - 1.5, w - 1.5),
        obstacles=(Obstacle(_slit_frame(0.1, 0.1, w - 0.1, w - 0.1)), Obstacle(_slit_frame(w - 2, w - 2, w - 1, w - 1))),
        delta=0.3,
        sensor_range=1.0,
        speed=10,
    )
    traj, res = run(s, "nspmr")
    assert res.outcome == "stuck"
    assert all(s.bounds.contains(p) for p in traj.waypoints)
    moves, retreats = traj.events.count("moved"), traj.events.count("backtracked")
    assert retreats <= moves <= iteration_ceiling(s)
    assert res.iterations == moves + retreats <= 2 * iteration_ceiling(s)


# --- run: loop escape on the corridor fixture ---------------------------------------

def test_corridor_loop_escapes_with_rules():
    s = builtin_scenario("corridor_loop")
    traj, res = run(s, "nspmr")
    assert res.outcome == "goal_reached"
    assert res.backtrack_count > 0
    assert res.max_departures_per_cell <= 8


def test_corridor_loop_rules_disabled_never_finishes():
    s = builtin_scenario("corridor_loop")
    traj, res = run(s, "nspmr", 3000, rules_enabled=False)
    assert res.outcome == "iteration_limit"
    # the control run ends ping-ponging between two cells at the slot end
    tail = traj.waypoints[-4:]
    assert tail[0] == tail[2] and tail[1] == tail[3] and tail[0] != tail[1]


# --- run: rules-off controls against a step-by-step walk ------------------------------

def _recount(s, traj, outcome):
    """The RunResult of traj, each figure summed or counted waypoint by waypoint."""
    length = sum(math.dist(a, b) for a, b in zip(traj.waypoints, traj.waypoints[1:]))
    half = s.delta / 2
    departures = Counter(
        (round((p.x - s.start.x) / half), round((p.y - s.start.y) / half))
        for p, kind in zip(traj.waypoints, traj.events)
        if kind == "moved"
    )
    return RunResult(
        outcome=outcome,
        length=length,
        travel_time=length / s.speed,
        iterations=len(traj.waypoints) - 1,
        max_departures_per_cell=max(departures.values(), default=0),
        backtrack_count=sum(1 for e in traj.events if e == "backtracked"),
    )


def _stepped(s, max_iters, rules_enabled, state=None):
    """run(s, "nspmr", max_iters, rules_enabled=rules_enabled), up to max_iters steps of one
    planner._walk on state, a fresh one by default. Each step must leave on state the node
    it reached and its heading, the move's direction or None after a retreat."""
    state = NspmrState(start=s.start) if state is None else state
    half = s.delta / 2
    waypoints, events, directions = [s.start], [], []
    outcome = "iteration_limit"
    for kind, direction, pos in islice(planner._walk(state, s, rules_enabled), max_iters):
        if kind in ("goal_reached", "stuck"):
            outcome = kind
            break
        assert pos == Point2(s.start.x + state.node[0] * half, s.start.y + state.node[1] * half)
        assert state.prev_dir == (direction if kind == "moved" else None)
        waypoints.append(pos)
        events.append(kind)
        directions.append(direction)
    traj = make_trajectory(s, waypoints, events, directions)
    return traj, _recount(s, traj, outcome)


def _assert_same_run(got, want):
    (traj, res), (ref_traj, ref_res) = got, want
    assert traj.waypoints == ref_traj.waypoints
    assert traj.events == ref_traj.events
    assert traj.directions == ref_traj.directions
    assert traj.timestamps == ref_traj.timestamps
    assert res == ref_res


# the step at which each loop fixture's rules-off walk first reaches a node again, and its period
FIRST_REPEAT = {"concave_trap": (55, 2), "corridor_loop": (56, 2), "triangle_loop": (43, 3)}


@pytest.mark.parametrize("name", sorted(FIRST_REPEAT))
def test_rules_off_loop_equals_a_stepped_walk(name, monkeypatch):
    s = builtin_scenario(name)
    ref_traj, _ = _stepped(s, 200, False)
    first_seen = {}
    for k, p in enumerate(ref_traj.waypoints):
        if p in first_seen:
            break
        first_seen[p] = k
    assert (k, k - first_seen[p]) == FIRST_REPEAT[name]
    for budget in (1, 1000, 4000, k - 1, k, k + 1):
        _assert_same_run(run(s, "nspmr", budget, rules_enabled=False), _stepped(s, budget, False))
    # run walks only up to its first repeated node: the walk yields k steps
    calls = []

    def counted(*args):
        for step in walk(*args):
            calls.append(1)
            yield step

    walk = sim._walk
    monkeypatch.setattr(sim, "_walk", counted)
    run(s, "nspmr", 4000, rules_enabled=False)
    assert len(calls) == k


@pytest.mark.parametrize("name", sorted(FIRST_REPEAT))
def test_rules_off_loop_bookkeeping_equals_a_full_recount(name, monkeypatch):
    # run audits and tallies a control's loop once; its result must equal one recounted over the
    # whole trajectory, for budgets that end before, at and after the first repeat, mid-loop and long after
    s = builtin_scenario(name)
    k, period = FIRST_REPEAT[name]
    for budget in (k - 1, k, k + 1, k + period, k + 2 * period + 1, 1000):
        traj, res = run(s, "nspmr", budget, rules_enabled=False)
        assert res == _recount(s, traj, res.outcome)
        assert res.length == path_length(traj)
        assert audit_collisions(traj, s) == []
    # an obstacle over a loop waypoint fails the loop's audit, and run raises with the messages
    # of a full audit
    x, y = traj.waypoints[k]
    blocked = replace(s, obstacles=s.obstacles + (Obstacle(_rect(x - 0.05, y - 0.05, x + 0.05, y + 0.05)),))
    monkeypatch.setattr(sim, "_run_nspmr", lambda *args: (traj, "iteration_limit", (k - period, k)))
    problems = audit_collisions(traj, blocked)
    assert len(problems) > 3
    with pytest.raises(SimulationError) as err:
        run(blocked, "nspmr", 1000, rules_enabled=False)
    assert str(err.value) == "collision audit failed: " + "; ".join(problems[:3])


@pytest.mark.parametrize("name, budget", [("dynamic_crossing", 1000), ("scenario1", 123), ("scenario1", 4000)])
def test_rules_off_run_without_a_repeat_equals_a_stepped_walk(name, budget):
    # a moving world is never repeated; scenario1 reaches its goal before any node repeats
    s = builtin_scenario(name)
    got = run(s, "nspmr", budget, rules_enabled=False)
    _assert_same_run(got, _stepped(s, budget, False))
    assert len(set(got[0].waypoints)) == len(got[0].waypoints)


# --- run: rules-on runs against a step-by-step walk -----------------------------------

# every static builtin at its ceiling, and dynamic_crossing and worlds 0-9 at the default budget
RULES_ON_RUNS = [pytest.param(s, default_max_iters(s) if s.is_dynamic else iteration_ceiling(s), id=name)
                 for name in BUILTIN_NAMES for s in [builtin_scenario(name)]]
RULES_ON_RUNS += [pytest.param(s, default_max_iters(s), id=f"world{seed}") for seed in range(10) for s in [generate_world(seed)]]


@pytest.mark.parametrize("s, budget", RULES_ON_RUNS)
def test_rules_on_run_equals_a_stepped_walk(s, budget):
    _assert_same_run(run(s, "nspmr", budget), _stepped(s, budget, True))


@pytest.mark.parametrize("name", ["concave_trap", "corridor_loop"])
def test_a_walk_stopped_by_its_budget_leaves_the_stepped_state(name, monkeypatch):
    # the walk keeps the node and heading in locals; stopped mid-run, the state it hands
    # back must be the one that a walk stepped to the same budget leaves
    s = builtin_scenario(name)
    states = []

    def captured(state, *args):
        states.append(state)
        return walk(state, *args)

    walk = sim._walk
    monkeypatch.setattr(sim, "_walk", captured)
    traj, res = run(s, "nspmr", iteration_ceiling(s))
    full, first_retreat = res.iterations, traj.events.index("backtracked") + 1
    for budget in (1, first_retreat, first_retreat + 1, full // 2, full - 1):
        want = NspmrState(start=s.start)
        _assert_same_run(run(s, "nspmr", budget), _stepped(s, budget, True, want))
        got = states[-1]
        assert (got.node, got.prev_dir, got.trail, got.used, got.dead, got.records) == (
            want.node, want.prev_dir, want.trail, want.used, want.dead, want.records)
        assert got.dead or budget < first_retreat


def test_run_bookkeeping_equals_a_per_waypoint_recount():
    routes = [(generate_world(seed), planner) for seed in range(50) for planner in sim.PLANNERS]
    routes += [(builtin_scenario(name), planner) for name in BUILTIN_NAMES for planner in sim.PLANNERS]
    repeated = 0
    for s, planner in routes:
        try:
            traj, res = run(s, planner)
        except ScenarioError:  # a Bug planner refuses the world
            continue
        assert path_length(traj) == res.length == _recount(s, traj, res.outcome).length  # bit for bit
        assert res == _recount(s, traj, res.outcome)
        moved = Counter(p for p, kind in zip(traj.waypoints, traj.events) if kind == "moved")
        repeated += max(moved.values(), default=0) > 1
    assert repeated > 0  # Bug1's survey laps leave some departure points more than once


# --- audit -----------------------------------------------------------------------

def test_audit_flags_segment_through_obstacle():
    s = Scenario(
        name="a",
        bounds=Bounds(-2, -2, 27, 27),
        start=Point2(0, 0),
        goal=Point2(25, 25),
        obstacles=(Obstacle(_rect(4, 4, 6, 6)),),
    )
    traj = make_trajectory(s, [Point2(3, 5), Point2(7, 5)], ["moved"], [90.0])
    out = audit_collisions(traj, s)
    assert any("obstacle 0" in v for v in out)


def test_audit_flags_waypoint_inside():
    s = Scenario(
        name="a",
        bounds=Bounds(-2, -2, 27, 27),
        start=Point2(0, 0),
        goal=Point2(25, 25),
        obstacles=(Obstacle(_rect(4, 4, 6, 6)),),
    )
    traj = make_trajectory(s, [Point2(5, 5)], [], [])
    assert audit_collisions(traj, s) == ["waypoint 0 inside obstacle 0"]
    # on the boundary counts as inside: a vertex, and 1e-10 outside the bbox
    for p in (Point2(6, 6), Point2(4 - 1e-10, 5), Point2(5, 6 + 1e-10)):
        traj = make_trajectory(s, [p], [], [])
        assert audit_collisions(traj, s) == ["waypoint 0 inside obstacle 0"], p
    traj = make_trajectory(s, [Point2(6 + 1e-8, 5)], [], [])
    assert audit_collisions(traj, s) == []


def test_audit_tracks_moving_obstacles():
    # a robot descending into the band swept by the northbound block
    s = builtin_scenario("dynamic_crossing")
    pts = [Point2(12.7, 14.0 - 0.25 * k) for k in range(9)]
    traj = make_trajectory(s, pts, ["moved"] * 8, [180.0] * 8)
    # obstacle top reaches y = 12.2 + 0.0375k; waypoint 8 sits at 12.0 with top at 12.5
    assert any("inside obstacle" in v for v in audit_collisions(traj, s))
    # the same descent in a frozen world stays clear
    frozen = Scenario(
        name="f",
        bounds=s.bounds,
        start=s.start,
        goal=s.goal,
        obstacles=(Obstacle(s.obstacles[0].shape, None),),
    )
    traj2 = make_trajectory(frozen, pts[:4], ["moved"] * 3, [180.0] * 3)
    assert audit_collisions(traj2, frozen) == []


def test_dynamic_crossing_run_is_collision_free():
    s = builtin_scenario("dynamic_crossing")
    traj, res = run(s, "nspmr")
    assert res.outcome == "goal_reached"
    assert res.length > DIAG_25  # it had to give way
    assert audit_collisions(traj, s) == []


def test_run_builds_each_pose_once_on_a_copy(monkeypatch):
    # the planner and the audit walk one chain of poses, cached on a copy of s that the run drops
    poses = []

    def counting(world):
        poses.append(world)
        return step_dynamics(world)

    monkeypatch.setattr(world_module, "step_dynamics", counting)
    s = builtin_scenario("dynamic_crossing")
    traj, _ = run(s, "nspmr")
    assert len(poses) == len(traj.waypoints) - 1 == 105
    assert "next_tick" not in vars(s)


def test_a_mover_below_each_static_builtin_leaves_its_route_and_its_static_obstacles_alone():
    # each static builtin, grown 12 m below, with a 1x1 mover running east-west 8 m under the old
    # bounds: the rules-on route is the one in the same bounds without the mover, and each tick
    # keeps every static obstacle as the same object while the mover reflects off the sides
    reflections = 0
    for name in BUILTIN_NAMES:
        base = builtin_scenario(name)
        if base.is_dynamic:
            continue
        b = base.bounds
        grown = replace(base, bounds=Bounds(b.xmin, b.ymin - 12, b.xmax, b.ymax))
        added = Obstacle(_rect(b.xmin + 1, b.ymin - 9, b.xmin + 2, b.ymin - 8), (3.0, 0.0))
        mixed = replace(grown, obstacles=grown.obstacles + (added,))
        traj, _ = run(mixed, "nspmr")
        assert traj.waypoints == run(grown, "nspmr")[0].waypoints, name
        g, world = grown.bounds, mixed
        for _ in traj.waypoints:
            vx = world.obstacles[-1].velocity[0]
            world = world.next_tick
            *statics, mover = world.obstacles
            assert all(ob is static for ob, static in zip(statics, grown.obstacles, strict=True))
            x0, y0, x1, y1 = mover.shape.bbox
            assert g.xmin <= x0 and x1 <= g.xmax and g.ymin <= y0 and y1 <= g.ymax
            assert abs(mover.velocity[0]) == 3.0 and mover.velocity[1] == 0.0
            reflections += mover.velocity[0] != vx
    assert reflections > 0


def _fast_mover(x, y, v):
    """dynamic_crossing with its mover swapped for a 1x1 block at (x, y) moving north at v m/s."""
    return replace(builtin_scenario("dynamic_crossing"), obstacles=(Obstacle(_rect(x, y, x + 1, y + 1), (0.0, v)),))


@pytest.mark.parametrize(
    "mover, error, message",
    [
        ((8.0, 9.0, 40.0), SimulationError, "collision audit failed: waypoint 36 inside obstacle 0"),
        ((15.0, 6.0, 20.0), GeometryError, "ray origin strictly inside an obstacle"),
    ],
)
def test_fast_movers_that_reach_the_robot_raise(mover, error, message):
    # a known defect (ROADMAP item 2): these valid worlds should end in an outcome, not raise
    with pytest.raises(error) as info:
        run(_fast_mover(*mover), "nspmr")
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("name, delta, segment", [("concave_trap", 0.5 - 1e-9, 676), ("corridor_loop", 0.5 + 1e-9, 258)])
def test_walks_nanometres_beside_a_pocket_edge_fail_the_audit(name, delta, segment):
    # a known defect (ROADMAP item 5): the walk runs along a pocket edge 2-4 nm off it, where
    # point_in_polygon reads OUTSIDE and scan reads the ray free, but segment_intersection's area
    # test takes the step as touching the edge. One contact rule should make this goal_reached
    s = replace(builtin_scenario(name), delta=delta)
    with pytest.raises(SimulationError, match=f"^collision audit failed: segment {segment} intersects obstacle 0; "):
        run(s, "nspmr")
    for planner in ("bug1", "bug2"):
        assert run(s, planner)[1].outcome == "goal_reached"


def _reference_audit(t, s):
    """audit_collisions without its bulk filter: every waypoint and segment tested afresh, in route order."""

    def segment_hits(a, b, poly):
        if any(segment_intersection(a, b, ea, eb) for ea, eb in poly.edges):
            return True
        mid = Point2((a.x + b.x) / 2, (a.y + b.y) / 2)
        return point_in_polygon(mid, poly) is PointLocation.INSIDE

    out = []
    world = s
    n = len(t.waypoints)
    for k, p in enumerate(t.waypoints):
        for i, ob in enumerate(world.obstacles):
            if point_in_polygon(p, ob.shape) is not PointLocation.OUTSIDE:
                out.append(f"waypoint {k} inside obstacle {i}")
        if k < n - 1:
            for i, ob in enumerate(world.obstacles):
                if segment_hits(p, t.waypoints[k + 1], ob.shape):
                    out.append(f"segment {k} intersects obstacle {i}")
            if world.is_dynamic:
                world = step_dynamics(world)
    return out


def _walk(s, pts):
    return make_trajectory(s, pts, ["moved"] * (len(pts) - 1), [0.0] * (len(pts) - 1))


@pytest.mark.parametrize("name", ["concave_trap", "corridor_loop", "triangle_loop"])
def test_memoized_audit_matches_reference_on_revisiting_runs(name):
    s = builtin_scenario(name)
    for rules in (True, False):
        traj, _ = run(s, "nspmr", 2000, rules_enabled=rules)
        assert len(set(traj.waypoints)) < len(traj.waypoints)  # it revisits nodes
        assert audit_collisions(traj, s) == _reference_audit(traj, s) == []
        # inject collisions: a box on the most visited node, whose sides pass
        # through its lattice neighbours and run along the segments between them
        p = max(set(traj.waypoints), key=traj.waypoints.count)
        h = s.delta / 2
        boxed = replace(s, obstacles=s.obstacles + (Obstacle(_rect(p.x - h, p.y - h, p.x + h, p.y + h)),))
        out = audit_collisions(traj, boxed)
        assert out == _reference_audit(traj, boxed)
        assert len(out) > traj.waypoints.count(p)


def test_memoized_audit_matches_reference_on_reversed_segments():
    s = Scenario(
        name="a",
        bounds=Bounds(-2, -2, 27, 27),
        start=Point2(0, 0),
        goal=Point2(25, 25),
        obstacles=(Obstacle(_rect(4, 4, 6, 6)), Obstacle(_rect(6, 6, 7, 7))),
    )
    # through a box, along its side, across the corner the two boxes share,
    # and back over each of them, so every segment also appears reversed
    legs = [Point2(3, 5), Point2(7, 5), Point2(7, 6), Point2(5, 6), Point2(8, 8), Point2(6 + 1e-10, 3)]
    pts = legs + legs[-2::-1] + legs[1:]
    out = audit_collisions(_walk(s, pts), s)
    assert out == _reference_audit(_walk(s, pts), s)
    assert "segment 0 intersects obstacle 0" in out and "waypoint 3 inside obstacle 0" in out


@pytest.mark.parametrize("planner", ["bug1", "bug2", "nspmr"])
def test_bulk_audit_matches_reference_on_generated_routes(planner):
    # routes whose waypoints are mostly distinct, the bulk filter's main
    # traffic: bug1 repeats only those where it retraces its survey lap
    for seed in range(10):
        s = generate_world(seed)
        traj, _ = run(s, planner)
        n, distinct = len(traj.waypoints), len(set(traj.waypoints))
        assert distinct > 0.8 * n if planner == "bug1" else distinct == n
        assert audit_collisions(traj, s) == _reference_audit(traj, s) == []
        # a box of half-width delta/2 on the middle waypoint
        p, h = traj.waypoints[n // 2], s.delta / 2
        boxed = replace(s, obstacles=s.obstacles + (Obstacle(_rect(p.x - h, p.y - h, p.x + h, p.y + h)),))
        out = audit_collisions(traj, boxed)
        assert out == _reference_audit(traj, boxed)
        assert f"waypoint {n // 2} inside obstacle {len(s.obstacles)}" in out


def test_audit_lists_touched_obstacles_in_index_order():
    # obstacles 1 and 2 overlap: waypoint 1 lies in both, and segments 0 and 1 cross both
    s = Scenario("a", Bounds(-2, -2, 27, 27), Point2(0, 0), Point2(25, 25),
                 (Obstacle(_rect(0, 0, 1, 1)), Obstacle(_rect(5, 4, 7, 6)), Obstacle(_rect(4, 4, 6, 6))))
    traj = _walk(s, [Point2(3, 5), Point2(5.5, 5), Point2(8, 5)])
    assert audit_collisions(traj, s) == _reference_audit(traj, s) == [
        "segment 0 intersects obstacle 1",
        "segment 0 intersects obstacle 2",
        "waypoint 1 inside obstacle 1",
        "waypoint 1 inside obstacle 2",
        "segment 1 intersects obstacle 1",
        "segment 1 intersects obstacle 2",
    ]


def test_audit_tests_each_distinct_query_once_per_world_pose(monkeypatch):
    calls = []

    def counting(p, poly):
        calls.append(p)
        return point_in_polygon(p, poly)

    monkeypatch.setattr(sim, "point_in_polygon", counting)
    # two waypoints in one box's bbox, visited over and over
    a, b = Point2(3.9, 5), Point2(4.1, 5.2)
    static = Scenario("a", Bounds(-2, -2, 27, 27), Point2(0, 0), Point2(25, 25), (Obstacle(_rect(4, 4, 6, 6)),))
    audit_collisions(_walk(static, [a, b, a, b]), static)
    once = len(calls)
    calls.clear()
    out = audit_collisions(_walk(static, [a, b] * 50), static)
    assert len(calls) == once
    assert out == _reference_audit(_walk(static, [a, b] * 50), static)
    # a moving world tests again at every tick, and no result may carry over
    # from one tick to the next: the climbing box reaches the lower waypoint
    # at tick 4, which was clear at ticks 0 and 2
    moving = replace(static, obstacles=(Obstacle(_rect(4, 4, 6, 6), (0.0, 1.5)),))
    pts = [Point2(5, 6.1), Point2(5, 6.2)] * 10
    calls.clear()
    out = audit_collisions(_walk(moving, pts), moving)
    assert len(calls) > once * 5
    assert out == _reference_audit(_walk(moving, pts), moving)
    assert out[:2] == ["segment 3 intersects obstacle 0", "waypoint 4 inside obstacle 0"]


def test_audit_flags_a_step_grazing_a_wall_beyond_its_bbox():
    # 1e-7 m above the top of a 25 x 1 m wall: segment_intersection reads the
    # step as touching, though both waypoints lie beyond the wall's bbox
    s = Scenario("a", Bounds(-2, -2, 27, 27), Point2(0, 5), Point2(25, 5), (Obstacle(_rect(0, 0, 25, 1)),))
    traj = _walk(s, [Point2(10, 1 + 1e-7), Point2(10.25, 1 + 1e-7)])
    assert _segment_hits(*traj.waypoints, s.obstacles[0].shape)
    assert audit_collisions(traj, s) == _reference_audit(traj, s) == ["segment 0 intersects obstacle 0"]
    # at 1e-10 m the waypoints touch the wall too, and the segment joining them is flagged with them
    traj = _walk(s, [Point2(10, 1 + 1e-10), Point2(10.25, 1 + 1e-10)])
    assert audit_collisions(traj, s) == _reference_audit(traj, s) == [
        "waypoint 0 inside obstacle 0",
        "segment 0 intersects obstacle 0",
        "waypoint 1 inside obstacle 0",
    ]


def test_audit_flags_a_segment_wholly_inside_an_obstacle():
    s = Scenario("a", Bounds(-2, -2, 27, 27), Point2(0, 0), Point2(25, 25), (Obstacle(_rect(4, 4, 6, 6)),))
    traj = _walk(s, [Point2(4.5, 5), Point2(5.5, 5.2)])
    assert _segment_hits(*traj.waypoints, s.obstacles[0].shape) == []
    assert audit_collisions(traj, s) == _reference_audit(traj, s) == [
        "waypoint 0 inside obstacle 0",
        "segment 0 intersects obstacle 0",
        "waypoint 1 inside obstacle 0",
    ]


def test_audit_of_a_segment_leaving_a_boundary_point_matches_the_reference():
    # p lies 5e-10 inside the top edge, ON_BOUNDARY: the step down meets the
    # edge at t = -2e-9, beyond segment_intersection's tolerance, so only the
    # midpoint test flags it; the step up crosses the edge at t = 2e-9
    box = _rect(4, 4, 6, 6)
    s = Scenario("a", Bounds(-2, -2, 27, 27), Point2(0, 0), Point2(25, 25), (Obstacle(box),))
    p = Point2(5, 6 - 5e-10)
    assert point_in_polygon(p, box) is PointLocation.ON_BOUNDARY
    assert _segment_hits(p, Point2(5, 5.75), box) == []
    for q in (Point2(5, 5.75), Point2(5, 6.25), Point2(5.25, 6 - 5e-10)):
        traj = _walk(s, [p, q])
        assert audit_collisions(traj, s) == _reference_audit(traj, s), q
        assert audit_collisions(traj, s)[:2] == ["waypoint 0 inside obstacle 0", "segment 0 intersects obstacle 0"], q


def _random_segments(rng, poly, n):
    """n segments near poly's boundary: from a vertex or an edge point, up to 1e-10..1e-7 m or
    up to 1 m off its line, grazing along it, crossing it or leaving it, 0 to 3 m long."""
    out = []
    for _ in range(n):
        a, b = poly.edges[rng.randrange(len(poly.vertices))]
        ex, ey = b.x - a.x, b.y - a.y
        norm = math.hypot(ex, ey)
        ux, uy = ex / norm, ey / norm
        t = rng.choice([0.0, 1.0, rng.random()])
        off = rng.choice([0.0, 1e-10, -1e-10, 1e-9, 1e-8, -1e-8, 1e-7, -1e-7, rng.uniform(-1, 1)])
        p = Point2(a.x + t * ex + off * uy, a.y + t * ey - off * ux)  # (uy, -ux) points outward on a CCW ring
        length = rng.choice([0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.25, rng.uniform(0, 3)])
        angle = rng.choice([0.0, math.pi, 1e-9, -1e-9, 1e-6, rng.uniform(0, 2 * math.pi)])
        dx, dy = math.cos(angle), math.sin(angle)
        out.append((p, Point2(p.x + length * (dx * ux - dy * uy), p.y + length * (dx * uy + dy * ux))))
    return out


def test_audit_segment_answers_equal_segment_hits_on_random_segments():
    # a segment is flagged exactly when _segment_hits finds a hit or its midpoint
    # lies INSIDE; from an OUTSIDE start the midpoint never decides, so there
    # the answer is _segment_hits' alone. Each segment is audited on its own and
    # all of them as one walk, whose joining segments are random too and whose
    # spread widens the audit's margin. The exception: a segment under 2e-4 of
    # max(1, w, h) more than 1 cm beyond the bbox, where _segment_hits reads
    # only the parallel test's EPS_GEOM S^2 / |pq| tolerance, is not tested
    rng = random.Random(15)
    concave = Polygon((Point2(0, 0), Point2(3, 0), Point2(3, 3), Point2(2, 3), Point2(2, 1), Point2(1, 1), Point2(1, 3), Point2(0, 3)))
    polys = [_rect(4, 4, 6, 6), _rect(0, 0, 25, 1), concave, concave.translated(1e3, -2e3)]
    polys += [ob.shape for ob in generate_world(3).obstacles[:2]]
    flagged = midpoint_only = 0
    for poly in polys:
        x0, y0, x1, y1 = poly.bbox
        s = Scenario("r", Bounds(x0 - 10, y0 - 10, x1 + 10, y1 + 10), Point2(x0 - 5, y0 - 5), Point2(x1 + 5, y1 + 5), (Obstacle(poly),))
        segments = _random_segments(rng, poly, 300)
        walk = [p for pq in segments for p in pq]
        whole = set(audit_collisions(_walk(s, walk), s))
        for k, (p, q) in enumerate(zip(walk, walk[1:])):
            boundary = bool(_segment_hits(p, q, poly))
            gap = max(x0 - max(p.x, q.x), min(p.x, q.x) - x1, y0 - max(p.y, q.y), min(p.y, q.y) - y1)
            if max(abs(q.x - p.x), abs(q.y - p.y)) < 2e-4 * max(1.0, x1 - x0, y1 - y0) and gap > 1e-6:
                if gap <= 1e-2:
                    continue  # within the audit's margin or beyond it, by the spread
                boundary = False
            mid = point_in_polygon(Point2((p.x + q.x) / 2, (p.y + q.y) / 2), poly) is PointLocation.INSIDE
            start_outside = point_in_polygon(p, poly) is PointLocation.OUTSIDE
            assert not (start_outside and mid and not boundary), (p, q)
            want = boundary or mid
            assert (f"segment {k} intersects obstacle 0" in whole) == want, (p, q)
            if k % 2 == 0:
                assert ("segment 0 intersects obstacle 0" in audit_collisions(_walk(s, [p, q]), s)) == want, (p, q)
            flagged += want
            midpoint_only += mid and not boundary
    assert flagged > 500 and midpoint_only > 10


def test_audit_flags_waypoints_outside_the_bounds():
    # on a bound is not strictly inside; the bounds message leads its waypoint's messages
    s = Scenario("a", Bounds(0, 0, 10, 10), Point2(1, 5), Point2(9, 9), (Obstacle(_rect(9, 4, 11, 6)),))
    traj = _walk(s, [Point2(8.5, 5), Point2(10, 5), Point2(10.5, 5), Point2(10.5, 12), Point2(8.5, 9)])
    assert audit_collisions(traj, s) == [
        "segment 0 intersects obstacle 0",
        "waypoint 1 outside bounds",
        "waypoint 1 inside obstacle 0",
        "segment 1 intersects obstacle 0",
        "waypoint 2 outside bounds",
        "waypoint 2 inside obstacle 0",
        "segment 2 intersects obstacle 0",
        "waypoint 3 outside bounds",
    ]
    moving = replace(s, obstacles=(Obstacle(_rect(2, 2, 3, 3), (0.0, 1.0)),))
    assert audit_collisions(_walk(moving, traj.waypoints), moving) == [f"waypoint {k} outside bounds" for k in (1, 2, 3)]


# --- grid oracle ------------------------------------------------------------------

def test_oracle_empty_world_diagonal():
    got = grid_oracle(_empty(), 0.25)
    assert got == pytest.approx(DIAG_25, abs=1e-9)


def test_oracle_unreachable_returns_none():
    # walls overhang the western arena edge, so the cavity around the start
    # is sealed by the grid boundary itself
    s = Scenario(
        name="boxed",
        bounds=Bounds(-2, -2, 27, 27),
        start=Point2(0, 0),
        goal=Point2(25, 25),
        obstacles=(
            Obstacle(_rect(-3, 1, 3, 1.5)),
            Obstacle(_rect(-3, -1.5, 3, -1)),
            Obstacle(_rect(2, -1.5, 2.5, 1.5)),
        ),
    )
    assert grid_oracle(s, 0.25) is None


def test_fixture_run_lengths_are_at_least_oracle_less_delta():
    for name in ("scenario1", "concave_trap", "corridor_loop"):
        s = builtin_scenario(name)
        oracle = grid_oracle(s, s.delta / 2)
        assert oracle is not None
        assert oracle >= math.dist(s.start, s.goal) - 1e-9
        _, res = run(s, "nspmr")
        assert res.length >= oracle - s.delta


# grid_oracle(s, 0.25) on the builtins; a change to the lattice search must keep them
PINNED_ORACLE = {
    "concave_trap": 26.863961030678915,
    "corridor_loop": 26.86396103067892,
    "dynamic_crossing": 35.64823227814081,
    "office_like": 22.035533905932734,
    "scenario1": 38.8700576850888,
    "triangle_loop": 35.35533905932736,
}


def test_oracle_values_are_pinned():
    assert sorted(PINNED_ORACLE) == sorted(BUILTIN_NAMES)
    for name, value in PINNED_ORACLE.items():
        assert grid_oracle(builtin_scenario(name), 0.25) == pytest.approx(value, abs=1e-12), name


def test_oracle_requires_positive_resolution():
    # an infinite resolution would collapse the lattice to one node and read 0.0
    for resolution in (0, -0.25, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            grid_oracle(_empty(), resolution)


def test_oracle_refuses_a_lattice_too_fine_to_count():
    # 1e-310 is finite and positive, but the bounds' extent over it overflows to infinity
    with pytest.raises(ValueError, match="^cannot count the nodes of a lattice of spacing 1e-310 over the bounds$"):
        grid_oracle(_empty(), 1e-310)
    # at 1e-200 the nodes can be counted, but there are more than the lattice's limit
    with pytest.raises(ValueError, match="^a lattice of spacing 1e-200 over the bounds has more than 67108864 nodes$"):
        grid_oracle(builtin_scenario("scenario1"), 1e-200)
