"""Boundary-following planner tests.

Leave points are checked against two test-local oracles: dense resampling of
the offset outline (delta/20 spacing) for the Bug1 minimizer, and exhaustive
edge-vs-segment intersection for Bug2's departure candidates.
"""

import math

import pytest

from nspmr import bugs

from nspmr.geometry import (
    Point2,
    Polygon,
    math_to_compass,
    point_polygon_distance,
    point_segment_distance,
    polygon_offset,
    segment_intersection,
)
from nspmr.sim import audit_collisions, path_length, run
from nspmr.bugs import _departure_free, _first_entry, _march, _prepare, _Recorder, _Ring, _step_toward, bug1_result, bug2_result
from nspmr.world import (
    OUTCOME_GOAL,
    OUTCOME_LIMIT,
    OUTCOME_UNREACHABLE,
    BUILTIN_NAMES,
    Bounds,
    Obstacle,
    Scenario,
    ScenarioError,
    builtin_scenario,
    generate_world,
)

SQRT2 = math.sqrt(2.0)


# --- oracles -------------------------------------------------------------------------

def oracle_min_dist_point(shape, clearance, target, spacing):
    """Argmin of distance-to-target over the offset outline, by dense edge
    subdivision at the given arc spacing."""
    off = polygon_offset(shape, clearance)
    best, best_d = None, math.inf
    for a, b in off.edges:
        n = max(1, math.ceil(math.dist(a, b) / spacing))
        for k in range(n + 1):
            t = k / n
            p = Point2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
            d = math.dist(p, target)
            if d < best_d:
                best, best_d = p, d
    return best


def oracle_mline_crossings(shape, clearance, start, goal):
    """Every intersection of the offset outline with the start-goal segment,
    sorted by distance from the start."""
    off = polygon_offset(shape, clearance)
    pts = []
    for a, b in off.edges:
        for c in segment_intersection(a, b, start, goal):
            if all(math.dist(c, q) > 1e-9 for q in pts):
                pts.append(c)
    return sorted(pts, key=lambda p: math.dist(start, p))


def on_outline(p, shape, clearance, tol=1e-6):
    off = polygon_offset(shape, clearance)
    return min(point_segment_distance(p, a, b) for a, b in off.edges) <= tol


# --- fixtures ------------------------------------------------------------------------

def empty_scene():
    return Scenario(name="empty", bounds=Bounds(-2, -2, 27, 27),
                    start=Point2(0, 0), goal=Point2(25, 25), obstacles=())


def square_scene():
    """4x4 square centered on the start-goal line."""
    shape = Polygon((Point2(10, 10), Point2(14, 10), Point2(14, 14), Point2(10, 14)))
    return Scenario(name="square", bounds=Bounds(-2, -2, 27, 27),
                    start=Point2(0, 12), goal=Point2(25, 12), obstacles=(Obstacle(shape),))


def unit_square_scene():
    """delta=0.4 so the boundary clearance is 0.1 and walk spacing 0.2."""
    shape = Polygon((Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)))
    return Scenario(name="unit", bounds=Bounds(-5, -5, 5, 5), start=Point2(-3, 0.5),
                    goal=Point2(3, 0.5), obstacles=(Obstacle(shape),),
                    delta=0.4, sensor_range=1.0)


def spiral_scene():
    """Spiral block whose delta/4 = 0.125 outline meets the start-goal line y = 0
    at x = -0.125, 1.125, 1.275, 2.525, 4.275 and 5.525. The 0.15 gap after
    1.125 is shorter than a delta/2 step, so that departure is never free."""
    outline = (Point2(0, 1), Point2(1, 1), Point2(1, -2), Point2(4.4, -2), Point2(4.4, 2),
               Point2(2.4, 2), Point2(2.4, -1), Point2(1.4, -1), Point2(1.4, 3), Point2(5.4, 3),
               Point2(5.4, -3), Point2(0, -3))
    return Scenario(name="spiral", bounds=Bounds(-5, -5, 10, 5), start=Point2(-3, 0),
                    goal=Point2(8, 0), obstacles=(Obstacle(Polygon(tuple(reversed(outline)))),))


def skin_goal_scene(goal, start=Point2(-3, 0.5)):
    """2x1 block with its delta/4 = 0.125 outline mitered to (-0.125, 1.125)
    and (2.125, 1.125)."""
    shape = Polygon((Point2(0, 0), Point2(2, 0), Point2(2, 1), Point2(0, 1)))
    return Scenario(name="skin", bounds=Bounds(-5, -5, 9, 5), start=start,
                    goal=goal, obstacles=(Obstacle(shape),))


def slot_scene():
    """Two 2x1 blocks 0.3 apart along the start-goal line y = 0.5. Their delta/4 =
    0.125 outlines leave a 0.05 slot, x = 2.125..2.175, narrower than a delta/2
    step, so Bug2's one crossing closer to the goal than its hit at (-0.125, 0.5)
    departs into the second outline: Bug2 seals the goal off and walks back to
    the hit. Bug1 leaves each outline at its point nearest the goal and gets there."""
    blocks = [Polygon((Point2(x, 0), Point2(x + 2, 0), Point2(x + 2, 1), Point2(x, 1))) for x in (0, 2.3)]
    return Scenario(name="slot", bounds=Bounds(-5, -5, 9, 5), start=Point2(-3, 0.5),
                    goal=Point2(8, 0.5), obstacles=tuple(map(Obstacle, blocks)))


# --- boundary walk ------------------------------------------------------------------

def unit_ring():
    return _Ring(unit_square_scene().obstacles[0].shape, 0.1)


def test_full_circumnavigation_of_offset_unit_square():
    ring = unit_ring()
    shape = unit_square_scene().obstacles[0].shape
    s0 = ring.closest_to(Point2(-0.1, 0.5))[1]
    lap = ring.arc_points(s0, ring.perimeter, 1, 0.2)
    assert ring.perimeter == pytest.approx(4.8, abs=1e-9)
    assert lap[0] == lap[-1]
    assert path_length(lap) == pytest.approx(ring.perimeter, abs=1e-9)
    for a, b in zip(lap, lap[1:]):
        assert math.dist(a, b) <= 0.2 + 1e-9
    for p in lap:
        assert on_outline(p, shape, 0.1, tol=1e-9)


def test_walk_direction_reverses_initial_heading():
    ring = unit_ring()
    s0 = ring.closest_to(Point2(-0.1, 0.5))[1]
    # on the west face the outline's vertex order runs south
    assert ring.arc_points(s0, 0.2, 1, 0.2)[1].y < 0.5
    assert ring.arc_points(s0, 0.2, -1, 0.2)[1].y > 0.5


def test_closest_to_maps_walk_points_back_onto_themselves():
    rings = [unit_ring()] + _prepare(builtin_scenario("scenario1"))
    for ring in rings:
        for sign in (1, -1):
            for p in ring.arc_points(0.3, ring.perimeter, sign, 0.25):
                assert math.dist(ring.point_at(ring.closest_to(p)[1]), p) <= 1e-9


def test_walk_stops_at_precomputed_minimizer():
    s = unit_square_scene()
    ring = unit_ring()
    spacing = 0.4 / 20
    sampled = oracle_min_dist_point(s.obstacles[0].shape, 0.1, s.goal, spacing)
    L = Point2(1.1, 0.5)  # east-face midpoint of the offset square
    assert math.dist(sampled, L) <= spacing
    assert math.dist(L, s.goal) <= math.dist(sampled, s.goal) + 1e-9
    leave, s_leave = ring.closest_to(s.goal)
    assert math.dist(leave, L) <= 1e-9
    s0 = ring.closest_to(Point2(-0.1, 0.5))[1]
    arc = ring.arc_points(s0, (s_leave - s0) % ring.perimeter, 1, 0.2)
    assert math.dist(arc[-1], L) <= 1e-9
    assert path_length(arc) == pytest.approx(2.4, abs=1e-9)


# --- straight-line behavior ----------------------------------------------------------

def test_empty_world_is_straight_for_both_planners():
    s = empty_scene()
    for runner in (bug1_result, bug2_result):
        traj, outcome = runner(s, 1000)
        assert outcome == OUTCOME_GOAL
        assert traj.waypoints[-1] == s.goal
        assert path_length(traj) == pytest.approx(25 * SQRT2, rel=1e-9)
        for a, b in zip(traj.waypoints, traj.waypoints[1:]):
            assert math.dist(a, b) <= 0.25 + 1e-9


# --- Bug1 ----------------------------------------------------------------------------

def test_bug1_square_survey_and_far_side_departure():
    s = square_scene()
    shape = s.obstacles[0].shape
    spacing = 0.5 / 20
    sampled = oracle_min_dist_point(shape, 0.125, s.goal, spacing)
    L = Point2(14.125, 12.0)  # east-face midpoint of the offset square
    assert math.dist(sampled, L) <= spacing
    assert math.dist(L, s.goal) <= math.dist(sampled, s.goal) + 1e-9

    traj, outcome = bug1_result(s, 20000)
    assert outcome == OUTCOME_GOAL
    assert min(math.dist(p, Point2(9.875, 12.0)) for p in traj.waypoints) <= 1e-9  # hit
    assert min(math.dist(p, L) for p in traj.waypoints) <= 1e-9  # leave
    # march 9.875 + full loop 17 + shorter return arc 8.5 + departure 10.875
    assert path_length(traj) == pytest.approx(46.25, abs=1e-9)
    on_ring = sum(1 for p in traj.waypoints if on_outline(p, shape, 0.125))
    assert on_ring >= math.ceil(17.0 / 0.25)  # at least the survey lap


def test_bug1_scenario1_within_reference_band():
    traj, outcome = bug1_result(builtin_scenario("scenario1"), 200000)
    assert outcome == OUTCOME_GOAL
    assert 72.8 <= path_length(traj) <= 121.4


def test_goal_inside_mitered_outline_rejected():
    # goals and starts beyond the 0.125 clearance but inside the outline's mitered
    # corners, where both Bug planners used to end in unreachable: the reproducer
    # (2.11, 1.09) sits 0.142 from the corner (2, 1), 0.015 inside the east side
    cases = [(Point2(-3, 0.5), Point2(2.11, 1.09)), (Point2(-3, 1.09), Point2(2.11, 1.09)),
             (Point2(-3, 1.09), Point2(-0.11, 1.09)), (Point2(2.11, 1.09), Point2(-3, 0.5))]
    for start, goal in cases:
        label = "goal" if start.x == -3 else "start"
        for runner in (bug1_result, bug2_result):
            with pytest.raises(ScenarioError, match=f"{label} lies on or inside the outline of obstacle 0 at clearance 0.125"):
                runner(skin_goal_scene(goal, start=start), 10000)
    _, res = run(skin_goal_scene(Point2(2.11, 1.09)), "nspmr")
    assert res.outcome == OUTCOME_GOAL
    assert res.length == pytest.approx(5.60, abs=0.005)


def test_bug1_unreachable_when_hit_point_is_already_minimizer():
    # a march enters an outline farther from the goal than the outline's nearest
    # point, as the segment from that point to the goal is clear of the outline, so
    # the leave rule is driven directly: a follow that starts at (1, 1.125), under
    # the goal, surveys the whole outline, finds no nearer point and gives up there
    s = skin_goal_scene(Point2(1, 3), start=Point2(1, 4))
    rings = _prepare(s)
    rec = _Recorder(Point2(1, 1.125), 10000)
    assert bugs._bug1_follow(s, rings, rings[0], rec) == OUTCOME_UNREACHABLE
    assert math.dist(rec.pos, Point2(1, 1.125)) <= 1e-9
    assert sum(map(math.dist, rec.wp, rec.wp[1:])) == pytest.approx(7.0)  # one lap of the 2.25 x 1.25 outline


# --- Bug2 ----------------------------------------------------------------------------

def test_bug2_square_leaves_at_second_crossing():
    s = square_scene()
    shape = s.obstacles[0].shape
    crossings = oracle_mline_crossings(shape, 0.125, s.start, s.goal)
    assert len(crossings) == 2
    hit, leave = crossings
    assert math.dist(hit, Point2(9.875, 12.0)) <= 1e-9
    assert math.dist(leave, Point2(14.125, 12.0)) <= 1e-9

    traj, outcome = bug2_result(s, 20000)
    assert outcome == OUTCOME_GOAL
    departures = [a for a, b in zip(traj.waypoints[1:], traj.waypoints[2:])
                  if on_outline(a, shape, 0.125) and not on_outline(b, shape, 0.125)]
    assert len(departures) == 1
    assert math.dist(departures[0], leave) <= 1e-9
    assert math.dist(leave, s.goal) < math.dist(hit, s.goal)
    assert path_length(traj) == pytest.approx(29.25, abs=1e-9)


def test_bug2_departures_on_mline_and_strictly_closer():
    # no departure from an outline is farther from the goal than the hit that
    # began that walk, and each lies on the start-goal line
    for s in (square_scene(), builtin_scenario("scenario1")):
        traj, outcome = bug2_result(s, 200000)
        assert outcome == OUTCOME_GOAL
        wps = traj.waypoints
        on_ring = [any(on_outline(p, ob.shape, s.delta / 4) for ob in s.obstacles) for p in wps]
        hit_dist = None
        departures = 0
        for k in range(1, len(wps)):
            if on_ring[k] and not on_ring[k - 1]:
                hit_dist = math.dist(wps[k], s.goal)
            if on_ring[k - 1] and not on_ring[k]:
                departures += 1
                assert point_segment_distance(wps[k - 1], s.start, s.goal) <= 1e-6
                assert math.dist(wps[k - 1], s.goal) < hit_dist - 1e-9
        assert departures >= 1


def test_relaxed_leave_accepts_farther_crossing():
    # Bug2 leaves the spiral at 2.525 and hits it again at 4.275. The clockwise
    # walk from there crosses the line at 2.525 once more, farther from the goal
    # than that hit, with a free departure: a relaxed rule asking only for a free
    # departure accepts it and repeats the 2.525 -> 4.275 march forever, while
    # the strict rule walks on to 5.525.
    s = spiral_scene()
    rings = _prepare(s)
    traj, outcome = bug2_result(s, 20000)
    assert outcome == OUTCOME_GOAL
    wps = traj.waypoints
    on_ring = [on_outline(p, s.obstacles[0].shape, 0.125) for p in wps]
    hits = [k for k in range(1, len(wps)) if on_ring[k] and not on_ring[k - 1]]
    leaves = [k - 1 for k in range(1, len(wps)) if on_ring[k - 1] and not on_ring[k]]
    assert [wps[k].x for k in hits] == pytest.approx([-0.125, 4.275])
    assert [wps[k].x for k in leaves] == pytest.approx([2.525, 5.525])
    walk = wps[hits[1] : leaves[1] + 1]
    crossings = [Point2(a.x + (b.x - a.x) * a.y / (a.y - b.y), 0.0)
                 for a, b in zip(walk, walk[1:]) if a.y * b.y < 0]
    hit_dist = math.dist(wps[hits[1]], s.goal)
    relaxed = [x for x in crossings if math.dist(x, s.goal) > hit_dist and _departure_free(x, s.goal, rings, s.delta)]
    assert [x.x for x in relaxed] == pytest.approx([wps[leaves[0]].x])


def test_bug2_scenario1_within_reference_band():
    traj, outcome = bug2_result(builtin_scenario("scenario1"), 200000)
    assert outcome == OUTCOME_GOAL
    length = path_length(traj)
    assert 38.8 <= length <= 52.6
    assert abs(length - 45.7185858) <= 0.5  # reference vertex-chain length


def test_bug2_walks_along_the_mline_where_the_outline_lies_on_it():
    # the block's outline at clearance delta/4 has its top edge on y = 0, the start-goal line, so
    # each step of the clockwise walk along that edge overlaps the line instead of crossing it
    block = Polygon((Point2(4, -2), Point2(6, -2), Point2(6, -0.125), Point2(4, -0.125)))
    s = Scenario(name="mline_edge", bounds=Bounds(-3, -5, 13, 3), start=Point2(0, 0), goal=Point2(10, 0),
                 obstacles=(Obstacle(block),), delta=0.5)
    traj, result = run(s, "bug2")
    assert (result.outcome, result.length, result.iterations) == (OUTCOME_GOAL, 10.0, 41)
    # 15 march steps to the outline's corner at x = 3.875, then every step on y = 0 to the goal
    route = [Point2(0, 0)] + [Point2(0.25 * k, 0.0) for k in range(1, 16)]
    route += [Point2(3.875 + 0.25 * k, 0.0) for k in range(25)] + [Point2(10, 0)]
    assert list(traj.waypoints) == route
    assert traj.directions == (90.0,) * 41
    assert audit_collisions(traj, s) == []


def test_bug2_unreachable_returns_to_hit_point():
    # the m-line enters the first outline at (-0.125, 0.5) and leaves it at (2.125, 0.5),
    # 0.05 short of the second outline: no free departure, so the walk ends at the hit
    s = slot_scene()
    traj, outcome = bug2_result(s, 10000)
    assert outcome == OUTCOME_UNREACHABLE
    assert math.dist(traj.waypoints[-1], Point2(-0.125, 0.5)) <= 1e-9
    assert path_length(traj) == pytest.approx(2.875 + 7.0)  # march, then one lap of the 2.25 x 1.25 outline
    assert audit_collisions(traj, s) == []
    traj, outcome = bug1_result(s, 10000)
    assert outcome == OUTCOME_GOAL


# --- the march against a per-step reference ------------------------------------------

def reference_move_to(rec, p):
    """One recorded move by _Recorder's rule: skip <= 1e-12, stop at the budget."""
    last = rec.wp[-1]
    if math.dist(last, p) <= 1e-12:
        return True
    if len(rec.dirs) >= rec.max:
        return False
    rec.wp.append(p)
    rec.dirs.append(math_to_compass(math.degrees(math.atan2(p.y - last.y, p.x - last.x))))
    return True


def reference_march(rec, goal, rings, delta):
    """The march one step at a time: _step_toward, _first_entry on every step, then the move."""
    while (q := _step_toward(rec.pos, goal, delta)) is not None:
        hit = _first_entry(rec.pos, q, rings)
        if hit is not None:
            return hit[1] if reference_move_to(rec, hit[2]) else OUTCOME_LIMIT
        if not reference_move_to(rec, q):
            return OUTCOME_LIMIT
    return OUTCOME_GOAL


def per_step_result(runner, s, budget):
    """runner's result with the reference march and one reference move per recorded point."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bugs, "_march", reference_march)
        mp.setattr(_Recorder, "extend", lambda rec, points: all(reference_move_to(rec, p) for p in points))
        return runner(s, budget)


def assert_same_as_per_step(runner, s, budget=200000):
    traj, outcome = runner(s, budget)
    ref, ref_outcome = per_step_result(runner, s, budget)
    assert (traj.waypoints, traj.directions, traj.events, outcome) == (ref.waypoints, ref.directions, ref.events, ref_outcome)
    return outcome


def march_both(start, goal, rings, delta, budget=100000):
    """(outcome, waypoints, headings) of _march and of the reference from start."""
    out = []
    for march in (_march, reference_march):
        rec = _Recorder(start, budget)
        out.append((march(rec, goal, rings, delta), rec.wp, rec.dirs))
    assert out[0] == out[1]
    return out[0]


def slack(start, goal, delta):
    """The rounding slack a march leg from start to goal grows the ring bboxes by."""
    L = math.dist(start, goal)
    return (1 + L + math.hypot(*goal)) * (1e-9 + 1e-15 * L / (delta / 2))


def diamond(cx, cy, r):
    return Polygon((Point2(cx, cy - r), Point2(cx + r, cy), Point2(cx, cy + r), Point2(cx - r, cy)))


@pytest.mark.parametrize("runner", [bug1_result, bug2_result], ids=["bug1", "bug2"])
def test_march_equals_per_step_reference_on_worlds(runner):
    outcomes = set()
    for seed in range(50):
        try:
            outcomes.add(assert_same_as_per_step(runner, generate_world(seed)))
        except ScenarioError:
            pass
    assert OUTCOME_GOAL in outcomes


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize("delta", [0.4, 0.3])
@pytest.mark.parametrize("shape", [
    Polygon((Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1))),  # the bbox corners are outline vertices
    diamond(0.5, 0.5, 0.7),  # the bbox corners are empty
], ids=["square", "diamond"])
def test_march_equals_per_step_reference_on_adversarial_legs(shape, delta, shift):
    rings = [_Ring(shape.translated(shift, shift), delta / 4)]
    x0, y0, x1, y1 = rings[0].bbox
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    step = delta / 2
    legs = []
    for o in (0.0, 1e-12, 1e-10, 0.5, 1.0, 2.0):
        for sgn in (1, -1):
            e = sgn * o * slack(Point2(x0 - 3, y1), Point2(x1 + 3, y1), delta) if o >= 0.5 else sgn * o
            # along each bbox side, both ways: dy = 0 and dx = 0
            legs += [(Point2(x0 - 3, y1 + e), Point2(x1 + 3, y1 + e)), (Point2(x1 + 3, y0 + e), Point2(x0 - 3, y0 + e)),
                     (Point2(x0 + e, y0 - 3), Point2(x0 + e, y1 + 3)), (Point2(x1 + e, y1 + 3), Point2(x1 + e, y0 - 3))]
            # straight into a side, from whole steps away, so that step ends land on it
            legs += [(Point2(cx, y1 + k * step + e), Point2(cx, y0 - 3)) for k in (1, 4, 7)]
            legs += [(Point2(x0 - k * step + e, cy + 0.1), Point2(x1 + 3, cy + 0.1)) for k in (1, 4, 7)]
            # diagonally past or through each bbox corner
            for px, py, sx, sy in ((x0, y0, -1, 1), (x1, y1, 1, -1), (x0, y1, 1, 1), (x1, y0, -1, -1)):
                legs.append((Point2(px - 3 * sy + e, py - 3 * sx), Point2(px + 3 * sy + e, py + 3 * sx)))
    # goals inside the bbox, on and off the outline, and legs that start on the outline
    legs += [(Point2(x0 - 3, y0 - 2), Point2(x0 + 0.05, y0 + 0.05)), (Point2(x1 + 2, y1 + 3), Point2(cx, cy)),
             (Point2(x0 - 3, cy), Point2(x0 + 1e-12, cy))]
    for s in (0.0, 0.3, 1.7, rings[0].perimeter / 2):
        on = rings[0].point_at(s)
        legs += [(on, Point2(x1 + 3, y1 + 3)), (on, Point2(x0 - 3, y0 - 3)), (on, Point2(cx, cy)), (on, Point2(x1 + 3, on.y))]
    outcomes = [march_both(a, b, rings, delta)[0] for a, b in legs]
    assert outcomes.count(0) > 10 and outcomes.count(OUTCOME_GOAL) > 10


def test_march_hits_a_ring_whose_window_holds_another():
    # the leg y = 0 meets the bar's bbox for x in 5..15 and hits the bar near
    # x = 10; the small square's window (x from 11.4 to 12.6) lies inside the bar's
    bar = Polygon((Point2(5, -5), Point2(5.5, -5), Point2(15, 4.5), Point2(15, 5), Point2(14.5, 5), Point2(5, -4.5)))
    square = Polygon((Point2(11.5, -0.5), Point2(12.5, -0.5), Point2(12.5, 0.5), Point2(11.5, 0.5)))
    rings = [_Ring(bar, 0.1), _Ring(square, 0.1)]
    assert march_both(Point2(0, 0), Point2(20, 0), rings, 0.4)[0] == 0


def test_march_budget_runs_out_inside_and_outside_a_window():
    # the leg y = x crosses the bbox of ring 0 (x from 4.86 to 6.14) without
    # meeting its outline, then hits ring 1: every budget from 0 to the full run
    rings = [_Ring(diamond(4, 7, 2), 0.1), _Ring(diamond(9, 9.5, 1), 0.1)]
    start, goal = Point2(0, 0), Point2(12, 12)
    outcome, wp, _ = march_both(start, goal, rings, 0.4)
    assert outcome == 1 and len(wp) > 40
    for budget in range(len(wp) + 1):
        assert march_both(start, goal, rings, 0.4, budget)[0] == (1 if budget >= len(wp) - 1 else OUTCOME_LIMIT)


@pytest.mark.parametrize("runner", [bug1_result, bug2_result], ids=["bug1", "bug2"])
@pytest.mark.parametrize("offset", [1e-9, 1e-7, 0.5, 1.0, 2.0])
def test_bug_runs_along_a_bbox_side_equal_per_step_reference(runner, offset):
    # legs 1e-9 and 1e-7 above the unit square outline's top side y = 1.1, and at
    # 0.5, 1 and 2 times the slack; then a vertical leg beside its east side x = 1.1
    s = unit_square_scene()
    e = offset if offset < 0.5 else offset * slack(Point2(-3, 1.1), Point2(3, 1.1), s.delta)
    for start, goal in ((Point2(-3, 1.1 + e), Point2(3, 1.1 + e)), (Point2(1.1 + e, -3), Point2(1.1 + e, 3))):
        scene = Scenario(name="side", bounds=s.bounds, start=start, goal=goal, obstacles=s.obstacles,
                         delta=s.delta, sensor_range=s.sensor_range)
        assert_same_as_per_step(runner, scene, 5000)


@pytest.mark.parametrize("where", ["start", "goal"])
def test_clearance_prefilter_decides_as_the_exact_distance(where):
    # a 2x1 block and c = delta/4 = 0.3125; gaps of exactly c (3-4-5 off the
    # corner: hypot(0.1875, 0.25)) and c -+ 1e-12, from the east edge and the NE corner
    block = Polygon((Point2(0, 0), Point2(2, 0), Point2(2, 1), Point2(0, 1)))
    c = 0.3125
    refused = []
    for e in (-1e-12, 0.0, 1e-12):
        for p in (Point2(2 + c + e, 0.5), Point2(2 + 0.1875 * (1 + e / c), 1 + 0.25 * (1 + e / c))):
            ends = {"start": Point2(-5, -5), "goal": Point2(-5, -5), where: p}
            s = Scenario(name="gap", bounds=Bounds(-8, -8, 8, 8), obstacles=(Obstacle(block),), delta=4 * c, sensor_range=3.0, **ends)
            refused.append(point_polygon_distance(p, block) <= c)
            # beyond the clearance each point still lies on or inside the mitered outline,
            # which the outline check, run after the clearance check, refuses
            message = "within the boundary clearance" if refused[-1] else "on or inside the outline"
            with pytest.raises(ScenarioError, match=f"{where} lies {message}"):
                _prepare(s)
    assert refused == [True, True, True, True, False, False]


# --- feasibility and budget ----------------------------------------------------------

def test_dynamic_scenario_rejected():
    s = builtin_scenario("dynamic_crossing")
    for runner in (bug1_result, bug2_result):
        with pytest.raises(ScenarioError):
            runner(s, 1000)


def test_obstacles_within_twice_clearance_rejected():
    a = Obstacle(Polygon((Point2(5, 5), Point2(6, 5), Point2(6, 8), Point2(5, 8))))
    b = Obstacle(Polygon((Point2(6.2, 5), Point2(7.2, 5), Point2(7.2, 8), Point2(6.2, 8))))
    s = Scenario(name="tight", bounds=Bounds(-2, -2, 27, 27),
                 start=Point2(0, 6), goal=Point2(25, 6), obstacles=(a, b))
    with pytest.raises(ScenarioError):
        bug2_result(s, 1000)


def test_unoffsettable_obstacle_rejected():
    with pytest.raises(ScenarioError):
        bug1_result(builtin_scenario("triangle_loop"), 1000)


def test_start_inside_clearance_rejected():
    s = skin_goal_scene(Point2(-3, 0.5))
    s = Scenario(name="s", bounds=s.bounds, start=Point2(-0.05, 0.5), goal=Point2(8, 0.5),
                 obstacles=s.obstacles)
    with pytest.raises(ScenarioError):
        bug2_result(s, 1000)


def test_goal_inside_clearance_rejected():
    # goals within 0.125 of the block, which both planners used to call unreachable
    for goal in (Point2(2.05, 0.5), Point2(-0.05, 0.5), Point2(2.06, 0.5), Point2(2.08, 1.08)):
        for runner in (bug1_result, bug2_result):
            with pytest.raises(ScenarioError, match="goal lies within the boundary clearance"):
                runner(skin_goal_scene(goal), 10000)


def test_reachable_goal_near_obstacle_is_rejected_not_unreachable():
    # regression: the goal sits 0.041 above the box, inside its 0.125 clearance.
    # bug1 used to return unreachable after 15.43 m and bug2 after 13.09 m,
    # while nspmr reaches it
    box = Polygon((Point2(4, 3), Point2(6, 3), Point2(6, 5), Point2(4, 5)))
    s = Scenario(name="near_goal", bounds=Bounds(0, 0, 10, 10), start=Point2(1, 1),
                 goal=Point2(5, 5.041), obstacles=(Obstacle(box),), delta=0.5)
    for planner in ("bug1", "bug2"):
        with pytest.raises(ScenarioError, match="goal lies within the boundary clearance"):
            run(s, planner)
    _, res = run(s, "nspmr")
    assert res.outcome == OUTCOME_GOAL
    assert res.length == pytest.approx(6.49, abs=0.005)


def test_outline_leaving_bounds_rejected():
    # the block lies inside the bounds, but its 0.1 outline reaches x = 1.1
    s = unit_square_scene()
    s = Scenario(name="edge", bounds=Bounds(-5, -5, 1.05, 5), start=s.start, goal=Point2(0.5, 3),
                 obstacles=s.obstacles, delta=s.delta, sensor_range=s.sensor_range)
    for runner in (bug1_result, bug2_result):
        with pytest.raises(ScenarioError, match="obstacle 0: its outline at clearance 0.1 leaves the bounds"):
            runner(s, 1000)


def test_goal_clearance_check_accepts_builtins_and_generated_worlds():
    accepted, refused = ("concave_trap", "corridor_loop", "scenario1"), ("dynamic_crossing", "office_like", "triangle_loop")
    assert sorted(accepted + refused) == sorted(BUILTIN_NAMES)
    for name in accepted:
        _prepare(builtin_scenario(name))
    for name in refused:  # for reasons of their own, as before the goal check
        with pytest.raises(ScenarioError) as err:
            _prepare(builtin_scenario(name))
        assert "goal" not in str(err.value)
    for seed in range(500):
        _prepare(generate_world(seed))


def test_budget_exhaustion_truncates_result_with_limit_outcome():
    s = builtin_scenario("scenario1")
    traj, outcome = bug1_result(s, 50)
    assert outcome == OUTCOME_LIMIT
    assert len(traj.waypoints) - 1 == 50
    traj, outcome = bug2_result(s, 10)
    assert outcome == OUTCOME_LIMIT
    assert len(traj.waypoints) - 1 == 10


@pytest.mark.parametrize("runner", [bug1_result, bug2_result], ids=["bug1", "bug2"])
@pytest.mark.parametrize("scene", [
    lambda: builtin_scenario("scenario1"),
    square_scene,
    slot_scene,
], ids=["scenario1", "square", "unreachable"])
def test_every_budget_truncates_the_unlimited_route(runner, scene):
    # k runs out in the march, the survey lap, the return arc, Bug2's walk or
    # its leave move: each budget keeps the first k moves and ends in LIMIT
    s = scene()
    full, full_outcome = runner(s, 200000)
    n = len(full.directions)
    assert full_outcome != OUTCOME_LIMIT
    for k in range(1, n + 2):
        traj, outcome = runner(s, k)
        m = min(k, n)
        assert outcome == (OUTCOME_LIMIT if k < n else full_outcome)
        assert traj.waypoints == full.waypoints[: m + 1]
        assert traj.directions == full.directions[:m]
        assert traj.events == full.events[:m]


def test_result_api_returns_full_trajectory_on_success():
    s = square_scene()
    traj, outcome = bug2_result(s, 20000)
    assert outcome == OUTCOME_GOAL
    assert path_length(traj) == pytest.approx(29.25, abs=1e-9)


# --- integration invariants ----------------------------------------------------------

def test_trajectories_are_collision_free():
    s = builtin_scenario("scenario1")
    for runner in (bug1_result, bug2_result):
        traj, outcome = runner(s, 200000)
        assert outcome == OUTCOME_GOAL
        assert audit_collisions(traj, s) == []


def test_waypoint_spacing_bounded_by_half_delta():
    s = builtin_scenario("scenario1")
    for runner in (bug1_result, bug2_result):
        traj, _ = runner(s, 200000)
        for a, b in zip(traj.waypoints, traj.waypoints[1:]):
            assert math.dist(a, b) <= s.delta / 2 + 1e-9


def test_planner_length_ordering_on_scenario1():
    s = builtin_scenario("scenario1")
    lengths = {}
    for planner in ("nspmr", "bug1", "bug2"):
        traj, result = run(s, planner)
        assert result.outcome == OUTCOME_GOAL
        lengths[planner] = result.length
    assert lengths["nspmr"] < lengths["bug2"] < lengths["bug1"]
