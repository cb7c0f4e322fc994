"""Direction selection, priority rules, lattice moves, backtracking."""

import math
import random
from collections import Counter
from dataclasses import replace
from itertools import islice
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from nspmr import planner
from nspmr.geometry import Point2, Polygon, circular_diff
from nspmr.planner import NspmrState, _walk, desired_angle, filter_candidates, select_direction
from nspmr.sensing import DIRECTIONS, STEPS, SensorReading, blocking_threshold, scan
from nspmr.sim import iteration_ceiling, run
from nspmr.world import BUILTIN_NAMES, Bounds, Obstacle, Scenario, builtin_scenario, generate_world

from test_sensing import ROUTE_WORLDS, route_nodes

SEED = 20260817


def _scan(free_flags, dists=None):
    dists = dists or [1.0] * 8
    return tuple(SensorReading(f, d) for f, d in zip(free_flags, dists))


ALL_FREE = _scan([True] * 8)


def free_directions(readings):
    """The candidate set with all three rules off: every direction whose reading is free."""
    return [a for a, reading in zip(DIRECTIONS, readings) if reading.free]


def _world(*polys, start=Point2(0, 0), goal=Point2(25, 25), delta=0.5, d=1.0):
    return Scenario(
        name="t",
        bounds=Bounds(-50, -50, 50, 50),
        start=start,
        goal=goal,
        obstacles=tuple(Obstacle(p) for p in polys),
        delta=delta,
        sensor_range=d,
    )


def _position(start, node, delta):
    """start + node * delta/2, the position the planner gives a node."""
    half = delta / 2
    return Point2(start.x + node[0] * half, start.y + node[1] * half)


def _rect(x0, y0, x1, y1):
    return Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


# --- desired_angle ------------------------------------------------------------

def test_desired_angle_examples():
    assert desired_angle(Point2(0, 0), Point2(25, 25)) == pytest.approx(45)
    assert desired_angle(Point2(1, 1), Point2(0, 2)) == pytest.approx(315)
    assert desired_angle(Point2(0, 0), Point2(0, -1)) == pytest.approx(180)
    assert desired_angle(Point2(0, 0), Point2(0, 7)) == pytest.approx(0)
    assert desired_angle(Point2(0, 0), Point2(3, 0)) == pytest.approx(90)


def test_desired_angle_undefined_at_goal():
    with pytest.raises(ValueError):
        desired_angle(Point2(2, 2), Point2(2, 2))


# --- filter_candidates -----------------------------------------------------------

def test_rule_one_removes_reversal():
    st = NspmrState(start=Point2(0, 0), prev_dir=0.0)
    got = filter_candidates(ALL_FREE, st)
    assert got == [0, 45, 90, 135, 225, 270, 315]


def test_rule_two_exhaustion_empties():
    st = NspmrState(start=Point2(0, 0))
    st.used[(0, 0)] = set(DIRECTIONS)
    assert filter_candidates(ALL_FREE, st) == []


def test_blocked_directions_removed():
    flags = [False, True, True, True, True, True, True, False]
    st = NspmrState(start=Point2(0, 0))
    assert filter_candidates(_scan(flags), st) == [45, 90, 135, 180, 225, 270]


def test_rule_three_excludes_dead_neighbor_cells():
    st = NspmrState(start=Point2(0, 0))
    st.dead.add((0, 1))  # the node one step north
    got = filter_candidates(ALL_FREE, st)
    assert 0 not in got and len(got) == 7


def test_rules_off_candidates_ignore_memory():
    st = NspmrState(start=Point2(0, 0), prev_dir=0.0)
    st.used[(0, 0)] = set(DIRECTIONS)
    st.dead.add((0, 1))
    assert free_directions(ALL_FREE) == list(DIRECTIONS)
    # the walk with the rules off takes the bearing's move, which rule II's memory forbids
    assert filter_candidates(ALL_FREE, st) == []
    assert next(_walk(st, _world(), False))[1] == 45.0


# --- select_direction ------------------------------------------------------------

def test_select_prefers_smallest_angular_difference():
    cands = [45.0, 90.0, 135.0, 180.0, 225.0, 270.0]
    assert select_direction(cands, 315.0, ALL_FREE) == 270.0


def test_select_wraps_across_north():
    assert select_direction(list(DIRECTIONS), 355.0, ALL_FREE) == 0.0


def test_select_equidistant_tie_goes_to_lower_index():
    assert select_direction([45.0, 135.0], 90.0, ALL_FREE) == 45.0


def test_select_distance_tiebreak_beats_index():
    dists = [1.0] * 8
    dists[3] = 3.0  # sensor 4 = 135 degrees sees farther
    sc = _scan([True] * 8, dists)
    assert select_direction([45.0, 135.0], 90.0, sc) == 135.0


def test_select_empty_candidates_rejected():
    with pytest.raises(ValueError):
        select_direction([], 0.0, ALL_FREE)


@pytest.mark.parametrize("cands", [[10.0], [0.0, 10.0], [360.0]])
def test_select_candidate_off_the_lattice_rejected(cands):
    with pytest.raises(ValueError, match=f"candidate {cands[-1]!r} is not one of the 8 lattice directions"):
        select_direction(cands, 0.0, ALL_FREE)


def test_selected_difference_never_beaten(subtests=None):
    rng = random.Random(SEED)
    for _ in range(500):
        cands = sorted(rng.sample(DIRECTIONS, rng.randint(1, 8)))
        theta = rng.uniform(0, 360)
        dists = [rng.choice([0.5, 1.0, 2.0]) for _ in range(8)]
        sc = _scan([True] * 8, dists)
        chosen = select_direction(list(map(float, cands)), theta, sc)
        for other in cands:
            assert circular_diff(chosen, theta) <= circular_diff(other, theta) + 1e-12


def _ranking_bearings(rng):
    """Each multiple of 22.5 in [0, 360], its float neighbours, points 1e-9 around it and
    just either side of that margin, and uniform draws."""
    out = [rng.uniform(0.0, 360.0) for _ in range(150)]
    for m in range(17):
        t = 22.5 * m
        out += [t, math.nextafter(t, -1.0), math.nextafter(t, 361.0)]
        out += [t + sign * e for sign in (1, -1) for e in (1e-9, 0.999e-9, 1.001e-9, 3e-9)]
    return [t for t in out if 0.0 <= t <= 360.0]


def test_record_order_equals_repeated_selection_at_sector_edges_and_ties(monkeypatch):
    # the record's ranking (a sector table, the exact-tie rule at multiples of 45, or the key
    # sort near other edges) must pick the moves as select_direction does one at a time, and
    # as the key (circular_diff, -distance, angle) sorts them
    rng = random.Random(SEED)
    w = _world()
    for theta in _ranking_bearings(rng):
        monkeypatch.setattr(planner, "desired_angle", lambda pos, goal: theta)
        for _ in range(6):
            # two distances only, so the pairs tied at a multiple of 45 often tie on distance too
            sc = _scan([rng.random() < 0.8 for _ in range(8)], [rng.choice((0.5, 1.0)) for _ in range(8)])
            monkeypatch.setattr(planner, "scan", lambda *args: sc)
            got = [a for a, _ in planner._visit(w, w.start).order]
            cands, want = free_directions(sc), []
            while cands:
                want.append(select_direction(cands, theta, sc))
                cands.remove(want[-1])
            key = {a: (circular_diff(a, theta), -r.dist, a) for a, r in zip(DIRECTIONS, sc)}
            assert got == want == sorted(free_directions(sc), key=key.get), theta


# --- _walk -----------------------------------------------------------------------

def test_step_reports_goal_when_within_half_delta():
    w = _world(goal=Point2(0.2, 0.0))
    st = NspmrState(start=Point2(0, 0))
    kind, direction, pos, _ = next(_walk(st, w, True))
    assert kind == "goal_reached" and direction is None
    assert pos == Point2(0, 0)
    assert st.trail == [(0, 0)]


def test_step_moves_toward_goal_and_records_memory():
    w = _world(goal=Point2(25, 25))
    st = NspmrState(start=Point2(0, 0))
    kind, direction, pos, _ = next(_walk(st, w, True))
    assert kind == "moved" and direction == 45.0
    assert pos == _position(st.start, st.node, 0.5) == (0.25, 0.25)
    assert st.node == (1, 1)
    assert st.trail == [(0, 0), (1, 1)]
    assert st.used[(0, 0)] == {45.0}
    assert st.prev_dir == 45.0 and len(st.trail) == 2


def test_rules_off_run_keeps_no_trail():
    # only rule III reads the trail, so a rules-off run leaves it at the start node
    w = builtin_scenario("corridor_loop")
    st = NspmrState(start=w.start)
    nodes = set()
    for kind, _, _, _ in islice(_walk(st, w, False), 300):
        assert kind == "moved"
        nodes.add(st.node)
    assert len(nodes) > 1
    assert st.trail == [(0, 0)] and st.used == {} and st.dead == set()


def test_straight_run_on_diagonal_is_shortest():
    w = _world(goal=Point2(2, 2))
    st = NspmrState(start=Point2(0, 0))
    moves = 0
    for kind, direction, _, _ in islice(_walk(st, w, True), 50):
        if kind == "goal_reached":
            break
        assert kind == "moved" and direction == 45.0
        moves += 1
    assert moves == 8  # 2*sqrt(2) meters in sqrt(2)/4 steps
    assert st.node == (8, 8) and _position(st.start, st.node, 0.5) == (2.0, 2.0)


def test_blocked_north_northwest_picks_270():
    # goal to the northwest, bar blocking north and northwest: pick west
    w = _world(_rect(-0.6, 0.2, 0.1, 0.4), goal=Point2(-20, 20))
    st = NspmrState(start=Point2(0, 0))
    kind, direction, _, _ = next(_walk(st, w, True))
    assert kind == "moved" and direction == 270.0


def test_backtrack_marks_dead_and_retreats():
    w = _world(goal=Point2(25, 25))
    st = NspmrState(start=Point2(0, 0), node=(1, 1), trail=[(0, 0), (1, 1)])
    st.used[(1, 1)] = set(DIRECTIONS)
    kind, direction, pos, _ = next(_walk(st, w, True))
    assert kind == "backtracked"
    assert direction == 225.0
    assert pos == Point2(0, 0)
    assert st.node == (0, 0)
    assert st.trail == [(0, 0)]
    assert (1, 1) in st.dead
    assert st.prev_dir is None
    assert 225.0 in st.used[(1, 1)]


def test_stuck_when_trail_exhausted():
    w = _world(goal=Point2(25, 25))
    st = NspmrState(start=Point2(0, 0))
    st.used[(0, 0)] = set(DIRECTIONS)
    kind, direction, pos, _ = next(_walk(st, w, True))
    assert kind == "stuck" and direction is None
    assert pos == Point2(0, 0) and st.node == (0, 0)
    assert not st.dead


def test_goal_cell_is_never_marked_dead():
    # The node nearest the goal lies within delta/4 of it on each axis, so
    # within delta/2: a robot there stops before rule III can retire it, even
    # with every direction used, whatever the goal's offset from the lattice.
    start = Point2(0.1, -0.3)
    for gx, gy in ((0.125, 0.125), (-0.125, 0.125), (0.12, -0.124), (2.6, 1.3), (-3.225, 0.825)):
        w = _world(start=start, goal=Point2(gx, gy))
        node = (round((gx - start.x) / 0.25), round((gy - start.y) / 0.25))
        st = NspmrState(start=start, node=node, trail=[(node[0] - 1, node[1]), node])
        st.used[node] = set(DIRECTIONS)
        kind, _, pos, _ = next(_walk(st, w, True))
        assert kind == "goal_reached" and pos == _position(st.start, st.node, 0.5)
        assert math.dist(pos, w.goal) <= 0.25
        assert not st.dead


def test_rules_disabled_step_goes_stuck_instead_of_backtracking():
    # wall pocket: west approach, all free directions point away from goal
    w = _world(goal=Point2(25, 25))
    st = NspmrState(start=Point2(0, 0), node=(1, 1), trail=[(0, 0), (1, 1)])
    st.used[(1, 1)] = set(DIRECTIONS)
    assert next(_walk(st, w, False))[0] == "moved"  # memory ignored: keeps moving
    st2 = NspmrState(start=Point2(0, 0))
    blocked_scan_world = _world(
        _rect(-0.3, 0.1, 0.3, 0.3),
        _rect(0.1, -0.3, 0.3, 0.3),
        _rect(-0.3, -0.3, 0.3, -0.1),
        _rect(-0.3, -0.3, -0.1, 0.3),
        goal=Point2(25, 25),
    )
    assert next(_walk(st2, blocked_scan_world, False))[0] == "stuck"


def test_no_reversal_between_consecutive_moves():
    rng = random.Random(SEED + 3)
    w = _world(
        _rect(1.0, 1.0, 1.6, 1.6),
        _rect(-1.8, 0.4, -1.0, 1.2),
        goal=Point2(rng.uniform(3, 5), rng.uniform(3, 5)),
    )
    st = NspmrState(start=Point2(0, 0))
    prev_move = None
    for kind, direction, _, _ in islice(_walk(st, w, True), 200):
        if kind == "moved":
            if prev_move is not None:
                assert circular_diff(direction, prev_move) != 180
            prev_move = direction
        else:
            prev_move = None


# --- scan memo -------------------------------------------------------------------

def _walked(s, rules_enabled=True, max_steps=1000):
    """The state that max_steps steps of one walk over s leave, and the positions it visits."""
    st = NspmrState(start=s.start)
    visited = {s.start}
    for kind, _, pos, _ in islice(_walk(st, s, rules_enabled), max_steps):
        if kind in ("goal_reached", "stuck"):
            break
        visited.add(pos)
    return st, visited


def _count_scans(monkeypatch):
    calls = []

    def counting_scan(pos, world, reach=None):
        calls.append(pos)
        return scan(pos, world, reach)

    monkeypatch.setattr(planner, "scan", counting_scan)
    return calls


def _fresh_record(s, pos):
    """A node's record rebuilt from a fresh scan with the public planner functions:
    (pos, at goal, free moves (angle, signs) in the order select_direction picks them,
    less those whose target lies outside the bounds)."""
    if math.dist(pos, s.goal) <= s.delta / 2:
        return pos, True, ()
    sc = scan(pos, s)
    theta = desired_angle(pos, s.goal)
    cands, order = free_directions(sc), []
    while cands:
        order.append(select_direction(cands, theta, sc))
        cands.remove(order[-1])
    half = s.delta / 2
    moves = [planner._MOVE[a] for a in order]
    return pos, False, tuple((a, (sx, sy)) for a, (sx, sy) in moves
                             if s.bounds.contains(Point2(pos.x + sx * half, pos.y + sy * half)))


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if not builtin_scenario(n).is_dynamic])
def test_memoized_scans_equal_fresh_scans(name, monkeypatch):
    s = builtin_scenario(name)
    calls = _count_scans(monkeypatch)
    for rules in (True, False):
        calls.clear()
        st, visited = _walked(s, rules)
        # one real scan per distinct node; the goal's node needs none
        positions = {node: _position(s.start, node, s.delta) for node in st.records}
        assert sorted(calls) == sorted(positions[n] for n, rec in st.records.items() if not rec.at_goal)
        assert set(positions.values()) <= visited
        assert len(st.records) >= len(visited) - 1
        for node, record in st.records.items():
            assert record == _fresh_record(s, positions[node])


@pytest.mark.parametrize("name", ROUTE_WORLDS)
def test_visit_caps_its_scan_exactly_where_ranked_reads_no_distance(name, monkeypatch):
    # inside a sector _visit casts to the diagonal threshold, and _ranked gives the same order
    # from that scan as from the full-range one; elsewhere _visit casts to the sensing range
    world = ROUTE_WORLDS[name]
    reach = blocking_threshold(45.0, world.delta)
    reaches = []
    monkeypatch.setattr(planner, "scan", lambda pos, w, r=None: reaches.append(r) or scan(pos, w, r))
    for pos in route_nodes(world):
        if math.dist(pos, world.goal) <= world.delta / 2:
            continue
        theta = desired_angle(pos, world.goal)
        s = planner._sector(theta)
        inside = s is not None
        if inside:
            assert planner._ranked(theta, s, scan(pos, world, reach)) == planner._ranked(theta, s, scan(pos, world))
        reaches.clear()
        planner._visit(world, pos)
        assert reaches == [reach if inside else None]


def _ranked_world(key):
    kind, value = key
    if kind == "world":
        return generate_world(value)
    return replace(builtin_scenario("office_like"), sensor_range=value)


@pytest.mark.parametrize("key", [("world", seed) for seed in range(20)] + [("office_like", d) for d in (2.0, 10.0, 20.0)],
                         ids=lambda key: f"{key[0]}-{key[1]}")
def test_records_equal_fresh_records_on_generated_and_office_runs(key):
    # every node record the run builds, with the rules on to the end and off for 2000 steps,
    # ranks its moves as select_direction picks them one by one from a fresh scan
    s = _ranked_world(key)
    for rules, steps in ((True, iteration_ceiling(s)), (False, 2000)):
        st, _ = _walked(s, rules, steps)
        assert len(st.records) > 10
        for node, record in st.records.items():
            assert record == _fresh_record(s, _position(s.start, node, s.delta)), node


def test_records_drop_exactly_the_moves_that_leave_the_bounds():
    # an empty 2 m box: node i lies strictly inside it for -3 <= i <= 4 along x and
    # -4 <= j <= 3 along y, so a record keeps the moves to the nodes in that range
    s = _world(start=Point2(0.9, 1.1), goal=Point2(1.9, 0.05))
    s = replace(s, bounds=Bounds(0, 0, 2, 2))
    for i in range(-3, 5):
        for j in range(-4, 4):
            st = NspmrState(start=s.start, node=(i, j))
            next(_walk(st, s, False))
            record = st.records[i, j]
            assert record == _fresh_record(s, _position(s.start, (i, j), s.delta))
            if not record.at_goal:
                nx = sum(-3 <= i + sx <= 4 for sx in (-1, 0, 1))
                ny = sum(-4 <= j + sy <= 3 for sy in (-1, 0, 1))
                assert len(record.order) == nx * ny - 1


def test_moving_world_scans_every_step(monkeypatch):
    s = builtin_scenario("dynamic_crossing")
    calls = _count_scans(monkeypatch)
    _, res = run(s, "nspmr")
    assert res.outcome == "goal_reached"
    assert len(calls) == res.iterations  # one real scan per move, none from a memo
    st, _ = _walked(s)
    assert st.records == {}


_NEIGHBOURS = STEPS


@settings(max_examples=300, deadline=None)
@given(
    free=hst.lists(hst.booleans(), min_size=8, max_size=8),
    dists=hst.lists(hst.sampled_from((0.5, 1.0, 2.0)), min_size=8, max_size=8),
    prev_dir=hst.none() | hst.sampled_from(DIRECTIONS),
    used=hst.sets(hst.sampled_from(DIRECTIONS)),
    dead=hst.sets(hst.sampled_from(_NEIGHBOURS)),
    node=hst.tuples(hst.integers(-4, 4), hst.integers(-4, 4)),
    goal=hst.tuples(hst.integers(-12, 12), hst.integers(-12, 12)),
)
def test_order_walk_picks_select_direction(free, dists, prev_dir, used, dead, node, goal):
    # goals on the quarter-metre grid make bearing ties, the distances make distance ties
    w = _world(goal=Point2(goal[0] * 0.25 + 0.01, goal[1] * 0.25))
    sc = _scan(free, dists)
    pos = _position(w.start, node, w.delta)
    assume(math.dist(pos, w.goal) > w.delta / 2)
    theta = desired_angle(pos, w.goal)
    i, j = node
    records = {}
    with mock.patch.object(planner, "scan", lambda *args: sc):
        for rules in (True, False):
            for memo in (False, True):  # the first visit builds the record, a revisit reuses it
                st = NspmrState(
                    start=w.start,
                    prev_dir=prev_dir,
                    node=node,
                    used={node: set(used)},
                    dead={(i + sx, j + sy) for sx, sy in dead},
                    trail=[(i + 1, j), node],
                    records=records if memo else {},
                )
                if rules:
                    cands = filter_candidates(sc, st)
                else:
                    cands = free_directions(sc)
                want = select_direction(cands, theta, sc) if cands else None
                kind, direction, _, _ = next(_walk(st, w, rules))
                assert (direction if kind == "moved" else None) == want
                records = st.records


# --- start-anchored lattice -----------------------------------------------------

LOOP_FIXTURES = ("scenario1", "concave_trap", "corridor_loop", "triangle_loop")


def _step_log(s, max_steps):
    """(event kind, direction, node after the step) for each of up to max_steps steps of one walk."""
    st = NspmrState(s.start)
    return st, [(kind, direction, st.node) for kind, direction, _, _ in islice(_walk(st, s, True), max_steps)]


@pytest.mark.parametrize("offset", [0.1, 0.125])
@pytest.mark.parametrize("name", LOOP_FIXTURES)
def test_off_grid_start_keeps_nodes_apart(name, offset):
    # An offset of 0.125 puts the start half-way between nodes of the absolute
    # delta/2 grid, where rounding absolute coordinates merged neighbouring nodes.
    base = builtin_scenario(name)
    s = replace(base, start=Point2(base.start.x + offset, base.start.y + offset))
    traj, res = run(s, "nspmr")
    assert res.outcome == "goal_reached"
    assert res.iterations <= iteration_ceiling(s)
    # planned departures, recounted over the exact waypoints as an outside check would
    departures = Counter()
    pairs = Counter()
    for p, kind, direction in zip(traj.waypoints, traj.events, traj.directions):
        if kind == "moved":
            departures[p] += 1
            pairs[p, direction] += 1
    assert max(departures.values()) <= 8
    assert max(pairs.values()) == 1
    assert res.max_departures_per_cell == max(departures.values())
    _, log = _step_log(s, res.iterations + 1)
    nodes = [(0, 0)] + [node for _, _, node in log[:-1]]
    assert [_position(s.start, n, s.delta) for n in nodes] == list(traj.waypoints)
    assert len(set(nodes)) == len(set(traj.waypoints)) == len(set(zip(nodes, traj.waypoints)))


def _translated(s, dx, dy):
    b = s.bounds
    return replace(
        s,
        bounds=Bounds(b.xmin + dx, b.ymin + dy, b.xmax + dx, b.ymax + dy),
        start=Point2(s.start.x + dx, s.start.y + dy),
        goal=Point2(s.goal.x + dx, s.goal.y + dy),
        obstacles=tuple(replace(ob, shape=ob.shape.translated(dx, dy)) for ob in s.obstacles),
    )


@pytest.mark.parametrize("name", LOOP_FIXTURES)
def test_translation_by_whole_metres_keeps_the_node_sequence(name):
    # whole metres are whole multiples of delta/2 = 0.25 m, so the lattice
    # moves with the world and each decision should be the same
    s = builtin_scenario(name)
    _, ref = _step_log(s, iteration_ceiling(s))
    assert ref[-1][0] == "goal_reached"
    for dx, dy in ((1.0, 0.0), (0.0, -2.0), (-7.0, 3.0), (25.0, -41.0), (-60.0, 1000.0)):
        moved = _translated(s, dx, dy)
        assert _step_log(moved, iteration_ceiling(moved))[1] == ref, (dx, dy)
