"""Scenario model, file format, builtins, dynamics, random generation."""

import hashlib
import json
import math
import random
from collections import deque
from dataclasses import replace

import pytest

from nspmr.geometry import Point2, Polygon
from nspmr.lattice import _lattice_path
from nspmr.sim import grid_oracle, run
from nspmr.world import (
    BUILTIN_NAMES,
    Bounds,
    Obstacle,
    Scenario,
    ScenarioError,
    builtin_scenario,
    generate_world,
    parse_scenario,
    serialize_scenario,
    step_dynamics,
    validate_scenario,
)

SEED = 20260817


# --- independent reachability oracle (grid BFS, written before generate_world use) ---

def _seg_dist(p, a, b):
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / L2))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _poly_contains(p, verts):
    # even-odd crossing count
    inside = False
    n = len(verts)
    px, py = p
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            xc = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if xc > px:
                inside = not inside
    return inside


def oracle_reachable(scenario, clearance):
    """BFS on a 0.25 m lattice, treating nodes within clearance of any obstacle as blocked."""
    res = 0.25
    b = scenario.bounds
    nx = int(round((b.xmax - b.xmin) / res)) + 1
    ny = int(round((b.ymax - b.ymin) / res)) + 1
    polys = []
    for ob in scenario.obstacles:
        verts = [(v.x, v.y) for v in ob.shape.vertices]
        xs, ys = [x for x, _ in verts], [y for _, y in verts]
        polys.append((verts, min(xs), min(ys), max(xs), max(ys)))
    memo = {}

    def blocked(i, j):
        if (i, j) in memo:
            return memo[i, j]
        p = (b.xmin + i * res, b.ymin + j * res)
        memo[i, j] = False
        for verts, x0, y0, x1, y1 in polys:
            # a node strictly farther than clearance from the bbox is clear of the polygon
            if math.hypot(max(x0 - p[0], p[0] - x1, 0.0), max(y0 - p[1], p[1] - y1, 0.0)) > clearance:
                continue
            n = len(verts)
            if _poly_contains(p, verts) or min(_seg_dist(p, verts[k], verts[(k + 1) % n]) for k in range(n)) <= clearance:
                memo[i, j] = True
                break
        return memo[i, j]

    def node(pt):
        return int(round((pt.x - b.xmin) / res)), int(round((pt.y - b.ymin) / res))

    src, dst = node(scenario.start), node(scenario.goal)
    if blocked(*src) or blocked(*dst):
        return False
    seen = {src}
    q = deque([src])
    while q:
        ci, cj = q.popleft()
        if (ci, cj) == dst:
            return True
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ni, nj = ci + di, cj + dj
                if (di or dj) and 0 <= ni < nx and 0 <= nj < ny and (ni, nj) not in seen:
                    if not blocked(ni, nj):
                        seen.add((ni, nj))
                        q.append((ni, nj))
    return False


# --- file format ----------------------------------------------------------------

def test_round_trip_preserves_every_field():
    for name in BUILTIN_NAMES:
        s = builtin_scenario(name)
        again = parse_scenario(serialize_scenario(s))
        assert again == s, name


def test_round_trip_velocity_none_stays_absent():
    s = builtin_scenario("scenario1")
    doc = json.loads(serialize_scenario(s))
    assert all("velocity" not in ob for ob in doc["obstacles"])
    dyn = json.loads(serialize_scenario(builtin_scenario("dynamic_crossing")))
    assert dyn["obstacles"][0]["velocity"] == [0.0, 1.5]


def _doc():
    return json.loads(serialize_scenario(builtin_scenario("scenario1")))


def test_unknown_top_level_field_rejected():
    doc = _doc()
    doc["colour"] = "red"
    with pytest.raises(ScenarioError, match="colour"):
        parse_scenario(json.dumps(doc))


def test_unknown_bounds_field_rejected():
    doc = _doc()
    doc["bounds"]["zmax"] = 3
    with pytest.raises(ScenarioError, match="zmax"):
        parse_scenario(json.dumps(doc))


def test_unknown_obstacle_field_rejected():
    doc = _doc()
    doc["obstacles"][0]["label"] = "wall"
    with pytest.raises(ScenarioError, match="label"):
        parse_scenario(json.dumps(doc))


def test_missing_required_field_named_in_error():
    doc = _doc()
    del doc["goal"]
    with pytest.raises(ScenarioError, match="goal"):
        parse_scenario(json.dumps(doc))


def test_json_syntax_error_reports_line():
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario('{\n"name": "x",\n"bounds": ,\n}')


def test_json_nested_past_the_recursion_limit_rejected():
    # json's decoder recurses once per level, so this nesting raises RecursionError inside it
    with pytest.raises(ScenarioError, match="^invalid JSON: nested too deeply$"):
        parse_scenario("[" * 100000 + "]" * 100000)


def test_non_numeric_coordinate_rejected():
    doc = _doc()
    doc["start"] = ["zero", 0]
    with pytest.raises(ScenarioError, match="start"):
        parse_scenario(json.dumps(doc))


def test_bool_is_not_a_number():
    doc = _doc()
    doc["delta"] = True
    with pytest.raises(ScenarioError, match="delta"):
        parse_scenario(json.dumps(doc))


def test_two_vertex_obstacle_rejected():
    doc = _doc()
    doc["obstacles"][0]["vertices"] = [[0, 0], [1, 0]]
    with pytest.raises(ScenarioError, match="3 points"):
        parse_scenario(json.dumps(doc))


def test_parse_applies_semantic_validation():
    doc = _doc()
    doc["start"] = [6.0, 5.0]  # inside the first block
    with pytest.raises(ScenarioError, match="outside"):
        parse_scenario(json.dumps(doc))


def test_defaults_for_omitted_parameters():
    doc = _doc()
    del doc["delta"], doc["sensor_range"], doc["speed"]
    s = parse_scenario(json.dumps(doc))
    assert (s.delta, s.sensor_range, s.speed) == (0.5, 1.0, 10.0)


# --- semantic validation ---------------------------------------------------------

def _base(**kw):
    args = dict(
        name="t",
        bounds=Bounds(0, 0, 10, 10),
        start=Point2(1, 1),
        goal=Point2(9, 9),
        obstacles=(),
    )
    args.update(kw)
    return Scenario(**args)


def test_validate_ok_for_all_builtins():
    for name in BUILTIN_NAMES:
        assert validate_scenario(builtin_scenario(name)) == [], name


def test_validate_bounds_ordering():
    assert any("bounds" in v for v in validate_scenario(_base(bounds=Bounds(5, 0, 5, 10))))


def test_validate_start_goal_inside_bounds():
    assert any("start" in v for v in validate_scenario(_base(start=Point2(0, 5))))
    assert any("goal" in v for v in validate_scenario(_base(goal=Point2(11, 5))))


def test_validate_parameter_ranges():
    assert any("delta" in v for v in validate_scenario(_base(delta=0)))
    assert any("sensor_range" in v for v in validate_scenario(_base(sensor_range=0.5)))
    assert any("speed" in v for v in validate_scenario(_base(speed=-1)))
    # a value that is not finite is named as such
    for field in ("delta", "sensor_range", "speed"):
        for value in (math.inf, -math.inf, math.nan):
            out = validate_scenario(_base(**{field: value}))
            assert any(v.startswith(f"{field} must be finite and ") for v in out), (field, value, out)


def test_validate_winding_and_simplicity():
    cw = Polygon((Point2(4, 4), Point2(4, 6), Point2(6, 6), Point2(6, 4)))
    out = validate_scenario(_base(obstacles=(Obstacle(cw),)))
    assert any("counterclockwise" in v for v in out)
    bowtie = Polygon((Point2(4, 4), Point2(6, 6), Point2(6, 4), Point2(4, 6)))
    out = validate_scenario(_base(obstacles=(Obstacle(bowtie),)))
    assert any("self-intersect" in v for v in out)


@pytest.mark.parametrize("ring", [
    ((0, 0), (2, 0), (1, 0), (1, 1)),  # a spike: the first two edges fold back along y = 0
    ((0, 0), (1, 0), (2, 0)),  # zero area: the last edge runs back over the first two
])
def test_adjacent_edges_overlapping_along_one_line_are_not_simple(ring):
    # adjacent edges may meet only at their shared vertex, never along a stretch of one line
    s = _base(bounds=Bounds(-5, -5, 5, 5), start=Point2(-4, -4), goal=Point2(4, 4),
              obstacles=(Obstacle(Polygon(tuple(Point2(x, y) for x, y in ring))),))
    assert validate_scenario(s) == ["obstacle 0: polygon self-intersects"]


def test_validate_goal_on_obstacle_boundary_rejected():
    sq = Polygon((Point2(8, 8), Point2(9.5, 8), Point2(9.5, 9.5), Point2(8, 9.5)))
    out = validate_scenario(_base(goal=Point2(9, 8), obstacles=(Obstacle(sq),)))
    assert any("goal" in v for v in out)


def test_validate_velocity_finite():
    sq = Polygon((Point2(4, 4), Point2(6, 4), Point2(6, 6), Point2(4, 6)))
    out = validate_scenario(_base(obstacles=(Obstacle(sq, (math.inf, 0)),)))
    assert any("velocity" in v for v in out)


def test_validate_static_obstacle_within_bounds():
    # 0.1 m past xmax is rejected, static or moving; on the bounds is within them, as office_like's walls are
    poke = Polygon((Point2(8, 4), Point2(10.1, 4), Point2(10.1, 6), Point2(8, 6)))
    for velocity in (None, (1.0, 0.0), (-1.0, 0.0)):
        out = validate_scenario(_base(obstacles=(Obstacle(poke, velocity),)))
        assert out == ["obstacle 0: must lie within bounds"], velocity
        with pytest.raises(ScenarioError, match="within bounds"):
            run(_base(obstacles=(Obstacle(poke, velocity),)), "nspmr")
    flush = Polygon((Point2(8, 0), Point2(10, 0), Point2(10, 6), Point2(8, 6)))
    assert validate_scenario(_base(obstacles=(Obstacle(flush),))) == []
    assert validate_scenario(_base(obstacles=(Obstacle(flush, (1.0, 0.0)),))) == []


# --- builtins --------------------------------------------------------------------

def test_builtin_ids():
    assert BUILTIN_NAMES == (
        "concave_trap",
        "corridor_loop",
        "dynamic_crossing",
        "office_like",
        "scenario1",
        "triangle_loop",
    )
    with pytest.raises(ScenarioError, match="unknown builtin"):
        builtin_scenario("nope")


def test_scenario1_frozen_layout():
    s = builtin_scenario("scenario1")
    assert s.start == Point2(0, 0) and s.goal == Point2(25, 25)
    assert s.bounds == Bounds(-2, -2, 27, 27)
    assert (s.delta, s.sensor_range, s.speed) == (0.5, 1.0, 10.0)
    verts = [tuple(map(tuple, ob.shape.vertices)) for ob in s.obstacles]
    assert verts == [
        ((5.8, 1), (7.5, 1), (7.5, 9.8), (5.8, 9.8)),
        ((1, 15), (13.5, 15), (13.5, 17.8), (1, 17.8)),
        ((18.9, 12), (20.2, 12), (20.2, 22), (18.9, 22)),
    ]


def test_only_dynamic_crossing_moves():
    for name in BUILTIN_NAMES:
        s = builtin_scenario(name)
        assert s.is_dynamic == (name == "dynamic_crossing"), name
    # computed once per scenario; replace() builds a new one, which computes its own
    s = builtin_scenario("dynamic_crossing")
    assert s.is_dynamic and "is_dynamic" in vars(s)
    assert step_dynamics(s).is_dynamic
    assert step_dynamics(s) == step_dynamics(s)
    assert not replace(s, obstacles=(Obstacle(s.obstacles[0].shape),)).is_dynamic


def test_stepped_poses_store_that_they_move():
    # step_dynamics stores is_dynamic on each pose it builds; it must stay what the obstacles say
    # while fast blocks reflect off every side, one of them along a single axis
    base = builtin_scenario("dynamic_crossing")
    block = Polygon((Point2(4, 4), Point2(5, 4), Point2(5, 5), Point2(4, 5)))
    s = replace(base, obstacles=(Obstacle(block, (30.0, -20.0)), Obstacle(block.translated(12, 12), (0.0, 45.0))))
    flips = set()
    for _ in range(200):
        s = step_dynamics(s)
        assert "is_dynamic" in vars(s) and s.is_dynamic is True
        assert any(ob.moving for ob in s.obstacles)
        flips.update((k, ob.velocity) for k, ob in enumerate(s.obstacles))
    assert {v for k, v in flips if k == 0} == {(30.0, -20.0), (-30.0, -20.0), (30.0, 20.0), (-30.0, 20.0)}
    assert {v for k, v in flips if k == 1} == {(0.0, 45.0), (-0.0, -45.0)}


def test_office_like_ships_long_range_sensor():
    assert builtin_scenario("office_like").sensor_range == 10.0


def test_trap_scenarios_have_straight_route_blocked():
    # the straight start->goal segment must pierce the trap in each trap world
    for name in ("concave_trap", "corridor_loop"):
        s = builtin_scenario(name)
        xs = [v.x for ob in s.obstacles for v in ob.shape.vertices]
        assert min(xs) > s.start.x and max(xs) < s.goal.x
        assert s.start.y == s.goal.y == 12


# --- dynamics --------------------------------------------------------------------

def test_step_dynamics_translates_rigidly():
    s = replace(builtin_scenario("dynamic_crossing"), speed=2.5)  # a tick of 0.25 m / 2.5 m/s = 0.1 s
    s2 = step_dynamics(s)
    before = s.obstacles[0].shape.vertices
    after = s2.obstacles[0].shape.vertices
    for a, b in zip(before, after):
        assert b.x == pytest.approx(a.x, abs=1e-12)
        assert b.y == pytest.approx(a.y + 0.15, abs=1e-12)
    assert s2.obstacles[0].velocity == (0.0, 1.5)
    # edge lengths preserved
    for e1, e2 in zip(s.obstacles[0].shape.edges, s2.obstacles[0].shape.edges):
        L1 = math.dist(e1[0], e1[1])
        L2 = math.dist(e2[0], e2[1])
        assert L2 == pytest.approx(L1, abs=1e-12)


def test_step_dynamics_static_world_untouched():
    s = builtin_scenario("scenario1")
    assert step_dynamics(s) is s


def test_step_dynamics_reflects_at_bounds_and_holds_axis():
    sq = Polygon((Point2(8, 4), Point2(9.5, 4), Point2(9.5, 6), Point2(8, 6)))
    s = _base(obstacles=(Obstacle(sq, (10.0, 1.0)),), speed=2.5)  # a 0.1 s tick
    s2 = step_dynamics(s)  # dx would push bbox to 10.5 > xmax
    ob = s2.obstacles[0]
    assert ob.velocity == (-10.0, 1.0)
    assert ob.shape.vertices[0] == pytest.approx((8.0, 4.1))
    s3 = step_dynamics(s2)  # now moving away from the wall, both axes advance
    assert s3.obstacles[0].velocity == (-10.0, 1.0)
    assert s3.obstacles[0].shape.vertices[0] == pytest.approx((7.0, 4.2))


def test_repeated_steps_keep_obstacle_inside_bounds():
    s = builtin_scenario("dynamic_crossing")
    for _ in range(3000):
        s = step_dynamics(s)  # 0.025 s ticks
        x0, y0, x1, y1 = s.obstacles[0].shape.bbox
        b = s.bounds
        assert b.xmin <= x0 and x1 <= b.xmax and b.ymin <= y0 and y1 <= b.ymax


# --- random worlds ----------------------------------------------------------------

def test_generate_world_deterministic():
    a = serialize_scenario(generate_world(SEED))
    b = serialize_scenario(generate_world(SEED))
    assert a == b
    c = serialize_scenario(generate_world(SEED + 1))
    assert a != c


def test_generate_world_respects_spec():
    assert len(generate_world(SEED, 5).obstacles) == 5


def test_generate_world_refuses_a_negative_count():
    with pytest.raises(ValueError, match="^count must be >= 0, got -1$"):
        generate_world(0, -1)


def test_generate_world_separation_and_validity():
    rng = random.Random(SEED)
    for _ in range(6):
        seed = rng.randrange(10**6)
        s = generate_world(seed)
        assert validate_scenario(s) == []
        assert s.name == f"random-{seed}"
        shapes = [ob.shape for ob in s.obstacles]
        from nspmr.geometry import point_polygon_distance, polygon_distance

        for i, a in enumerate(shapes):
            assert point_polygon_distance(s.start, a) >= 1.0 - 1e-9
            assert point_polygon_distance(s.goal, a) >= 1.0 - 1e-9
            for b_ in shapes[i + 1 :]:
                assert polygon_distance(a, b_) >= 1.0 - 1e-9


def test_generate_world_always_solvable():
    rng = random.Random(SEED + 7)
    for _ in range(6):
        s = generate_world(rng.randrange(10**6))
        assert oracle_reachable(s, clearance=0.25), s.name


def test_generated_worlds_are_pinned():
    blob = "".join(serialize_scenario(generate_world(seed)) for seed in range(100))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == "d83b83baf1e38762a9d03bd17c17cc13050aa537586890a16425aa1884b6c5a3"


@pytest.mark.parametrize("clearance", [0.0, 0.25])
def test_lattice_blocks_nodes_exactly_at_clearance(clearance):
    # a wall across the arena with one row of lattice nodes (y = 1) in its gap:
    # exactly clearance from both gap edges they are blocked, 1e-6 farther free
    def rect(x0, y0, x1, y1):
        return Obstacle(Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1))))

    for gap, open_ in ((clearance, False), (clearance + 1e-6, True)):
        s = Scenario(
            name="gap",
            bounds=Bounds(0, 0, 4, 2),
            start=Point2(0.5, 1),
            goal=Point2(3.5, 1),
            obstacles=(rect(1.75, -1, 2.25, 1 - gap), rect(1.75, 1 + gap, 2.25, 3)),
        )
        assert oracle_reachable(s, clearance) is open_
        assert (_lattice_path(s, 0.25, clearance) is not None) is open_
        if clearance == 0.0:
            assert (grid_oracle(s, 0.25) is not None) is open_
