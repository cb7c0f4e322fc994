"""Range sensing: thresholds, clipping, range monotonicity."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nspmr.geometry import EPS_GEOM, GeometryError, Point2, PointLocation, Polygon, point_in_polygon
from nspmr import planner
from nspmr.planner import desired_angle
from nspmr.sensing import _RAYS, DIRECTIONS, STEPS, SensorReading, blocking_threshold, scan, step_length
from nspmr.sim import run
from nspmr.world import Bounds, Obstacle, Scenario, builtin_scenario, generate_world

from test_geometry import oracle_ray_edges

SEED = 20260817


def _world(*polys, delta=0.5, d=1.0):
    return Scenario(
        name="t",
        bounds=Bounds(-50, -50, 50, 50),
        start=Point2(-40, -40),
        goal=Point2(40, 40),
        obstacles=tuple(Obstacle(p) for p in polys),
        delta=delta,
        sensor_range=d,
    )


def _rect(x0, y0, x1, y1):
    return Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


def test_step_lengths_and_thresholds():
    assert step_length(0, 0.5) == 0.25
    assert step_length(90, 0.5) == 0.25
    assert step_length(45, 0.5) == pytest.approx(0.5 * math.sqrt(2) / 2)
    assert blocking_threshold(180, 0.5) == 0.375
    assert blocking_threshold(315, 0.5) == pytest.approx(0.25 * math.sqrt(2) + 0.125)


def test_direction_table_gives_exact_rays_bearings_and_reverses():
    # the one table of the eight directions: scan's unit vectors, exact on the axes, the
    # planner's node steps, each pointing along its heading, and their reverses, the negated steps
    s = math.sqrt(0.5)
    units = [(0.0, 1.0), (s, s), (1.0, 0.0), (s, -s), (0.0, -1.0), (-s, -s), (-1.0, 0.0), (-s, s)]
    assert DIRECTIONS == tuple(45.0 * k for k in range(8))
    assert _RAYS == tuple((k, *unit) for k, unit in enumerate(units))
    for a, (sx, sy) in zip(DIRECTIONS, STEPS):
        assert desired_angle(Point2(0, 0), Point2(sx, sy)) == a
        assert planner._MOVE[a] == (a, (sx, sy)) and planner._DIRECTION_OF[sx, sy] == a
        assert planner._MOVE[planner._REVERSE[a]][1] == (-sx, -sy)


def test_empty_world_all_free_at_range():
    s = scan(Point2(0, 0), _world())
    assert len(s) == 8
    for r in s:
        assert r.free and r.dist == 1.0


def test_wall_inside_threshold_blocks_north():
    # wall 0.1 m north: inside tau_1 = 0.375
    s = scan(Point2(0, 0), _world(_rect(-1, 0.1, 1, 0.3)))
    north = s[0]
    assert not north.free
    assert north.dist == pytest.approx(0.1)


def test_hit_exactly_at_threshold_blocks():
    s = scan(Point2(0, 0), _world(_rect(-1, 0.375, 1, 0.6)))
    assert not s[0].free
    assert s[0].dist == pytest.approx(0.375)


@pytest.mark.parametrize("delta", (0.3, 0.7, 1.0))
def test_hit_exactly_at_threshold_blocks_at_other_deltas(delta):
    # delta/2 + delta/4 rounds at 0.3 and 0.7; a hit at the rounded threshold still blocks
    tau = blocking_threshold(0.0, delta)
    s = scan(Point2(0, 0), _world(_rect(-1, tau, 1, tau + 1), delta=delta, d=2.0))
    assert [(r.free, r.dist) for r in s[::2]] == [(False, tau), (True, 2.0), (True, 2.0), (True, 2.0)]
    s = scan(Point2(0, 0), _world(_rect(-1, math.nextafter(tau, 9), 1, tau + 1), delta=delta, d=2.0))
    assert s[0].free


def test_hit_just_beyond_threshold_is_free():
    s = scan(Point2(0, 0), _world(_rect(-1, 0.38, 1, 0.6)))
    assert s[0].free
    assert s[0].dist == pytest.approx(0.38)


def test_diagonal_threshold_wider_than_cardinal():
    # first hit at 0.3*sqrt(2) = 0.424: beyond cardinal threshold, inside diagonal one
    s = scan(Point2(0, 0), _world(_rect(0.3, 0.3, 0.5, 0.5)))
    assert not s[1].free
    assert s[1].dist == pytest.approx(0.3 * math.sqrt(2))
    assert s[0].free and s[2].free


def test_blocked_north_and_northwest_only():
    # bar over the northwest corner: sensors 1 and 8 read blocked, rest free
    s = scan(Point2(0, 0), _world(_rect(-0.6, 0.2, 0.1, 0.4)))
    flags = [r.free for r in s]
    assert flags == [False, True, True, True, True, True, True, False]


def test_distance_clipped_to_range():
    s = scan(Point2(0, 0), _world(_rect(-1, 3, 1, 4), d=2.0))
    assert s[0].free
    assert s[0].dist == 2.0  # hit at 3 m is beyond range


def test_scan_requires_position_outside_obstacles():
    with pytest.raises(GeometryError, match="ray origin strictly inside an obstacle"):
        scan(Point2(0, 0), _world(_rect(-1, -1, 1, 1)))


def test_scan_requires_range_exceeding_delta():
    with pytest.raises(ValueError):
        scan(Point2(0, 0), _world(d=0.5))


def test_scan_reach_must_lie_between_the_diagonal_threshold_and_the_range():
    world = _world(_rect(-1, 3, 1, 4), d=2.0)
    low = blocking_threshold(45.0, world.delta)
    for reach in (math.nextafter(low, 0.0), 0.0, -1.0, math.nextafter(2.0, 3.0), math.inf, math.nan):
        with pytest.raises(ValueError, match="reach"):
            scan(Point2(0, 0), world, reach)
    for reach in (low, 1.0, 2.0):
        assert scan(Point2(0, 0), world, reach) == tuple(SensorReading(True, reach) for _ in DIRECTIONS)
    assert scan(Point2(0, 0), world, 2.0) == scan(Point2(0, 0), world)


def _assert_capped_scan_agrees(pos, world):
    """scan cast to the diagonal threshold T keeps every full-range reading with a hit within T,
    bit for bit, and reads (True, T) on every other ray, so all eight free flags are the same."""
    reach = blocking_threshold(45.0, world.delta)
    try:
        full = scan(pos, world)
    except GeometryError:
        with pytest.raises(GeometryError, match="ray origin strictly inside an obstacle"):
            scan(pos, world, reach)
        return
    capped = scan(pos, world, reach)
    assert [r.free for r in capped] == [r.free for r in full]
    assert capped == tuple(r if r.dist <= reach else (True, reach) for r in full)


def _route_worlds():
    """office_like at d = 2, 10 and 20, the three trap fixtures and worlds 0-19, by name."""
    office = builtin_scenario("office_like")
    worlds = {f"office_like-{d}": replace(office, sensor_range=d) for d in (2.0, 10.0, 20.0)}
    worlds.update((name, builtin_scenario(name)) for name in ("concave_trap", "corridor_loop", "triangle_loop"))
    worlds.update((f"world-{seed}", generate_world(seed)) for seed in range(20))
    return worlds


ROUTE_WORLDS = _route_worlds()


def route_nodes(world):
    """The distinct nodes of world's nspmr route."""
    return dict.fromkeys(run(world, "nspmr")[0].waypoints)


@pytest.mark.parametrize("name", ROUTE_WORLDS)
def test_capped_scan_keeps_every_free_flag_on_planner_routes(name):
    world = ROUTE_WORLDS[name]
    for pos in route_nodes(world):
        _assert_capped_scan_agrees(pos, world)


def _random_world(rng, n=4):
    polys = []
    while len(polys) < n:
        x0 = rng.uniform(-4, 3)
        y0 = rng.uniform(-4, 3)
        p = _rect(x0, y0, x0 + rng.uniform(0.3, 1.5), y0 + rng.uniform(0.3, 1.5))
        polys.append(p)
    return polys


def test_scan_matches_ray_oracle():
    rng = random.Random(SEED)
    checked = 0
    for _ in range(200):
        polys = _random_world(rng)
        pos = Point2(rng.uniform(-5, 5), rng.uniform(-5, 5))
        try:
            s = scan(pos, _world(*polys, d=2.0))
        except GeometryError:
            continue  # position landed inside an obstacle
        for i, angle in enumerate(DIRECTIONS):
            hit = oracle_ray_edges(pos, angle, 2.0, polys)
            r = s[i]
            if hit is None:
                assert r.free and r.dist == 2.0
            else:
                assert r.dist == pytest.approx(hit, abs=1e-7)
                assert r.free == (hit > blocking_threshold(angle, 0.5))
            checked += 1
    assert checked > 800


def test_increasing_range_never_flips_free_flags():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        polys = _random_world(rng)
        pos = Point2(rng.uniform(-5, 5), rng.uniform(-5, 5))
        try:
            near = scan(pos, _world(*polys))
            far = scan(pos, _world(*polys, d=6.0))
        except GeometryError:
            continue
        for rn, rf in zip(near, far):
            assert rn.free == rf.free
            assert rf.dist >= rn.dist - 1e-12
            assert rn.dist == pytest.approx(min(rf.dist, 1.0))


def test_scan_deterministic():
    polys = _random_world(random.Random(SEED + 2))
    a = scan(Point2(0.3, -0.7), _world(*polys))
    b = scan(Point2(0.3, -0.7), _world(*polys))
    assert a == b


_UNIT = {a: ray[1:] for a, ray in zip(DIRECTIONS, _RAYS)}  # heading -> scan's unit vector (ux, uy)


def _reference_ray(origin, angle, max_range, obstacles):
    """One ray at a time, against every edge of every shape, with the arithmetic of scan's kernel."""
    ux, uy = _UNIT[angle]
    ox, oy = origin
    best = None
    for poly in obstacles:
        for a, b in poly.edges:
            ex, ey = b.x - a.x, b.y - a.y
            ax, ay = a.x - ox, a.y - oy
            denom = ux * ey - uy * ex
            hits = []
            if abs(denom) > EPS_GEOM:
                w = (ax * uy - ay * ux) / denom
                if -EPS_GEOM <= w <= 1.0 + EPS_GEOM:
                    hits.append((ax * ey - ay * ex) / denom)
            elif abs(ax * uy - ay * ux) <= EPS_GEOM:
                hits += [(q.x - ox) * ux + (q.y - oy) * uy for q in (a, b)]
            for t in hits:
                if EPS_GEOM < t <= max_range and (best is None or t < best):
                    best = t
    return best


def _margin(poly, d):
    """The margin scan grows poly's bbox intervals by: twice the M of its docstring."""
    x0, y0, x1, y1 = poly.bbox
    w = x1 - x0 + y1 - y0
    return 2 * (1 + w) * (EPS_GEOM + 2e-6 * (1 + d + w))


def _corner_line_site(poly, corner, angle, t, off):
    """The point t back along the ray at compass angle from one of poly's bbox corners (corner 0-3 from
    (xmin, ymin) counterclockwise), so that the ray runs at the corner, moved off that ray's lattice line
    by off in the line's coordinate: along y for the east-west line, along x for the other three."""
    x0, y0, x1, y1 = poly.bbox
    cx, cy = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))[corner]
    ux, uy = _UNIT[angle]
    if angle % 180 == 90:
        return Point2(cx - t * ux, cy - t * uy + off)
    return Point2(cx - t * ux + off, cy - t * uy)


@st.composite
def _corner_line_sites(draw, world, d):
    """A point on a lattice line through a bbox corner of one of world's shapes, on it or off it by
    EPS_GEOM or by scan's margin, anywhere from 1 behind the corner to 1 past the range d before it."""
    poly = draw(st.sampled_from(world.shapes), label="shape")
    m = _margin(poly, d)
    t = draw(st.sampled_from((-EPS_GEOM, 0.0, EPS_GEOM, 0.5 * d, d, d + EPS_GEOM)) | st.floats(-1.0, d + 1.0), label="t")
    off = draw(st.sampled_from((0.0, EPS_GEOM, -EPS_GEOM, m, -m)), label="off")
    return _corner_line_site(poly, draw(st.integers(0, 3), label="corner"), draw(st.sampled_from(DIRECTIONS), label="angle"), t, off)


def _unculled_scan(pos, world):
    """scan without its range cull: the origin test and all 8 reference rays against every shape."""
    d, delta = world.sensor_range, world.delta
    shapes = world.shapes
    for poly in shapes:
        if point_in_polygon(pos, poly) is PointLocation.INSIDE:
            raise GeometryError("ray origin strictly inside an obstacle")
    readings = []
    for angle in DIRECTIONS:
        hit = _reference_ray(pos, angle, d, shapes)
        readings.append(SensorReading(True, d) if hit is None else SensorReading(hit > blocking_threshold(angle, delta), hit))
    return tuple(readings)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 499),
    d=st.sampled_from((1.0, 10.0, 20.0)),
    data=st.data(),
)
def test_range_cull_leaves_scans_unchanged(seed, d, data):
    _check_range_cull(generate_world(seed), d, 0.5, data)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 499),
    d=st.sampled_from((1.0, 10.0, 20.0)),
    delta=st.sampled_from((0.3, 0.7, 1.0)),  # both step + delta/4 sums round at 0.3 and 0.7
    data=st.data(),
)
def test_range_cull_leaves_scans_unchanged_at_other_deltas(seed, d, delta, data):
    assume(d > delta)
    _check_range_cull(generate_world(seed), d, delta, data)


def _check_range_cull(world, d, delta, data):
    """scan at a drawn site of world, at range d and the given delta, equals _unculled_scan."""
    world = replace(world, sensor_range=d, delta=delta)
    b = world.bounds
    near = data.draw(st.sampled_from(("anywhere", "bbox side", "corner line")), label="near")
    if near == "bbox side":
        # on a side of some obstacle's bbox, EPS_GEOM off it, or d (+-EPS_GEOM) out from it
        x0, y0, x1, y1 = data.draw(st.sampled_from(world.shapes), label="shape").bbox
        along = data.draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0), label="along")
        out = data.draw(st.sampled_from((0.0, EPS_GEOM, -EPS_GEOM, d, d + EPS_GEOM, d - EPS_GEOM)), label="out")
        side = data.draw(st.sampled_from("WESN"), label="side")
        x, y = x0 + along * (x1 - x0), y0 + along * (y1 - y0)
        pos = {"W": Point2(x0 - out, y), "E": Point2(x1 + out, y), "S": Point2(x, y0 - out), "N": Point2(x, y1 + out)}[side]
    elif near == "corner line":
        pos = data.draw(_corner_line_sites(world, d), label="pos")
    else:
        pos = Point2(data.draw(st.floats(b.xmin, b.xmax), label="x"), data.draw(st.floats(b.ymin, b.ymax), label="y"))
    _assert_capped_scan_agrees(pos, world)
    try:
        want = _unculled_scan(pos, world)
    except GeometryError:
        with pytest.raises(GeometryError, match="ray origin strictly inside an obstacle"):
            scan(pos, world)
        return
    assert scan(pos, world) == want


def _euclidean_gap(x, y, poly):
    x0, y0, x1, y1 = poly.bbox
    return math.hypot(max(x0 - x, x - x1, 0.0), max(y0 - y, y - y1, 0.0))


def _edge_slack(poly):
    x0, y0, x1, y1 = poly.bbox
    return EPS_GEOM * (1 + x1 - x0 + y1 - y0)


def test_range_cull_keeps_the_shapes_within_euclidean_reach():
    # in a world that holds one shape alone, scan equals the scan without culls at sites just
    # inside and just outside the cull's reach and where a ray's lattice line passes a bbox
    # corner off by scan's margin either way, so no ray the culls drop can hit its shape; a
    # shape more than d + 1 away has no hit within d
    rng = random.Random(SEED)
    for seed in range(10):
        world = generate_world(seed)
        b = world.bounds
        sites = [Point2(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax)) for _ in range(100)]
        for poly in world.shapes:
            x0, y0, x1, y1 = poly.bbox
            slack = _edge_slack(poly)  # the cull's reach is d + slack
            for out in (0.0, 1.0, 1.0 + EPS_GEOM, 1.0 + slack, 1.0 + 2 * slack, 10.0 + slack, 10.0 + 1e-6):
                sites += [Point2(x0 - out, y0 - out), Point2(x1 + out, y1), Point2(x0, y1 + out), Point2(x1 + out, y0 - out)]
        for d in (1.0, 10.0):
            alone = [(poly, _world(poly, d=d)) for poly in world.shapes]
            lines = [_corner_line_site(poly, corner, angle, 0.5, sign * _margin(poly, d))
                     for poly in world.shapes for corner in range(4) for angle in DIRECTIONS for sign in (1, -1)]
            for pos in sites + lines:
                for poly, one in alone:
                    if _euclidean_gap(pos.x, pos.y, poly) > d + 1:
                        continue
                    _assert_capped_scan_agrees(pos, one)
                    try:
                        want = _unculled_scan(pos, one)
                    except GeometryError:
                        with pytest.raises(GeometryError, match="ray origin strictly inside an obstacle"):
                            scan(pos, one)
                        continue
                    assert scan(pos, one) == want, (seed, d, pos, poly)


def test_edge_skip_keeps_a_hit_past_the_end_of_a_long_edge():
    # the kernel accepts a hit up to EPS_GEOM * |edge| past an edge's end, 1e-3 m on these
    # 1e6 m edges, so with d = 5e-4 the east ray hits the spike's tip 7e-4 m above it: both
    # edges lie more than d from the robot along y, and only the skip's 2 M margin keeps them
    spike = Polygon((Point2(2.5e-4, 7e-4), Point2(1.0, 1e6), Point2(-1.0, 1e6)))
    world = _world(spike, delta=2e-4, d=5e-4)
    got = scan(Point2(0, 0), world)
    assert got == _unculled_scan(Point2(0, 0), world)
    assert got[2].dist == pytest.approx(2.5e-4, abs=1e-9)


OFFICE = builtin_scenario("office_like")


@st.composite
def _office_sites(draw, d):
    """A point in office_like: anywhere, on or near a lattice line through a shape's bbox corner, or
    where one shape's side lies t away along x and another's along y, so that a ray's hit distance can
    equal a farther shape's gap."""
    b = OFFICE.bounds
    near = draw(st.sampled_from(("anywhere", "corner line", "two sides")), label="near")
    if near == "anywhere":
        return Point2(draw(st.floats(b.xmin, b.xmax), label="x"), draw(st.floats(b.ymin, b.ymax), label="y"))
    if near == "corner line":
        return draw(_corner_line_sites(OFFICE, d))
    shapes = OFFICE.shapes
    xs = draw(st.sampled_from(shapes), label="x shape").bbox
    ys = draw(st.sampled_from(shapes), label="y shape").bbox
    t = draw(st.sampled_from((0.25, 0.5, 1.0, 2.0, 2.25, 5.0, 10.0)) | st.floats(0.0, 20.0), label="t")
    x = xs[0] - t if draw(st.booleans(), label="west") else xs[2] + t
    y = ys[1] - t if draw(st.booleans(), label="south") else ys[3] + t
    return Point2(x, y)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=st.sampled_from((2.0, 10.0, 20.0)), data=st.data())
def test_office_scans_equal_the_unculled_scan(d, data):
    pos = data.draw(_office_sites(d), label="pos")
    # office_like puts up to 25 shapes in range, each with its own rays and edges kept
    office = replace(OFFICE, sensor_range=d)
    _assert_capped_scan_agrees(pos, office)
    try:
        want = _unculled_scan(pos, office)
    except GeometryError:
        with pytest.raises(GeometryError, match="ray origin strictly inside an obstacle"):
            scan(pos, office)
        return
    assert scan(pos, office) == want
