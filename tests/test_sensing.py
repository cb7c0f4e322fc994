"""Range sensing: thresholds, clipping, range monotonicity."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspmr.geometry import EPS_GEOM, GeometryError, Point2, Polygon, _require_origin_outside, compass_unit, ray_cast
from nspmr import sensing
from nspmr.sensing import SENSOR_ANGLES, SensorReading, SensorScan, blocking_threshold, scan, step_length
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


def test_empty_world_all_free_at_range():
    s = scan(Point2(0, 0), _world(), d=1.0, delta=0.5)
    assert len(s.readings) == 8
    for r in s.readings:
        assert r.free and r.dist == 1.0


def test_wall_inside_threshold_blocks_north():
    # wall 0.1 m north: inside tau_1 = 0.375
    s = scan(Point2(0, 0), _world(_rect(-1, 0.1, 1, 0.3)), d=1.0, delta=0.5)
    north = s.reading(0)
    assert not north.free
    assert north.dist == pytest.approx(0.1)


def test_hit_exactly_at_threshold_blocks():
    s = scan(Point2(0, 0), _world(_rect(-1, 0.375, 1, 0.6)), d=1.0, delta=0.5)
    assert not s.reading(0).free
    assert s.reading(0).dist == pytest.approx(0.375)


def test_hit_just_beyond_threshold_is_free():
    s = scan(Point2(0, 0), _world(_rect(-1, 0.38, 1, 0.6)), d=1.0, delta=0.5)
    assert s.reading(0).free
    assert s.reading(0).dist == pytest.approx(0.38)


def test_diagonal_threshold_wider_than_cardinal():
    # first hit at 0.3*sqrt(2) = 0.424: beyond cardinal threshold, inside diagonal one
    s = scan(Point2(0, 0), _world(_rect(0.3, 0.3, 0.5, 0.5)), d=1.0, delta=0.5)
    assert not s.reading(45).free
    assert s.reading(45).dist == pytest.approx(0.3 * math.sqrt(2))
    assert s.reading(0).free and s.reading(90).free


def test_blocked_north_and_northwest_only():
    # bar over the northwest corner: sensors 1 and 8 read blocked, rest free
    s = scan(Point2(0, 0), _world(_rect(-0.6, 0.2, 0.1, 0.4)), d=1.0, delta=0.5)
    flags = [r.free for r in s.readings]
    assert flags == [False, True, True, True, True, True, True, False]


def test_distance_clipped_to_range():
    s = scan(Point2(0, 0), _world(_rect(-1, 3, 1, 4)), d=2.0, delta=0.5)
    assert s.reading(0).free
    assert s.reading(0).dist == 2.0  # hit at 3 m is beyond range


def test_scan_requires_position_outside_obstacles():
    with pytest.raises(GeometryError, match="ray origin strictly inside an obstacle"):
        scan(Point2(0, 0), _world(_rect(-1, -1, 1, 1)), d=1.0, delta=0.5)


def test_scan_requires_range_exceeding_delta():
    with pytest.raises(ValueError):
        scan(Point2(0, 0), _world(), d=0.5, delta=0.5)


def test_reading_lookup_rejects_off_lattice_angle():
    s = scan(Point2(0, 0), _world(), d=1.0, delta=0.5)
    with pytest.raises(ValueError):
        s.reading(30)


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
            s = scan(pos, _world(*polys), d=2.0, delta=0.5)
        except GeometryError:
            continue  # position landed inside an obstacle
        for i, angle in enumerate(SENSOR_ANGLES):
            hit = oracle_ray_edges(pos, angle, 2.0, polys)
            r = s.readings[i]
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
            near = scan(pos, _world(*polys), d=1.0, delta=0.5)
            far = scan(pos, _world(*polys), d=6.0, delta=0.5)
        except GeometryError:
            continue
        for rn, rf in zip(near.readings, far.readings):
            assert rn.free == rf.free
            assert rf.dist >= rn.dist - 1e-12
            assert rn.dist == pytest.approx(min(rf.dist, 1.0))


def test_scan_deterministic():
    polys = _random_world(random.Random(SEED + 2))
    a = scan(Point2(0.3, -0.7), _world(*polys), d=1.0, delta=0.5)
    b = scan(Point2(0.3, -0.7), _world(*polys), d=1.0, delta=0.5)
    assert a == b


def _reference_ray(origin, angle, max_range, obstacles):
    """One ray at a time, shape by shape and edge by edge, with the arithmetic of scan's kernel."""
    ux, uy = compass_unit(angle)
    ox, oy = origin
    best = None
    for poly in obstacles:
        cx, cy, r = poly._circle
        tc = (cx - ox) * ux + (cy - oy) * uy
        if tc < -r or tc - r > max_range or math.hypot(cx - ox - tc * ux, cy - oy - tc * uy) > r:
            continue
        for a, b in poly.edges():
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


def _unculled_scan(pos, world, d, delta):
    """scan without its range cull: the origin test and all 8 reference rays against every shape."""
    shapes = world.shapes()
    _require_origin_outside(pos, shapes)
    readings = []
    for angle in SENSOR_ANGLES:
        hit = _reference_ray(pos, angle, d, shapes)
        readings.append(SensorReading(True, d) if hit is None else SensorReading(hit > blocking_threshold(angle, delta), hit))
    return SensorScan(tuple(readings))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 499),
    d=st.sampled_from((1.0, 10.0, 20.0)),
    data=st.data(),
)
def test_range_cull_leaves_scans_unchanged(seed, d, data):
    world = generate_world(seed)
    b = world.bounds
    if data.draw(st.booleans(), label="near a bbox"):
        # on a side of some obstacle's bbox, EPS_GEOM off it, or d (+-EPS_GEOM) out from it
        x0, y0, x1, y1 = data.draw(st.sampled_from(world.shapes()), label="shape").bbox()
        along = data.draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0), label="along")
        out = data.draw(st.sampled_from((0.0, EPS_GEOM, -EPS_GEOM, d, d + EPS_GEOM, d - EPS_GEOM)), label="out")
        side = data.draw(st.sampled_from("WESN"), label="side")
        x, y = x0 + along * (x1 - x0), y0 + along * (y1 - y0)
        pos = {"W": Point2(x0 - out, y), "E": Point2(x1 + out, y), "S": Point2(x, y0 - out), "N": Point2(x, y1 + out)}[side]
    else:
        pos = Point2(data.draw(st.floats(b.xmin, b.xmax), label="x"), data.draw(st.floats(b.ymin, b.ymax), label="y"))
    try:
        want = _unculled_scan(pos, world, d, 0.5)
    except GeometryError:
        with pytest.raises(GeometryError, match="ray origin strictly inside an obstacle"):
            scan(pos, world, d, 0.5)
        return
    got = scan(pos, world, d, 0.5)
    assert got == want
    for angle, reading in zip(SENSOR_ANGLES, got.readings):  # one ray through the same kernel
        hit = ray_cast(pos, angle, d, world.shapes())
        assert (reading == SensorReading(True, d)) if hit is None else (reading.dist == hit)


def _euclidean_gap(x, y, poly):
    x0, y0, x1, y1 = poly.bbox()
    return math.hypot(max(x0 - x, x - x1, 0.0), max(y0 - y, y - y1, 0.0))


def _edge_slack(poly):
    x0, y0, x1, y1 = poly.bbox()
    return EPS_GEOM * (1 + x1 - x0 + y1 - y0)


def _bound(x, y, poly, d):
    """The bound scan hands _cast with poly: its Euclidean gap less the margin _cast's docstring proves."""
    x0, y0, x1, y1 = poly.bbox()
    w = x1 - x0 + y1 - y0
    return _euclidean_gap(x, y, poly) - (1 + w) * (EPS_GEOM + 2e-6 * (1 + d + w))


def test_range_cull_keeps_the_shapes_within_euclidean_reach(monkeypatch):
    # the per-axis gaps only reject early: the kernel gets exactly the shapes
    # whose bbox lies within reach by the Euclidean gap, each with its bound,
    # nearest bound first
    passed = []

    def kernel(origin, units, max_range, shapes):
        passed.append(list(shapes))
        return [None] * len(units)

    monkeypatch.setattr(sensing, "_cast", kernel)
    rng = random.Random(SEED)
    for seed in range(10):
        world = generate_world(seed)
        b = world.bounds
        sites = [Point2(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax)) for _ in range(100)]
        for poly in world.shapes():
            x0, y0, x1, y1 = poly.bbox()
            slack = _edge_slack(poly)  # the cull's reach is d + slack
            for out in (0.0, 1.0, 1.0 + EPS_GEOM, 1.0 + slack, 1.0 + 2 * slack, 10.0 + slack, 10.0 + 1e-6):
                sites += [Point2(x0 - out, y0 - out), Point2(x1 + out, y1), Point2(x0, y1 + out), Point2(x1 + out, y0 - out)]
        for d in (1.0, 10.0):
            for x, y in sites:
                want = sorted(
                    ((_bound(x, y, poly, d), poly) for poly in world.shapes() if _euclidean_gap(x, y, poly) <= d + _edge_slack(poly)),
                    key=lambda pair: pair[0],
                )
                passed.clear()
                try:
                    scan(Point2(x, y), world, d, 0.5)
                except GeometryError:
                    continue
                assert passed == ([want] if want else []), (seed, d, x, y)


OFFICE = builtin_scenario("office_like")


@st.composite
def _office_sites(draw):
    """A point in office_like: anywhere, or where one shape's side lies t away along x and another's
    along y, so that a ray's hit distance can equal a farther shape's gap."""
    b = OFFICE.bounds
    if draw(st.booleans(), label="anywhere"):
        return Point2(draw(st.floats(b.xmin, b.xmax), label="x"), draw(st.floats(b.ymin, b.ymax), label="y"))
    shapes = OFFICE.shapes()
    xs = draw(st.sampled_from(shapes), label="x shape").bbox()
    ys = draw(st.sampled_from(shapes), label="y shape").bbox()
    t = draw(st.sampled_from((0.25, 0.5, 1.0, 2.0, 2.25, 5.0, 10.0)) | st.floats(0.0, 20.0), label="t")
    x = xs[0] - t if draw(st.booleans(), label="west") else xs[2] + t
    y = ys[1] - t if draw(st.booleans(), label="south") else ys[3] + t
    return Point2(x, y)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=st.sampled_from((2.0, 10.0, 20.0)), pos=_office_sites())
def test_nearest_first_cast_leaves_office_scans_unchanged(d, pos):
    # office_like puts up to 25 shapes in range, so rays settle and shapes are skipped
    try:
        want = _unculled_scan(pos, OFFICE, d, OFFICE.delta)
    except GeometryError:
        with pytest.raises(GeometryError, match="ray origin strictly inside an obstacle"):
            scan(pos, OFFICE, d, OFFICE.delta)
        return
    assert scan(pos, OFFICE, d, OFFICE.delta) == want
    # the bound holds shape by shape: no hit on a shape is nearer
    for poly in OFFICE.shapes():
        if _euclidean_gap(pos.x, pos.y, poly) <= d + _edge_slack(poly):
            bound = _bound(pos.x, pos.y, poly, d)
            for angle in SENSOR_ANGLES:
                hit = _reference_ray(pos, angle, d, [poly])
                assert hit is None or hit >= bound
