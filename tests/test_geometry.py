import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nspmr.geometry import (
    EPS_GEOM,
    GeometryError,
    Point2,
    Polygon,
    PointLocation,
    _bbox_gap,
    _closer_than,
    _segment_hits,
    circular_diff,
    math_to_compass,
    point_in_polygon,
    point_segment_distance,
    polygon_distance,
    polygon_offset,
    segment_intersection,
)
from nspmr.sensing import DIRECTIONS, SensorReading, scan
from nspmr.world import Bounds, Obstacle, Scenario, _make_shape, builtin_scenario, parse_scenario, serialize_scenario

SEED = 20260817

SQUARE = Polygon((Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)))
# L-shape occupying [0,2]x[0,1] plus [0,1]x[1,2], CCW.
LSHAPE = Polygon(
    (Point2(0, 0), Point2(2, 0), Point2(2, 1), Point2(1, 1), Point2(1, 2), Point2(0, 2))
)
TRIANGLE = Polygon((Point2(0, 0), Point2(2, 0), Point2(0.5, 1.5)))


# --- independent oracles -----------------------------------------------------

def winding_number(p, poly):
    """Signed angle sum; nonzero means inside. Independent of the crossing test."""
    total = 0.0
    verts = poly.vertices
    for i in range(len(verts)):
        a = verts[i]
        b = verts[(i + 1) % len(verts)]
        ang_a = math.atan2(a.y - p.y, a.x - p.x)
        ang_b = math.atan2(b.y - p.y, b.x - p.x)
        d = ang_b - ang_a
        while d > math.pi:
            d -= 2 * math.pi
        while d < -math.pi:
            d += 2 * math.pi
        total += d
    return total


def oracle_inside(p, poly):
    return abs(winding_number(p, poly)) > math.pi


def oracle_ray_edges(origin, compass_deg, max_range, polys):
    """Per-edge parametric solve, kept separate from the library's ray walk."""
    rad = math.radians(compass_deg)
    ux, uy = math.sin(rad), math.cos(rad)
    best = None
    for poly in polys:
        verts = poly.vertices
        for i in range(len(verts)):
            a = verts[i]
            b = verts[(i + 1) % len(verts)]
            ex, ey = b.x - a.x, b.y - a.y
            denom = ux * ey - uy * ex
            if abs(denom) < 1e-12:
                # collinear grazing: project endpoints on the ray
                if abs((a.x - origin.x) * uy - (a.y - origin.y) * ux) < 1e-9:
                    for q in (a, b):
                        t = (q.x - origin.x) * ux + (q.y - origin.y) * uy
                        if EPS_GEOM < t <= max_range and (best is None or t < best):
                            best = t
                continue
            t = ((a.x - origin.x) * ey - (a.y - origin.y) * ex) / denom
            w = ((a.x - origin.x) * uy - (a.y - origin.y) * ux) / denom
            if EPS_GEOM < t <= max_range and -1e-9 <= w <= 1 + 1e-9:
                if best is None or t < best:
                    best = t
    return best


def one_ray(origin, compass_deg, max_range, obstacles):
    """scan's reading along one lattice heading in a world of the given obstacles: the hit distance,
    or None when it reads free at range."""
    world = Scenario(name="one_ray", bounds=Bounds(-1e3, -1e3, 1e3, 1e3), start=origin, goal=origin,
                     obstacles=tuple(Obstacle(p) for p in obstacles), delta=max_range / 2, sensor_range=max_range)
    reading = scan(origin, world)[DIRECTIONS.index(compass_deg % 360)]
    return None if reading == SensorReading(True, max_range) else reading.dist


def ccw_sign(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)


def oracle_segments_cross(a1, a2, b1, b2):
    """Orientation-test predicate for proper (non-collinear) intersection."""
    d1 = ccw_sign(b1, b2, a1)
    d2 = ccw_sign(b1, b2, a2)
    d3 = ccw_sign(a1, a2, b1)
    d4 = ccw_sign(a1, a2, b2)
    return d1 * d2 < 0 and d3 * d4 < 0


def oracle_offset(poly, c):
    """Outward per-edge normals plus miter joins, built independently."""
    verts = poly.vertices
    n = len(verts)
    lines = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        ex, ey = b.x - a.x, b.y - a.y
        length = math.hypot(ex, ey)
        nx, ny = ey / length, -ex / length
        lines.append((a.x + c * nx, a.y + c * ny, ex, ey))
    out = []
    for i in range(n):
        px, py, dx, dy = lines[i - 1]
        qx, qy, ex, ey = lines[i]
        denom = dx * ey - dy * ex
        if abs(denom) < 1e-12:
            out.append(Point2(qx, qy))
            continue
        t = ((qx - px) * ey - (qy - py) * ex) / denom
        out.append(Point2(px + t * dx, py + t * dy))
    return out


# --- angles ------------------------------------------------------------------

def test_circular_diff_examples():
    assert circular_diff(315, 270) == 45
    assert circular_diff(0, 180) == 180
    assert circular_diff(350, 10) == 20


def test_circular_diff_properties():
    rng = random.Random(SEED)
    for _ in range(500):
        a = rng.uniform(-720, 720)
        b = rng.uniform(-720, 720)
        d = circular_diff(a, b)
        assert 0 <= d <= 180
        assert d == pytest.approx(circular_diff(b, a), abs=1e-9)
        assert circular_diff(a, a) == pytest.approx(0, abs=1e-9)


def test_math_to_compass_examples():
    assert math_to_compass(90) == 0
    assert math_to_compass(0) == 90
    assert math_to_compass(135) == 315


def test_math_to_compass_self_inverse():
    # (90 - (90 - x)) mod 360 recovers x mod 360
    rng = random.Random(SEED + 1)
    for _ in range(200):
        x = rng.uniform(-720, 720)
        assert math_to_compass(math_to_compass(x)) == pytest.approx(x % 360, abs=1e-9)


# --- segment intersection ----------------------------------------------------

def test_segment_intersection_examples():
    (p,) = segment_intersection(Point2(0, 0), Point2(2, 2), Point2(0, 2), Point2(2, 0))  # one point
    assert p.x == pytest.approx(1) and p.y == pytest.approx(1)

    assert segment_intersection(Point2(0, 0), Point2(1, 0), Point2(0, 1), Point2(1, 1)) == ()

    ov = segment_intersection(Point2(0, 0), Point2(2, 0), Point2(1, 0), Point2(3, 0))
    assert len(ov) == 2  # both ends of the overlap

    # endpoint touching counts as an intersection
    (t,) = segment_intersection(Point2(0, 0), Point2(1, 1), Point2(1, 1), Point2(2, 0))
    assert t.x == pytest.approx(1) and t.y == pytest.approx(1)


def test_segment_intersection_random_vs_orientation_oracle():
    rng = random.Random(SEED + 2)
    checked = 0
    for _ in range(2000):
        pts = [Point2(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)]
        a1, a2, b1, b2 = pts
        # keep clearly generic configurations: every triple well off collinear
        if any(
            abs((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])) < 1e-6
            for p, q, r in [(a1, a2, b1), (a1, a2, b2), (b1, b2, a1), (b1, b2, a2)]
        ):
            continue
        got = segment_intersection(a1, a2, b1, b2)
        expect = oracle_segments_cross(a1, a2, b1, b2)
        if expect:
            assert len(got) == 1
            assert point_segment_distance(got[0], a1, a2) < 1e-9
            assert point_segment_distance(got[0], b1, b2) < 1e-9
        else:
            assert got == ()
        checked += 1
    assert checked > 1500


# --- point in polygon ----------------------------------------------------------

def test_point_in_polygon_examples():
    assert point_in_polygon(Point2(0.5, 0.5), SQUARE) is PointLocation.INSIDE
    assert point_in_polygon(Point2(1.5, 0.5), SQUARE) is PointLocation.OUTSIDE
    assert point_in_polygon(Point2(1.0, 0.5), SQUARE) is PointLocation.ON_BOUNDARY
    assert point_in_polygon(Point2(1.0, 1.0), SQUARE) is PointLocation.ON_BOUNDARY


def test_point_in_polygon_random_vs_winding_oracle():
    rng = random.Random(SEED + 3)
    for poly in (SQUARE, LSHAPE, TRIANGLE):
        xmin, ymin, xmax, ymax = poly.bbox
        n = 0
        for _ in range(1500):
            p = Point2(rng.uniform(xmin - 0.5, xmax + 0.5), rng.uniform(ymin - 0.5, ymax + 0.5))
            if min(point_segment_distance(p, a, b) for a, b in poly.edges) < 1e-7:
                continue  # ambiguous near-boundary zone belongs to the boundary test
            got = point_in_polygon(p, poly)
            assert got is not PointLocation.ON_BOUNDARY
            assert (got is PointLocation.INSIDE) == oracle_inside(p, poly), p
            n += 1
        assert n > 1000


def full_classification(p, poly):
    """point_in_polygon without its bbox early return: every edge, then the crossings."""
    for a, b in poly.edges:
        if point_segment_distance(p, a, b) <= EPS_GEOM:
            return PointLocation.ON_BOUNDARY
    inside = False
    verts = poly.vertices
    j = len(verts) - 1
    for i in range(len(verts)):
        yi, yj = verts[i].y, verts[j].y
        if (yi > p.y) != (yj > p.y):
            if p.x < verts[i].x + (p.y - yi) * (verts[j].x - verts[i].x) / (yj - yi):
                inside = not inside
        j = i
    return PointLocation.INSIDE if inside else PointLocation.OUTSIDE


def test_point_in_polygon_bbox_early_return_agrees_near_each_side():
    shapes = [SQUARE, LSHAPE, TRIANGLE, LSHAPE.translated(0.3, -7.1), TRIANGLE.translated(12.7, 3.3)]
    n = 0
    for poly in shapes:
        x0, y0, x1, y1 = poly.bbox
        xs = sorted({x0, x1, 0.5 * (x0 + x1)} | {v.x for v in poly.vertices})
        ys = sorted({y0, y1, 0.5 * (y0 + y1)} | {v.y for v in poly.vertices})
        for off in (1e-10, -1e-10, 1e-8, -1e-8):
            # off > 0 lies outside the side, off < 0 inside it
            pts = [Point2(x0 - off, y) for y in ys] + [Point2(x1 + off, y) for y in ys]
            pts += [Point2(x, y0 - off) for x in xs] + [Point2(x, y1 + off) for x in xs]
            for p in pts:
                assert point_in_polygon(p, poly) is full_classification(p, poly), (poly, p)
                n += 1
    assert n > 200


# --- ray casting ---------------------------------------------------------------

def test_ray_cast_axis_aligned_wall():
    wall = Polygon((Point2(0.5, -1), Point2(1.5, -1), Point2(1.5, 1), Point2(0.5, 1)))
    d = one_ray(Point2(0, 0), 90, 2.0, [wall])
    assert d == pytest.approx(0.5, abs=1e-12)
    assert one_ray(Point2(0, 0), 270, 2.0, [wall]) is None


def test_ray_cast_out_of_range():
    wall = Polygon((Point2(0, 3), Point2(1, 3), Point2(1, 4), Point2(0, 4)))
    assert one_ray(Point2(0.5, 0), 0, 2.0, [wall]) is None
    assert one_ray(Point2(0.5, 0), 0, 3.5, [wall]) == pytest.approx(3.0)


def test_ray_cast_diagonal_corner_hit():
    # square corner sits exactly on the 45-degree ray
    sq = Polygon((Point2(0.5, 0.5), Point2(1.5, 0.5), Point2(1.5, 1.5), Point2(0.5, 1.5)))
    d = one_ray(Point2(0, 0), 45, 2.0, [sq])
    assert d == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert d == pytest.approx(oracle_ray_edges(Point2(0, 0), 45, 2.0, [sq]), abs=1e-9)


def test_ray_cast_collinear_graze_hits():
    # ray travels exactly along the top edge; grazing must count as a hit
    sq = Polygon((Point2(1, -1), Point2(2, -1), Point2(2, 0), Point2(1, 0)))
    d = one_ray(Point2(0, 0), 90, 3.0, [sq])
    assert d == pytest.approx(1.0, abs=1e-9)


def test_ray_cast_keeps_hits_just_past_an_edge_end():
    # the kernel accepts a hit up to EPS_GEOM * |edge| past an edge's end, 4e-9 m on
    # this 4 m square, so the cull before it must not drop the rays that make one
    sq = Polygon((Point2(-2, -2), Point2(2, -2), Point2(2, 2), Point2(-2, 2)))
    ux, uy = math.sqrt(0.5), -math.sqrt(0.5)  # heading 135
    for eps in (1e-9, 2e-9, 3e-9, 3.9e-9):
        o = Point2(2 + eps + ux, 2 + uy)  # 1 m south-east of (2 + eps, 2)
        want = oracle_ray_edges(o, 315.0, 3.0, [sq])
        assert want == pytest.approx(1.0)
        assert one_ray(o, 315.0, 3.0, [sq]) == pytest.approx(want, abs=1e-12)


def test_ray_cast_origin_inside_raises():
    with pytest.raises(GeometryError, match="ray origin strictly inside an obstacle"):
        one_ray(Point2(0.5, 0.5), 0, 1.0, [SQUARE])


def test_ray_cast_random_vs_edge_oracle():
    rng = random.Random(SEED + 4)
    polys = [SQUARE, LSHAPE, TRIANGLE]
    n = 0
    for _ in range(800):
        o = Point2(rng.uniform(-2, 4), rng.uniform(-2, 4))
        if any(point_in_polygon(o, p) is not PointLocation.OUTSIDE for p in polys):
            continue
        deg = 45.0 * rng.randrange(8)
        got = one_ray(o, deg, 5.0, polys)
        want = oracle_ray_edges(o, deg, 5.0, polys)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-9)
        n += 1
    assert n > 500


# --- polygon offset ------------------------------------------------------------

def test_polygon_offset_square():
    off = polygon_offset(SQUARE, 0.1)
    want = [Point2(-0.1, -0.1), Point2(1.1, -0.1), Point2(1.1, 1.1), Point2(-0.1, 1.1)]
    assert len(off.vertices) == 4
    for got, exp in zip(off.vertices, want):
        assert got.x == pytest.approx(exp.x, abs=1e-9)
        assert got.y == pytest.approx(exp.y, abs=1e-9)


def test_polygon_offset_zero_identity():
    off = polygon_offset(SQUARE, 0.0)
    assert off.vertices == SQUARE.vertices


def test_polygon_offset_lshape_vs_normal_oracle():
    off = polygon_offset(LSHAPE, 0.05)
    want = oracle_offset(LSHAPE, 0.05)
    assert len(off.vertices) == len(want)
    for got, exp in zip(off.vertices, want):
        assert got.x == pytest.approx(exp.x, abs=1e-9)
        assert got.y == pytest.approx(exp.y, abs=1e-9)
    # reflex corner of the L miters to (1.05, 1.05)
    assert any(abs(v.x - 1.05) < 1e-9 and abs(v.y - 1.05) < 1e-9 for v in off.vertices)


def test_polygon_offset_contains_original():
    for poly in (SQUARE, LSHAPE, TRIANGLE):
        off = polygon_offset(poly, 0.05)
        for v in poly.vertices:
            assert point_in_polygon(v, off) is PointLocation.INSIDE


def test_polygon_offset_rejects_large_c():
    with pytest.raises(GeometryError):
        polygon_offset(SQUARE, 0.8)


# --- polygon helpers -----------------------------------------------------------

def test_polygon_area_and_orientation():
    assert SQUARE.signed_area() == pytest.approx(1.0)
    assert SQUARE.is_ccw
    cw = Polygon(tuple(reversed(SQUARE.vertices)))
    assert cw.signed_area() == pytest.approx(-1.0)
    assert not cw.is_ccw
    assert LSHAPE.signed_area() == pytest.approx(3.0)


def test_polygon_bbox_matches_vertices():
    rng = random.Random(SEED + 5)
    for poly in (SQUARE, LSHAPE, TRIANGLE):
        for _ in range(3):
            xs = [v.x for v in poly.vertices]
            ys = [v.y for v in poly.vertices]
            assert poly.bbox == (min(xs), min(ys), max(xs), max(ys))
            assert poly.bbox is poly.bbox  # computed once
            poly = poly.translated(rng.uniform(-5, 5), rng.uniform(-5, 5))


def test_translated_bbox_equals_bbox_of_moved_vertices():
    # translated carries the bbox over moved by (dx, dy) instead of recomputing it from the vertices
    rng = random.Random(SEED + 23)
    offsets = [(0.0, 0.0), (0.0, 3.7), (-2.9, 0.0), (1e6, 0.0), (0.0, -1e6), (1e6 + 0.1, 1e6 - 0.3), (-1e6 + 1e-9, 0.0)]
    offsets += [(rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)) for _ in range(20)]
    offsets += [(rng.uniform(-5, 5), 0.0) for _ in range(10)] + [(0.0, rng.uniform(-5, 5)) for _ in range(10)]
    jagged = Polygon(tuple(Point2(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(7)))
    concave = builtin_scenario("concave_trap").obstacles[0].shape
    for poly in (SQUARE, LSHAPE, TRIANGLE, jagged, concave):
        chained = poly
        for dx, dy in offsets:
            moved = poly.translated(dx, dy)
            assert moved.bbox == Polygon(moved.vertices).bbox, (dx, dy)
            chained = chained.translated(dx, dy)  # as step_dynamics moves a shape tick by tick
            assert chained.bbox == Polygon(chained.vertices).bbox, (dx, dy)


def test_polygon_edge_table_matches_vertices():
    parsed = parse_scenario(serialize_scenario(builtin_scenario("concave_trap"))).obstacles[0].shape
    for poly in (parsed, parsed.translated(0.3, -7.1), polygon_offset(parsed, 0.125), LSHAPE.translated(1e6, 1e6)):
        v = poly.vertices
        n = len(v)
        table = poly._edge_table
        assert len(table) == n
        for i, (a, b, ex, ey, x0, y0, x1, y1) in enumerate(table):
            assert (a, b) == (v[i], v[(i + 1) % n])
            assert (ex, ey) == (b.x - a.x, b.y - a.y)
            assert (x0, y0, x1, y1) == (min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))
        assert poly.edges == tuple((v[i], v[(i + 1) % n]) for i in range(n))
        assert poly.edges is poly.edges and poly._edge_table is table  # built once
        # the caches leave equality and hashing to the vertices alone
        fresh = Polygon(v)
        assert fresh == poly and hash(fresh) == hash(poly)
        assert poly.translated(0.0, 0.0) == poly and poly.translated(1.0, 0.0) != poly


def test_polygon_simplicity():
    assert SQUARE.is_simple
    bow = Polygon((Point2(0, 0), Point2(1, 1), Point2(1, 0), Point2(0, 1)))
    assert not bow.is_simple


def test_polygon_distance():
    a = SQUARE
    b = Polygon((Point2(2, 0), Point2(3, 0), Point2(3, 1), Point2(2, 1)))
    assert polygon_distance(a, b) == pytest.approx(1.0)
    c = Polygon((Point2(0.5, 0.5), Point2(2, 0.5), Point2(2, 2), Point2(0.5, 2)))
    assert polygon_distance(a, c) == 0.0


def test_point_segment_distance():
    assert point_segment_distance(Point2(0, 1), Point2(-1, 0), Point2(1, 0)) == pytest.approx(1)
    assert point_segment_distance(Point2(3, 0), Point2(-1, 0), Point2(1, 0)) == pytest.approx(2)


# offsets exactly at the margins that callers test, and at the contact tolerance
_GAP_OFFSETS = st.one_of(st.sampled_from((0.0, 1e-9, 0.25, 1.0)), st.floats(-1.0, 2.0))


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    kinds=st.tuples(*[st.sampled_from(("rect", "l", "triangle"))] * 2),
    dx=_GAP_OFFSETS,
    dy=_GAP_OFFSETS,
)
# a gap of exactly 1.0 over which polygon_distance reads 0.9999999999999996
@example(seeds=(239, 0), kinds=("rect", "rect"), dx=0.0, dy=1.0)
def test_bbox_gap_bounds_polygon_distance_and_culls_exactly(seeds, kinds, dx, dy):
    a, b = (_make_shape(random.Random(seed), kind) for seed, kind in zip(seeds, kinds))
    # put b's lower-left bbox corner at (dx, dy) from a's upper-right one
    ax0, ay0, ax1, ay1 = a.bbox
    bx0, by0, _, _ = b.bbox
    for other in (b, b.translated(ax1 + dx - bx0, ay1 + dy - by0)):
        gap, dist = _bbox_gap(a, other), polygon_distance(a, other)
        assert _bbox_gap(other, a) == gap
        # a lower bound up to rounding, and up to the EPS_GEOM contact
        # tolerance of segment_intersection, within which dist reads 0
        assert gap <= dist + 1e-9 or (dist == 0.0 and gap < 1e-7), (gap, dist)
        for margin in (0.25, 1.0):  # bugs._prepare at delta 0.5, and generate_world
            assert _closer_than(a, other, margin) is (dist < margin)


# --- per-edge culls against unculled copies --------------------------------------

def unculled_point_in_polygon(p, poly):
    """point_in_polygon as it was before the edge table: the bbox early return,
    then the distance test on every edge, then the crossings."""
    x0, y0, x1, y1 = poly.bbox
    if not (x0 - EPS_GEOM <= p.x <= x1 + EPS_GEOM and y0 - EPS_GEOM <= p.y <= y1 + EPS_GEOM):
        return PointLocation.OUTSIDE
    return full_classification(p, poly)


def unculled_segment_hits(a, b, poly):
    """The points segment_intersection finds between ab and each edge of poly, in edge
    order, with both ends of an overlap."""
    return [x for e in poly.edges for x in segment_intersection(a, b, *e)]


def assert_cull_parity(a, b, poly):
    """Culled and unculled agree on both ends of segment ab, and _segment_hits finds the
    same points as segment_intersection on every edge, each at its fraction along ab."""
    for p in (a, b):
        assert point_in_polygon(p, poly) is unculled_point_in_polygon(p, poly), (p, poly)
    hits = _segment_hits(a, b, poly)
    assert [x for _, x in hits] == unculled_segment_hits(a, b, poly), (a, b, poly)
    rx, ry = b.x - a.x, b.y - a.y
    scale = max(1.0, abs(a.x), abs(a.y), abs(b.x), abs(b.y))
    for t, x in hits:
        assert math.hypot(a.x + t * rx - x.x, a.y + t * ry - x.y) <= 1e-12 * scale, (a, b, t, x)


def _rotated_wall(length, angle, width=0.2):
    """A thin rectangle whose long sides run length m at angle (radians) from +x."""
    ux, uy = math.cos(angle), math.sin(angle)
    nx, ny = -uy * width, ux * width
    return Polygon((Point2(0, 0), Point2(length * ux, length * uy), Point2(length * ux + nx, length * uy + ny), Point2(nx, ny)))


_POCKET = builtin_scenario("concave_trap").obstacles[0].shape
CULL_SHAPES = (SQUARE, LSHAPE, TRIANGLE, _POCKET, _rotated_wall(25.0, 0.0), _rotated_wall(25.0, 0.4636476090008061))
NEAR_MISS = (1e-10, 1e-8, 1e-5)
SHIFTS = (0.0, 1e3, 1e6)


def near_miss_segments(poly, step, offsets):
    """Segments of length step at each of offsets from each edge, on both sides:
    beside it, across it, in line past its ends, and nearly parallel to it."""
    for a, b in poly.edges:
        ex, ey = b.x - a.x, b.y - a.y
        length = math.hypot(ex, ey)
        ux, uy = ex / length, ey / length
        for off in offsets:
            for d in (off, -off):
                for t in (0.0, 0.5, 1.0):
                    p = Point2(a.x + t * ex - d * uy, a.y + t * ey + d * ux)
                    yield p, Point2(p.x + step * ux, p.y + step * uy)  # beside
                    yield Point2(p.x - step * uy * d / off, p.y + step * ux * d / off), p  # across, stopping short or past
                    for phi in (1e-9, 1e-7, 1e-5):  # nearly parallel
                        yield p, Point2(p.x + step * math.cos(phi) * ux - step * math.sin(phi) * uy,
                                        p.y + step * math.cos(phi) * uy + step * math.sin(phi) * ux)
                p = Point2(b.x + d * ux, b.y + d * uy)
                yield p, Point2(p.x + step * ux, p.y + step * uy)  # in line past the end
                q = Point2(a.x - d * ux, a.y - d * uy)
                yield Point2(q.x - step * ux, q.y - step * uy), q  # in line before the start


def test_culls_agree_with_unculled_on_near_misses():
    n = 0
    for shift in SHIFTS:
        for poly in CULL_SHAPES:
            poly = poly.translated(shift, shift)
            # delta/2 at delta 0.01 and 0.5; and a 1 mm step, which segment_intersection
            # still takes for grazing a 25 m wall from 0.5 mm beside it
            for step, offsets in ((0.005, NEAR_MISS), (0.25, NEAR_MISS), (0.001, (5e-4,))):
                for a, b in near_miss_segments(poly, step, offsets):
                    assert_cull_parity(a, b, poly)
                    n += 1
    assert n > 10000


# Inputs within rounding of the tolerances, where a cull margin without its
# rounding slack gives another answer than the unculled code.
ROUNDING_POINTS = (
    # computed distance 9.9999997e-10 to the first edge, though 1e-9 + 1e-15 past its bbox
    (Point2(-0.5165287607475744, -0.8444247271905666),
     (Point2(-23.278109132301573, -1.2092541073280312), Point2(-0.5165287617475744, -0.8444247271915666),
      Point2(-1.591872649318806, 1.6495914730593775), Point2(4.4834712382524256, 1.6495914730593775),
      Point2(4.4834712382524256, -1.2092541073280312))),
    (Point2(-0.45057252167964457, -0.8346073396725466),
     (Point2(-17.83689031558685, -2.207172754105513), Point2(-0.45057252267964465, -0.8346073396725466),
      Point2(-2.3863487494738473, 0.6828971172289566), Point2(4.549427477320355, 0.6828971172289566),
      Point2(4.549427477320355, -2.207172754105513))),
)
ROUNDING_SEGMENTS = (
    # 25 m segment and edge just past the parallel threshold: segment_intersection
    # reports a crossing although the segment starts 2.2e-7 past the edge's bbox
    (Point2(20.778771442307132, -14.083091381493766), Point2(42.94171910022613, -25.65044851751852),
     (Point2(-1.3841764405543366, -2.515734151424507), Point2(20.77877122694588, -14.083091269091726),
      Point2(10.159991677902463, -7.412894803558109))),
)


def test_culls_agree_with_unculled_within_rounding_of_the_tolerances():
    for p, verts in ROUNDING_POINTS:
        poly = Polygon(verts)
        assert unculled_point_in_polygon(p, poly) is PointLocation.ON_BOUNDARY
        assert point_in_polygon(p, poly) is PointLocation.ON_BOUNDARY
    for a, b, verts in ROUNDING_SEGMENTS:
        poly = Polygon(verts)
        assert unculled_segment_hits(a, b, poly)
        assert_cull_parity(a, b, poly)


def _cull_shape(seed, kind, length, angle, shift):
    if kind == "wall":
        poly = _rotated_wall(length, angle)
    else:
        poly = _make_shape(random.Random(seed), kind)
    return poly.translated(shift, shift)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("rect", "l", "triangle", "wall")),
    length=st.floats(0.5, 25.0),
    angle=st.floats(0.0, 2 * math.pi),
    shift=st.sampled_from(SHIFTS),
    edge=st.integers(0, 5),
    t=st.sampled_from((0.0, 1.0)) | st.floats(-0.01, 1.01),
    off=st.sampled_from((0.0, 1e-10, 1e-9, 1e-8, 1e-5)) | st.floats(-1e-4, 1e-4),
    step=st.sampled_from((0.005, 0.25, 25.0)) | st.floats(1e-3, 30.0),
    phi=st.sampled_from((0.0, 1e-9, 1e-7, 1e-5)) | st.floats(-math.pi, math.pi),
)
def test_culls_agree_with_unculled_near_a_random_edge(seed, kind, length, angle, shift, edge, t, off, step, phi):
    poly = _cull_shape(seed, kind, length, angle, shift)
    a, b = poly.edges[edge % len(poly.vertices)]
    ex, ey = b.x - a.x, b.y - a.y
    norm = math.hypot(ex, ey)
    # p lies off beside the point at t along the edge; the segment leaves it at phi from the edge
    p = Point2(a.x + t * ex - off * ey / norm, a.y + t * ey + off * ex / norm)
    c, s = math.cos(phi) * step / norm, math.sin(phi) * step / norm
    q = Point2(p.x + c * ex - s * ey, p.y + c * ey + s * ex)
    assert_cull_parity(p, q, poly)
    assert_cull_parity(q, p, poly)
