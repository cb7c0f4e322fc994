"""Eight fixed-direction range sensors.

Sensor i (1..8) looks along compass angle (i-1)*45. A direction is reported
free only when the first obstacle along it, if any, lies beyond the blocking
threshold for that direction: one step length plus a delta/4 margin. The
measured distance is clipped to the sensing range d and feeds tie-breaking.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import EPS_GEOM, GeometryError, Point2, PointLocation, point_in_polygon
from .world import Scenario

SENSOR_COUNT = 8
# The eight lattice directions: sensor k looks along compass heading DIRECTIONS[k], and the planner's
# move that way takes the robot from node (i, j) to (i + sx, j + sy), with (sx, sy) = STEPS[k].
DIRECTIONS = tuple(45.0 * k for k in range(SENSOR_COUNT))
STEPS = ((0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1))

_DIAG = math.sqrt(2.0) / 2.0
# The rays scan casts, (k, ux, uy) with STEPS[k] scaled to unit length, and the ones scan keeps for a shape
# by the sides of the shape's bbox that reach past the robot along x, y, x - y and x + y: bit 2i means the
# i-th interval reaches below the robot's coordinate, bit 2i + 1 above it. Ray k lies on one coordinate's
# line and runs up or down another.
_RAYS = tuple((k, sx * _DIAG, sy * _DIAG) if sx and sy else (k, float(sx), float(sy)) for k, (sx, sy) in enumerate(STEPS))
_NEEDS = (0b1011, 0b10110000, 0b1110, 0b11100000, 0b0111, 0b01110000, 0b1101, 0b11010000)
_SELECT = tuple(tuple(ray for ray, need in zip(_RAYS, _NEEDS) if mask & need == need) for mask in range(256))


def step_length(angle: float, delta: float) -> float:
    """Length of one planner step along a lattice direction."""
    if angle % 90 == 0:
        return delta / 2
    return delta * _DIAG


def blocking_threshold(angle: float, delta: float) -> float:
    # one step plus delta/4 of slack keeps the endpoint strictly clear
    return step_length(angle, delta) + delta / 4


class SensorReading(NamedTuple):
    free: bool
    dist: float


def scan(pos: Point2, world: Scenario) -> tuple[SensorReading, ...]:
    """Range-scan the 8 lattice directions against the world's current shapes, at the world's
    sensing range d = world.sensor_range and step scale delta = world.delta. Reading k looks
    along DIRECTIONS[k].

    Ray k reads the distance t from pos to its first boundary hit within d. Hits at t <= EPS_GEOM
    are ignored, so standing on a boundary does not read as a collision, and a ray along an edge
    hits it at the nearer overlap point. One loop over the shapes drops those whose bbox is out of
    range, by the gap to the bbox along each axis first and by the Euclidean gap G only for the
    rest (a hit may lie EPS_GEOM * |edge| past an edge's end). Raises GeometryError when pos is
    strictly inside an obstacle, testing only the shapes whose closed bbox holds pos (from outside
    a bbox, point_in_polygon miscounts only within rounding of an edge, which reads ON_BOUNDARY).

    Each hit lies within M of its edge, so of the bbox. Let u = 2**-53, e = b - a an edge, s the
    hit's parameter along it, W = w + h >= every |e|, D = |a - pos| and M = (1 + W) (EPS_GEOM +
    2e-6 (1 + d + W)); a shape in range has G <= d + EPS_GEOM (1 + W), so D <= 1 + d + W. If W <=
    2e6, denom's error 2u W is under EPS_GEOM / 2 < |denom| / 2, so rounding moves t by under
    2 (3u D + 2u d) W / EPS_GEOM and s W by under 2 (3u D + 2u W) W / EPS_GEOM, under 1.8e-6 W
    (1 + d + W) in all. A crossing with s within EPS_GEOM of [0, 1] then puts the hit pos + t u
    within EPS_GEOM W + 1.8e-6 W (1 + d + W) of the edge; a grazing hit projects a vertex on a ray
    passing within a few EPS_GEOM of it, off by under 1e-7 (1 + d + W).

    So two culls keep every hit. The 8 rays lie on four lines through pos, along x, y, x - y and
    x + y; a shape keeps ray k only when k's line meets the bbox's interval in that coordinate,
    and the bbox reaches ahead of pos along k, each grown by 2 M. A hit lies within sqrt(2) M of
    the bbox in each coordinate, and the coordinates are taken relative to pos, off by under
    6u (1 + d + W), well inside the (2 - sqrt(2)) M to spare. One pass over the shape's edge
    table then tests the kept rays, skipping each edge whose bbox lies more than d + 2 M from pos
    along an axis: |t ux| and |t uy| <= d, so a hit's edge lies within d + M on each axis, and
    rounding pos +- fl(d + 2 M) cannot carry a comparison with a float across the exact limit.
    Past W = 2e6, 2 M > 8 (1 + d + W) > G + W, the farthest any edge lies from pos along an axis,
    so both culls keep every ray and edge of the shape.

    When no shape keeps a ray, every direction reads free at range d; otherwise the blocking
    thresholds along an axis and along a diagonal are taken once, after the last shape, from
    ``blocking_threshold``. The result depends only on pos and the shapes, so in a static world
    the planner decides each lattice node once (``NspmrState.records``); in a moving world every
    step scans afresh.
    """
    d, delta = world.sensor_range, world.delta
    if not d > delta > 0:
        raise ValueError("require sensing range d > delta > 0")
    x, y = pos
    inf = math.inf
    best = None
    for poly in world.shapes:
        x0, y0, x1, y1 = poly.bbox
        # a hit may lie EPS_GEOM * |edge| past an edge's end, and |edge| <= x1 - x0 + y1 - y0
        reach = d + EPS_GEOM * (1 + x1 - x0 + y1 - y0)
        # per-axis gaps to the bbox; hypot(gx, gy) >= max(gx, gy) when rounded faithfully, so one gap may reject
        gx = x0 - x if x < x0 else x - x1 if x > x1 else 0.0
        if gx > reach:
            continue
        gy = y0 - y if y < y0 else y - y1 if y > y1 else 0.0
        if gy > reach or math.hypot(gx, gy) > reach:
            continue
        w = x1 - x0 + y1 - y0
        m = 2 * (1 + w) * (EPS_GEOM + 2e-6 * (1 + d + w))  # 2 M, with M as proved above
        lx, hx, ly, hy = x0 - x, x1 - x, y0 - y, y1 - y
        rays = _SELECT[(lx <= m) | (hx >= -m) << 1 | (ly <= m) << 2 | (hy >= -m) << 3
                       | (lx - hy <= m) << 4 | (hx - ly >= -m) << 5 | (lx + ly <= m) << 6 | (hx + hy >= -m) << 7]
        if not rays:
            continue
        if not (gx or gy) and point_in_polygon(pos, poly) is PointLocation.INSIDE:
            raise GeometryError("ray origin strictly inside an obstacle")
        if best is None:
            best = [inf] * SENSOR_COUNT
        r = d + m
        xlo, xhi, ylo, yhi = x - r, x + r, y - r, y + r
        for a, b, ex, ey, ex0, ey0, ex1, ey1 in poly._edge_table:
            if ex0 > xhi or ex1 < xlo or ey0 > yhi or ey1 < ylo:
                continue
            ax, ay = a.x - x, a.y - y
            num = ax * ey - ay * ex
            for k, ux, uy in rays:
                denom = ux * ey - uy * ex
                if abs(denom) > EPS_GEOM:
                    t = num / denom
                    if EPS_GEOM < t <= d and t < best[k]:
                        if -EPS_GEOM <= (ax * uy - ay * ux) / denom <= 1.0 + EPS_GEOM:
                            best[k] = t
                elif abs(ax * uy - ay * ux) <= EPS_GEOM:  # parallel and collinear: grazing
                    for q in (a, b):
                        t = (q.x - x) * ux + (q.y - y) * uy
                        if EPS_GEOM < t <= d and t < best[k]:
                            best[k] = t
    new = tuple.__new__  # the named tuple's own __new__ is a Python-level call
    free = new(SensorReading, (True, d))
    if best is None:
        return (free,) * SENSOR_COUNT
    # sensor k looks along an axis for even k and along a diagonal for odd k
    limits = (blocking_threshold(0.0, delta), blocking_threshold(45.0, delta)) * (SENSOR_COUNT // 2)
    return tuple([free if hit == inf else new(SensorReading, (hit > limit, hit)) for limit, hit in zip(limits, best)])
