"""Eight fixed-direction range sensors.

Sensor i (1..8) looks along compass angle (i-1)*45. A direction is reported
free only when the first obstacle along it, if any, lies beyond the blocking
threshold for that direction: one step length plus a delta/4 margin. The
measured distance is clipped to the sensing range d and feeds tie-breaking.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .geometry import EPS_GEOM, Point2, _cast, _require_origin_outside, compass_unit
from .world import Scenario

SENSOR_COUNT = 8
SENSOR_ANGLES = tuple(45.0 * i for i in range(SENSOR_COUNT))
# The rays _cast takes, (k, ux, uy), and the ones scan keeps for a shape by the sides of the shape's bbox
# that reach past the robot along x, y, x - y and x + y: bit 2i means the i-th interval reaches below the
# robot's coordinate, bit 2i + 1 above it. Ray k lies on one coordinate's line and runs up or down another.
_RAYS = tuple((k, *compass_unit(a)) for k, a in enumerate(SENSOR_ANGLES))
_NEEDS = (0b1011, 0b10110000, 0b1110, 0b11100000, 0b0111, 0b01110000, 0b1101, 0b11010000)
_SELECT = tuple(tuple(ray for ray, need in zip(_RAYS, _NEEDS) if mask & need == need) for mask in range(256))

_DIAG = math.sqrt(2.0) / 2.0


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


class SensorScan(NamedTuple):
    readings: tuple[SensorReading, ...]  # reading k looks along SENSOR_ANGLES[k]


def scan(pos: Point2, world: Scenario, d: float, delta: float) -> SensorScan:
    """Range-scan the 8 lattice directions against the world's current shapes.

    Shapes whose bbox is out of range are dropped once per scan, by the gap
    to the bbox along each axis first and by the Euclidean gap only for the
    rest. Raises GeometryError when pos is strictly inside an obstacle,
    testing once per scan only the shapes whose closed bbox holds pos (from
    outside a bbox, point_in_polygon miscounts only within rounding of an
    edge, which reads ON_BOUNDARY). The 8 rays lie on four lines through
    pos, along x, y, x - y and x + y; a shape keeps ray k only when k's line
    meets the bbox's interval in that coordinate, and the bbox reaches ahead
    of pos along k, each grown by 2 M (M as in ``geometry._cast``). A hit
    lies within M of the bbox, so within sqrt(2) M of it in each coordinate,
    and the coordinates are taken relative to pos, off by under 6u (1 + d +
    W) with u = 2**-53, well inside the (2 - sqrt(2)) M to spare; past W =
    2e6, 2 M > 8 (1 + d + W) keeps every ray. With no shape left every
    direction reads free at range d and no ray is cast. The rest go through
    one pass of ``geometry._cast``, nearest shape first by the bound
    ``_cast`` proves, so each reading equals that kernel's cast of its one
    ray at every shape in range; the blocking thresholds along an axis and
    along a diagonal are taken once per such scan, from
    ``blocking_threshold``. The result depends only
    on pos and the shapes, so in a static world the planner decides each
    lattice node once (``NspmrState.records``); in a moving world every step
    scans afresh.
    """
    if not d > delta > 0:
        raise ValueError("require sensing range d > delta > 0")
    x, y = pos
    shapes, holders = [], []
    for poly in world.shapes():
        x0, y0, x1, y1 = poly._bbox
        # a hit may lie EPS_GEOM * |edge| past an edge's end, and |edge| <= x1 - x0 + y1 - y0
        reach = d + EPS_GEOM * (1 + x1 - x0 + y1 - y0)
        # per-axis gaps to the bbox; hypot(gx, gy) >= max(gx, gy) when rounded faithfully, so one gap may reject
        gx = x0 - x if x < x0 else x - x1 if x > x1 else 0.0
        if gx > reach:
            continue
        gy = y0 - y if y < y0 else y - y1 if y > y1 else 0.0
        if gy <= reach and (g := math.hypot(gx, gy)) <= reach:
            w = x1 - x0 + y1 - y0  # M of _cast's docstring: every hit on poly lies within M of its bbox
            half = (1 + w) * (EPS_GEOM + 2e-6 * (1 + d + w))
            m, lx, hx, ly, hy = 2 * half, x0 - x, x1 - x, y0 - y, y1 - y
            rays = _SELECT[(lx <= m) | (hx >= -m) << 1 | (ly <= m) << 2 | (hy >= -m) << 3
                           | (lx - hy <= m) << 4 | (hx - ly >= -m) << 5 | (lx + ly <= m) << 6 | (hx + hy >= -m) << 7]
            if rays:
                shapes.append((g - half, poly, rays))
            if not g:
                holders.append(poly)
    new = tuple.__new__  # the named tuples' own __new__ is a Python-level call
    free = new(SensorReading, (True, d))
    if not shapes:
        return new(SensorScan, ((free,) * SENSOR_COUNT,))
    if holders:
        _require_origin_outside(pos, holders)
    if len(shapes) > 1:
        shapes.sort(key=itemgetter(0))
    # sensor k looks along an axis for even k and along a diagonal for odd k
    limits = (blocking_threshold(0.0, delta), blocking_threshold(45.0, delta)) * (SENSOR_COUNT // 2)
    return new(SensorScan, (tuple([
        free if hit is None else new(SensorReading, (hit > limit, hit))
        for limit, hit in zip(limits, _cast(pos, SENSOR_COUNT, d, shapes))
    ]),))
