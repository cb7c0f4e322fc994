"""Planar geometry kernel: angles, polygons, segment contact, offsets.

Angles come in two flavors. Math angles are the usual counterclockwise
degrees from +x. Compass angles are clockwise degrees from +y (north), which
is the convention the planners and sensors speak. ``math_to_compass`` maps
between them and is its own inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

EPS_GEOM = 1e-9


class GeometryError(ValueError):
    """Raised for geometric preconditions: bad offsets, ray origin inside an obstacle."""


class Point2(NamedTuple):
    x: float
    y: float


class PointLocation(Enum):
    INSIDE = "inside"
    ON_BOUNDARY = "on_boundary"
    OUTSIDE = "outside"


def math_to_compass(deg: float) -> float:
    """Convert a math angle (ccw from +x) to a compass angle (cw from +y).

    The map is (90 - deg) mod 360, an involution: applying it twice returns
    the input modulo 360.
    """
    return (90.0 - deg) % 360.0


def circular_diff(a: float, b: float) -> float:
    """Smallest absolute angular difference between two headings, in [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    """Distance from p to the closed segment ab."""
    ex, ey = b.x - a.x, b.y - a.y
    px, py = p.x - a.x, p.y - a.y
    denom = ex * ex + ey * ey
    if denom == 0.0:
        return math.hypot(px, py)
    t = (px * ex + py * ey) / denom
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(px - t * ex, py - t * ey)


def _cross(ax: float, ay: float, bx: float, by: float) -> float:
    return ax * by - ay * bx


def segment_intersection(a1: Point2, a2: Point2, b1: Point2, b2: Point2) -> tuple[Point2, ...]:
    """The points where two closed segments meet.

    Returns () when they are disjoint, the one point of a proper or
    endpoint-touching crossing, or both ends of the stretch they share when
    they overlap along one line (grazing must not be silently dropped).
    """
    rx, ry = a2.x - a1.x, a2.y - a1.y
    sx, sy = b2.x - b1.x, b2.y - b1.y
    qpx, qpy = b1.x - a1.x, b1.y - a1.y
    denom = _cross(rx, ry, sx, sy)
    scale = max(abs(rx), abs(ry), abs(sx), abs(sy), 1.0)
    if abs(denom) <= EPS_GEOM * scale * scale:
        if abs(_cross(qpx, qpy, rx, ry)) > EPS_GEOM * scale * scale:
            return ()  # parallel, different lines
        rr = rx * rx + ry * ry
        if rr == 0.0:
            return ()
        t0 = (qpx * rx + qpy * ry) / rr
        t1 = t0 + (sx * rx + sy * ry) / rr
        lo, hi = min(t0, t1), max(t0, t1)
        lo = max(lo, 0.0)
        hi = min(hi, 1.0)
        if hi < lo - EPS_GEOM:
            return ()
        pa = Point2(a1.x + lo * rx, a1.y + lo * ry)
        pb = Point2(a1.x + hi * rx, a1.y + hi * ry)
        return (pa,) if math.dist(pa, pb) <= EPS_GEOM else (pa, pb)  # touching at one point, or overlapping
    t = _cross(qpx, qpy, sx, sy) / denom
    u = _cross(qpx, qpy, rx, ry) / denom
    if -EPS_GEOM <= t <= 1.0 + EPS_GEOM and -EPS_GEOM <= u <= 1.0 + EPS_GEOM:
        return (Point2(a1.x + t * rx, a1.y + t * ry),)
    return ()


@dataclass(frozen=True)
class Polygon:
    """Simple polygon given by its vertex ring. Library code expects CCW order."""

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        for v in self.vertices:
            if not (math.isfinite(v[0]) and math.isfinite(v[1])):
                raise GeometryError("polygon vertices must be finite")
        object.__setattr__(
            self, "vertices", tuple(Point2(float(x), float(y)) for x, y in self.vertices)
        )

    @cached_property
    def edges(self) -> tuple[tuple[Point2, Point2], ...]:
        """The edges (v[i], v[i + 1 mod n]) in vertex order, built once per polygon."""
        return tuple(zip(self.vertices, self.vertices[1:] + self.vertices[:1]))

    @cached_property
    def _edge_table(self) -> tuple[tuple, ...]:
        """Per edge (a, b): (a, b, ex, ey, xmin, ymin, xmax, ymax), with (ex, ey) = b - a and the edge's bbox."""
        return tuple((a, b, b.x - a.x, b.y - a.y, min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))
                     for a, b in self.edges)

    def signed_area(self) -> float:
        s = 0.0
        for a, b in self.edges:
            s += a.x * b.y - b.x * a.y
        return 0.5 * s

    @cached_property
    def is_ccw(self) -> bool:
        return self.signed_area() > 0.0  # cached like is_simple: validate_scenario asks on every run

    @cached_property
    def is_simple(self) -> bool:
        """No self-intersections: nonadjacent edges disjoint, adjacent ones meet only at the shared vertex."""
        es = self.edges
        n = len(es)
        for i in range(n):
            a1, a2 = es[i]
            for j in range(i + 1, n):
                b1, b2 = es[j]
                hit = segment_intersection(a1, a2, b1, b2)
                if not hit:
                    continue
                shared = a2 if j == i + 1 else a1 if i == 0 and j == n - 1 else None  # adjacent edges' common vertex
                if shared is None or len(hit) > 1 or math.dist(hit[0], shared) > EPS_GEOM:
                    return False
        return True

    @cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax), computed once per polygon."""
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def translated(self, dx: float, dy: float) -> "Polygon":
        """This polygon moved by (dx, dy), with only its bbox cached, moved exactly: rounding is monotone, so min
        and max commute with adding an offset. A translation keeps the vertex count, so __post_init__ is not
        rerun: the caller keeps the moved vertices finite."""
        moved = object.__new__(Polygon)
        object.__setattr__(moved, "vertices", tuple(Point2(v.x + dx, v.y + dy) for v in self.vertices))
        x0, y0, x1, y1 = self.bbox
        moved.__dict__["bbox"] = (x0 + dx, y0 + dy, x1 + dx, y1 + dy)
        return moved


def point_in_polygon(p: Point2, poly: Polygon) -> PointLocation:
    """Classify a point against a polygon: inside, on the boundary (within EPS_GEOM), or outside.

    A point outside the bbox grown by EPS_GEOM is OUTSIDE with no edge test. Else one pass over
    the edge table counts the edges crossing the ray from the point toward +x, and tests the
    distance to each edge whose bbox, grown by m, holds the point. Near EPS_GEOM the distance
    reads short by under 2 eps S (eps = 2**-52, S = max(1, bbox extents)), so m = EPS_GEOM + 4 eps S."""
    px, py = p
    x0, y0, x1, y1 = poly.bbox
    if not (x0 - EPS_GEOM <= px <= x1 + EPS_GEOM and y0 - EPS_GEOM <= py <= y1 + EPS_GEOM):
        return PointLocation.OUTSIDE
    m = EPS_GEOM + 4 * 2.0**-52 * max(1.0, x1 - x0, y1 - y0)
    inside = False
    for a, b, ex, ey, lx, ly, hx, hy in poly._edge_table:
        if lx - m <= px <= hx + m and ly - m <= py <= hy + m and point_segment_distance(p, a, b) <= EPS_GEOM:
            return PointLocation.ON_BOUNDARY
        if (b.y > py) != (a.y > py) and px < b.x + (py - b.y) * ex / ey:
            inside = not inside
    return PointLocation.INSIDE if inside else PointLocation.OUTSIDE


def _segment_hits(p: Point2, q: Point2, poly: Polygon) -> list[tuple[float, Point2]]:
    """Each point segment_intersection finds between pq and an edge of poly, both ends of an
    overlap included, as (t, point) with t its fraction along pq, in edge order. Empty when
    |pq|^2 is 0, so t never divides by zero.

    segment_intersection runs only on the edges (a, b) whose bbox, grown by m, meets pq's. Let
    r = q - p, s = b - a, qp = a - p, eps = 2**-52, and S the larger of 1 and the bbox extents of
    pq and poly (at least segment_intersection's scale). A hit at bbox gap g needs, on crossing
    lines, both parameters within EPS_GEOM of [0, 1] (g <= 2 EPS_GEOM S), after rounding that
    moves them by up to 3 eps / EPS_GEOM (7e-7) times |qp| / S + 1 when |r x s| is near
    EPS_GEOM S^2, with |qp| <= 2S + g: g <= 4.1e-6 S in all. On parallel lines (|r x s| <=
    EPS_GEOM S^2) it needs |qp x r| <= EPS_GEOM S^2, so a lies within EPS_GEOM S^2 / |r| of line
    pq and b within twice that, with projections on pq overlapping up to EPS_GEOM |r|: g <=
    2 EPS_GEOM S^2 / |r| + 1.5 EPS_GEOM S. m = 2 EPS_GEOM S^2 / |r| + 1e-5 S covers both."""
    rx, ry = q.x - p.x, q.y - p.y
    rr = rx**2 + ry**2
    if rr == 0.0:
        return []
    x0, y0, x1, y1 = poly.bbox
    S = max(1.0, x1 - x0, y1 - y0, abs(rx), abs(ry))
    m = 2 * EPS_GEOM * S * S / math.hypot(rx, ry) + 1e-5 * S
    (lox, hix), (loy, hiy) = sorted((p.x, q.x)), sorted((p.y, q.y))
    hits = []
    for a, b, _, _, x0, y0, x1, y1 in poly._edge_table:
        if x0 - m <= hix and lox <= x1 + m and y0 - m <= hiy and loy <= y1 + m:
            for x in segment_intersection(p, q, a, b):
                hits.append((((x.x - p.x) * rx + (x.y - p.y) * ry) / rr, x))
    return hits


def polygon_offset(poly: Polygon, c: float) -> Polygon:
    """Outward offset of a CCW polygon by c with miter joins.

    c must be non-negative and small against the shortest edge (at most half
    of it); the result must come out simple, otherwise the scenario is too
    tight for boundary following and a GeometryError is raised.
    """
    if c < 0:
        raise GeometryError("offset distance must be >= 0")
    if c == 0:
        return poly
    if not poly.is_ccw:
        raise GeometryError("polygon_offset expects CCW orientation")
    min_edge = min(math.dist(a, b) for a, b in poly.edges)
    if c > 0.5 * min_edge:
        raise GeometryError(
            f"offset {c} too large for shortest edge {min_edge:.6g}"
        )
    shifted = []  # one offset line per edge: (anchor, direction)
    for a, _, ex, ey, _, _, _, _ in poly._edge_table:
        length = math.hypot(ex, ey)
        nx, ny = ey / length, -ex / length  # outward for CCW interior-on-left
        shifted.append((Point2(a.x + c * nx, a.y + c * ny), ex, ey))
    out = []
    for i in range(len(shifted)):
        (p, dx, dy) = shifted[i - 1]
        (q, ex, ey) = shifted[i]
        denom = _cross(dx, dy, ex, ey)
        if abs(denom) <= EPS_GEOM:
            out.append(q)  # collinear neighbors: plain shift
            continue
        t = _cross(q.x - p.x, q.y - p.y, ex, ey) / denom
        out.append(Point2(p.x + t * dx, p.y + t * dy))
    result = Polygon(tuple(out))
    if not result.is_simple:
        raise GeometryError("offset polygon self-intersects; clearance too large for this shape")
    return result


def _bbox_gap(a: Polygon, b: Polygon) -> float:
    """Distance between the bboxes of a and b: a lower bound on polygon_distance(a, b)."""
    ax0, ay0, ax1, ay1 = a.bbox
    bx0, by0, bx1, by1 = b.bbox
    return math.hypot(max(bx0 - ax1, ax0 - bx1, 0.0), max(by0 - ay1, ay0 - by1, 0.0))


def _closer_than(a: Polygon, b: Polygon, margin: float) -> bool:
    """polygon_distance(a, b) < margin, skipped when the bbox gap is at least margin + 1e-9: a slack
    that neither rounding nor the EPS_GEOM contact tolerance of segment_intersection can cross."""
    return _bbox_gap(a, b) < margin + 1e-9 and polygon_distance(a, b) < margin


def polygon_distance(a: Polygon, b: Polygon) -> float:
    """Minimum distance between two polygon boundaries/interiors (0 if they touch or overlap)."""
    if any(_segment_hits(pa, pb, b) for pa, pb in a.edges):
        return 0.0
    if point_in_polygon(a.vertices[0], b) is PointLocation.INSIDE:
        return 0.0
    if point_in_polygon(b.vertices[0], a) is PointLocation.INSIDE:
        return 0.0
    best = math.inf
    for v in a.vertices:
        for qa, qb in b.edges:
            best = min(best, point_segment_distance(v, qa, qb))
    for v in b.vertices:
        for pa, pb in a.edges:
            best = min(best, point_segment_distance(v, pa, pb))
    return best


def point_polygon_distance(p: Point2, poly: Polygon) -> float:
    """Distance from a point to a polygon (0 if inside or on the boundary)."""
    loc = point_in_polygon(p, poly)
    if loc is not PointLocation.OUTSIDE:
        return 0.0
    return min(point_segment_distance(p, a, b) for a, b in poly.edges)
