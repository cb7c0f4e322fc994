"""Boundary-following reference planners.

Bug1 and Bug2 are two leave rules over one motion-to-goal driver, _bug: march
straight toward the goal and, at each outline hit, let the rule walk the
outline until it departs again or ends the run. Obstacles are tracked along
their offset outline at clearance delta/4, walked in increments of at most
delta/2 with every outline vertex included, so the robot's boundary waypoints
lie exactly on the offset polygon. Straight motion marches delta/2 steps
toward the goal and stops at the exact point where the path pierces an
outline, found by geometry._segment_hits, the contact routine of the collision
audit too. A leg queries the outlines only on the steps that can reach a
ring's bbox, found once per leg. bug1_result and bug2_result return a
world.Trajectory and a world.OUTCOME_* value; sim.run dispatches to them.
"""

from __future__ import annotations

import bisect
import math
from functools import partial

from .geometry import (
    GeometryError,
    Point2,
    PointLocation,
    Polygon,
    _closer_than,
    _segment_hits,
    math_to_compass,
    point_in_polygon,
    polygon_offset,
    point_polygon_distance,
    segment_intersection,
)
from .world import (
    OUTCOME_GOAL,
    OUTCOME_LIMIT,
    OUTCOME_UNREACHABLE,
    Scenario,
    ScenarioError,
    Trajectory,
    make_trajectory,
)

_T_SKIN = 1e-9


class _Ring:
    """Arc-length parameterized offset outline of one obstacle."""

    def __init__(self, shape: Polygon, clearance: float):
        self.offset = polygon_offset(shape, clearance)
        self.edges = self.offset.edges
        self.cum = [0.0]
        for a, b in self.edges:
            self.cum.append(self.cum[-1] + math.dist(a, b))
        self.perimeter = self.cum[-1]
        self.bbox = self.offset.bbox

    def point_at(self, s: float) -> Point2:
        s %= self.perimeter
        i = bisect.bisect_right(self.cum, s) - 1
        i = min(i, len(self.edges) - 1)
        a, b = self.edges[i]
        seg = self.cum[i + 1] - self.cum[i]
        t = 0.0 if seg == 0 else (s - self.cum[i]) / seg
        return Point2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)

    def closest_to(self, target: Point2) -> tuple[Point2, float]:
        """Continuous minimizer of distance-to-target over the outline."""
        best = (math.inf, None, None)
        for i, (a, b) in enumerate(self.edges):
            seg = self.cum[i + 1] - self.cum[i]
            if seg == 0:
                continue
            t = ((target.x - a.x) * (b.x - a.x) + (target.y - a.y) * (b.y - a.y)) / (seg * seg)
            t = min(1.0, max(0.0, t))
            p = Point2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
            d = math.dist(p, target)
            if d < best[0] - 1e-15:
                best = (d, p, self.cum[i] + t * seg)
        return best[1], best[2] % self.perimeter

    def arc_points(self, s0: float, arc: float, sign: int, step: float) -> list[Point2]:
        """Walk from arc coordinate s0 through `arc` meters (sign +1 follows
        vertex order, -1 reverses); vertices included, spacing <= step."""
        events = [0.0]
        for cj in self.cum[:-1]:
            if sign > 0:
                u = (cj - s0) % self.perimeter
            else:
                u = (s0 - cj) % self.perimeter
            while u < arc - 1e-9:
                if u > 1e-9:
                    events.append(u)
                u += self.perimeter
        events.append(arc)
        events.sort()
        pts = [self.point_at(s0)]
        for ua, ub in zip(events, events[1:]):
            gap = ub - ua
            if gap <= 1e-12:
                continue
            nseg = max(1, math.ceil(gap / step - 1e-9))
            for k in range(1, nseg + 1):
                pts.append(self.point_at(s0 + sign * (ua + gap * k / nseg)))
        return pts


# --- shared run machinery ------------------------------------------------------------

class _Recorder:
    def __init__(self, start: Point2, max_iters: int):
        self.wp = [start]
        self.dirs: list[float] = []
        self.max = max_iters

    @property
    def pos(self) -> Point2:
        return self.wp[-1]

    def extend(self, points) -> bool:
        """Move to each point in turn, skipping moves of at most 1e-12;
        False once the budget stops one, leaving the rest unread."""
        wp, dirs = self.wp, self.dirs
        last = wp[-1]
        for p in points:
            dx, dy = p.x - last.x, p.y - last.y
            if math.hypot(dx, dy) <= 1e-12:
                continue
            if len(dirs) >= self.max:
                return False
            wp.append(p)
            dirs.append(math_to_compass(math.degrees(math.atan2(dy, dx))))
            last = p
        return True


def _prepare(s: Scenario) -> list[_Ring]:
    if s.is_dynamic:
        raise ScenarioError("boundary-following planners require a static world")
    c = s.delta / 4
    rings = []
    for i, ob in enumerate(s.obstacles):
        try:
            rings.append(_Ring(ob.shape, c))
        except GeometryError as e:
            raise ScenarioError(f"obstacle {i} cannot be outlined at clearance {c}: {e}") from e
    for i, a in enumerate(s.obstacles):
        for b in s.obstacles[i + 1 :]:
            if _closer_than(a.shape, b.shape, 2 * c):
                raise ScenarioError("obstacles closer than twice the boundary clearance")
        x0, y0, x1, y1 = a.shape.bbox
        for label, p in (("start", s.start), ("goal", s.goal)):
            # geometry._bbox_gap's lower bound on the distance, with _closer_than's slack
            gap = math.hypot(max(p.x - x1, x0 - p.x, 0.0), max(p.y - y1, y0 - p.y, 0.0))
            if gap <= c + 1e-9 and point_polygon_distance(p, a.shape) <= c:
                raise ScenarioError(f"{label} lies within the boundary clearance of an obstacle")
    for i, ring in enumerate(rings):
        x0, y0, x1, y1 = ring.bbox
        if not (s.bounds.contains(Point2(x0, y0)) and s.bounds.contains(Point2(x1, y1))):
            raise ScenarioError(f"obstacle {i}: its outline at clearance {c} leaves the bounds")
    for label, p in (("start", s.start), ("goal", s.goal)):
        for i, ring in enumerate(rings):
            if point_in_polygon(p, ring.offset) is not PointLocation.OUTSIDE:
                raise ScenarioError(f"{label} lies on or inside the outline of obstacle {i} at clearance {c}")
    return rings


def _first_entry(p: Point2, q: Point2, rings: list[_Ring]):
    """Earliest crossing of segment p->q into any outline, as (t, ring index,
    point) with t the fraction along p->q; skin contacts at t<=1e-9 ignored."""
    best = None
    lo_x, hi_x = min(p.x, q.x), max(p.x, q.x)
    lo_y, hi_y = min(p.y, q.y), max(p.y, q.y)
    for ri, ring in enumerate(rings):
        x0, y0, x1, y1 = ring.bbox
        if hi_x < x0 or lo_x > x1 or hi_y < y0 or lo_y > y1:
            continue
        for t, x in _segment_hits(p, q, ring.offset):
            if t > _T_SKIN and (best is None or t < best[0]):
                best = (t, ri, x)
    return best


def _step_toward(p: Point2, goal: Point2, delta: float) -> Point2 | None:
    """The next straight step from p: delta/2 toward the goal, or the goal
    itself when it is no farther; None once p is at the goal."""
    rem, step = math.dist(p, goal), delta / 2
    if rem <= 1e-12:
        return None
    if rem <= step:
        return goal
    return Point2(p.x + (goal.x - p.x) / rem * step, p.y + (goal.y - p.y) / rem * step)


def _windows(p: Point2, goal: Point2, rings: list[_Ring], step: float) -> list[tuple[float, float]]:
    """(hi, lo) of each stretch lo <= rem <= hi of remaining distance from which a
    step of the march p->goal can meet a ring's bbox (_first_entry's), by hi.
    The steps stay within eps of X(r) = goal - r (goal - p) / L: each re-aims at
    the goal, so the offset it inherits shrinks, and adds under 1e-15 (L + |goal|)
    of rounding. X(r) lies in the bbox grown by eps for r in [lo, h], one slab
    per axis (Kay & Kajiya 1986), so a step from rem down to rem - step can meet
    it only for lo <= rem <= h + step = hi; the growth covers rem's rounding."""
    L = math.dist(p, goal)
    eps = (1 + L + math.hypot(*goal)) * (1e-9 + 1e-15 * L / step)
    spans = []
    for ring in rings:
        lo, hi = -math.inf, math.inf
        for g, d, a, b in zip(goal, (goal.x - p.x, goal.y - p.y), ring.bbox[:2], ring.bbox[2:]):
            if d:
                r0, r1 = sorted(((g - b - eps) / d * L, (g - a + eps) / d * L))
                lo, hi = max(lo, r0), min(hi, r1)
            elif not a - eps <= g <= b + eps:
                lo = math.inf
        spans.append((hi + step, lo))
    return sorted(spans)


def _march(rec: _Recorder, goal: Point2, rings: list[_Ring], delta: float):
    """Straight steps toward the goal until arrival, an outline hit, or budget
    exhaustion. Returns OUTCOME_GOAL, OUTCOME_LIMIT or the hit ring's index.
    Each step is _step_toward's. _first_entry tests it only inside one of
    _windows' stretches, read from the top as rem falls: a stretch whose lo rem
    has passed is done, and a rem above the top one's hi is above every hi."""
    step, hit = delta / 2, []

    def steps(p: Point2):
        spans = _windows(p, goal, rings, step)
        while (rem := math.hypot(goal.x - p.x, goal.y - p.y)) > 1e-12:
            q = goal if rem <= step else Point2(p.x + (goal.x - p.x) / rem * step, p.y + (goal.y - p.y) / rem * step)
            while spans and rem < spans[-1][1]:
                spans.pop()
            if spans and rem <= spans[-1][0] and (entry := _first_entry(p, q, rings)) is not None:
                hit.append(entry[1])
                yield entry[2]
                return
            yield q
            p = q

    if not rec.extend(steps(rec.pos)):
        return OUTCOME_LIMIT
    return hit[0] if hit else OUTCOME_GOAL


def _departure_free(p: Point2, goal: Point2, rings: list[_Ring], delta: float) -> bool:
    """Does the first step q from p toward the goal stay out of every outline
    region: no crossing, and neither its midpoint nor q INSIDE?"""
    q = _step_toward(p, goal, delta)
    if q is None:
        return True
    if _first_entry(p, q, rings) is not None:
        return False
    mid = Point2((p.x + q.x) / 2, (p.y + q.y) / 2)
    return not any(point_in_polygon(x, ring.offset) is PointLocation.INSIDE for ring in rings for x in (mid, q))


def _bug(s: Scenario, max_iters: int, follow) -> tuple[Trajectory, str]:
    """The motion-to-goal loop of both planners: march toward the goal, and on
    each outline hit call follow(s, rings, ring, rec), the leave rule, which
    walks the ring and returns the outcome that ends the run, or None to march
    again."""
    rings = _prepare(s)
    rec = _Recorder(s.start, max_iters)
    outcome = None
    while outcome is None:
        hit = _march(rec, s.goal, rings, s.delta)
        outcome = hit if isinstance(hit, str) else follow(s, rings, rings[hit], rec)
    return make_trajectory(s, rec.wp, ("moved",) * len(rec.dirs), rec.dirs), outcome


# --- Bug1 ----------------------------------------------------------------------------

def _bug1_follow(s: Scenario, rings: list[_Ring], ring: _Ring, rec: _Recorder) -> str | None:
    """Survey lap: a full circumnavigation, then the shorter arc back to the
    outline point nearest the goal, which must beat the hit point and offer a
    free departure."""
    hit_point = rec.pos
    s_hit = ring.closest_to(hit_point)[1]
    if not rec.extend(ring.arc_points(s_hit, ring.perimeter, 1, s.delta / 2)[1:]):
        return OUTCOME_LIMIT
    leave, s_leave = ring.closest_to(s.goal)
    if math.dist(leave, s.goal) >= math.dist(hit_point, s.goal) - 1e-9:
        return OUTCOME_UNREACHABLE
    ccw_arc = (s_leave - s_hit) % ring.perimeter
    cw_arc = ring.perimeter - ccw_arc
    arc, sign = (ccw_arc, 1) if ccw_arc <= cw_arc else (cw_arc, -1)
    if not rec.extend(ring.arc_points(s_hit, arc, sign, s.delta / 2)[1:]):
        return OUTCOME_LIMIT
    return None if _departure_free(rec.pos, s.goal, [ring], s.delta) else OUTCOME_UNREACHABLE


def bug1_result(s: Scenario, max_iters: int) -> tuple[Trajectory, str]:
    """Hit, circumnavigate, depart from the boundary point nearest the goal.
    Returns (Trajectory, outcome); an exhausted budget ends in OUTCOME_LIMIT."""
    return _bug(s, max_iters, _bug1_follow)


# --- Bug2 ----------------------------------------------------------------------------

def _bug2_follow(s: Scenario, rings: list[_Ring], ring: _Ring, rec: _Recorder) -> str | None:
    """Clockwise wall-following until the start-goal line is crossed strictly
    closer to the goal than the hit, with a free departure."""
    to_goal = partial(math.dist, s.goal)
    hit_dist = to_goal(rec.pos)
    pts = ring.arc_points(ring.closest_to(rec.pos)[1], ring.perimeter, -1, s.delta / 2)
    for i in range(1, len(pts)):
        # a step along the line itself meets it in an overlap, whose end nearer the goal decides
        x = min(segment_intersection(pts[i - 1], pts[i], s.start, s.goal), key=to_goal, default=None)
        if x is not None and to_goal(x) < hit_dist - 1e-9 and _departure_free(x, s.goal, rings, s.delta):
            return None if rec.extend(pts[1:i] + [x]) else OUTCOME_LIMIT
    return OUTCOME_UNREACHABLE if rec.extend(pts[1:]) else OUTCOME_LIMIT


def bug2_result(s: Scenario, max_iters: int) -> tuple[Trajectory, str]:
    """Follow the start-goal line; on a hit, wall-follow clockwise until back
    on the line strictly closer to the goal with a free departure, then resume.
    Returns (Trajectory, outcome); an exhausted budget ends in OUTCOME_LIMIT."""
    return _bug(s, max_iters, _bug2_follow)
