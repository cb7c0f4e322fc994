"""Output checks computed apart from the program.

Every problem is a string that starts with the name of the check that found
it (``step:``, ``collision:``, ...), so the self-test can tell which check
fired. Geometry here is the harness's own: an even-odd point-in-polygon test
and a segment-distance test, not the program's kernel.
"""

from __future__ import annotations

import hashlib
import math
import xml.etree.ElementTree as ET
from collections import Counter

EPS = 1e-9


def digest(data: bytes) -> str:
    """First 16 hex digits of the SHA-256 of a file's bytes."""
    return hashlib.sha256(data).hexdigest()[:16]


def lattice_size(bounds, delta: float) -> tuple[int, int]:
    """Node counts along x and y of the delta/2 lattice spanning the bounds."""
    res = delta / 2
    return (
        int(round((bounds.xmax - bounds.xmin) / res)) + 1,
        int(round((bounds.ymax - bounds.ymin) / res)) + 1,
    )


def is_static(scenario) -> bool:
    return all(ob.velocity is None or tuple(ob.velocity) == (0.0, 0.0) for ob in scenario.obstacles)


# --- geometry -------------------------------------------------------------------

def _seg_dist(px, py, ax, ay, bx, by) -> float:
    ex, ey = bx - ax, by - ay
    den = ex * ex + ey * ey
    t = 0.0 if den == 0.0 else max(0.0, min(1.0, ((px - ax) * ex + (py - ay) * ey) / den))
    return math.hypot(px - ax - t * ex, py - ay - t * ey)


def _side(ax, ay, bx, by, cx, cy) -> int:
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def _segments_meet(px, py, qx, qy, ax, ay, bx, by) -> bool:
    """Closed segments pq and ab cross or come within EPS of each other."""
    d1, d2 = _side(ax, ay, bx, by, px, py), _side(ax, ay, bx, by, qx, qy)
    d3, d4 = _side(px, py, qx, qy, ax, ay), _side(px, py, qx, qy, bx, by)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return min(
        _seg_dist(px, py, ax, ay, bx, by),
        _seg_dist(qx, qy, ax, ay, bx, by),
        _seg_dist(ax, ay, px, py, qx, qy),
        _seg_dist(bx, by, px, py, qx, qy),
    ) <= EPS


def _touches(px, py, ring) -> bool:
    """Point inside the polygon or within EPS of its boundary."""
    inside = False
    n = len(ring)
    for i in range(n):
        ax, ay = ring[i - 1]
        bx, by = ring[i]
        if _seg_dist(px, py, ax, ay, bx, by) <= EPS:
            return True
        if (ay > py) != (by > py) and px < ax + (py - ay) * (bx - ax) / (by - ay):
            inside = not inside
    return inside


def collisions(points, scenario) -> list[str]:
    """Waypoints on or inside an obstacle, and segments that meet one."""
    rings = []
    for ob in scenario.obstacles:
        ring = [(v.x, v.y) for v in ob.shape.vertices]
        xs, ys = [x for x, _ in ring], [y for _, y in ring]
        rings.append((ring, min(xs) - EPS, min(ys) - EPS, max(xs) + EPS, max(ys) + EPS))
    out = []
    for k, (px, py) in enumerate(points):
        for i, (ring, x0, y0, x1, y1) in enumerate(rings):
            if x0 <= px <= x1 and y0 <= py <= y1 and _touches(px, py, ring):
                out.append(f"collision: waypoint {k} on or inside obstacle {i}")
    for k in range(len(points) - 1):
        (px, py), (qx, qy) = points[k], points[k + 1]
        lx, hx, ly, hy = min(px, qx), max(px, qx), min(py, qy), max(py, qy)
        for i, (ring, x0, y0, x1, y1) in enumerate(rings):
            if hx < x0 or lx > x1 or hy < y0 or ly > y1:
                continue
            for j in range(len(ring)):
                (ax, ay), (bx, by) = ring[j - 1], ring[j]
                if _segments_meet(px, py, qx, qy, ax, ay, bx, by):
                    out.append(f"collision: segment {k} meets obstacle {i}")
                    break
    return out


# --- planner runs -------------------------------------------------------------------

def _heading(sx: int, sy: int) -> float:
    return math.degrees(math.atan2(sx, sy)) % 360.0


def _lattice(scenario, traj, result, rules_enabled: bool) -> list[str]:
    """Lattice steps, departure bounds, reversals and the iteration ceiling."""
    out = []
    pts = traj.waypoints
    half = scenario.delta / 2
    # A retreat from an exhausted node reuses a direction it already left
    # by, so the bound of 8 applies to planned moves.
    moved = Counter()  # node -> departures by a planned move
    pairs = Counter()  # (node, heading) of planned moves
    prev = None  # heading of the previous planned move, None after a retreat
    for k in range(len(pts) - 1):
        (ax, ay), (bx, by) = pts[k], pts[k + 1]
        sx, sy = round((bx - ax) / half), round((by - ay) / half)
        if (
            (sx, sy) == (0, 0)
            or abs(sx) > 1
            or abs(sy) > 1
            or abs(bx - ax - sx * half) > EPS
            or abs(by - ay - sy * half) > EPS
        ):
            out.append(f"step: step {k} moves ({bx - ax:.6g}, {by - ay:.6g}), not one delta/2 lattice step")
            continue
        heading = _heading(sx, sy)
        recorded = traj.directions[k]
        if recorded is None or abs((recorded - heading + 180.0) % 360.0 - 180.0) > EPS:
            out.append(f"step: step {k} records heading {recorded}, moved along {heading:g}")
        node = (ax, ay)
        if traj.events[k] == "moved":
            moved[node] += 1
            pairs[(node, heading)] += 1
            if rules_enabled and prev is not None and abs(abs(heading - prev) - 180.0) < EPS:
                out.append(f"reversal: step {k} reverses step {k - 1} without a retreat")
            prev = heading
        else:
            prev = None
    most_moved = max(moved.values(), default=0)
    if result.max_departures_per_cell != most_moved:
        out.append(f"departures: program reports {result.max_departures_per_cell} per cell, routes show {most_moved}")
    if result.backtrack_count != sum(1 for e in traj.events if e == "backtracked"):
        out.append("departures: backtrack count disagrees with the events")
    if rules_enabled:
        if most_moved > 8:
            out.append(f"departures: {most_moved} departures from one node, limit 8")
        if max(pairs.values(), default=0) > 1:
            out.append("departures: a node was left twice in one direction")
        nx, ny = lattice_size(scenario.bounds, scenario.delta)
        if result.iterations > 8 * nx * ny:
            out.append(f"iterations: {result.iterations} exceed 8*nx*ny = {8 * nx * ny}")
    else:
        if result.outcome == "goal_reached" or most_moved <= 8:
            out.append(
                f"control: rules-off run ended {result.outcome} with {most_moved} departures per node; "
                "expected a loop short of the goal"
            )
    return out


def check_run(scenario, traj, result, planner: str, rules_enabled: bool, oracle, expect_goal: bool) -> list[str]:
    """Every check that applies to one planner run."""
    out = []
    pts = [(p.x, p.y) for p in traj.waypoints]
    n = len(pts)
    if not (
        result.iterations == n - 1 == len(traj.events) == len(traj.directions)
        and len(traj.timestamps) == n
    ):
        out.append("shape: waypoint, event and iteration counts disagree")
        return out
    start, goal = scenario.start, scenario.goal
    if pts[0] != (start.x, start.y):
        out.append("shape: route does not begin at the start")
    length = sum(math.hypot(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(pts, pts[1:]))
    if abs(length - result.length) > EPS * max(1.0, length):
        out.append(f"length: program reports {result.length!r} m, waypoints sum to {length!r} m")
    reached = result.outcome == "goal_reached"
    if expect_goal and not reached:
        out.append(f"goal: run ended {result.outcome}, expected goal_reached")
    if reached and math.hypot(goal.x - pts[-1][0], goal.y - pts[-1][1]) > scenario.delta / 2 + EPS:
        out.append("goal: goal_reached route ends farther than delta/2 from the goal")
    static = is_static(scenario)
    if static:
        if oracle is None:
            out.append("oracle: no lattice path in a solvable world")
        else:
            if oracle < math.hypot(goal.x - start.x, goal.y - start.y) - EPS:
                out.append(f"oracle: {oracle!r} m is shorter than the straight line")
            if reached and length < oracle - scenario.delta - EPS:
                out.append(f"oracle: route {length!r} m is shorter than oracle - delta ({oracle!r} m)")
        out.extend(collisions(pts, scenario))
    if planner == "nspmr":
        out.extend(_lattice(scenario, traj, result, rules_enabled))
    return out


# --- written artifacts ---------------------------------------------------------------

def readback(traj, back, first: bytes, second: bytes) -> list[str]:
    """A CSV must read back to the trajectory and re-write to the same bytes."""
    out = []
    if first != second:
        out.append("csv: re-writing the read-back trajectory changes the file")
    if back.events != traj.events or len(back.waypoints) != len(traj.waypoints):
        out.append("csv: events or row count differ after reading back")
        return out
    for a, b in zip(back.waypoints, traj.waypoints):
        if abs(a.x - b.x) > EPS or abs(a.y - b.y) > EPS:
            out.append("csv: a waypoint differs after reading back")
            break
    for a, b in zip(back.directions, traj.directions):
        if (a is None) != (b is None) or (a is not None and abs(a - b) > EPS):
            out.append("csv: a heading differs after reading back")
            break
    for a, b in zip(back.timestamps, traj.timestamps):
        if abs(a - b) > EPS:
            out.append("csv: a timestamp differs after reading back")
            break
    return out


def svg_counts(path: str, trajectories: int, obstacles: int) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as e:
        return [f"svg: {path} does not parse: {e}"]
    tags = Counter(el.tag.rsplit("}", 1)[-1] for el in root.iter())
    out = []
    if tags["polyline"] != trajectories:
        out.append(f"svg: {tags['polyline']} polylines for {trajectories} trajectories")
    if tags["polygon"] != obstacles:
        out.append(f"svg: {tags['polygon']} polygons for {obstacles} obstacles")
    return out
