"""Step planner: desired heading, priority-rule filtering, selection, memory.

Movement is restricted to 8 compass directions on a delta/2 lattice anchored
at the run's start: the robot's node is integers (i, j) relative to the start,
and its position is start + (i, j) * delta/2, computed from the node, never
accumulated step by step. A move whose target is not strictly inside the
scenario's bounds is never taken. Three rules keep the walk out of loops:
  I   never reverse the previous move directly;
  II  never leave the same lattice node twice in the same direction;
  III when nothing remains, mark the node dead and step back along the trail.
The dead-node set and per-node direction memory make every run terminate.
_walk is the one NSPMR loop, which sim.run iterates. _first_survivor is the
one implementation of the rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .geometry import Point2, circular_diff, math_to_compass
from .sensing import DIRECTIONS, STEPS, SensorReading, blocking_threshold, scan
from .world import Scenario, step_dynamics

# each direction's move (angle, signs), its reverse, and the direction of each
# one-node displacement
_MOVE = {a: (a, signs) for a, signs in zip(DIRECTIONS, STEPS)}
_REVERSE = {a: (a + 180.0) % 360.0 for a in DIRECTIONS}
_DIRECTION_OF = dict(zip(STEPS, DIRECTIONS))
# (sensor index, move) in select_direction's order for a bearing strictly inside each 22.5-degree sector
_SECTOR_ORDER = tuple(tuple((k, _MOVE[a]) for k, a in sorted(enumerate(DIRECTIONS), key=lambda ka: circular_diff(ka[1], 22.5 * s + 11.25)))
                      for s in range(16))
_new = tuple.__new__  # builds a named tuple on the step path without its Python-level __new__

Node = tuple[int, int]


def desired_angle(pos: Point2, goal: Point2) -> float:
    """Compass bearing from pos to goal."""
    dx, dy = goal.x - pos.x, goal.y - pos.y
    if dx == 0 and dy == 0:
        raise ValueError("bearing undefined: position equals goal")
    return math_to_compass(math.degrees(math.atan2(dy, dx)))


class _NodeRecord(NamedTuple):  # free in-bounds moves (angle, signs) in select_direction's order
    pos: Point2
    at_goal: bool
    order: tuple[tuple[float, tuple[int, int]], ...]


@dataclass
class NspmrState:
    """One run's planner memory on the lattice anchored at ``start``.

    ``node`` is the robot's node (i, j); ``trail`` is the node path that rule
    III retraces, kept only with the rules on. Rule II memory ``used`` and the
    dead set ``dead`` key on nodes too. While the world is static, ``records``
    holds each visited node's record, built from one scan on the first visit:
    its position, whether it is at the goal, and its free moves in preference
    order, less those whose target lies outside the bounds. A revisit only
    walks that order through rules I-III, so a state serves one world only.
    A moving world rebuilds the record every step."""

    start: Point2
    prev_dir: float | None = None
    node: Node = (0, 0)
    used: dict[Node, set[float]] = field(default_factory=dict)
    dead: set[Node] = field(default_factory=set)
    trail: list[Node] = field(default_factory=list)
    records: dict[Node, _NodeRecord] = field(default_factory=dict)

    def __post_init__(self):
        if not self.trail:
            self.trail = [self.node]


def _first_survivor(moves, i: int, j: int, node_used, dead: set[Node], back: float | None):
    """The first move (angle, signs) in moves that survives rules I (not back, the reversal),
    II (not in node_used, node (i, j)'s memory) and III (never into a dead node), or None."""
    for move in moves:
        angle, (sx, sy) = move
        if angle != back and angle not in node_used and not (dead and (i + sx, j + sy) in dead):
            return move
    return None


def filter_candidates(readings: tuple[SensorReading, ...], state: NspmrState) -> list[float]:
    """Free directions that survive rules I (no reversal), II (node memory),
    and III (never step into a dead node)."""
    i, j = node = state.node
    rules = i, j, state.used.get(node, ()), state.dead, _REVERSE.get(state.prev_dir)
    return [a for a, (free, _) in zip(DIRECTIONS, readings) if free and _first_survivor((_MOVE[a],), *rules)]


def _sector(theta: float) -> int | None:
    """The sector s of _SECTOR_ORDER that theta lies more than 1e-9 inside, or None (see _ranked)."""
    s = theta // 22.5
    if 0.0 <= theta <= 360.0 and theta - 22.5 * s > 1e-9 and 22.5 * s + 22.5 - theta > 1e-9:
        return int(s)
    return None


def _ranked(theta: float, s: int | None, readings) -> list[tuple[float, tuple[int, int]]]:
    """The moves (angle, signs) whose reading (free, dist) reads free, in the order of
    select_direction's key (gap from a to theta, -dist, a). In the gap only a - theta
    rounds, by under 3e-14 (abs, % 360 and 360 - d for d >= 180 are exact), so float
    gaps order like exact ones that differ by over 2e-9. Between consecutive multiples of
    22.5, two exact gaps differ with slope 0 or +-2 (a gap kinks only at a and a + 180);
    at those multiples they differ by a multiple of 22.5, and by 0 only there. So with
    theta over 1e-9 inside sector s, two gaps differ by twice its distance to an end
    where they are equal, or else by 22.5 or more: by over 2e-9 either way, so the
    sector's order holds. At theta = 45 c (360 as 0) the ties are exact: c, the pairs c -+ 1,
    c -+ 2, c -+ 3, each by (-dist, a), then c + 4. Other thetas sort their keys. s is
    _sector(theta), which _visit also reads to cap its scan."""
    if s is not None:
        return [move for k, move in _SECTOR_ORDER[s] if readings[k][0]]
    if 0.0 <= theta <= 360.0 and theta % 45.0 == 0.0:
        c = int(theta // 45.0) % 8
        order = [c]
        for m in (1, 2, 3):
            a, b = (c - m) % 8, (c + m) % 8
            order += (b, a) if (-readings[b][1], b) < (-readings[a][1], a) else (a, b)
        order.append((c + 4) % 8)
        return [_MOVE[DIRECTIONS[k]] for k in order if readings[k][0]]
    keys = []
    for a, (free, dist) in zip(DIRECTIONS, readings):
        if free:
            d = abs(a - theta) % 360.0  # circular_diff(a, theta) is min(d, 360 - d)
            keys.append((d if d <= 180.0 else 360.0 - d, -dist, a))
    keys.sort()
    return [_MOVE[a] for _, _, a in keys]


def select_direction(candidates: list[float], theta_d: float, readings: tuple[SensorReading, ...]) -> float:
    """Closest candidate to the desired bearing; ties go to the direction with
    the longer measured distance, then to the lower sensor index."""
    if not candidates:
        raise ValueError("no candidate directions")
    if bad := [a for a in candidates if a not in _MOVE]:
        raise ValueError(f"candidate {bad[0]!r} is not one of the 8 lattice directions")
    picked = {DIRECTIONS.index(a) for a in candidates}  # every candidate counts, whatever its reading's free flag
    return _ranked(theta_d, _sector(theta_d), [(k in picked, r.dist) for k, r in enumerate(readings)])[0][0]


def _visit(world: Scenario, pos: Point2) -> _NodeRecord:
    """The record of the node at pos, from a fresh scan unless pos is at the goal, its free
    moves ranked by _ranked. Inside a sector _ranked reads only free flags, so the scan casts
    only to the diagonal blocking threshold, within which every ray decides its flag."""
    if math.dist(pos, world.goal) <= world.delta / 2:
        return _new(_NodeRecord, (pos, True, ()))
    theta = desired_angle(pos, world.goal)
    s = _sector(theta)
    reach = None if s is None else blocking_threshold(45.0, world.delta)
    return _new(_NodeRecord, (pos, False, tuple(_ranked(theta, s, scan(pos, world, reach)))))


def _walk(state: NspmrState, world: Scenario, rules_enabled: bool):
    """The NSPMR loop: yields (kind, direction, new_pos, pose) per iteration, moved or backtracked, then
    goal_reached or stuck with direction None; pose is the world each step was planned in. It keeps the node
    and heading in locals, writes them back to state before each yield, and steps a moving world once per move."""
    half = world.delta / 2
    x0, y0 = state.start
    xmin, ymin, xmax, ymax = world.bounds
    records, used, dead, trail = state.records, state.used, state.dead, state.trail
    i, j = node = state.node
    prev_dir = state.prev_dir
    dynamic = world.is_dynamic
    while True:
        record = records.get(node)
        if record is None:
            record = _visit(world, _new(Point2, (x0 + i * half, y0 + j * half)))
            # drop the moves whose target, computed as below, is not strictly inside the bounds;
            # rounding is monotone, so when the outermost targets are inside, every target is
            if not (xmin < x0 + (i - 1) * half and x0 + (i + 1) * half < xmax
                    and ymin < y0 + (j - 1) * half and y0 + (j + 1) * half < ymax):
                record = _new(_NodeRecord, (record.pos, record.at_goal, tuple([
                    (a, (sx, sy)) for a, (sx, sy) in record.order
                    if xmin < x0 + (i + sx) * half < xmax and ymin < y0 + (j + sy) * half < ymax
                ])))
            if not dynamic:
                records[node] = record
        pos, at_goal, order = record
        if at_goal:
            yield "goal_reached", None, pos, world
            return
        # the first survivor in preference order is select_direction's pick
        move = (_first_survivor(order, i, j, used.get(node, ()), dead, _REVERSE.get(prev_dir)) if rules_enabled
                else order[0] if order else None)
        if move is not None:
            kind, (direction, (sx, sy)) = "moved", move
            if rules_enabled:  # only the rules read the memory and the trail
                used.setdefault(node, set()).add(direction)
                trail.append((i + sx, j + sy))
            i, j = node = (i + sx, j + sy)
            prev_dir = direction
        elif not rules_enabled or len(trail) <= 1:
            yield "stuck", None, pos, world
            return
        else:
            # rule III: retire this node and retrace one step of the trail. The goal's
            # own node is never retired: it lies within delta/4 of the goal on each
            # axis, so within delta/2, and the run has stopped there already.
            dead.add(node)
            trail.pop()
            i, j = back = trail[-1]
            kind, direction = "backtracked", _DIRECTION_OF[i - node[0], j - node[1]]
            # the departure consumed by the retreat is recorded like any other
            used.setdefault(node, set()).add(direction)
            node, prev_dir = back, None
        state.node, state.prev_dir = node, prev_dir
        yield kind, direction, _new(Point2, (x0 + i * half, y0 + j * half)), world
        if dynamic:
            world = step_dynamics(world)

