"""Step planner: desired heading, priority-rule filtering, selection, memory.

Movement is restricted to 8 compass directions on a delta/2 lattice anchored
at the run's start: the robot's node is integers (i, j) relative to the start,
and its position is start + (i, j) * delta/2, computed from the node, never
accumulated step by step. Three rules keep the walk out of loops:
  I   never reverse the previous move directly;
  II  never leave the same lattice node twice in the same direction;
  III when nothing remains, mark the node dead and step back along the trail.
The dead-node set and per-node direction memory make every run terminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .geometry import Point2, distance, math_to_compass
from .sensing import SENSOR_ANGLES, SensorScan, scan
from .world import Scenario

DIRECTIONS = SENSOR_ANGLES

# Table of per-direction node displacements; each move is (sx, sy) * delta/2.
_SIGNS = {
    0.0: (0, 1),
    45.0: (1, 1),
    90.0: (1, 0),
    135.0: (1, -1),
    180.0: (0, -1),
    225.0: (-1, -1),
    270.0: (-1, 0),
    315.0: (-1, 1),
}
# (angle, signs) in sensor order, each direction's reverse, its sensor index,
# and the direction of each one-node displacement
_MOVES = tuple((a, _SIGNS[a]) for a in DIRECTIONS)
_REVERSE = {a: (a + 180.0) % 360.0 for a in DIRECTIONS}
_INDEX = {a: k for k, a in enumerate(DIRECTIONS)}
_DIRECTION_OF = {signs: a for a, signs in _SIGNS.items()}

Node = tuple[int, int]


def desired_angle(pos: Point2, goal: Point2) -> float:
    """Compass bearing from pos to goal."""
    dx, dy = goal.x - pos.x, goal.y - pos.y
    if dx == 0 and dy == 0:
        raise ValueError("bearing undefined: position equals goal")
    return math_to_compass(math.degrees(math.atan2(dy, dx)))


def apply_move(pos: Point2, direction: float, delta: float) -> Point2:
    try:
        sx, sy = _SIGNS[float(direction)]
    except KeyError:
        raise ValueError(f"not a lattice direction: {direction}") from None
    half = delta / 2
    return Point2(pos.x + sx * half, pos.y + sy * half)


@dataclass
class NspmrState:
    """One run's planner memory on the lattice anchored at ``start``.

    ``node`` is the robot's node (i, j); ``trail`` is the node path that rule
    III retraces, kept only with the rules on. Rule II memory ``used``, the
    dead set ``dead`` and the scan memo ``scans`` key on nodes too. ``scans``
    holds each node's scan while the world is static, so a state serves one
    world only."""

    start: Point2
    prev_dir: float | None = None
    node: Node = (0, 0)
    used: dict[Node, set[float]] = field(default_factory=dict)
    dead: set[Node] = field(default_factory=set)
    trail: list[Node] = field(default_factory=list)
    scans: dict[Node, SensorScan] = field(default_factory=dict)

    def __post_init__(self):
        if not self.trail:
            self.trail = [self.node]


class StepEvent(NamedTuple):
    kind: str  # moved | backtracked | goal_reached | stuck
    direction: float | None
    new_pos: Point2


def filter_candidates(scan_: SensorScan, state: NspmrState) -> list[float]:
    """Free directions that survive rules I (no reversal), II (node memory),
    and III (never step into a dead node)."""
    i, j = node = state.node
    node_used = state.used.get(node, ())
    dead = state.dead
    back = _REVERSE.get(state.prev_dir)
    out = []
    for (angle, (sx, sy)), reading in zip(_MOVES, scan_.readings):
        if (
            reading.free
            and angle != back
            and angle not in node_used
            and not (dead and (i + sx, j + sy) in dead)
        ):
            out.append(angle)
    return out


def free_directions(scan_: SensorScan) -> list[float]:
    """Candidate set with all three rules switched off (control runs)."""
    return [DIRECTIONS[i] for i, r in enumerate(scan_.readings) if r.free]


def select_direction(candidates: list[float], theta_d: float, scan_: SensorScan) -> float:
    """Closest candidate to the desired bearing; ties go to the direction with
    the longer measured distance, then to the lower sensor index."""
    if not candidates:
        raise ValueError("no candidate directions")
    readings = scan_.readings
    best = best_key = None
    for a in candidates:
        d = abs(a - theta_d) % 360.0  # circular_diff(a, theta_d)
        key = (min(d, 360.0 - d), -readings[_INDEX[a]].dist, a)
        if best_key is None or key < best_key:
            best, best_key = a, key
    return best


def nspmr_step(state: NspmrState, world: Scenario, rules_enabled: bool = True) -> tuple[NspmrState, StepEvent]:
    """Advance one iteration; mutates and returns the state with the event."""
    delta = world.delta
    half = delta / 2
    x0, y0 = state.start
    i, j = node = state.node
    pos = Point2(x0 + i * half, y0 + j * half)
    if distance(pos, world.goal) <= half:
        return state, StepEvent("goal_reached", None, pos)
    if world.is_dynamic:
        scan_ = scan(pos, world, world.sensor_range, delta)
    else:
        scan_ = state.scans.get(node)
        if scan_ is None:
            scan_ = state.scans[node] = scan(pos, world, world.sensor_range, delta)
    if rules_enabled:
        candidates = filter_candidates(scan_, state)
    else:
        candidates = free_directions(scan_)
    if candidates:
        direction = select_direction(candidates, desired_angle(pos, world.goal), scan_)
        sx, sy = _SIGNS[direction]
        i, j = state.node = (i + sx, j + sy)
        if rules_enabled:  # only the rules read the memory and the trail
            state.used.setdefault(node, set()).add(direction)
            state.trail.append(state.node)
        state.prev_dir = direction
        return state, StepEvent("moved", direction, Point2(x0 + i * half, y0 + j * half))
    if not rules_enabled or len(state.trail) <= 1:
        return state, StepEvent("stuck", None, pos)
    # rule III: retire this node and retrace one step of the trail. The goal's
    # own node is never retired: it lies within delta/4 of the goal on each
    # axis, so within delta/2, and the run has stopped there already.
    state.dead.add(node)
    state.trail.pop()
    i, j = state.node = state.trail[-1]
    back_dir = _DIRECTION_OF[i - node[0], j - node[1]]
    # the departure consumed by the retreat is recorded like any other
    state.used.setdefault(node, set()).add(back_dir)
    state.prev_dir = None
    return state, StepEvent("backtracked", back_dir, Point2(x0 + i * half, y0 + j * half))
