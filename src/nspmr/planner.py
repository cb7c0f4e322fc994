"""Step planner: desired heading, priority-rule filtering, selection, memory.

Movement is restricted to 8 compass directions on a delta/2 lattice. Three
rules keep the walk out of loops:
  I   never reverse the previous move directly;
  II  never leave the same lattice cell twice in the same direction;
  III when nothing remains, mark the cell dead and step back along the trail.
The dead-cell set and per-cell direction memory make every run terminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .geometry import Point2, circular_diff, distance, math_to_compass
from .sensing import SENSOR_ANGLES, SensorScan, scan
from .world import Scenario

DIRECTIONS = SENSOR_ANGLES

# Table of per-direction displacement signs; each move is (sx, sy) * delta/2,
# kept exact so positions stay on the lattice in floating point.
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


class CellId(NamedTuple):
    ix: int
    iy: int


def quantize(pos: Point2, delta: float) -> CellId:
    """Nearest delta/2 lattice node; points within delta/4 of a node share a cell."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    half = delta / 2
    return CellId(round(pos.x / half), round(pos.y / half))


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
    """One run's planner memory. ``scans`` memoizes the scan at each exact
    position while the world is static, so a state serves one world only."""

    pos: Point2
    prev_dir: float | None = None
    used: dict[CellId, set[float]] = field(default_factory=dict)
    dead: set[CellId] = field(default_factory=set)
    trail: list[Point2] = field(default_factory=list)
    scans: dict[Point2, SensorScan] = field(default_factory=dict)

    def __post_init__(self):
        if not self.trail:
            self.trail = [self.pos]


class StepEvent(NamedTuple):
    kind: str  # moved | backtracked | goal_reached | stuck
    direction: float | None
    new_pos: Point2


def filter_candidates(scan_: SensorScan, state: NspmrState, delta: float) -> list[float]:
    """Free directions that survive rules I (no reversal), II (cell memory),
    and III (never step into a dead cell)."""
    cell_used = state.used.get(quantize(state.pos, delta), ())
    out = []
    for i, reading in enumerate(scan_.readings):
        angle = DIRECTIONS[i]
        if not reading.free:
            continue
        if state.prev_dir is not None and circular_diff(angle, state.prev_dir) == 180:
            continue
        if angle in cell_used:
            continue
        if quantize(apply_move(state.pos, angle, delta), delta) in state.dead:
            continue
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
    return min(
        candidates,
        key=lambda a: (circular_diff(a, theta_d), -scan_.reading(a).dist, a),
    )


def _reverse(direction: float) -> float:
    return (direction + 180.0) % 360.0


def _lattice_direction(src: Point2, dst: Point2, delta: float) -> float:
    half = delta / 2
    sx = round((dst.x - src.x) / half)
    sy = round((dst.y - src.y) / half)
    for angle, signs in _SIGNS.items():
        if signs == (sx, sy):
            return angle
    raise ValueError("points are not one lattice step apart")


def nspmr_step(state: NspmrState, world: Scenario, rules_enabled: bool = True) -> tuple[NspmrState, StepEvent]:
    """Advance one iteration; mutates and returns the state with the event."""
    delta = world.delta
    if distance(state.pos, world.goal) <= delta / 2:
        return state, StepEvent("goal_reached", None, state.pos)
    if world.is_dynamic:
        scan_ = scan(state.pos, world, world.sensor_range, delta)
    else:
        scan_ = state.scans.get(state.pos)
        if scan_ is None:
            scan_ = state.scans[state.pos] = scan(state.pos, world, world.sensor_range, delta)
    if rules_enabled:
        candidates = filter_candidates(scan_, state, delta)
    else:
        candidates = free_directions(scan_)
    if candidates:
        direction = select_direction(candidates, desired_angle(state.pos, world.goal), scan_)
        cell = quantize(state.pos, delta)
        new_pos = apply_move(state.pos, direction, delta)
        if rules_enabled:
            state.used.setdefault(cell, set()).add(direction)
        state.trail.append(new_pos)
        state.pos = new_pos
        state.prev_dir = direction
        return state, StepEvent("moved", direction, new_pos)
    if not rules_enabled or len(state.trail) <= 1:
        return state, StepEvent("stuck", None, state.pos)
    # rule III: retire this cell and retrace one step of the trail
    cell = quantize(state.pos, delta)
    if cell != quantize(world.goal, delta):
        state.dead.add(cell)
    state.trail.pop()
    back_to = state.trail[-1]
    back_dir = _lattice_direction(state.pos, back_to, delta)
    # the departure consumed by the retreat is recorded like any other
    state.used.setdefault(cell, set()).add(back_dir)
    state.pos = back_to
    state.prev_dir = None
    return state, StepEvent("backtracked", back_dir, back_to)
