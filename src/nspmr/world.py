"""Scenario model: bounds, obstacles, file format, dynamics, trajectories,
builtin and generated worlds.

A scenario is immutable; advancing moving obstacles by one tick builds a new scenario
that nothing caches (see step_dynamics). Every planner returns a Trajectory, whose timestamps
advance one tick_duration per waypoint, and one of the OUTCOME_* values.
All distances are meters, headings are compass degrees.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .geometry import (
    Point2,
    PointLocation,
    Polygon,
    _closer_than,
    point_in_polygon,
    point_polygon_distance,
)
from .lattice import _lattice_path, _lattice_shape

DEFAULT_DELTA = 0.5
DEFAULT_SENSOR_RANGE = 1.0
DEFAULT_SPEED = 10.0


class ScenarioError(ValueError):
    """Malformed or semantically invalid scenario input."""


class Bounds(NamedTuple):
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def contains(self, p: Point2) -> bool:
        return self.xmin < p.x < self.xmax and self.ymin < p.y < self.ymax


@dataclass(frozen=True)
class Obstacle:
    shape: Polygon
    velocity: tuple[float, float] | None = None

    @property
    def moving(self) -> bool:
        return self.velocity is not None and self.velocity != (0.0, 0.0)


@dataclass(frozen=True)
class Scenario:
    name: str
    bounds: Bounds
    start: Point2
    goal: Point2
    obstacles: tuple[Obstacle, ...] = ()
    delta: float = DEFAULT_DELTA
    sensor_range: float = DEFAULT_SENSOR_RANGE
    speed: float = DEFAULT_SPEED

    @cached_property
    def is_dynamic(self) -> bool:
        return any(ob.moving for ob in self.obstacles)

    @cached_property
    def shapes(self) -> tuple[Polygon, ...]:
        """The obstacles' polygons in order, built once per scenario."""
        return tuple(ob.shape for ob in self.obstacles)


def validate_scenario(s: Scenario) -> list[str]:
    """Collect semantic violations; an empty list means the scenario is usable."""
    out: list[str] = []
    b = s.bounds
    for v in b:
        if not math.isfinite(v):
            out.append("bounds must be finite")
            return out
    if not (b.xmin < b.xmax and b.ymin < b.ymax):
        out.append("bounds must satisfy xmin < xmax and ymin < ymax")
    for label, p in (("start", s.start), ("goal", s.goal)):
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            out.append(f"{label} must be finite")
        elif not b.contains(p):
            out.append(f"{label} must lie strictly inside bounds")
    if not (math.isfinite(s.delta) and s.delta > 0):
        out.append("delta must be finite and positive")
    else:
        try:
            _lattice_shape(b, s.delta / 2)
        except ValueError:
            out.append("bounds hold too many delta/2 lattice nodes to count")
    if not (math.isfinite(s.sensor_range) and s.sensor_range > s.delta):
        out.append("sensor_range must be finite and exceed delta")
    if not (math.isfinite(s.speed) and s.speed > 0):
        out.append("speed must be finite and positive")
    for i, ob in enumerate(s.obstacles):
        poly = ob.shape
        if not poly.is_simple:
            out.append(f"obstacle {i}: polygon self-intersects")
            continue
        if not poly.is_ccw:
            out.append(f"obstacle {i}: vertices must wind counterclockwise")
            continue
        if ob.velocity is not None and not all(math.isfinite(v) for v in ob.velocity):
            out.append(f"obstacle {i}: velocity must be finite")
        x0, y0, x1, y1 = poly.bbox
        if not (b.xmin <= x0 and b.ymin <= y0 and x1 <= b.xmax and y1 <= b.ymax):
            out.append(f"obstacle {i}: must lie within bounds")
        for label, p in (("start", s.start), ("goal", s.goal)):
            if point_in_polygon(p, poly) is not PointLocation.OUTSIDE:
                out.append(f"obstacle {i}: {label} must lie strictly outside")
    return out


# --- file format ---------------------------------------------------------------

_TOP_FIELDS = {"name", "bounds", "start", "goal", "delta", "sensor_range", "speed", "obstacles"}
_BOUNDS_FIELDS = {"xmin", "ymin", "xmax", "ymax"}
_OBSTACLE_FIELDS = {"vertices", "velocity"}


_TOO_LONG = object()  # json's value for an integer literal of 400+ characters, beyond any float


def _as_number(value, where: str) -> float:
    if value is _TOO_LONG:
        raise ScenarioError(f"{where}: number too large")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{where}: number too large") from None


def _as_point(value, where: str) -> Point2:
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioError(f"{where}: expected [x, y]")
    return Point2(_as_number(value[0], where), _as_number(value[1], where))


def parse_scenario(text: str) -> Scenario:
    """Parse scenario JSON; raises ScenarioError on syntax, shape, or semantic problems."""
    try:
        # int() itself refuses a literal of over 4,300 digits (Python 3.11+)
        raw = json.loads(text, parse_int=lambda digits: int(digits) if len(digits) < 400 else _TOO_LONG)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except RecursionError as e:  # the decoder recurses once per level of nested arrays and objects
        raise ScenarioError("invalid JSON: nested too deeply") from e
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    unknown = set(raw) - _TOP_FIELDS
    if unknown:
        raise ScenarioError(f"unknown field(s): {', '.join(sorted(unknown))}")
    for required in ("name", "bounds", "start", "goal", "obstacles"):
        if required not in raw:
            raise ScenarioError(f"missing required field: {required}")
    if not isinstance(raw["name"], str):
        raise ScenarioError("name: expected a string")
    bounds_raw = raw["bounds"]
    if not isinstance(bounds_raw, dict):
        raise ScenarioError("bounds: expected an object")
    unknown = set(bounds_raw) - _BOUNDS_FIELDS
    if unknown:
        raise ScenarioError(f"bounds: unknown field(s): {', '.join(sorted(unknown))}")
    missing = _BOUNDS_FIELDS - set(bounds_raw)
    if missing:
        raise ScenarioError(f"bounds: missing field(s): {', '.join(sorted(missing))}")
    bounds = Bounds(*(_as_number(bounds_raw[k], f"bounds.{k}") for k in ("xmin", "ymin", "xmax", "ymax")))
    obstacles = []
    if not isinstance(raw["obstacles"], list):
        raise ScenarioError("obstacles: expected a list")
    for i, entry in enumerate(raw["obstacles"]):
        where = f"obstacles[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{where}: expected an object")
        unknown = set(entry) - _OBSTACLE_FIELDS
        if unknown:
            raise ScenarioError(f"{where}: unknown field(s): {', '.join(sorted(unknown))}")
        if "vertices" not in entry:
            raise ScenarioError(f"{where}: missing vertices")
        verts = entry["vertices"]
        if not (isinstance(verts, list) and len(verts) >= 3):
            raise ScenarioError(f"{where}: vertices must list at least 3 points")
        vertices = tuple(_as_point(v, f"{where}.vertices[{j}]") for j, v in enumerate(verts))
        for j, v in enumerate(vertices):
            if not (math.isfinite(v.x) and math.isfinite(v.y)):
                raise ScenarioError(f"{where}.vertices[{j}]: must be finite")
        poly = Polygon(vertices)
        velocity = None
        if "velocity" in entry and entry["velocity"] is not None:
            v = _as_point(entry["velocity"], f"{where}.velocity")
            velocity = (v.x, v.y)
        obstacles.append(Obstacle(poly, velocity))
    s = Scenario(
        name=raw["name"],
        bounds=bounds,
        start=_as_point(raw["start"], "start"),
        goal=_as_point(raw["goal"], "goal"),
        obstacles=tuple(obstacles),
        delta=_as_number(raw.get("delta", DEFAULT_DELTA), "delta"),
        sensor_range=_as_number(raw.get("sensor_range", DEFAULT_SENSOR_RANGE), "sensor_range"),
        speed=_as_number(raw.get("speed", DEFAULT_SPEED), "speed"),
    )
    violations = validate_scenario(s)
    if violations:
        raise ScenarioError("; ".join(violations))
    return s


def serialize_scenario(s: Scenario) -> str:
    """Emit scenario JSON that parse_scenario reads back field-exactly."""
    doc = {
        "name": s.name,
        "bounds": {"xmin": s.bounds.xmin, "ymin": s.bounds.ymin, "xmax": s.bounds.xmax, "ymax": s.bounds.ymax},
        "start": [s.start.x, s.start.y],
        "goal": [s.goal.x, s.goal.y],
        "delta": s.delta,
        "sensor_range": s.sensor_range,
        "speed": s.speed,
        "obstacles": [
            {"vertices": [[v.x, v.y] for v in ob.shape.vertices]}
            | ({"velocity": [ob.velocity[0], ob.velocity[1]]} if ob.velocity is not None else {})
            for ob in s.obstacles
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# --- dynamics --------------------------------------------------------------------

def step_dynamics(s: Scenario) -> Scenario:
    """Advance moving obstacles by one tick_duration(s): rigid translation, velocity reflecting at bounds.

    On an axis where the translation would push the shape past the bounds,
    the velocity component flips and the shape holds that axis for this tick,
    so obstacles never leave the arena and never deform. The next pose is
    built field by field, so none of s's cached values carries over, and
    each shape is translated from its previous pose with no revalidation.
    """
    if not s.is_dynamic:
        return s
    b, dt = s.bounds, tick_duration(s)
    new_obstacles = []
    for ob in s.obstacles:
        if not ob.moving:
            new_obstacles.append(ob)
            continue
        vx, vy = ob.velocity
        dx, dy = vx * dt, vy * dt
        xmin, ymin, xmax, ymax = ob.shape.bbox
        if xmin + dx < b.xmin or xmax + dx > b.xmax:
            vx, dx = -vx, 0.0
        if ymin + dy < b.ymin or ymax + dy > b.ymax:
            vy, dy = -vy, 0.0
        shape = ob.shape.translated(dx, dy) if (dx or dy) else ob.shape
        new_obstacles.append(Obstacle(shape, (vx, vy)))
    nxt = Scenario(s.name, b, s.start, s.goal, tuple(new_obstacles), s.delta, s.sensor_range, s.speed)
    nxt.__dict__["is_dynamic"] = True  # a reflected velocity stays nonzero; skips cached_property's lock
    return nxt


# --- trajectories and outcomes -----------------------------------------------------

OUTCOME_GOAL = "goal_reached"
OUTCOME_STUCK = "stuck"
OUTCOME_LIMIT = "iteration_limit"
OUTCOME_UNREACHABLE = "unreachable"


@dataclass(frozen=True)
class Trajectory:
    waypoints: tuple[Point2, ...]
    events: tuple[str, ...]  # one per movement step: moved | backtracked
    directions: tuple[float | None, ...]  # compass heading per step
    timestamps: tuple[float, ...]  # one per waypoint, iteration * dt


def tick_duration(s: Scenario) -> float:
    return (s.delta / 2) / s.speed


def make_trajectory(s: Scenario, waypoints, events, directions) -> Trajectory:
    dt = tick_duration(s)
    return Trajectory(
        waypoints=tuple(waypoints),
        events=tuple(events),
        directions=tuple(directions),
        timestamps=tuple(map(dt.__mul__, range(len(waypoints)))),  # i * dt, bit for bit
    )


# --- builtin worlds ---------------------------------------------------------------

def _rect(x0: float, y0: float, x1: float, y1: float) -> Polygon:
    return Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


def _static(*polys: Polygon) -> tuple[Obstacle, ...]:
    return tuple(Obstacle(p) for p in polys)


def _scenario1() -> Scenario:
    # three rectangular blocks between (0,0) and (25,25)
    return Scenario(
        name="scenario1",
        bounds=Bounds(-2, -2, 27, 27),
        start=Point2(0, 0),
        goal=Point2(25, 25),
        obstacles=_static(
            Polygon((Point2(5.8, 1), Point2(7.5, 1), Point2(7.5, 9.8), Point2(5.8, 9.8))),
            Polygon((Point2(1, 15), Point2(13.5, 15), Point2(13.5, 17.8), Point2(1, 17.8))),
            Polygon((Point2(18.9, 12), Point2(20.2, 12), Point2(20.2, 22), Point2(18.9, 22))),
        ),
    )


def _concave_trap() -> Scenario:
    # C-shaped pocket opening west, sitting across the straight route
    pocket = Polygon(
        (
            Point2(10, 10),
            Point2(14.5, 10),
            Point2(14.5, 14),
            Point2(10, 14),
            Point2(10, 13),
            Point2(13.5, 13),
            Point2(13.5, 11),
            Point2(10, 11),
        )
    )
    return Scenario(
        name="concave_trap",
        bounds=Bounds(-2, -2, 27, 27),
        start=Point2(0, 12),
        goal=Point2(25, 12),
        obstacles=_static(pocket),
    )


def _corridor_loop() -> Scenario:
    # dead-end slot 0.6 m tall: naive direction choice ping-pongs at its end
    slot = Polygon(
        (
            Point2(8, 10),
            Point2(15, 10),
            Point2(15, 14),
            Point2(8, 14),
            Point2(8, 12.3),
            Point2(14, 12.3),
            Point2(14, 11.7),
            Point2(8, 11.7),
        )
    )
    return Scenario(
        name="corridor_loop",
        bounds=Bounds(-2, -2, 27, 27),
        start=Point2(0, 12),
        goal=Point2(25, 12),
        obstacles=_static(slot),
    )


def _triangle_loop() -> Scenario:
    # block cluster around (10,10) that closes a three-cell circuit under
    # memoryless direction choice; the wedge block is load-bearing
    blobs = (
        _rect(9.95, 10.20, 10.08, 10.35),
        _rect(10.15, 10.15, 10.24, 10.24),
        _rect(10.27, 9.95, 10.35, 10.05),
        _rect(10.40, 9.90, 10.50, 10.00),
        _rect(10.20, 10.33, 10.30, 10.43),
        _rect(10.40, 10.12, 10.50, 10.22),
        _rect(10.20, 9.20, 10.30, 9.40),
        Polygon((Point2(10.50, 9.70), Point2(10.60, 9.70), Point2(10.55, 9.80))),
    )
    return Scenario(
        name="triangle_loop",
        bounds=Bounds(-2, -2, 27, 27),
        start=Point2(0, 0),
        goal=Point2(25, 25),
        obstacles=_static(*blobs),
    )


def _office_like() -> Scenario:
    # rooms along a straight hallway line; every partition offers a short
    # south door toward the route and a north door into a decoy closet whose
    # first obstruction along the NE diagonal sits ~2.9 m out. Short sensors
    # cannot tell the doors apart at the wall-contact tie and take the decoy.
    walls = [
        _rect(0, 0, 25, 0.5),
        _rect(0, 24.5, 25, 25),
        _rect(0, 0.5, 0.5, 24.5),
        _rect(24.5, 0.5, 25, 24.5),
    ]
    for xf in (6.125, 12.125, 18.125):
        walls.append(_rect(xf, 0.5, xf + 0.5, 11.2))           # below the south door
        walls.append(_rect(xf, 12.15, xf + 0.5, 12.8))         # slab between the doors
        walls.append(_rect(xf, 13.8, xf + 0.5, 24.5))          # above the north door
        walls.append(_rect(xf + 0.5, 12.15, xf + 2.75, 12.8))  # closet floor
        walls.append(_rect(xf + 0.5, 14.55, xf + 2.75, 15.05)) # closet ceiling
        walls.append(_rect(xf + 2.25, 12.8, xf + 2.75, 14.55)) # closet end cap
        walls.append(_rect(xf + 3.0, 11.3, xf + 3.5, 12.45))   # skirt realigning the route
    return Scenario(
        name="office_like",
        bounds=Bounds(0, 0, 25, 25),
        start=Point2(2, 12.5),
        goal=Point2(23, 12.5),
        obstacles=_static(*walls),
        sensor_range=10.0,
    )


def _dynamic_crossing() -> Scenario:
    # a block drifting north through the diagonal route
    mover = Obstacle(_rect(11.7, 10.2, 13.7, 12.2), velocity=(0.0, 1.5))
    return Scenario(
        name="dynamic_crossing",
        bounds=Bounds(-2, -2, 27, 27),
        start=Point2(0, 0),
        goal=Point2(25, 25),
        obstacles=(mover,),
    )


_BUILTINS = {
    "scenario1": _scenario1,
    "concave_trap": _concave_trap,
    "corridor_loop": _corridor_loop,
    "triangle_loop": _triangle_loop,
    "office_like": _office_like,
    "dynamic_crossing": _dynamic_crossing,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_scenario(name: str) -> Scenario:
    """Fetch one of the versioned builtin worlds by id."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown builtin scenario {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return factory()


# --- random worlds -----------------------------------------------------------------

_GEN_BOUNDS = Bounds(0, 0, 30, 30)
_GEN_START = Point2(2, 2)
_GEN_GOAL = Point2(28, 28)
_GEN_KINDS = ("rect", "l", "triangle")
_GEN_MIN_SIZE, _GEN_MAX_SIZE = 1.0, 4.0  # obstacle bbox extents in meters


def _make_shape(rng: random.Random, kind: str) -> Polygon:
    w = rng.uniform(_GEN_MIN_SIZE, _GEN_MAX_SIZE)
    h = rng.uniform(_GEN_MIN_SIZE, _GEN_MAX_SIZE)
    b = _GEN_BOUNDS
    x0 = rng.uniform(b.xmin + 1, b.xmax - 1 - w)
    y0 = rng.uniform(b.ymin + 1, b.ymax - 1 - h)
    if kind == "rect":
        return _rect(x0, y0, x0 + w, y0 + h)
    if kind == "l":
        ax = x0 + w * rng.uniform(0.35, 0.65)
        ay = y0 + h * rng.uniform(0.35, 0.65)
        return Polygon(
            (
                Point2(x0, y0),
                Point2(x0 + w, y0),
                Point2(x0 + w, ay),
                Point2(ax, ay),
                Point2(ax, y0 + h),
                Point2(x0, y0 + h),
            )
        )
    # "triangle", the last of _GEN_KINDS
    return Polygon((Point2(x0, y0), Point2(x0 + w, y0), Point2(x0 + rng.uniform(0.2, 0.8) * w, y0 + h)))


def generate_world(seed: int, count: int = 8) -> Scenario:
    """Deterministically generate a solvable static world of count obstacles for the given seed.

    Obstacles keep at least 2*delta of separation from each other and from
    start/goal, and placement is rejection-sampled until a clearance-checked
    grid path start->goal exists, so every generated world is solvable.
    Raises ValueError for a negative count.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = random.Random(seed)
    for _ in range(60):
        shapes: list[Polygon] = []
        ok = True
        for _ in range(count):
            placed = False
            for _ in range(300):
                cand = _make_shape(rng, rng.choice(_GEN_KINDS))
                margin = 2 * DEFAULT_DELTA
                if point_polygon_distance(_GEN_START, cand) < margin:
                    continue
                if point_polygon_distance(_GEN_GOAL, cand) < margin:
                    continue
                if any(_closer_than(cand, other, margin) for other in shapes):
                    continue
                shapes.append(cand)
                placed = True
                break
            if not placed:
                ok = False
                break
        if not ok:
            continue
        s = Scenario(
            name=f"random-{seed}",
            bounds=_GEN_BOUNDS,
            start=_GEN_START,
            goal=_GEN_GOAL,
            obstacles=_static(*shapes),
        )
        if _lattice_path(s, s.delta / 2, s.delta / 2) is not None:
            return s
    raise ScenarioError(f"could not generate a solvable world for seed {seed}")
