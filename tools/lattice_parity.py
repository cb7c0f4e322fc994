"""Fingerprint what the lattice search and the planners compute; the output is the reference.

tools/lattice_parity.txt holds this tool's output for the committed tree, so a
change that alters any line shows it in the diff. Its lines are:

- worlds: one SHA-256 over serialize_scenario(generate_world(seed)) for seeds 0-499;
- rasters: one SHA-256 over the lattice._lattice_blocked bytes of every builtin
  and of worlds 0-499, each at resolution delta/2 and clearances 0, delta/4 and
  delta/2, so the raster has a gate of its own and not only through the worlds
  and oracle lines;
- ceilings: the iteration_ceiling of each builtin;
- routes: one SHA-256 over repr(RunResult) and the trajectory CSV bytes of every
  builtin under nspmr (rules on, and rules off at 2000 iterations) and under bug1
  and bug2, of office_like under nspmr at d = 2 and 20, and of worlds 0-49 under
  all three planners (a planner's ScenarioError is hashed in place of its route);
- audits: one SHA-256 over the audit_collisions messages of each of those routes,
  as it is and with a box of half-width delta/2 added around its middle waypoint;
- scans: one SHA-256 over repr of the readings of scan at 100 seeded positions
  and the bbox corners of every obstacle in worlds 0-49 at d = 1 and 10, and at
  every 0.25 m node of office_like at d = 2 and 20, and in both at the lattice-line
  sites of every bbox corner: d/2 back from the corner along each of the 8 sensor
  rays, on the ray's line or off it by +-EPS_GEOM or +- the margin scan grows a
  bbox by (a GeometryError is hashed in place of its readings);
- records: one SHA-256 over repr of the final NspmrState.records, in insertion
  order, of one planner._walk over every static builtin and worlds 0-49, with the
  rules on to the end of the default budget and with them off for 2000 iterations;
- one "oracle <key> <value>" line per grid_oracle(s, r), for the builtins at
  r = delta/2, 0.25, 0.3 and 0.7 and for worlds 0-49 at r = delta/2, with the
  value's repr, so it is compared exactly.

Rewrite the reference after a declared change of behaviour:

    PYTHONPATH=src python tools/lattice_parity.py > tools/lattice_parity.txt

To compare two source trees, run the tool under each tree's PYTHONPATH and diff
the outputs, e.g. with a second checkout in ../base:

    PYTHONPATH=../base/src python tools/lattice_parity.py > base.txt
    PYTHONPATH=src python tools/lattice_parity.py | diff base.txt -
"""

import dataclasses
import hashlib
import os
import random
import tempfile
from collections import deque
from itertools import islice

from nspmr import (
    BUILTIN_NAMES,
    PLANNERS,
    GeometryError,
    Obstacle,
    Point2,
    Polygon,
    ScenarioError,
    audit_collisions,
    builtin_scenario,
    default_max_iters,
    generate_world,
    grid_oracle,
    iteration_ceiling,
    run,
    scan,
    serialize_scenario,
    write_trajectory_csv,
)
from nspmr.geometry import EPS_GEOM
from nspmr.lattice import _lattice_blocked
from nspmr.planner import NspmrState, _walk
from nspmr.sensing import _RAYS


def route_runs():
    """(scenario, planner, run keywords) of every run the routes digest covers, in a fixed order."""
    for name in BUILTIN_NAMES:
        s = builtin_scenario(name)
        yield s, "nspmr", {"rules_enabled": False, "max_iters": 2000}
        for planner in PLANNERS:
            yield s, planner, {}
    for d in (2.0, 20.0):
        yield dataclasses.replace(builtin_scenario("office_like"), sensor_range=d), "nspmr", {}
    for seed in range(50):
        s = generate_world(seed)
        for planner in PLANNERS:
            yield s, planner, {}


def routes_digests() -> tuple[str, str, int]:
    """SHA-256 over each covered run's repr(RunResult) and CSV bytes, SHA-256 over the audit
    messages of its trajectory without and with a box of half-width delta/2 around its middle
    waypoint, and the number of runs."""
    digest, audits = hashlib.sha256(), hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "route.csv")
        for s, planner, kwargs in route_runs():
            count += 1
            try:
                traj, result = run(s, planner, **kwargs)
            except ScenarioError as e:
                digest.update(f"ScenarioError: {e}".encode())
                continue
            write_trajectory_csv(path, traj)
            digest.update(repr(result).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
            p, h = traj.waypoints[len(traj.waypoints) // 2], s.delta / 2
            box = Polygon((Point2(p.x - h, p.y - h), Point2(p.x + h, p.y - h), Point2(p.x + h, p.y + h), Point2(p.x - h, p.y + h)))
            for world in (s, dataclasses.replace(s, obstacles=s.obstacles + (Obstacle(box),))):
                audits.update(repr(audit_collisions(traj, world)).encode())
    return digest.hexdigest(), audits.hexdigest(), count


def corner_line_sites(s, d):
    """For each of s's shapes, each bbox corner and each sensor ray: the point d/2 back from the corner
    along the ray, on the ray's line or moved off it along x (along y for the east-west line) by
    +-EPS_GEOM or by +- the margin scan grows the shape's bbox by at range d."""
    for poly in s.shapes:
        x0, y0, x1, y1 = poly.bbox
        w = x1 - x0 + y1 - y0
        m = 2 * (1 + w) * (EPS_GEOM + 2e-6 * (1 + d + w))
        for cx, cy in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)):
            for _, ux, uy in _RAYS:
                px, py = cx - 0.5 * d * ux, cy - 0.5 * d * uy
                for off in (0.0, EPS_GEOM, -EPS_GEOM, m, -m):
                    yield Point2(px, py + off) if uy == 0.0 else Point2(px + off, py)


def scan_sites():
    """(scenario at range d, position) of every scan the scans digest covers, in a fixed order."""
    for seed in range(50):
        s = generate_world(seed)
        b = s.bounds
        rng = random.Random(seed)
        sites = [Point2(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax)) for _ in range(100)]
        for poly in s.shapes:
            x0, y0, x1, y1 = poly.bbox
            sites += [Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)]
        for d in (1.0, 10.0):
            world = dataclasses.replace(s, sensor_range=d)
            for pos in sites + list(corner_line_sites(s, d)):
                yield world, pos
    s = builtin_scenario("office_like")
    b = s.bounds
    nodes = [
        Point2(b.xmin + i * 0.25, b.ymin + j * 0.25)
        for i in range(int((b.xmax - b.xmin) / 0.25) + 1)
        for j in range(int((b.ymax - b.ymin) / 0.25) + 1)
    ]
    for d in (2.0, 20.0):
        world = dataclasses.replace(s, sensor_range=d)
        for pos in nodes + list(corner_line_sites(s, d)):
            yield world, pos


def scans_digest() -> tuple[str, int]:
    """SHA-256 over repr of each covered scan's readings, and the number of scans."""
    digest = hashlib.sha256()
    count = 0
    for world, pos in scan_sites():
        count += 1
        try:
            digest.update(repr(scan(pos, world)).encode())
        except GeometryError as e:
            digest.update(f"GeometryError: {e}".encode())
    return digest.hexdigest(), count


def records_digest() -> tuple[str, int]:
    """SHA-256 over repr of the node records each covered walk ends with, and the number of walks."""
    digest = hashlib.sha256()
    count = 0
    worlds = [builtin_scenario(name) for name in BUILTIN_NAMES] + [generate_world(seed) for seed in range(50)]
    for s in worlds:
        if s.is_dynamic:  # a moving world keeps no records
            continue
        for rules, steps in ((True, default_max_iters(s)), (False, 2000)):
            count += 1
            state = NspmrState(start=s.start)
            deque(islice(_walk(state, s, rules), steps), maxlen=0)
            digest.update(repr(state.records).encode())
    return digest.hexdigest(), count


def oracle_values():
    """(key, grid_oracle length) of each builtin at r = delta/2, 0.25, 0.3 and 0.7 and of worlds 0-49
    at r = delta/2, in a fixed order."""
    for name in BUILTIN_NAMES:
        s = builtin_scenario(name)
        for r in dict.fromkeys((s.delta / 2, 0.25, 0.3, 0.7)):  # delta/2 may repeat 0.25
            yield f"{name} {r}", grid_oracle(s, r)
    for seed in range(50):
        s = generate_world(seed)
        yield f"{seed} {s.delta / 2}", grid_oracle(s, s.delta / 2)


def main() -> None:
    worlds, rasters = hashlib.sha256(), hashlib.sha256()
    generated = [generate_world(seed) for seed in range(500)]
    for s in generated:
        worlds.update(serialize_scenario(s).encode())
    for s in [builtin_scenario(name) for name in BUILTIN_NAMES] + generated:
        for clearance in (0.0, s.delta / 4, s.delta / 2):
            rasters.update(_lattice_blocked(s, s.delta / 2, clearance))
    routes, audits, runs = routes_digests()
    scans, scanned = scans_digest()
    records, walks = records_digest()
    print("worlds 0-499  ", worlds.hexdigest())
    print("rasters       ", rasters.hexdigest())
    print("ceilings      ", [iteration_ceiling(builtin_scenario(n)) for n in BUILTIN_NAMES])
    print("routes        ", f"{routes} ({runs} runs)")
    print("audits        ", f"{audits} ({runs} runs)")
    print("scans         ", f"{scans} ({scanned} scans)")
    print("records       ", f"{records} ({walks} walks)")
    for key, value in oracle_values():
        print("oracle", key, repr(value))


if __name__ == "__main__":
    main()
