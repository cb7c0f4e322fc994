"""Self-test of the output checks: corrupt real trajectories and expect each
check to fire, and expect the uncorrupted ones to pass.

Runs at the start of every benchmark run; a check that does not fire makes
the run report ``correct: false``. Files go to the given directory.
"""

from __future__ import annotations

import dataclasses
import os

import checks


def _fired(problems) -> set[str]:
    return {p.split(":", 1)[0] for p in problems}


def run(nspmr, outdir: str) -> list[str]:
    """Returns one line per check that failed to fire (or fired on clean input)."""
    out = []
    Point2 = nspmr.Point2

    def expect(what, problems, check):
        if check not in _fired(problems):
            out.append(f"self-test: {what} did not fire the {check} check (got {sorted(_fired(problems))})")

    s = nspmr.builtin_scenario("scenario1")
    traj, res = nspmr.run(s, "nspmr")
    oracle = nspmr.grid_oracle(s, s.delta / 2)
    wp = traj.waypoints

    def probe(t, r=res, rules=True, oracle=oracle):
        return checks.check_run(s, t, r, "nspmr", rules, oracle, True)

    clean = probe(traj)
    if clean:
        out.append(f"self-test: clean scenario1 run fails checks: {clean}")

    # one waypoint moved into the first obstacle
    xs = [v.x for v in s.obstacles[0].shape.vertices]
    ys = [v.y for v in s.obstacles[0].shape.vertices]
    k = len(wp) // 2
    inside = Point2((min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2)
    expect("a waypoint inside an obstacle", probe(dataclasses.replace(traj, waypoints=wp[:k] + (inside,) + wp[k + 1:])), "collision")

    # one step lengthened: every waypoint after step k shifts by one more half-step
    dx, dy = wp[k + 1].x - wp[k].x, wp[k + 1].y - wp[k].y
    longer = wp[: k + 1] + tuple(Point2(p.x + dx, p.y + dy) for p in wp[k + 1:])
    expect("a lengthened step", probe(dataclasses.replace(traj, waypoints=longer)), "step")
    expect("a lengthened step", probe(dataclasses.replace(traj, waypoints=longer)), "length")

    # a bare reversal: step back and forth once in the middle of the route
    dirs = traj.directions
    back = (dirs[k] + 180.0) % 360.0
    reversed_ = dataclasses.replace(
        traj,
        waypoints=wp[: k + 2] + (wp[k], wp[k + 1]) + wp[k + 2:],
        events=traj.events[: k + 1] + ("moved", "moved") + traj.events[k + 1:],
        directions=dirs[: k + 1] + (back, dirs[k]) + dirs[k + 1:],
        timestamps=traj.timestamps + (0.0, 0.0),
    )
    step = s.delta / 2 * (2 ** 0.5 if dirs[k] % 90 else 1.0)
    longer_res = dataclasses.replace(res, iterations=res.iterations + 2, length=res.length + 2 * step)
    expect("a bare reversal", probe(reversed_, longer_res), "reversal")

    # a route cut short of the goal, and one shorter than the oracle allows
    cut = dataclasses.replace(traj, waypoints=wp[:-4], events=traj.events[:-4],
                              directions=dirs[:-4], timestamps=traj.timestamps[:-4])
    cut_res = dataclasses.replace(res, iterations=res.iterations - 4, length=res.length - nspmr.path_length(wp[-5:]))
    expect("a route ending short of the goal", probe(cut, cut_res), "goal")
    expect("an oracle longer than the route", probe(traj, oracle=res.length + 1.0), "oracle")

    # departure bounds: a rules-off loop judged as a rules-on run, and the
    # rules-on run judged as a control
    c = nspmr.builtin_scenario("corridor_loop")
    ctraj, cres = nspmr.run(c, "nspmr", 400, rules_enabled=False)
    coracle = nspmr.grid_oracle(c, c.delta / 2)
    expect("a looping run", checks.check_run(c, ctraj, cres, "nspmr", True, coracle, False), "departures")
    if checks.check_run(c, ctraj, cres, "nspmr", False, coracle, False):
        out.append("self-test: the corridor_loop control fails its checks")
    expect("a goal-reaching control", probe(traj, rules=False), "control")

    # written artifacts
    path = os.path.join(outdir, "selftest.csv")
    nspmr.write_trajectory_csv(path, traj)
    with open(path, "rb") as fh:
        data = fh.read()
    back_traj = nspmr.read_trajectory_csv(path)
    if checks.readback(traj, back_traj, data, data):
        out.append("self-test: a clean CSV fails the read-back check")
    moved = dataclasses.replace(back_traj, waypoints=(inside,) + back_traj.waypoints[1:])
    expect("a CSV that reads back changed", checks.readback(traj, moved, data, data), "csv")
    svg = os.path.join(outdir, "selftest.svg")
    nspmr.write_svg(svg, s, [traj])
    if checks.svg_counts(svg, 1, len(s.obstacles)):
        out.append("self-test: a clean SVG fails its count check")
    expect("an SVG missing a polyline", checks.svg_counts(svg, 2, len(s.obstacles)), "svg")
    return out
