"""Acceptance gate: nine end-to-end criteria, one test and one verdict line each.

Run with -s (or read the assertion text on failure) to see the per-criterion
PASS/FAIL lines. Length windows are wide on purpose: the reference route
lengths depend on parameters a correct implementation is free to choose
(clearances, tie-breaks), so each window brackets the family of faithful
outputs instead of pinning this implementation's exact numbers.
"""

import statistics
import time
from dataclasses import replace

from nspmr import cli
from nspmr.geometry import Point2, circular_diff
from nspmr.output import write_trajectory_csv
from nspmr.planner import select_direction
from nspmr.sensing import DIRECTIONS, SensorReading
from nspmr.sim import audit_collisions, grid_oracle, iteration_ceiling, run
from nspmr.world import Bounds, Scenario, builtin_scenario, generate_world

_RUNS = {}


def planner_run(name, planner, *, sensor_range=None, max_iters=None, rules_enabled=True):
    """Memoized scenario run so later criteria can audit earlier trajectories."""
    key = (name, planner, sensor_range, max_iters, rules_enabled)
    if key not in _RUNS:
        s = builtin_scenario(name)
        if sensor_range is not None:
            s = replace(s, sensor_range=sensor_range)
        trajectory, result = run(s, planner, max_iters, rules_enabled=rules_enabled)
        _RUNS[key] = (s, trajectory, result)
    return _RUNS[key]


def verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_scenario1_nspmr_length_and_runtime(capsys):
    t0 = time.perf_counter()
    rc = cli.main(["run", "--scenario", "builtin:scenario1", "--planner", "nspmr"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out.split()
    length = float(out[1])
    ok = rc == 0 and out[0] == "goal_reached" and 34.4 <= length <= 46.6 and elapsed < 1.0
    with capsys.disabled():
        verdict(1, ok, f"nspmr scenario1 {out[0]} length={length:.3f} m in {elapsed:.2f} s")


def test_criterion_2_scenario1_bug2_length():
    _, _, res = planner_run("scenario1", "bug2")
    ok = res.outcome == "goal_reached" and 38.8 <= res.length <= 52.6
    verdict(2, ok, f"bug2 scenario1 {res.outcome} length={res.length:.3f} m")


def test_criterion_3_scenario1_bug1_length():
    _, _, res = planner_run("scenario1", "bug1")
    ok = res.outcome == "goal_reached" and 72.8 <= res.length <= 121.4
    verdict(3, ok, f"bug1 scenario1 {res.outcome} length={res.length:.3f} m")


def test_criterion_4_scenario1_strict_ordering():
    lengths = {p: planner_run("scenario1", p)[2].length for p in ("nspmr", "bug2", "bug1")}
    ok = lengths["nspmr"] < lengths["bug2"] < lengths["bug1"]
    verdict(4, ok, "nspmr {nspmr:.3f} < bug2 {bug2:.3f} < bug1 {bug1:.3f}".format(**lengths))


def test_criterion_5_traps_escaped_and_rules_load_bearing():
    details = []
    ok = True
    for name in ("concave_trap", "corridor_loop", "triangle_loop"):
        ceiling = iteration_ceiling(builtin_scenario(name))
        _, _, res = planner_run(name, "nspmr", max_iters=ceiling)
        ok = ok and res.outcome == "goal_reached"
        details.append(f"{name}:{res.outcome}@{res.iterations}it")
    for name in ("corridor_loop", "triangle_loop"):
        # budget is an order of magnitude beyond what the full planner needs,
        # and the per-cell departure count is the loop tell: the escape rules
        # cap it at 8, the control revisits one cell hundreds of times
        _, _, res = planner_run(name, "nspmr", max_iters=4000, rules_enabled=False)
        ok = ok and res.outcome != "goal_reached" and res.max_departures_per_cell > 8
        details.append(f"{name}-no-rules:{res.outcome},maxdep={res.max_departures_per_cell}")
    verdict(5, ok, " ".join(details))


def test_criterion_6_sensor_range_trend():
    lengths = {
        d: planner_run("office_like", "nspmr", sensor_range=d)[2].length
        for d in (2, 10, 20)
    }
    ok = (
        lengths[2] >= lengths[10] >= lengths[20]
        and lengths[20] <= 0.9 * lengths[2]
        and all(
            planner_run("office_like", "nspmr", sensor_range=d)[2].outcome == "goal_reached"
            for d in (2, 10, 20)
        )
    )
    verdict(6, ok, f"office_like d=2:{lengths[2]:.2f} >= d=10:{lengths[10]:.2f} >= d=20:{lengths[20]:.2f} m")


def test_criterion_7_oracle_bound_over_random_worlds():
    t0 = time.perf_counter()
    ratios = []
    reached = 0
    bound_ok = True
    for seed in range(50):
        w = generate_world(seed)
        oracle = grid_oracle(w, w.delta / 2)
        assert oracle is not None, f"seed {seed}: generated world has no grid path"
        trajectory, res = run(w, "nspmr")
        _RUNS[("random", seed)] = (w, trajectory, res)
        reached += res.outcome == "goal_reached"
        bound_ok = bound_ok and res.length >= oracle - w.delta
        ratios.append(res.length / oracle)
    elapsed = time.perf_counter() - t0
    med = statistics.median(ratios)
    ok = reached == 50 and bound_ok and med <= 2.0 and elapsed < 60.0
    verdict(7, ok, f"50 worlds reached={reached}/50 median_ratio={med:.3f} "
                   f"max_ratio={max(ratios):.3f} in {elapsed:.1f} s")


def test_criterion_8_invariants_across_all_runs(tmp_path):
    planner_run("dynamic_crossing", "nspmr")
    collisions = 0
    nspmr_runs = 0
    departures_ok = True
    reversal_ok = True
    for key, (s, trajectory, res) in list(_RUNS.items()):
        collisions += len(audit_collisions(trajectory, s))
        if key[0] == "random":
            planner, rules_enabled = "nspmr", True
        else:
            planner, rules_enabled = key[1], key[4]
        if planner != "nspmr" or not rules_enabled:
            # the criterion-5 controls violate these bounds by design
            continue
        nspmr_runs += 1
        departures_ok = departures_ok and res.max_departures_per_cell <= 8
        ev, di = trajectory.events, trajectory.directions
        for i in range(1, len(ev)):
            if ev[i] == "moved" and ev[i - 1] == "moved":
                if circular_diff(di[i], di[i - 1]) == 180.0:
                    reversal_ok = False
    deterministic = True
    for name in ("scenario1", "dynamic_crossing"):
        s = builtin_scenario(name)
        paths = []
        for rep in ("a", "b"):
            trajectory, _ = run(s, "nspmr")
            p = tmp_path / f"{name}-{rep}.csv"
            write_trajectory_csv(p, trajectory)
            paths.append(p.read_bytes())
        deterministic = deterministic and paths[0] == paths[1]
    ok = collisions == 0 and departures_ok and reversal_ok and deterministic
    verdict(8, ok, f"collisions={collisions} over {len(_RUNS)} runs, "
                   f"departures<=8 and no bare reversal on {nspmr_runs} nspmr runs, "
                   f"csv deterministic={deterministic}")


def test_criterion_9_unit_level_anchors():
    all_free = tuple(SensorReading(True, 10.0) for _ in range(8))
    blocked_0_315 = [d for d in DIRECTIONS if d not in (0.0, 315.0)]
    pick_a = select_direction(blocked_0_315, 315.0, all_free)
    pick_b = select_direction(list(DIRECTIONS), 355.0, all_free)

    table = {
        0: (0.0, 0.25),
        45: (0.25, 0.25),
        90: (0.25, 0.0),
        135: (0.25, -0.25),
        180: (0.0, -0.25),
        225: (-0.25, -0.25),
        270: (-0.25, 0.0),
        315: (-0.25, 0.25),
    }
    # each row is the first move of a one-step run in an open world whose goal lies 10 m along it
    origin = Point2(3.0, -2.0)

    def first_move(dx, dy):
        goal = Point2(origin.x + 40 * dx, origin.y + 40 * dy)
        s = Scenario("open", Bounds(-20.0, -20.0, 20.0, 20.0), origin, goal, delta=0.5, sensor_range=2.0)
        traj, _ = run(s, "nspmr", 1)
        return traj.waypoints[1], traj.directions[0]

    moves_ok = all(
        first_move(dx, dy) == (Point2(origin.x + dx, origin.y + dy), angle)
        for angle, (dx, dy) in table.items()
    )
    ok = pick_a == 270.0 and pick_b == 0.0 and moves_ok
    verdict(9, ok, f"select(315 blocked 0,315)={pick_a} select(355 free)={pick_b} "
                   f"displacement rows exact={moves_ok}")
