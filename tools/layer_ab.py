"""Time one layer of two source trees side by side, in one process.

Each tree's src/nspmr is imported as a package under its own name (nspmr_a,
nspmr_b), so both stay loaded at once. The inputs of a layer are built once
per tree, untimed; then the two trees are timed in PAIRS alternating pairs
(tree A first in even pairs, tree B first in odd ones), each sample the best
of PASSES back-to-back passes over the layer's whole input. A host that
drifts over tens of seconds moves both sides of a pair alike, so the
per-pair ratio B/A is steadier than either side's time. Layers:

    audit   audit_collisions on the bug1, bug2 and nspmr routes of worlds 0-49,
            on the six routes of the trap layer and on office_like's nspmr
            route at d = 2
    scan    scan at every node the nspmr routes of worlds 0-49 visit
    office  scan at every node the nspmr routes of office_like visit at
            d = 2, 10 and 20
    visit   planner._visit (scan, then rank the free moves) at every
            distinct node of the six runs of the trap layer, of the nspmr
            routes of worlds 0-49 and of office_like's nspmr routes at
            d = 2, 10 and 20, where a bearing inside a sector casts only
            to the diagonal blocking threshold; the office layer, which
            times the full-range scan at the same office nodes, is its
            control
    nspmr   run(s, "nspmr") on worlds 0-49
    bug     run(s, "bug1") and run(s, "bug2") on worlds 0-49; a refused
            world's error counts as its answer
    random  generate_world, grid_oracle(s, delta/2) and all three planners
            on worlds 0-49, as one random-suite pass
    oracle  the two lattice searches of worlds 0-49: grid_oracle(s, delta/2)
            and generate_world's solvability check,
            lattice._lattice_path(s, delta/2, delta/2)
    trap    the six runs of a trap_escape pass: nspmr on concave_trap,
            corridor_loop and triangle_loop with the rules at
            iteration_ceiling, and without them at 1000 iterations; it
            also prints each tree's run_ms.p50 and steps_per_s as perfbench
            defines them, the median over all passes of each pass's median
            run time and of each pass's planner iterations over its summed
            run() seconds
    moving  run(s, "nspmr") on dynamic_crossing and on paper_suite's two
            fast movers, whose errors count as their answers
    mover   run(s, "nspmr") on a walled-off world, bounds (0, -6)-(7, 7):
            the goal (3, 3) is sealed in a frame of 0.6 m walls over
            (1, 1)-(5, 5), and a 1x1 block runs east below a full-width
            wall at y = 0, so the run ends stuck after 6,172 ticks. Its
            static twin, the same world with the block held still, is the
            control: both trees must give both worlds one route, and the
            layer also prints each tree's median time of the moving run
            over its twin's

It prints each tree's median sample, the median of the per-pair ratios B/A
and the pairs that B wins, after checking that both trees give the same
answers on the layer's input. Run from any checkout, e.g. with a base
checkout in ../base:

    python tools/layer_ab.py --a ../base --b . --layer audit
"""

import argparse
import dataclasses
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

WORLDS = range(50)
PLANNERS = ("bug1", "bug2", "nspmr")
PAIRS = 10
PASSES = 3  # passes per sample; the fastest counts


def load_tree(root: str, name: str):
    """Import root/src/nspmr as the package `name`, with its submodules under it."""
    pkg = Path(root).resolve() / "src" / "nspmr"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def routes(nspmr, planners):
    """(scenario, trajectory) of each planner's route on each world; a refused world is skipped."""
    out = []
    for seed in WORLDS:
        s = nspmr.generate_world(seed)
        for planner in planners:
            try:
                out.append((s, nspmr.run(s, planner)[0]))
            except nspmr.ScenarioError:
                pass
    return out


def audit_layer(nspmr):
    jobs = routes(nspmr, PLANNERS)
    jobs += trap_routes(nspmr)
    office = dataclasses.replace(nspmr.builtin_scenario("office_like"), sensor_range=2.0)
    jobs.append((office, nspmr.run(office, "nspmr")[0]))
    audit = nspmr.audit_collisions
    return lambda: [audit(t, s) for s, t in jobs]


def scans(nspmr, jobs):
    """scan at every distinct waypoint of each (scenario, trajectory), in the scenario's own range."""
    sites = [(p, s) for s, t in jobs for p in dict.fromkeys(t.waypoints)]
    scan = nspmr.scan
    return lambda: [scan(p, s) for p, s in sites]


def scan_layer(nspmr):
    return scans(nspmr, routes(nspmr, ("nspmr",)))


def office_routes(nspmr):
    """(scenario, trajectory) of office_like's nspmr route at d = 2, 10 and 20."""
    office = nspmr.builtin_scenario("office_like")
    worlds = [dataclasses.replace(office, sensor_range=d) for d in (2.0, 10.0, 20.0)]
    return [(s, nspmr.run(s, "nspmr")[0]) for s in worlds]


def office_layer(nspmr):
    return scans(nspmr, office_routes(nspmr))


def visit_layer(nspmr):
    jobs = trap_routes(nspmr) + routes(nspmr, ("nspmr",)) + office_routes(nspmr)
    sites = [(s, p) for s, t in jobs for p in dict.fromkeys(t.waypoints)]
    visit = nspmr.planner._visit
    return lambda: [visit(s, p) for s, p in sites]


def nspmr_layer(nspmr):
    worlds = [nspmr.generate_world(seed) for seed in WORLDS]
    run = nspmr.run
    return lambda: [run(s, "nspmr")[0].waypoints for s in worlds]


def bug_layer(nspmr):
    worlds = [nspmr.generate_world(seed) for seed in WORLDS]
    run = nspmr.run

    def one_pass():
        out = []
        for s in worlds:
            for planner in ("bug1", "bug2"):
                try:
                    traj, result = run(s, planner)
                    out.append((traj.waypoints, traj.directions, result.outcome))
                except nspmr.ScenarioError as e:
                    out.append(str(e))
        return out

    return one_pass


def random_layer(nspmr):
    def one_pass():
        out = []
        for seed in WORLDS:
            s = nspmr.generate_world(seed)
            out.append(nspmr.grid_oracle(s, s.delta / 2))
            for planner in PLANNERS:
                try:
                    out.append(nspmr.run(s, planner)[0].waypoints)
                except nspmr.ScenarioError as e:
                    out.append(str(e))
        return out

    return one_pass


def oracle_layer(nspmr):
    worlds = [nspmr.generate_world(seed) for seed in WORLDS]
    oracle, path = nspmr.grid_oracle, nspmr.lattice._lattice_path
    return lambda: [(oracle(s, s.delta / 2), path(s, s.delta / 2, s.delta / 2)) for s in worlds]


def trap_runs(nspmr):
    """(scenario, budget, rules_enabled) of the six runs of a trap_escape pass."""
    fixtures = [nspmr.builtin_scenario(name) for name in ("concave_trap", "corridor_loop", "triangle_loop")]
    return [(s, budget, rules) for s in fixtures for budget, rules in ((nspmr.iteration_ceiling(s), True), (1000, False))]


def trap_routes(nspmr):
    """(scenario, trajectory) of the six runs of a trap_escape pass."""
    return [(s, nspmr.run(s, "nspmr", budget, rules_enabled=rules)[0]) for s, budget, rules in trap_runs(nspmr)]


def trap_layer(nspmr):
    jobs = trap_runs(nspmr)
    run = nspmr.run

    def one_pass():
        out, times, steps = [], [], 0
        for s, budget, rules in jobs:
            t0 = time.perf_counter()
            traj, result = run(s, "nspmr", budget, rules_enabled=rules)
            times.append(time.perf_counter() - t0)
            steps += result.iterations
            out.append((traj.waypoints, traj.events, traj.directions, repr(result)))
        one_pass.run_medians.append(statistics.median(times))
        one_pass.rates.append(steps / sum(times))
        return out

    one_pass.run_medians, one_pass.rates = [], []
    return one_pass


def moving_layer(nspmr):
    base = nspmr.builtin_scenario("dynamic_crossing")
    worlds = [base]
    for x, y, v in ((8.0, 9.0, 40.0), (15.0, 6.0, 20.0)):  # a 1x1 block at (x, y) moving north at v m/s
        block = nspmr.Polygon((nspmr.Point2(x, y), nspmr.Point2(x + 1, y), nspmr.Point2(x + 1, y + 1), nspmr.Point2(x, y + 1)))
        worlds.append(dataclasses.replace(base, obstacles=(nspmr.Obstacle(block, (0.0, v)),)))
    run = nspmr.run

    def one_pass():
        out = []
        for s in worlds:
            try:
                out.append(run(s, "nspmr")[0].waypoints)
            except (nspmr.SimulationError, nspmr.GeometryError) as e:
                out.append(f"{type(e).__name__}: {e}")
        return out

    return one_pass


def mover_layer(nspmr):
    def rect(x0, y0, x1, y1):
        return nspmr.Polygon((nspmr.Point2(x0, y0), nspmr.Point2(x1, y0), nspmr.Point2(x1, y1), nspmr.Point2(x0, y1)))

    walls = (rect(1, 1, 5, 1.6), rect(1, 4.4, 5, 5), rect(1, 1.6, 1.6, 4.4), rect(4.4, 1.6, 5, 4.4), rect(0, -0.6, 7, 0))
    twin = nspmr.Scenario("walled_off", nspmr.Bounds(0, -6, 7, 7), nspmr.Point2(0.7, 3.5), nspmr.Point2(3, 3), tuple(map(nspmr.Obstacle, walls)))
    moving = dataclasses.replace(twin, obstacles=twin.obstacles + (nspmr.Obstacle(rect(1, -5, 2, -4), (1.0, 0.0)),))
    run = nspmr.run
    if run(moving, "nspmr")[0].waypoints != run(twin, "nspmr")[0].waypoints:
        sys.exit("mover: the moving world and its static twin give different routes")

    def one_pass():
        out, times = [], []
        for s in (moving, twin):
            t0 = time.perf_counter()
            out.append(run(s, "nspmr")[0].waypoints)
            times.append(time.perf_counter() - t0)
        one_pass.over_twin.append(times[0] / times[1])
        return out

    one_pass.over_twin = []
    return one_pass


LAYERS = {"audit": audit_layer, "scan": scan_layer, "office": office_layer, "visit": visit_layer, "nspmr": nspmr_layer, "bug": bug_layer, "random": random_layer, "oracle": oracle_layer, "trap": trap_layer, "moving": moving_layer, "mover": mover_layer}


def sample(fn) -> float:
    """The fastest of PASSES back-to-back calls of fn, in seconds."""
    best = float("inf")
    for _ in range(PASSES):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--a", required=True, help="root of the first source tree (the parent)")
    ap.add_argument("--b", default=".", help="root of the second source tree (the change)")
    ap.add_argument("--layer", choices=sorted(LAYERS), required=True)
    args = ap.parse_args()
    a, b = load_tree(args.a, "nspmr_a"), load_tree(args.b, "nspmr_b")
    fa, fb = LAYERS[args.layer](a), LAYERS[args.layer](b)
    if fa() != fb():
        print(f"{args.layer}: the two trees give different answers", file=sys.stderr)
        return 1
    for f in (fa, fb):
        getattr(f, "run_medians", []).clear()
        getattr(f, "rates", []).clear()
        getattr(f, "over_twin", []).clear()
    pairs = []
    for k in range(PAIRS):
        if k % 2 == 0:
            ta = sample(fa)
            tb = sample(fb)
        else:
            tb = sample(fb)
            ta = sample(fa)
        pairs.append((ta, tb))
        print(f"pair {k}: a {ta * 1e3:.2f} ms  b {tb * 1e3:.2f} ms  b/a {tb / ta:.3f}", flush=True)
    med_a = statistics.median(ta for ta, _ in pairs)
    med_b = statistics.median(tb for _, tb in pairs)
    ratio = statistics.median(tb / ta for ta, tb in pairs)
    wins = sum(tb < ta for ta, tb in pairs)
    print(f"{args.layer}: a {med_a * 1e3:.2f} ms  b {med_b * 1e3:.2f} ms  median b/a {ratio:.3f}  b wins {wins}/{len(pairs)}")
    if hasattr(fa, "run_medians"):
        a_p50, b_p50 = (1e3 * statistics.median(f.run_medians) for f in (fa, fb))
        print(f"{args.layer} run_ms.p50: a {a_p50:.3f} ms  b {b_p50:.3f} ms  b/a {b_p50 / a_p50:.3f}")
        a_rate, b_rate = (statistics.median(f.rates) for f in (fa, fb))
        print(f"{args.layer} steps_per_s: a {a_rate:.0f}  b {b_rate:.0f}  b/a {b_rate / a_rate:.3f}")
    if hasattr(fa, "over_twin"):
        a_over, b_over = (statistics.median(f.over_twin) for f in (fa, fb))
        print(f"{args.layer} moving/static: a {a_over:.2f}  b {b_over:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
