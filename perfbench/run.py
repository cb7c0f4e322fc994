"""Benchmark harness for nspmr.

    python3 perfbench/run.py --workload random_suite --seed 0 --seconds 30 --trace 0

runs whole passes of one workload for the given number of seconds, checks
every output, and prints one JSON object as the last line of stdout:
end-to-end metrics with ``--trace 0``, per-layer metrics from a traced run
with ``--trace 1``. The program is imported from ``src/`` of the checkout
that holds this directory; nothing is installed.

    python3 perfbench/run.py --write-digests   # re-record the reference CSV digests
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import selftest
from meter import Meter
from tracer import Tracer
from workloads import WORKLOADS, RandomSuite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 9


def load_program():
    """Import nspmr afresh from the checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "nspmr" or m.startswith("nspmr.")]:
        del sys.modules[name]
    nspmr = importlib.import_module("nspmr")
    if Path(nspmr.__file__).resolve().parent != ROOT / "src" / "nspmr":
        raise ImportError(f"nspmr was imported from {nspmr.__file__}, not from this checkout")
    return nspmr


def declared_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


COUNTED = ("geometry.ray_cast", "geometry.point_in_polygon", "sensing.scan", "planner.nspmr_step",
           "sim.grid_oracle", "world.generate_world", "world.step_dynamics")
TIMED = ("geometry.ray_cast", "sensing.scan", "planner.nspmr_step", "sim.run", "sim.audit_collisions",
         "sim.grid_oracle", "world.generate_world", "world.step_dynamics", "world.validate_scenario",
         "bugs.bug1_result", "bugs.bug2_result", "output.write_trajectory_csv",
         "output.read_trajectory_csv", "output.render_svg")


def layer_metrics(tracer, groups, scale: float) -> dict:
    """Per-layer figures of one traced pass; self times are scaled like the
    pass's wall time."""
    out = {f"{name}.calls": tracer.calls(name) for name in COUNTED}
    out.update({f"{name}.self_s": tracer.self_s(name) * scale for name in TIMED})
    out["sensing.scan.unique_ratio"] = len(tracer.scan_keys) / tracer.scans if tracer.scans else 1.0
    out["planner.backtracks"] = sum(
        r.result.backtrack_count for g in groups for r in g.records if r.planner == "nspmr" and r.result
    )
    return out


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory for written outputs inside the checkout, removed after."""
    parent = ROOT / ".perfbench_out"
    parent.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix + "-", dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()  # only when no other run is using it


def bench(args) -> int:
    e2e_units, layer_units = declared_units()
    workload = WORKLOADS[args.workload]()
    with scratch_dir(workload.name) as outdir:
        return measure(args, workload, outdir, e2e_units, layer_units)


def measure(args, workload, outdir, e2e_units, layer_units) -> int:
    problems = dict.fromkeys(selftest.run(load_program(), outdir))  # an ordered set

    def set_up():
        nspmr = load_program()
        workload.setup(nspmr, args.seed)
        return nspmr

    setups = []
    meter = Meter()
    for _ in range(SETUP_REPEATS):
        nspmr, err, seconds = meter.time(set_up)
        if err is not None:
            raise err
        setups.append(seconds)

    reference = json.loads(DIGESTS.read_text()).get(workload.name, {})
    tracer = Tracer() if args.trace else None
    walls, traced_walls, layers, raw_walls = [], [], [], []
    run_medians, rates, routes = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # with tracing, passes alternate untraced and traced, which gives the overhead
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.reset()
            tracer.install()
        meter = Meter()
        groups = workload.run_pass(nspmr, outdir, meter)
        if traced:
            tracer.uninstall()
            traced_walls.append(meter.scaled)
            layers.append(layer_metrics(tracer, groups, meter.scaled / meter.raw))
        else:
            walls.append(meter.scaled)
            raw_walls.append(meter.raw)
        found, _ = workload.verify(nspmr, groups, outdir, reference)
        problems.update(dict.fromkeys(found))
        records = [r for g in groups for r in g.records]
        attempted += len(records)
        failed += sum(r.error is not None for r in records)
        done = [r for r in records if r.planner and r.error is None]
        # a pass's median run, so that the gap between two operations' times
        # at the middle of the pooled runs does not decide the figure
        run_medians.append(statistics.median(r.seconds for r in done))
        rates.append(sum(r.result.iterations for r in done) / sum(r.seconds for r in done))
        routes.append(sum(r.result.length for r in done if r.result.outcome == "goal_reached"))
        del groups, records, done  # one pass's outputs in memory at a time
        if time.perf_counter() - start >= args.seconds and (tracer is None or traced_walls):
            break

    if len(set(routes)) != 1:
        problems[f"route: summed route length changed between passes: {routes}"] = None
    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "run_ms.p50": 1000 * statistics.median(run_medians),
            "steps_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "route_m": routes[0],
        }
        units = e2e_units
    else:
        values = {name: statistics.median_low(pass_[name] for pass_ in layers) for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = layer_units
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    for p in list(problems)[:20]:
        print("problem:", p, file=sys.stderr)
    passes = len(walls) + len(traced_walls)
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {passes} passes, "
          f"{attempted} operations, {failed} failed, {len(problems)} problems; "
          f"unscaled host wall_s {statistics.median(raw_walls):.4g}")
    for name, v in values.items():
        print(f"  {name:38s} {v:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def write_digests() -> int:
    """Record the CSV digest of every operation any --seed can run."""
    nspmr = load_program()
    digests, problems = {}, []
    with scratch_dir("digests") as outdir:
        for cls in WORKLOADS.values():
            workload = cls()
            workload.setup(nspmr, 0)
            if isinstance(workload, RandomSuite):
                workload.world_seeds = list(range(workload.POOL))
            found, d = workload.verify(nspmr, workload.run_pass(nspmr, outdir, Meter()), outdir, None)
            problems += found
            digests[workload.name] = dict(sorted(d.items()))
            print(f"{workload.name}: {len(d)} digests", file=sys.stderr)
    if problems:
        for p in problems[:20]:
            print("problem:", p, file=sys.stderr)
        print("error: outputs fail their checks; digests not written", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {DIGESTS}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nspmr" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_digests:
        return write_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
