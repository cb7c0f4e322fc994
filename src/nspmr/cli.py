"""Command line front end: run one planner, benchmark suites, generate worlds.

Exit codes: 0 when the run reached the goal, 2 when the planner finished
without reaching it (stuck, iteration limit, unreachable), 1 for usage or
validation errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from . import output
from .sim import PLANNERS, SimulationError, grid_oracle, run
from .world import (
    BUILTIN_NAMES,
    OUTCOME_GOAL,
    Scenario,
    ScenarioError,
    builtin_scenario,
    generate_world,
    parse_scenario,
    serialize_scenario,
)


def _load_scenario(spec: str, args) -> Scenario:
    if spec.startswith("builtin:"):
        return builtin_scenario(spec[len("builtin:"):])
    if spec == "random":
        return generate_world(args.seed)
    try:
        with open(spec) as fh:
            text = fh.read()
    except OSError as e:
        raise ValueError(f"cannot read scenario file {spec!r}: {e}") from None
    return parse_scenario(text)


def _apply_overrides(s: Scenario, args) -> Scenario:
    fields = {}
    if args.delta is not None:
        fields["delta"] = args.delta
    if args.sensor_range is not None:
        fields["sensor_range"] = args.sensor_range
    return replace(s, **fields) if fields else s


def cmd_run(args) -> int:
    s = _apply_overrides(_load_scenario(args.scenario, args), args)
    trajectory, result = run(s, args.planner, args.max_iters)
    if args.out_csv:
        output.write_trajectory_csv(args.out_csv, trajectory)
    if args.out_svg:
        output.write_svg(args.out_svg, s, [trajectory])
    print(f"{result.outcome} {result.length:.3f} {result.travel_time:.3f} {result.iterations}")
    return 0 if result.outcome == OUTCOME_GOAL else 2


def cmd_bench(args) -> int:
    if args.suite == "paper":
        worlds = [builtin_scenario(name) for name in BUILTIN_NAMES]
    else:
        worlds = [generate_world(args.seed + i) for i in range(args.seeds)]
    rows = []
    for s in worlds:
        # the lattice oracle reads a static snapshot, so moving worlds get none
        oracle = None if s.is_dynamic else grid_oracle(s, s.delta / 2)
        for d in args.ranges:
            sc = s if d is None else replace(s, sensor_range=d)
            label = s.name if d is None else f"{s.name}[d={d:g}]"
            for planner in args.planners:
                try:
                    _, result = run(sc, planner)
                except ScenarioError as e:
                    print(f"note: skipping {label}/{planner}: {e}", file=sys.stderr)
                    continue
                rows.append(output.bench_row(label, planner, result, oracle))
    # single collector: every artifact is written after all runs finished
    rows = output.make_report(rows)
    sys.stdout.write(output.format_report_table(rows))
    if args.out:
        output.write_report_csv(args.out, rows)
    return 0


def cmd_gen(args) -> int:
    s = generate_world(args.seed, args.count)
    with open(args.out, "w") as fh:
        fh.write(serialize_scenario(s))
    print(f"wrote {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to status 2, which this tool reserves for
        # runs that finished short of the goal
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _planner(name: str) -> str:
    if name not in PLANNERS:
        raise ValueError(f"unknown planner {name!r}; expected one of {PLANNERS}")
    return name


def _sensor_range(part: str) -> float:
    d = float(part)
    if not (math.isfinite(d) and d > 0):
        raise ValueError(f"sensor range must be finite and positive, got {part}")
    return d


def _listed(item):
    """An argparse type: a non-empty comma separated list, each entry checked and converted by item."""
    def parse(raw: str) -> list:
        try:
            out = [item(part.strip()) for part in raw.split(",") if part.strip()]
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        if not out:
            raise argparse.ArgumentTypeError("the list is empty")
        return out
    return parse


def _at_least(least: int):
    """An argparse type: an integer of least or more."""
    def parse(raw: str) -> int:
        if int(raw) < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {raw}")
        return int(raw)
    parse.__name__ = "int"  # argparse names a type by it: "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nspmr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_at_least(0), default=0, help="seed of the (first) generated world, >= 0; default 0")

    p_run = sub.add_parser("run", parents=[seeded], help="run one planner on one scenario")
    p_run.add_argument("--scenario", required=True,
                       help="scenario JSON path, builtin:NAME, or 'random'")
    p_run.add_argument("--planner", required=True, choices=PLANNERS)
    p_run.add_argument("--sensor-range", type=float, default=None, metavar="D")
    p_run.add_argument("--delta", type=float, default=None)
    p_run.add_argument("--max-iters", type=int, default=None)
    p_run.add_argument("--out-csv", default=None, metavar="PATH")
    p_run.add_argument("--out-svg", default=None, metavar="PATH")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", parents=[seeded], help="run a scenario suite and tabulate results")
    p_bench.add_argument("--suite", choices=("paper", "random"), default="paper")
    p_bench.add_argument("--seeds", type=_at_least(1), default=5,
                         help="number of generated worlds for the random suite")
    p_bench.add_argument("--planners", type=_listed(_planner), default=",".join(PLANNERS),
                         help="comma separated planner list")
    p_bench.add_argument("--ranges", type=_listed(_sensor_range), default=[None],
                         help="comma separated sensor ranges to sweep")
    p_bench.add_argument("--out", default=None, metavar="PATH", help="write report CSV here")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", parents=[seeded], help="generate a random solvable world file")
    p_gen.add_argument("--count", type=int, default=8, help="obstacle count")
    p_gen.add_argument("--out", required=True, metavar="PATH")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return 0 if e.code is None else int(e.code)
    except (SimulationError, ValueError) as e:  # ScenarioError and GeometryError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
