"""The three workloads: what one pass runs and how its outputs are verified.

A pass is a fixed list of operations. An operation is one planner run, or
(in random_suite) one world generation plus its grid oracle. Only the
program's work inside a pass is timed, through a Meter; the checks run after.
"""

from __future__ import annotations

import dataclasses
import os
import random
import re

import checks

PLANNERS = ("nspmr", "bug1", "bug2")


@dataclasses.dataclass
class Record:
    """One operation of a pass and what it produced."""

    label: str
    scenario: object = None
    planner: str | None = None  # None for a world generation
    rules: bool = True
    max_iters: int | None = None
    expect_goal: bool = False
    oracle: float | None = None
    traj: object = None
    result: object = None
    readback: object = None
    seconds: float = 0.0
    error: str | None = None


@dataclasses.dataclass
class Group:
    """Runs drawn together in one SVG; their CSVs and the SVG go to disk together."""

    name: str
    scenario: object
    records: list
    svg: str | None = None
    error: str | None = None  # the program failed outside an operation


def _describe(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


def run_record(nspmr, rec: Record, meter) -> None:
    out, err, rec.seconds = meter.time(
        lambda: nspmr.run(rec.scenario, rec.planner, rec.max_iters, rules_enabled=rec.rules)
    )
    if err is None:
        rec.traj, rec.result = out
    else:  # a failed run is counted, never fatal to the pass
        rec.error = _describe(err)


def _file(outdir: str, label: str, ext: str) -> str:
    return os.path.join(outdir, re.sub(r"[^A-Za-z0-9_.-]+", "_", label) + ext)


def emit(nspmr, outdir: str, group: Group) -> None:
    """Write each trajectory's CSV and read it back, then the group's SVG."""
    done = [r for r in group.records if r.traj is not None]
    for r in done:
        path = _file(outdir, r.label, ".csv")
        nspmr.write_trajectory_csv(path, r.traj)
        r.readback = nspmr.read_trajectory_csv(path)
    group.svg = _file(outdir, group.name, ".svg")
    nspmr.write_svg(group.svg, group.scenario, [r.traj for r in done])


class Workload:
    name = ""
    known_failures: dict = {}  # label -> how its error message starts
    emits_in_pass = False  # whether writing outputs is part of the timed work

    def setup(self, nspmr, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, nspmr, outdir: str, meter) -> list[Group]:
        raise NotImplementedError

    def verify(self, nspmr, groups: list[Group], outdir: str, reference: dict | None) -> tuple[list[str], dict]:
        """Run every check on a finished pass; returns (problems, digests).
        With no reference, CSV digests are collected but not compared."""
        problems, digests = [], {}
        for g in groups:
            if g.error is None and g.scenario is not None and not self.emits_in_pass:
                try:
                    emit(nspmr, outdir, g)
                except Exception as e:  # reported like any other wrong output
                    g.error = _describe(e)
            if g.error is not None:
                problems.append(f"{g.name}: failure: {g.error}")
                continue
            if g.scenario is not None:
                done = [r for r in g.records if r.traj is not None]
                problems += [f"{g.name}: {p}" for p in checks.svg_counts(g.svg, len(done), len(g.scenario.obstacles))]
            for r in g.records:
                if r.error is not None:
                    expected = self.known_failures.get(r.label)
                    if expected is None or not r.error.startswith(expected):
                        problems.append(f"{r.label}: failure: {r.error}")
                    continue
                if r.planner is None:
                    continue
                if r.oracle is None and checks.is_static(r.scenario):
                    r.oracle = self.reference_oracle(nspmr, r)
                found = checks.check_run(r.scenario, r.traj, r.result, r.planner, r.rules, r.oracle, r.expect_goal)
                path = _file(outdir, r.label, ".csv")
                with open(path, "rb") as fh:
                    first = fh.read()
                again = _file(outdir, r.label + ".again", ".csv")
                nspmr.write_trajectory_csv(again, r.readback)
                with open(again, "rb") as fh:
                    second = fh.read()
                found += checks.readback(r.traj, r.readback, first, second)
                d = digests[r.label] = checks.digest(first)
                if reference is not None:
                    want = reference.get(r.label)
                    if want is None:
                        found.append("digest: no reference digest; regenerate with --write-digests")
                    elif want != d:
                        found.append(f"digest: CSV digest {d} differs from the reference {want}")
                problems += [f"{r.label}: {p}" for p in found]
        return problems, digests

    def reference_oracle(self, nspmr, rec: Record):
        return rec.oracle


class RandomSuite(Workload):
    """Seeded generated worlds, each with its oracle and all three planners,
    as ``nspmr bench --suite random`` runs them."""

    name = "random_suite"
    WORLDS = 50
    # Digests are kept for world seeds 0..POOL-1, so every --seed maps there.
    POOL = 500

    def setup(self, nspmr, seed):
        self.world_seeds = [(seed * self.WORLDS + i) % self.POOL for i in range(self.WORLDS)]

    def run_pass(self, nspmr, outdir, meter):
        groups = []
        for ws in self.world_seeds:
            gen = Record(label=f"random-{ws}/generate")

            def make(ws=ws):
                s = nspmr.generate_world(ws)
                return s, nspmr.grid_oracle(s, s.delta / 2)

            out, err, gen.seconds = meter.time(make)
            s, oracle = out if err is None else (None, None)
            if err is not None:  # counted like a failed run
                gen.error = _describe(err)
            recs = [gen]
            for planner in PLANNERS:
                rec = Record(label=f"random-{ws}/{planner}", scenario=s, planner=planner, oracle=oracle)
                if s is None:
                    rec.error = "world generation failed"
                else:
                    run_record(nspmr, rec, meter)
                recs.append(rec)
            groups.append(Group(f"random-{ws}", s, recs))
        return groups


class TrapEscape(Workload):
    """The three trap fixtures under nspmr, with the rules at the termination
    ceiling and as a rules-off control at a fixed budget."""

    name = "trap_escape"
    FIXTURES = ("concave_trap", "corridor_loop", "triangle_loop")
    CONTROL_BUDGET = 1000

    def setup(self, nspmr, seed):
        self.fixtures = [(name, nspmr.builtin_scenario(name)) for name in self.FIXTURES]
        # the fixtures are the paper's; the seed only orders them
        random.Random(seed).shuffle(self.fixtures)
        self.oracles = {}

    def run_pass(self, nspmr, outdir, meter):
        groups = []
        for name, s in self.fixtures:
            recs = [
                Record(f"{name}/nspmr", s, "nspmr", True, nspmr.iteration_ceiling(s), expect_goal=True),
                Record(f"{name}/nspmr-rules-off", s, "nspmr", False, self.CONTROL_BUDGET),
            ]
            for rec in recs:
                run_record(nspmr, rec, meter)
            groups.append(Group(name, s, recs))
        return groups

    def reference_oracle(self, nspmr, rec):
        # the checks need an oracle, which this workload does not time
        key = rec.scenario.name
        if key not in self.oracles:
            self.oracles[key] = nspmr.grid_oracle(rec.scenario, rec.scenario.delta / 2)
        return self.oracles[key]


class PaperSuite(Workload):
    """Every builtin under every planner that accepts it, the office sweep,
    and two fast movers that crash the run loop; outputs written and read."""

    name = "paper_suite"
    emits_in_pass = True
    BUILTINS = ("concave_trap", "corridor_loop", "dynamic_crossing", "office_like", "scenario1", "triangle_loop")
    # Bug planners refuse moving worlds, obstacles closer than twice their
    # clearance (office walls touch) and edges shorter than it (triangle_loop).
    NSPMR_ONLY = frozenset({"dynamic_crossing", "office_like", "triangle_loop"})
    SWEEP = (2.0, 10.0, 20.0)
    # dynamic_crossing with its mover swapped for a fast 1x1 block: the run
    # loop raises instead of ending in an outcome, with exactly these errors
    FAST_MOVERS = (("fast_mover_40", (8.0, 9.0), 40.0), ("fast_mover_20", (15.0, 6.0), 20.0))
    known_failures = {
        "fast_mover_40/nspmr": "SimulationError: collision audit failed: waypoint 36 inside obstacle 0",
        "fast_mover_20/nspmr": "GeometryError: ray origin strictly inside an obstacle",
    }

    def setup(self, nspmr, seed):
        specs = []
        for name in self.BUILTINS:
            s = nspmr.builtin_scenario(name)
            planners = ("nspmr",) if name in self.NSPMR_ONLY else PLANNERS
            if name == "office_like":  # only the swept ranges, as ``--ranges 2,10,20``
                runs = [(f"{name}[d={d:g}]/nspmr", dataclasses.replace(s, sensor_range=d), "nspmr") for d in self.SWEEP]
            else:
                runs = [(f"{name}/{p}", s, p) for p in planners]
            specs.append((name, s, runs))
        base = nspmr.builtin_scenario("dynamic_crossing")
        for name, (x, y), v in self.FAST_MOVERS:
            block = nspmr.Polygon(
                (nspmr.Point2(x, y), nspmr.Point2(x + 1, y), nspmr.Point2(x + 1, y + 1), nspmr.Point2(x, y + 1))
            )
            s = dataclasses.replace(base, name=name, obstacles=(nspmr.Obstacle(block, (0.0, v)),))
            specs.append((name, s, [(f"{name}/nspmr", s, "nspmr")]))
        random.Random(seed).shuffle(specs)
        self.specs = specs

    def run_pass(self, nspmr, outdir, meter):
        groups = []
        for name, s, runs in self.specs:
            oracle = err = None
            # as the bench command: one oracle per static world, none for moving ones
            if not s.is_dynamic:
                oracle, err, _ = meter.time(nspmr.grid_oracle, s, s.delta / 2)
            recs = [Record(label, sc, planner, oracle=oracle) for label, sc, planner in runs]
            for rec in recs:
                run_record(nspmr, rec, meter)
            group = Group(name, s, recs)
            _, err2, _ = meter.time(emit, nspmr, outdir, group)
            if err or err2:
                group.error = _describe(err or err2)
            groups.append(group)
        return groups


WORKLOADS = {w.name: w for w in (RandomSuite, TrapEscape, PaperSuite)}
