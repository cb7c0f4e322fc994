"""Command line behavior: exit codes, summary line, bench suites, gen files.

Every test drives cli.main(argv) in process, so a run is fixed by its argv.
"""

import csv
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nspmr import cli
from nspmr.geometry import Point2, Polygon
from nspmr.sim import grid_oracle
from nspmr.world import Bounds, Obstacle, Scenario, ScenarioError, builtin_scenario, parse_scenario, serialize_scenario, validate_scenario

from test_lattice import quick_and_small


def run_main(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def read_report(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


# --- run --------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run_as_written(tmp_path, monkeypatch, capsys):
    # each fenced block of README.md as (info string, body); the run example's output is the block after it
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.M | re.S)
    k = next(i for i, (_, body) in enumerate(blocks) if body.startswith("nspmr run --scenario builtin:scenario1 "))
    argv = shlex.split(blocks[k][1])
    assert argv[0] == "nspmr"
    monkeypatch.chdir(tmp_path)  # both examples write route.svg to the working directory
    rc, out, _ = run_main(argv[1:], capsys)
    assert (rc, out, blocks[k + 1][1]) == (0, "goal_reached 38.767 3.877 124\n", out)
    assert (tmp_path / "route.svg").read_text().startswith("<svg ")
    (tmp_path / "route.svg").unlink()
    exec(next(body for info, body in blocks if info == "python"), {})
    assert capsys.readouterr().out.split()[0] == "goal_reached"
    assert (tmp_path / "route.svg").read_text().startswith("<svg ")
    # the bench and gen examples, one command a line, each exits 0; gen's world.json is valid
    lines = next(body for _, body in blocks if body.startswith("nspmr bench ")).splitlines()
    assert any("--seed " in line for line in lines if line.startswith("nspmr bench --suite random "))
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "nspmr" and argv[1] in ("bench", "gen"), line
        assert run_main(argv[1:], capsys)[0] == 0, line
    assert validate_scenario(parse_scenario((tmp_path / "world.json").read_text())) == []


def test_run_summary_line(capsys):
    rc, out, _ = run_main(["run", "--scenario", "builtin:scenario1", "--planner", "nspmr"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 1
    outcome, length, time_s, iters = lines[0].split()
    assert outcome == "goal_reached"
    assert 34.4 <= float(length) <= 46.6
    assert float(time_s) == pytest.approx(float(length) / 10.0, abs=1e-3)
    assert int(iters) > 0


def test_run_writes_artifacts(tmp_path, capsys):
    out_csv = tmp_path / "t.csv"
    out_svg = tmp_path / "t.svg"
    rc, _, _ = run_main(
        ["run", "--scenario", "builtin:scenario1", "--planner", "bug2",
         "--out-csv", str(out_csv), "--out-svg", str(out_svg)],
        capsys,
    )
    assert rc == 0
    assert out_csv.read_text().startswith("iter,t_s,x_m,y_m,event,dir_deg\n")
    svg = out_svg.read_text()
    assert svg.count("<polyline") == 1
    assert svg.count("<polygon") == 3


def test_run_iteration_limit_exits_2(capsys):
    rc, out, _ = run_main(
        ["run", "--scenario", "builtin:scenario1", "--planner", "nspmr", "--max-iters", "5"],
        capsys,
    )
    assert rc == 2
    assert out.split()[0] == "iteration_limit"


def test_run_unreachable_exits_2(tmp_path, capsys):
    # goal tucked inside the mitered corner of the block's offset outline,
    # beyond the clearance: bug1 surveys and gives up
    # Known defect (CHANGES.md FOUND, Bug goal vs mitered outline): nspmr reaches
    # this goal; once _prepare checks the goal against the outline, move this test
    # to a world whose goal Bug's free space seals off for another reason.
    s = Scenario(
        name="skin_goal",
        bounds=Bounds(-5, -5, 10, 10),
        start=Point2(-3, 0.5),
        goal=Point2(2.11, 1.09),
        obstacles=(Obstacle(Polygon((Point2(0, 0), Point2(2, 0), Point2(2, 1), Point2(0, 1)))),),
    )
    path = tmp_path / "skin.json"
    path.write_text(serialize_scenario(s))
    rc, out, _ = run_main(["run", "--scenario", str(path), "--planner", "bug1"], capsys)
    assert rc == 2
    assert out.split()[0] == "unreachable"


def test_run_usage_and_validation_errors_exit_1(tmp_path, capsys):
    cases = [
        ["run", "--planner", "nspmr"],  # missing --scenario
        ["run", "--scenario", "builtin:scenario1", "--planner", "astar"],
        ["run", "--scenario", "builtin:nope", "--planner", "nspmr"],
        ["run", "--scenario", str(tmp_path / "absent.json"), "--planner", "nspmr"],
        ["run", "--scenario", "builtin:scenario1", "--planner", "nspmr", "--delta", "-1"],
        ["run", "--scenario", "builtin:scenario1", "--planner", "nspmr", "--max-iters", "0"],
        ["nonsense"],
        [],
    ]
    for argv in cases:
        rc, _, err = run_main(argv, capsys)
        assert rc == 1, argv
        assert err, argv


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("flag, field", [("--delta", "delta"), ("--sensor-range", "sensor_range")])
def test_run_non_finite_override_exits_1(flag, field, value, capsys):
    # in process, so any exception other than the ones main reports would fail the test
    rc, out, err = run_main(["run", "--scenario", "builtin:scenario1", "--planner", "nspmr", f"{flag}={value}"], capsys)
    assert (rc, out) == (1, "")
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")
    assert f"{field} must be finite and " in err


@pytest.mark.parametrize("edit, field", [
    (lambda raw: raw.update(delta=10 ** 400), "delta"),  # a 401-digit integer overflows float()
    (lambda raw: raw["obstacles"][0]["vertices"][1].__setitem__(0, float("nan")), "obstacles[0].vertices[1]"),
    (lambda raw: raw["obstacles"][0]["vertices"][2].__setitem__(1, float("inf")), "obstacles[0].vertices[2]"),
], ids=["huge_delta", "nan_vertex", "infinite_vertex"])
def test_run_scenario_file_with_unrepresentable_number_exits_1(edit, field, tmp_path, capsys):
    raw = json.loads(serialize_scenario(builtin_scenario("scenario1")))
    edit(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))  # writes NaN and Infinity, which parse_scenario's json reads back
    rc, out, err = run_main(["run", "--scenario", str(path), "--planner", "nspmr"], capsys)
    assert rc == 1
    assert out == ""
    assert err.splitlines() == [err.strip()] and err.startswith(f"error: {field}: ")


def test_run_scenario_file_with_integer_beyond_the_digit_limit_exits_1(tmp_path, capsys):
    # 5,000 digits: past the 4,300 that Python 3.11's int() converts, so json.loads
    # itself would raise a plain ValueError without parse_scenario's int hook
    raw = json.loads(serialize_scenario(builtin_scenario("scenario1")))
    raw["delta"] = "DIGITS"
    text = json.dumps(raw).replace('"DIGITS"', "9" * 5000)
    with pytest.raises(ScenarioError, match="^delta: number too large$"):
        parse_scenario(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc, out, err = run_main(["run", "--scenario", str(path), "--planner", "nspmr"], capsys)
    assert rc == 1
    assert out == ""
    assert err.splitlines() == ["error: delta: number too large"]


# scenarios whose delta/2 lattice has a node count that is not a finite float, or over lattice.MAX_LATTICE_NODES
UNCOUNTABLE = {
    "delta_1e-310": lambda raw: raw.update(delta=1e-310),  # extent / (delta/2) overflows
    "delta_5e-324": lambda raw: raw.update(delta=5e-324),  # delta/2 underflows to 0
    "bounds_2e308_wide": lambda raw: raw["bounds"].update(xmin=-1e308, xmax=1e308),  # the extent overflows
    # countable, but once a default budget of 2.7e29 iterations and a Bug march of 7e13 steps
    "delta_1e-12": lambda raw: raw.update(delta=1e-12),
    "delta_1e-300": lambda raw: raw.update(delta=1e-300),
}
UNCOUNTABLE_MESSAGE = "bounds hold too many delta/2 lattice nodes to count"


@pytest.mark.parametrize("planner", ["nspmr", "bug1", "bug2"])
@pytest.mark.parametrize("case", sorted(UNCOUNTABLE))
def test_run_scenario_file_with_uncountable_lattice_exits_1(case, planner, tmp_path, capsys):
    raw = json.loads(serialize_scenario(builtin_scenario("scenario1")))
    UNCOUNTABLE[case](raw)
    text = json.dumps(raw)
    with pytest.raises(ScenarioError, match=f"^{UNCOUNTABLE_MESSAGE}$"):
        parse_scenario(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    with quick_and_small():
        rc, out, err = run_main(["run", "--scenario", str(path), "--planner", planner], capsys)
    assert (rc, out, err.splitlines()) == (1, "", [f"error: {UNCOUNTABLE_MESSAGE}"])


def test_run_scenario_file_nested_too_deeply_exits_1(tmp_path):
    # a separate process, so a RecursionError escaping main would show as a traceback on stderr
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    proc = subprocess.run([sys.executable, "-m", "nspmr.cli", "run", "--scenario", str(path), "--planner", "nspmr"],
                          capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr.splitlines()) == (1, "", ["error: invalid JSON: nested too deeply"])


@pytest.mark.parametrize("delta", ["1e-310", "5e-324", "1e-12", "1e-300"])
def test_run_delta_override_with_uncountable_lattice_exits_1(delta, capsys):
    with quick_and_small():
        rc, out, err = run_main(["run", "--scenario", "builtin:scenario1", "--planner", "nspmr", "--delta", delta], capsys)
    assert (rc, out, err.splitlines()) == (1, "", [f"error: {UNCOUNTABLE_MESSAGE}"])


def test_run_sensor_range_override_changes_path(capsys):
    rc, out_far, _ = run_main(
        ["run", "--scenario", "builtin:office_like", "--planner", "nspmr"], capsys)
    assert rc == 0
    rc, out_near, _ = run_main(
        ["run", "--scenario", "builtin:office_like", "--planner", "nspmr", "--sensor-range", "2"],
        capsys,
    )
    assert rc == 0
    assert float(out_near.split()[1]) > float(out_far.split()[1])


def test_run_random_scenario_seeding(tmp_path, capsys):
    args = ["run", "--scenario", "random", "--planner", "nspmr"]
    rc, first_out, _ = run_main(args + ["--seed", "7", "--out-csv", str(tmp_path / "a.csv")], capsys)
    assert rc == 0
    rc, again_out, _ = run_main(args + ["--seed", "7", "--out-csv", str(tmp_path / "b.csv")], capsys)
    assert rc == 0
    assert first_out == again_out
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    rc, other_out, _ = run_main(args + ["--seed", "8", "--out-csv", str(tmp_path / "c.csv")], capsys)
    assert rc == 0
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


# --- bench ------------------------------------------------------------------------

def test_bench_paper_suite(tmp_path, capsys):
    report = tmp_path / "report.csv"
    rc, out, err = run_main(["bench", "--suite", "paper", "--out", str(report)], capsys)
    assert rc == 0
    table = out.splitlines()
    assert table[0].split() == list("scenario planner outcome length_m time_s iters oracle_m ratio".split())

    rows = read_report(report)
    assert len(rows) == len(table) - 1
    keys = [(r["scenario"], r["planner"]) for r in rows]
    assert keys == sorted(keys)
    by_scenario = {}
    for r in rows:
        by_scenario.setdefault(r["scenario"], set()).add(r["planner"])
    assert by_scenario["scenario1"] == {"nspmr", "bug1", "bug2"}
    assert by_scenario["concave_trap"] == {"nspmr", "bug1", "bug2"}
    # combinations the wall followers reject are skipped, loudly
    assert by_scenario["dynamic_crossing"] == {"nspmr"}
    assert by_scenario["triangle_loop"] == {"nspmr"}
    assert "skipping" in err
    for r in rows:
        assert r["outcome"] == "goal_reached"
        if r["scenario"] == "dynamic_crossing":
            assert r["oracle_m"] == "" and r["ratio"] == ""
        else:
            assert float(r["ratio"]) == pytest.approx(
                float(r["length_m"]) / float(r["oracle_m"]), rel=1e-6)


def test_bench_sensor_range_sweep_office_trend(tmp_path, capsys):
    report = tmp_path / "sweep.csv"
    rc, _, _ = run_main(
        ["bench", "--suite", "paper", "--planners", "nspmr", "--ranges", "2,10,20",
         "--out", str(report)],
        capsys,
    )
    assert rc == 0
    lengths = {}
    for r in read_report(report):
        if r["scenario"].startswith("office_like[d="):
            d = float(r["scenario"].split("d=")[1].rstrip("]"))
            lengths[d] = float(r["length_m"])
    assert set(lengths) == {2.0, 10.0, 20.0}
    assert lengths[2.0] >= lengths[10.0] >= lengths[20.0]


def test_bench_random_suite_deterministic(tmp_path, capsys):
    argv = ["bench", "--suite", "random", "--seeds", "2", "--planners", "nspmr"]
    rc, out_a, _ = run_main(argv + ["--out", str(tmp_path / "a.csv")], capsys)
    assert rc == 0
    rc, out_b, _ = run_main(argv + ["--out", str(tmp_path / "b.csv")], capsys)
    assert rc == 0
    assert out_a == out_b
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    rows = read_report(tmp_path / "a.csv")
    assert [r["scenario"] for r in rows] == ["random-0", "random-1"]


def test_bench_random_suite_starts_at_seed(capsys):
    # worlds --seed to --seed + --seeds - 1, each row as run reports that world
    rc, out, _ = run_main(["bench", "--suite", "random", "--seed", "5", "--seeds", "2", "--planners", "nspmr"], capsys)
    assert rc == 0
    table = [line.split() for line in out.splitlines()[1:]]
    assert [row[0] for row in table] == ["random-5", "random-6"]
    for seed, row in zip((5, 6), table):
        rc, run_out, _ = run_main(["run", "--scenario", "random", "--seed", str(seed), "--planner", "nspmr"], capsys)
        assert rc == 0
        assert row[1:6] == ["nspmr"] + run_out.split()


def test_bench_guards_exit_1(capsys):
    cases = [
        ["bench", "--suite", "random", "--seeds", "0"],
        ["bench", "--suite", "random", "--seed=-3", "--seeds", "1"],  # else a world named random--3
        ["bench", "--planners", " , "],
        ["bench", "--planners", "nspmr,warp"],
        ["bench", "--ranges", "0"],
        ["bench", "--ranges", "two"],
        ["bench", "--ranges", "nan"],
        ["bench", "--ranges", "inf"],
        ["bench", "--suite", "exam"],
    ]
    for argv in cases:
        rc, _, err = run_main(argv, capsys)
        assert rc == 1, argv
        # argparse checks every one of these flags: usage, then the message
        assert err.startswith("usage: nspmr bench ") and "nspmr bench: error: argument --" in err, argv


# --- gen --------------------------------------------------------------------------

def test_gen_empty_world(tmp_path, capsys):
    out = tmp_path / "w0.json"
    rc, _, _ = run_main(["gen", "--seed", "1", "--count", "0", "--out", str(out)], capsys)
    assert rc == 0
    s = parse_scenario(out.read_text())
    assert s.obstacles == ()
    assert validate_scenario(s) == []


def test_gen_deterministic_and_solvable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc, _, _ = run_main(["gen", "--seed", "3", "--count", "8", "--out", str(path)], capsys)
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    s = parse_scenario(a.read_text())
    assert len(s.obstacles) == 8
    assert validate_scenario(s) == []
    assert grid_oracle(s, s.delta / 2) is not None


def test_gen_seed_default(tmp_path, capsys):
    # without --seed, gen writes world 0
    flag = tmp_path / "flag.json"
    rc, _, _ = run_main(["gen", "--seed", "0", "--out", str(flag)], capsys)
    assert rc == 0
    default = tmp_path / "default.json"
    rc, _, _ = run_main(["gen", "--out", str(default)], capsys)
    assert rc == 0
    assert flag.read_bytes() == default.read_bytes()
    assert parse_scenario(default.read_text()).name == "random-0"
    for seed, count in (("3", "8"), ("1", "0")):
        other = tmp_path / f"seed{seed}.json"
        rc, _, _ = run_main(["gen", "--seed", seed, "--count", count, "--out", str(other)], capsys)
        assert rc == 0
        assert other.read_bytes() != default.read_bytes()


def test_gen_negative_count_exits_1(tmp_path, capsys):
    rc, _, err = run_main(["gen", "--seed", "1", "--count", "-2", "--out", str(tmp_path / "w.json")], capsys)
    assert rc == 1
    assert "count" in err


# --- process-level entry point ----------------------------------------------------

def test_module_invocation_round_trip(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nspmr.cli", "run",
         "--scenario", "builtin:scenario1", "--planner", "nspmr"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.split()[0] == "goal_reached"


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
