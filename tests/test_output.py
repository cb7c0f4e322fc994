"""Artifact emitters: CSV round-trips, SVG structure, report tables.

The CSV checks pin the nine-fixed-decimal format: a reread file must equal
the written values exactly, which is what makes run artifacts diffable.
"""

import csv
import io
import re

import pytest

from nspmr import output
from nspmr.geometry import Point2
from nspmr.sim import RunResult, run
from nspmr.world import Trajectory, builtin_scenario

NINE_DEC = re.compile(r"-?\d+\.\d{9}$")


def scenario1_run(planner="nspmr"):
    s = builtin_scenario("scenario1")
    trajectory, result = run(s, planner)
    assert result.outcome == "goal_reached"
    return s, trajectory


def rounded(x):
    return float(f"{x:.9f}")


# --- trajectory CSV ---------------------------------------------------------------

def test_csv_header_and_fixed_decimals(tmp_path):
    _, t = scenario1_run()
    path = tmp_path / "t.csv"
    output.write_trajectory_csv(path, t)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,t_s,x_m,y_m,event,dir_deg"
    assert len(lines) == 1 + len(t.waypoints)
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert len(fields) == 6
        assert fields[0] == str(i)
        for numeric in fields[1:4]:
            assert NINE_DEC.match(numeric), numeric
        if i == 0:
            assert fields[4] == "start"
            assert fields[5] == ""
        else:
            assert fields[4] in ("moved", "backtracked")
            assert NINE_DEC.match(fields[5])


def _csv_writer_text(t):
    """The text csv.writer writes for t, row by row: the reference for write_trajectory_csv's bytes."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(output.CSV_HEADER)
    for i, (p, ts) in enumerate(zip(t.waypoints, t.timestamps)):
        event, d = ("start", None) if i == 0 else (t.events[i - 1], t.directions[i - 1])
        w.writerow((str(i), f"{ts:.9f}", f"{p.x:.9f}", f"{p.y:.9f}", event, "" if d is None else f"{d:.9f}"))
    return buf.getvalue()


def test_csv_bytes_equal_csv_writer(tmp_path):
    # retreats, Bug headings, int and negative-zero coordinates, and a step with no heading
    trajs = [run(builtin_scenario(name), planner)[0] for name, planner in (("concave_trap", "nspmr"), ("scenario1", "bug2"))]
    trajs.append(Trajectory((Point2(0, 0), Point2(-0.0, 1e-10), Point2(2, 3)), ("moved", "backtracked"), (None, 315.0), (0.0, 0.5, 1.25)))
    for k, t in enumerate(trajs):
        path = tmp_path / f"{k}.csv"
        output.write_trajectory_csv(path, t)
        assert path.read_bytes() == _csv_writer_text(t).encode()


def test_csv_round_trips_to_written_values(tmp_path):
    # bug planner waypoints carry long mantissas, the harder rounding case
    for planner in ("nspmr", "bug2"):
        _, t = scenario1_run(planner)
        path = tmp_path / f"{planner}.csv"
        output.write_trajectory_csv(path, t)
        back = output.read_trajectory_csv(path)
        assert len(back.waypoints) == len(t.waypoints)
        for p, q in zip(t.waypoints, back.waypoints):
            assert q.x == rounded(p.x) and q.y == rounded(p.y)
        assert back.timestamps == tuple(rounded(ts) for ts in t.timestamps)
        assert back.events == t.events
        assert back.directions == tuple(
            None if d is None else rounded(d) for d in t.directions
        )


def test_csv_reread_is_idempotent(tmp_path):
    _, t = scenario1_run()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    output.write_trajectory_csv(a, t)
    output.write_trajectory_csv(b, output.read_trajectory_csv(a))
    assert a.read_bytes() == b.read_bytes()


def test_csv_reader_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        output.read_trajectory_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [("", "unexpected header"), (",".join(output.CSV_HEADER) + "\r\n", "no waypoint rows")],
    ids=["empty", "header_only"],
)
def test_csv_reader_rejects_a_file_without_rows(tmp_path, text, message):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        output.read_trajectory_csv(path)


# --- SVG --------------------------------------------------------------------------

def test_svg_element_counts():
    s, t1 = scenario1_run("nspmr")
    _, t2 = scenario1_run("bug2")
    doc = output.render_svg(s, [t1, t2])
    assert doc.count("<polyline") == 2
    assert doc.count("<polygon") == len(s.obstacles)
    assert doc.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    doc_empty = output.render_svg(s)
    assert doc_empty.count("<polyline") == 0
    assert doc_empty.count("<polygon") == len(s.obstacles)


def test_svg_viewport_points_up():
    s, t = scenario1_run()
    doc = output.render_svg(s, [t])
    m = re.search(r"translate\(([-\d.]+),([-\d.]+)\) scale\(([-\d.]+),([-\d.]+)\)", doc)
    assert m, "missing viewport transform"
    tx, ty, sx, sy = (float(g) for g in m.groups())
    assert sx > 0 and sy == -sx
    # larger world y must land at a smaller device y
    device_y = lambda y: ty + sy * y
    assert device_y(s.goal.y) < device_y(s.start.y)
    # geometry is emitted in raw meters inside the transformed group
    first = re.search(r'<polyline points="([-\d.]+),([-\d.]+)', doc)
    assert (float(first.group(1)), float(first.group(2))) == (s.start.x, s.start.y)


def test_svg_file_written(tmp_path):
    s, t = scenario1_run()
    path = tmp_path / "plot.svg"
    output.write_svg(path, s, [t])
    assert path.read_text().endswith("</svg>\n")


# --- benchmark report -------------------------------------------------------------

def fake_result(length=10.0, outcome="goal_reached", iters=40):
    return RunResult(
        outcome=outcome,
        length=length,
        travel_time=length / 10.0,
        iterations=iters,
        max_departures_per_cell=1,
        backtrack_count=0,
    )


def test_bench_row_ratio():
    row = output.bench_row("s", "nspmr", fake_result(length=12.0), oracle_m=8.0)
    assert row.ratio == pytest.approx(1.5)
    assert output.bench_row("s", "nspmr", fake_result(), oracle_m=None).ratio is None


def test_report_rows_sorted_and_csv_columns(tmp_path):
    rows = [
        output.bench_row("b", "nspmr", fake_result(20.0), 10.0),
        output.bench_row("a", "bug2", fake_result(5.0), None),
        output.bench_row("b", "bug1", fake_result(30.0), 10.0),
        output.bench_row("a", "bug1", fake_result(6.0), None),
    ]
    report = output.make_report(rows)
    keys = [(r.scenario, r.planner) for r in report]
    assert keys == sorted(keys)

    path = tmp_path / "report.csv"
    output.write_report_csv(path, report)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == list(output.REPORT_COLUMNS)
    assert parsed[0] == "scenario,planner,outcome,length_m,time_s,iters,oracle_m,ratio".split(",")
    assert len(parsed) == 1 + len(rows)
    a_row = parsed[1]
    assert a_row[0] == "a" and a_row[6] == "" and a_row[7] == ""
    b_row = parsed[4]
    assert float(b_row[6]) == 10.0 and float(b_row[7]) == pytest.approx(2.0)


def test_report_table_alignment():
    rows = [
        output.bench_row("long_scenario_name", "nspmr", fake_result(123.456), 10.0),
        output.bench_row("s", "bug1", fake_result(7.0, iters=123456), None),
    ]
    text = output.format_report_table(output.make_report(rows))
    lines = text.splitlines()
    assert lines[0].split()[:3] == ["scenario", "planner", "outcome"]
    assert len(lines) == 3
    # right-justified numeric columns end at one shared offset per column
    assert len({len(line) for line in lines}) == 1
    assert "-" in lines[2].split()  # missing oracle renders as a dash
