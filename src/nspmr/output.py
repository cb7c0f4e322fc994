"""Artifact emitters: trajectory CSV, SVG plots, and benchmark report tables.

Trajectory CSV uses fixed decimal formatting (nine fractional digits) so the
file is stable across platforms and reads back to exactly the written values.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .geometry import Point2
from .world import Scenario, Trajectory

CSV_HEADER = ("iter", "t_s", "x_m", "y_m", "event", "dir_deg")

_SVG_WIDTH = 640  # px; the height follows from the bounds' aspect ratio
_PALETTE = ("#c0392b", "#2471a3", "#1e8449", "#8e44ad", "#b7950b")


# --- trajectory CSV ---------------------------------------------------------------

def write_trajectory_csv(path, t: Trajectory) -> None:
    """One row per waypoint; row 0 is the start pose: event "start", no heading. One % format per
    row gives csv.writer's bytes: its minimal quoting leaves these fields bare, and rows end in CRLF."""
    heads = ["" if d is None else "%.9f" % d for d in t.directions]
    rows = ["%d,%.9f,%.9f,%.9f,%s,%s\r\n" % (i, ts, x, y, e, h) for i, ((x, y), ts, e, h)
            in enumerate(zip(t.waypoints, t.timestamps, ("start", *t.events), ["", *heads]))]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n" + "".join(rows))


def read_trajectory_csv(path) -> Trajectory:
    """Rebuild a trajectory from a CSV written by write_trajectory_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))  # an empty file has no header
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        waypoints: list[Point2] = []
        timestamps: list[float] = []
        events: list[str] = []
        directions: list[float | None] = []
        for row in reader:
            _, ts, x, y, event, heading = row
            waypoints.append(Point2(float(x), float(y)))
            timestamps.append(float(ts))
            if len(waypoints) > 1:
                events.append(event)
                directions.append(float(heading) if heading else None)
    if not waypoints:
        raise ValueError("no waypoint rows after the header")
    return Trajectory(
        waypoints=tuple(waypoints),
        events=tuple(events),
        directions=tuple(directions),
        timestamps=tuple(timestamps),
    )


# --- SVG --------------------------------------------------------------------------

def render_svg(s: Scenario, trajectories=()) -> str:
    """Scenario plot: exactly one polygon per obstacle and one polyline per
    trajectory, start/goal as circles. Coordinates stay in meters; a group
    transform flips the viewport so world +y points up.
    """
    b = s.bounds
    margin = 20.0
    k = (_SVG_WIDTH - 2 * margin) / (b.xmax - b.xmin)
    height = 2 * margin + k * (b.ymax - b.ymin)
    tx = margin - k * b.xmin
    ty = height - margin + k * b.ymin

    def pt(p: Point2) -> str:
        return f"{p.x:.6f},{p.y:.6f}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{height:.0f}" viewBox="0 0 {_SVG_WIDTH} {height:.0f}">',
        f'  <g transform="translate({tx:.6f},{ty:.6f}) scale({k:.6f},{-k:.6f})">',
        f'    <rect x="{b.xmin}" y="{b.ymin}" width="{b.xmax - b.xmin}" '
        f'height="{b.ymax - b.ymin}" fill="#fdfdfd" stroke="#999" '
        f'stroke-width="{1.0 / k:.6f}"/>',
    ]
    for ob in s.obstacles:
        pts = " ".join(pt(v) for v in ob.shape.vertices)
        out.append(f'    <polygon points="{pts}" fill="#5d6d7e" stroke="none"/>')
    for i, t in enumerate(trajectories):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(pt(p) for p in t.waypoints)
        out.append(
            f'    <polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{1.5 / k:.6f}"/>'
        )
    r = 4.0 / k
    out.append(f'    <circle cx="{s.start.x}" cy="{s.start.y}" r="{r:.6f}" fill="#1a5276"/>')
    out.append(f'    <circle cx="{s.goal.x}" cy="{s.goal.y}" r="{r:.6f}" fill="#1e8449"/>')
    out.append("  </g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path, s: Scenario, trajectories=()) -> None:
    with open(path, "w") as fh:
        fh.write(render_svg(s, trajectories))


# --- benchmark report -------------------------------------------------------------

REPORT_COLUMNS = ("scenario", "planner", "outcome", "length_m", "time_s", "iters", "oracle_m", "ratio")


@dataclass(frozen=True)
class BenchRow:
    scenario: str
    planner: str
    outcome: str
    length_m: float
    time_s: float
    iters: int
    oracle_m: float | None
    ratio: float | None


def bench_row(scenario: str, planner: str, result, oracle_m: float | None) -> BenchRow:
    ratio = None
    if oracle_m is not None and oracle_m > 0:
        ratio = result.length / oracle_m
    return BenchRow(
        scenario=scenario,
        planner=planner,
        outcome=result.outcome,
        length_m=result.length,
        time_s=result.travel_time,
        iters=result.iterations,
        oracle_m=oracle_m,
        ratio=ratio,
    )


def make_report(rows) -> tuple[BenchRow, ...]:
    """The rows sorted by (scenario, planner): the order every report is written in."""
    return tuple(sorted(rows, key=lambda r: (r.scenario, r.planner)))


def _cells(r: BenchRow) -> tuple[str, ...]:
    return (
        r.scenario,
        r.planner,
        r.outcome,
        f"{r.length_m:.6f}",
        f"{r.time_s:.6f}",
        str(r.iters),
        "" if r.oracle_m is None else f"{r.oracle_m:.6f}",
        "" if r.ratio is None else f"{r.ratio:.6f}",
    )


def write_report_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(REPORT_COLUMNS)
        w.writerows(_cells(r) for r in rows)


def format_report_table(rows) -> str:
    """Plain-text table with aligned columns; '-' marks a missing oracle."""
    body = []
    for r in rows:
        cells = list(_cells(r))
        cells[3] = f"{r.length_m:.3f}"
        cells[4] = f"{r.time_s:.3f}"
        cells[6] = "-" if r.oracle_m is None else f"{r.oracle_m:.3f}"
        cells[7] = "-" if r.ratio is None else f"{r.ratio:.3f}"
        body.append(cells)
    widths = [
        max(len(REPORT_COLUMNS[j]), *(len(row[j]) for row in body)) if body else len(REPORT_COLUMNS[j])
        for j in range(len(REPORT_COLUMNS))
    ]

    def line(cells):
        parts = []
        for j, c in enumerate(cells):
            parts.append(c.ljust(widths[j]) if j < 3 else c.rjust(widths[j]))
        return "  ".join(parts).rstrip()

    out = [line(REPORT_COLUMNS)]
    out.extend(line(row) for row in body)
    return "\n".join(out) + "\n"
