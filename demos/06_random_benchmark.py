"""Benchmarking against a shortest-path oracle.

Generate a batch of random solvable worlds, run the local planner on each,
and compare against an 8-connected grid shortest path at half-body
resolution. The oracle snaps the start and goal to lattice nodes, ignores
clearance and lets diagonal steps cut corners, so it is no bound on a route's
length; a ratio near 1.0 means the planner found an essentially direct route.

The same machinery backs `nspmr bench --suite random` on the command line.
"""

import statistics
from pathlib import Path

from nspmr import (
    bench_row,
    format_report_table,
    generate_world,
    grid_oracle,
    make_report,
    run,
    write_report_csv,
)

OUT = Path(__file__).parent / "out"
WORLDS = 12


def main():
    rows = []
    ratios = []
    for seed in range(WORLDS):
        s = generate_world(seed)
        oracle = grid_oracle(s, s.delta / 2)
        _, res = run(s, "nspmr")
        rows.append(bench_row(s.name, "nspmr", res, oracle))
        ratios.append(res.length / oracle)

    report = make_report(rows)
    print(format_report_table(report), end="")
    print(f"\nmedian ratio over {WORLDS} worlds: {statistics.median(ratios):.3f}")

    OUT.mkdir(exist_ok=True)
    path = OUT / "random_benchmark.csv"
    write_report_csv(path, report)
    print(f"report: {path}")


if __name__ == "__main__":
    main()
