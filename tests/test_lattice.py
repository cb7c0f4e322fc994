"""The lattice kernel behind grid_oracle and generate_world: raster and search."""

import heapq
import math
import random
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspmr.geometry import Point2, Polygon, point_polygon_distance
from nspmr.lattice import MAX_LATTICE_NODES, _lattice_blocked, _lattice_path, _lattice_shape
from nspmr.sim import grid_oracle, iteration_ceiling
from nspmr.world import (
    BUILTIN_NAMES,
    Bounds,
    Obstacle,
    Scenario,
    _make_shape,
    builtin_scenario,
    generate_world,
    validate_scenario,
)

RESOLUTIONS = (0.25, 0.3, 0.7)
CLEARANCES = (0.0, 0.25)


def _scene(bounds, *polys, start=None, goal=None):
    b = Bounds(*bounds)
    return Scenario(
        name="lattice",
        bounds=b,
        start=start or Point2(b.xmin, b.ymin),
        goal=goal or Point2(b.xmax, b.ymax),
        obstacles=tuple(Obstacle(p) for p in polys),
    )


def _brute_blocked(s, resolution, clearance):
    """Nodes (i, j) within clearance of some obstacle, by testing every node."""
    b = s.bounds
    nx, ny = _lattice_shape(b, resolution)
    return {
        (i, j)
        for i in range(nx)
        for j in range(ny)
        if any(
            point_polygon_distance(Point2(b.xmin + i * resolution, b.ymin + j * resolution), poly) <= clearance
            for poly in s.shapes
        )
    }


def _assert_raster_exact(s, resolution, clearance):
    nx, ny = _lattice_shape(s.bounds, resolution)
    w = ny + 2
    grid = _lattice_blocked(s, resolution, clearance)
    assert len(grid) == (nx + 2) * w
    ring = [k for k in range(len(grid)) if k < w or k >= (nx + 1) * w or k % w in (0, w - 1)]
    assert all(grid[k] for k in ring)
    got = {(i, j) for i in range(nx) for j in range(ny) if grid[(i + 1) * w + j + 1]}
    assert got == _brute_blocked(s, resolution, clearance)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("rect", "l", "triangle")),
    resolution=st.sampled_from(RESOLUTIONS),
    clearance=st.sampled_from(CLEARANCES),
)
def test_raster_matches_brute_force_on_random_shapes(seed, kind, resolution, clearance):
    poly = _make_shape(random.Random(seed), kind)
    x0, y0, x1, y1 = poly.bbox
    # the lattice origin falls wherever the shape does, so alignment varies
    _assert_raster_exact(_scene((x0 - 1.5, y0 - 1.5, x1 + 1.5, y1 + 1.5), poly), resolution, clearance)


def _on_lattice_polygons(resolution, clearance):
    """Shapes whose vertices and edges sit exactly on lattice nodes, or clearance off them."""
    def at(i, j, dx=0.0, dy=0.0):
        # the same float expressions as the lattice's own node coordinates
        return Point2(i * resolution + dx, j * resolution + dy)

    c = clearance
    return [
        # a rectangle and a diagonal triangle with every vertex on a node
        Polygon((at(2, 2), at(5, 2), at(5, 4), at(2, 4))),
        Polygon((at(2, 2), at(6, 2), at(6, 6))),
        # a rectangle whose edges lie clearance off node rows and columns
        Polygon((at(2, 2, c, c), at(5, 2, -c, c), at(5, 4, -c, -c), at(2, 4, c, -c))),
        Polygon((at(2, 2, -c, -c), at(5, 2, c, -c), at(5, 4, c, c), at(2, 4, -c, c))),
        # an L whose notch corner sits on a node, and a sliver thinner than a cell
        Polygon((at(1, 1), at(6, 1), at(6, 3), at(3, 3), at(3, 6), at(1, 6))),
        Polygon((at(1, 3, 0, 0.01), at(7, 3, 0, 0.01), at(7, 3, 0, 0.02), at(1, 3, 0, 0.02))),
        # an apex clearance east of node (1, 3): both its edges are nearest that node at a
        # clamped end, t = 1 on the edge into it and t = 0 on the edge out, and at
        # resolution 0.3 only the first rounds to <= clearance, so the clamp decides the tie
        Polygon((at(1, 3, c), at(4, 1), at(4, 5))),
        # a shape overhanging the lattice on two sides, and one wholly outside it
        Polygon((at(-2, -2), at(3, -2), at(3, 1, c), at(-2, 1, 0, c))),
        Polygon((at(10, 10), at(12, 10), at(12, 12))),
    ]


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("clearance", CLEARANCES)
def test_raster_matches_brute_force_on_lattice_aligned_shapes(resolution, clearance):
    size = 8 * resolution
    for poly in _on_lattice_polygons(resolution, clearance):
        _assert_raster_exact(_scene((0.0, 0.0, size, size), poly), resolution, clearance)


def _reference_path(s, resolution, clearance):
    """The Dijkstra search the kernel used before A*, over the same raster."""
    b = s.bounds
    nx, ny = _lattice_shape(b, resolution)
    grid = _lattice_blocked(s, resolution, clearance)
    blocked = [grid[(i + 1) * (ny + 2) + j + 1] for i in range(nx) for j in range(ny)]

    def node(p):
        i = int(round((p.x - b.xmin) / resolution))
        j = int(round((p.y - b.ymin) / resolution))
        return i * ny + j if 0 <= i < nx and 0 <= j < ny else None

    src, dst = node(s.start), node(s.goal)
    if src is None or dst is None or blocked[src] or blocked[dst]:
        return None
    diag = resolution * math.sqrt(2)
    moves = [
        (di, dj, di * ny + dj, diag if di and dj else resolution)
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
        if di or dj
    ]
    dist = [math.inf] * (nx * ny)
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, k = heapq.heappop(heap)
        if k == dst:
            return d
        if d > dist[k]:
            continue
        ci, cj = divmod(k, ny)
        for di, dj, step, cost in moves:
            if 0 <= ci + di < nx and 0 <= cj + dj < ny and not blocked[k + step]:
                nd = d + cost
                if nd < dist[k + step] - 1e-15:
                    dist[k + step] = nd
                    heapq.heappush(heap, (nd, k + step))
    return None


def _assert_same_length(s, resolution, clearance):
    want = _reference_path(s, resolution, clearance)
    got = _lattice_path(s, resolution, clearance)
    if want is None:
        assert got is None, (s.name, resolution, clearance)
    else:
        assert got == pytest.approx(want, abs=1e-12), (s.name, resolution, clearance)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_search_matches_dijkstra_on_builtins(name):
    s = builtin_scenario(name)
    for resolution in dict.fromkeys((s.delta / 2, 0.25, 0.3, 0.7)):
        _assert_same_length(s, resolution, 0.0)


@pytest.mark.parametrize("seed", range(20))
def test_search_matches_dijkstra_on_generated_worlds(seed):
    s = generate_world(seed)
    for clearance in (0.0, s.delta / 2):
        _assert_same_length(s, s.delta / 2, clearance)


def test_search_returns_none_when_goal_is_walled_in():
    # a closed ring of walls 1 m thick around the goal, with free lattice inside:
    # no 8-connected step, at most 0.7 m per axis, can jump a wall
    def rect(x0, y0, x1, y1):
        return Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))

    walls = [rect(5, 5, 10, 6), rect(5, 9, 10, 10), rect(5, 6, 6, 9), rect(9, 6, 10, 9)]
    for resolution in RESOLUTIONS:
        closed = _scene((0, 0, 12, 12), *walls, start=Point2(1, 1), goal=Point2(7.5, 7.5))
        assert _reference_path(closed, resolution, 0.0) is None
        assert _lattice_path(closed, resolution, 0.0) is None
        # the same ring with its east wall removed is open
        open_ = _scene((0, 0, 12, 12), *walls[:3], start=Point2(1, 1), goal=Point2(7.5, 7.5))
        assert _lattice_path(open_, resolution, 0.0) is not None
        _assert_same_length(open_, resolution, 0.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    shapes=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(("rect", "l", "triangle"))), min_size=1, max_size=4
    ),
    margins=st.tuples(*[st.floats(0.0, 2.0)] * 4),
    ends=st.tuples(*[st.floats(0.0, 1.0)] * 4),
    resolution=st.sampled_from(RESOLUTIONS),
    clearance=st.sampled_from(CLEARANCES),
)
def test_search_matches_dijkstra_on_random_scenes(shapes, margins, ends, resolution, clearance):
    polys = [_make_shape(random.Random(seed), kind) for seed, kind in shapes]
    x0 = min(p.bbox[0] for p in polys) - margins[0]
    y0 = min(p.bbox[1] for p in polys) - margins[1]
    x1 = max(p.bbox[2] for p in polys) + margins[2]
    y1 = max(p.bbox[3] for p in polys) + margins[3]
    # start and goal anywhere in the bounds, on or off the lattice, inside obstacles too
    fx, fy, gx, gy = ends
    start = Point2(x0 + fx * (x1 - x0), y0 + fy * (y1 - y0))
    goal = Point2(x0 + gx * (x1 - x0), y0 + gy * (y1 - y0))
    _assert_same_length(_scene((x0, y0, x1, y1), *polys, start=start, goal=goal), resolution, clearance)


def _dots(nodes, resolution):
    """Squares of side resolution/5 centred on the given lattice nodes: those nodes alone are blocked."""
    e = resolution / 10
    return [
        Polygon(
            (
                Point2(i * resolution - e, j * resolution - e),
                Point2(i * resolution + e, j * resolution - e),
                Point2(i * resolution + e, j * resolution + e),
                Point2(i * resolution - e, j * resolution + e),
            )
        )
        for i, j in nodes
    ]


@pytest.mark.parametrize("resolution", RESOLUTIONS)
def test_search_cuts_corners_between_diagonal_neighbours(resolution):
    # the anti-diagonal i + j = 6 is blocked across the whole 7x7 lattice; a
    # diagonal step needs only its target free, so (2, 3) -> (3, 4) squeezes
    # between the blocked (2, 4) and (3, 3). The shortest route takes one
    # straight step onto odd i + j, the squeeze, and one straight step back.
    wall = [(i, 6 - i) for i in range(7)]
    s = _scene((0.0, 0.0, 6 * resolution, 6 * resolution), *_dots(wall, resolution))
    grid = _lattice_blocked(s, resolution, 0.0)
    assert [(i, j) for i in range(7) for j in range(7) if grid[(i + 1) * 9 + j + 1]] == sorted(wall)
    want = 2 * resolution + 5 * resolution * math.sqrt(2)
    assert _lattice_path(s, resolution, 0.0) == pytest.approx(want, abs=1e-12)
    _assert_same_length(s, resolution, 0.0)


@pytest.mark.parametrize(
    "start, goal, straight, diagonal",
    [
        ((2, 5), (7, 5), 5, 0),  # +i
        ((8, 5), (3, 5), 5, 0),  # -i
        ((5, 2), (5, 7), 5, 0),  # +j
        ((5, 8), (5, 3), 5, 0),  # -j
        ((2, 2), (7, 7), 0, 5),  # +i +j
        ((8, 2), (3, 7), 0, 5),  # -i +j
        ((2, 2), (7, 4), 3, 2),  # in the +i jump that the diagonal tries at (4, 4)
        ((8, 8), (5, 2), 3, 3),  # in the -j jump that the diagonal tries at (5, 5)
    ],
)
def test_search_stops_at_goal_inside_a_jump(start, goal, straight, diagonal):
    # an 11x11 lattice: each goal sits strictly inside a run, away from the ring,
    # and the straight runs have a forced neighbour beyond the goal in a row
    # beside, next to one of the dots
    dots = _dots([(9, 6), (9, 4), (6, 9), (4, 9), (1, 4), (4, 1)], 1.0)
    s = _scene((0.0, 0.0, 10.0, 10.0), *dots, start=Point2(*start), goal=Point2(*goal))
    want = straight + diagonal * math.sqrt(2)
    assert _lattice_path(s, 1.0, 0.0) == pytest.approx(want, abs=1e-12)
    _assert_same_length(s, 1.0, 0.0)


@pytest.mark.parametrize("resolution", RESOLUTIONS)
def test_search_from_start_to_itself_is_zero(resolution):
    s = _scene((0.0, 0.0, 4.0, 4.0), start=Point2(1.1, 1.3), goal=Point2(1.1, 1.3))
    assert _lattice_path(s, resolution, 0.0) == 0.0


@pytest.mark.parametrize("start", [(0, 0), (0, 4), (4, 0), (8, 8), (8, 3)])
def test_search_from_a_start_beside_the_ring(start):
    # starts on the lattice's corners and edges, next to the blocked ring, with a
    # dot beside some of them so that a forced neighbour lies along the ring
    dots = _dots([(1, 4), (4, 1), (7, 7), (7, 3)], 1.0)
    s = _scene((0.0, 0.0, 8.0, 8.0), *dots, start=Point2(*start), goal=Point2(5.0, 6.0))
    assert _lattice_path(s, 1.0, 0.0) is not None
    _assert_same_length(s, 1.0, 0.0)


def test_committed_reference_holds_the_builtin_ceilings_and_oracles():
    # tools/lattice_parity.txt is tools/lattice_parity.py's output for this tree; CI
    # rewrites all of it, and this checks its builtin ceilings and oracle lines, exactly
    lines = (Path(__file__).parents[1] / "tools" / "lattice_parity.txt").read_text().splitlines()
    ceilings = [line.split(None, 1)[1] for line in lines if line.startswith("ceilings ")]
    assert ceilings == [str([iteration_ceiling(builtin_scenario(n)) for n in BUILTIN_NAMES])]
    want = [
        f"oracle {name} {r} {grid_oracle(s, r)!r}"
        for name in BUILTIN_NAMES
        for s in [builtin_scenario(name)]
        for r in dict.fromkeys((s.delta / 2, 0.25, 0.3, 0.7))
    ]
    assert len(want) == 18
    assert [line for line in lines if line.startswith(tuple(f"oracle {n} " for n in BUILTIN_NAMES))] == want


# --- the node limit ------------------------------------------------------------------

@contextmanager
def quick_and_small():
    """The block ends within a second, with a traced allocation peak under 4 MB."""
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        yield
    finally:
        elapsed, peak = time.perf_counter() - t0, tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 4e6, (elapsed, peak)


def test_every_builtin_at_a_tenth_of_its_delta_is_within_the_limit():
    for name in BUILTIN_NAMES:
        s = builtin_scenario(name)
        assert validate_scenario(replace(s, delta=s.delta / 10)) == [], name


@pytest.mark.parametrize("resolution", [1e-6, 1e-8])
def test_oracle_refuses_a_lattice_over_the_limit_before_it_allocates(resolution):
    # on a 30 m world the raster would take 0.9 PB at 1e-6 and 9 EB at 1e-8
    s = generate_world(0)
    with quick_and_small():
        with pytest.raises(ValueError, match=f"^a lattice of spacing {resolution:g} over the bounds has more than {MAX_LATTICE_NODES} nodes$"):
            grid_oracle(s, resolution)


def test_search_holds_about_twice_the_raster():
    # the raster and its transposed copy are (nx + 2) * (ny + 2) bytes each; the distances
    # the search keeps, one per jump point it reaches, add little beside them
    s = builtin_scenario("concave_trap")
    resolution = 30 / 1023
    nx, ny = _lattice_shape(s.bounds, resolution)
    tracemalloc.start()
    try:
        assert _lattice_path(s, resolution, 0.0) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (nx + 2) * (ny + 2), (peak, nx, ny)
