"""Direction selection, priority rules, lattice moves, backtracking."""

import math
import random

import pytest

from nspmr import planner
from nspmr.geometry import Point2, Polygon, circular_diff, distance
from nspmr.planner import (
    CellId,
    DIRECTIONS,
    NspmrState,
    apply_move,
    desired_angle,
    filter_candidates,
    free_directions,
    nspmr_step,
    quantize,
    select_direction,
)
from nspmr.sensing import SensorReading, SensorScan, scan
from nspmr.sim import run
from nspmr.world import BUILTIN_NAMES, Bounds, Obstacle, Scenario, builtin_scenario

SEED = 20260817


def _scan(free_flags, dists=None):
    dists = dists or [1.0] * 8
    return SensorScan(tuple(SensorReading(f, d) for f, d in zip(free_flags, dists)))


ALL_FREE = _scan([True] * 8)


def _world(*polys, start=Point2(0, 0), goal=Point2(25, 25), delta=0.5, d=1.0):
    return Scenario(
        name="t",
        bounds=Bounds(-50, -50, 50, 50),
        start=start,
        goal=goal,
        obstacles=tuple(Obstacle(p) for p in polys),
        delta=delta,
        sensor_range=d,
    )


def _rect(x0, y0, x1, y1):
    return Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


# --- desired_angle ------------------------------------------------------------

def test_desired_angle_examples():
    assert desired_angle(Point2(0, 0), Point2(25, 25)) == pytest.approx(45)
    assert desired_angle(Point2(1, 1), Point2(0, 2)) == pytest.approx(315)
    assert desired_angle(Point2(0, 0), Point2(0, -1)) == pytest.approx(180)
    assert desired_angle(Point2(0, 0), Point2(0, 7)) == pytest.approx(0)
    assert desired_angle(Point2(0, 0), Point2(3, 0)) == pytest.approx(90)


def test_desired_angle_undefined_at_goal():
    with pytest.raises(ValueError):
        desired_angle(Point2(2, 2), Point2(2, 2))


# --- quantize -------------------------------------------------------------------

def test_quantize_examples():
    assert quantize(Point2(0.0, 0.0), 0.5) == CellId(0, 0)
    assert quantize(Point2(0.26, 0.0), 0.5) == CellId(1, 0)
    assert quantize(Point2(0.24, 0.0), 0.5) == quantize(Point2(0.26, 0.0), 0.5)
    assert quantize(Point2(-0.24, 1.3), 0.5) == CellId(-1, 5)


def test_quantize_requires_positive_delta():
    with pytest.raises(ValueError):
        quantize(Point2(0, 0), 0)


# --- apply_move -----------------------------------------------------------------

def test_apply_move_all_eight_rows():
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
    for angle, expected in table.items():
        assert apply_move(Point2(0, 0), angle, 0.5) == expected


def test_apply_move_from_offset_origin():
    assert apply_move(Point2(1, 1), 0, 0.5) == (1, 1.25)
    assert apply_move(Point2(0, 0), 225, 0.5) == (-0.25, -0.25)


def test_apply_move_is_exact_on_lattice():
    # one step out and back returns the identical floats
    p = Point2(3.25, -7.75)
    for angle in DIRECTIONS:
        back = (angle + 180) % 360
        assert apply_move(apply_move(p, angle, 0.5), back, 0.5) == p


def test_apply_move_rejects_off_lattice_direction():
    with pytest.raises(ValueError):
        apply_move(Point2(0, 0), 30, 0.5)


# --- filter_candidates -----------------------------------------------------------

def test_rule_one_removes_reversal():
    st = NspmrState(pos=Point2(0, 0), prev_dir=0.0)
    got = filter_candidates(ALL_FREE, st, 0.5)
    assert got == [0, 45, 90, 135, 225, 270, 315]


def test_rule_two_exhaustion_empties():
    st = NspmrState(pos=Point2(0, 0))
    st.used[CellId(0, 0)] = set(DIRECTIONS)
    assert filter_candidates(ALL_FREE, st, 0.5) == []


def test_blocked_directions_removed():
    flags = [False, True, True, True, True, True, True, False]
    st = NspmrState(pos=Point2(0, 0))
    assert filter_candidates(_scan(flags), st, 0.5) == [45, 90, 135, 180, 225, 270]


def test_rule_three_excludes_dead_neighbor_cells():
    st = NspmrState(pos=Point2(0, 0))
    st.dead.add(CellId(0, 1))  # the cell one step north
    got = filter_candidates(ALL_FREE, st, 0.5)
    assert 0 not in got and len(got) == 7


def test_rules_off_candidates_ignore_memory():
    st = NspmrState(pos=Point2(0, 0), prev_dir=0.0)
    st.used[CellId(0, 0)] = set(DIRECTIONS)
    st.dead.add(CellId(0, 1))
    assert free_directions(ALL_FREE) == list(DIRECTIONS)


# --- select_direction ------------------------------------------------------------

def test_select_prefers_smallest_angular_difference():
    cands = [45.0, 90.0, 135.0, 180.0, 225.0, 270.0]
    assert select_direction(cands, 315.0, ALL_FREE) == 270.0


def test_select_wraps_across_north():
    assert select_direction(list(DIRECTIONS), 355.0, ALL_FREE) == 0.0


def test_select_equidistant_tie_goes_to_lower_index():
    assert select_direction([45.0, 135.0], 90.0, ALL_FREE) == 45.0


def test_select_distance_tiebreak_beats_index():
    dists = [1.0] * 8
    dists[3] = 3.0  # sensor 4 = 135 degrees sees farther
    sc = _scan([True] * 8, dists)
    assert select_direction([45.0, 135.0], 90.0, sc) == 135.0


def test_select_empty_candidates_rejected():
    with pytest.raises(ValueError):
        select_direction([], 0.0, ALL_FREE)


def test_selected_difference_never_beaten(subtests=None):
    rng = random.Random(SEED)
    for _ in range(500):
        cands = sorted(rng.sample(DIRECTIONS, rng.randint(1, 8)))
        theta = rng.uniform(0, 360)
        dists = [rng.choice([0.5, 1.0, 2.0]) for _ in range(8)]
        sc = _scan([True] * 8, dists)
        chosen = select_direction(list(map(float, cands)), theta, sc)
        for other in cands:
            assert circular_diff(chosen, theta) <= circular_diff(other, theta) + 1e-12


# --- nspmr_step ------------------------------------------------------------------

def test_step_reports_goal_when_within_half_delta():
    w = _world(goal=Point2(0.2, 0.0))
    st = NspmrState(pos=Point2(0, 0))
    st2, ev = nspmr_step(st, w)
    assert ev.kind == "goal_reached"
    assert ev.new_pos == Point2(0, 0)
    assert st2.trail == [Point2(0, 0)]


def test_step_moves_toward_goal_and_records_memory():
    w = _world(goal=Point2(25, 25))
    st = NspmrState(pos=Point2(0, 0))
    _, ev = nspmr_step(st, w)
    assert ev.kind == "moved" and ev.direction == 45.0
    assert st.pos == (0.25, 0.25)
    assert st.trail == [Point2(0, 0), Point2(0.25, 0.25)]
    assert st.used[CellId(0, 0)] == {45.0}
    assert st.prev_dir == 45.0 and len(st.trail) == 2


def test_straight_run_on_diagonal_is_shortest():
    w = _world(goal=Point2(2, 2))
    st = NspmrState(pos=Point2(0, 0))
    moves = 0
    while True:
        _, ev = nspmr_step(st, w)
        if ev.kind == "goal_reached":
            break
        assert ev.kind == "moved" and ev.direction == 45.0
        moves += 1
        assert moves < 50
    assert moves == 8  # 2*sqrt(2) meters in sqrt(2)/4 steps
    assert st.pos == (2.0, 2.0)


def test_blocked_north_northwest_picks_270():
    # goal to the northwest, bar blocking north and northwest: pick west
    w = _world(_rect(-0.6, 0.2, 0.1, 0.4), goal=Point2(-20, 20))
    st = NspmrState(pos=Point2(0, 0))
    _, ev = nspmr_step(st, w)
    assert ev.kind == "moved" and ev.direction == 270.0


def test_backtrack_marks_dead_and_retreats():
    w = _world(goal=Point2(25, 25))
    st = NspmrState(pos=Point2(0.25, 0.25))
    st.trail = [Point2(0, 0), Point2(0.25, 0.25)]
    st.used[CellId(1, 1)] = set(DIRECTIONS)
    _, ev = nspmr_step(st, w)
    assert ev.kind == "backtracked"
    assert ev.direction == 225.0
    assert st.pos == Point2(0, 0)
    assert st.trail == [Point2(0, 0)]
    assert CellId(1, 1) in st.dead
    assert st.prev_dir is None
    assert 225.0 in st.used[CellId(1, 1)]


def test_stuck_when_trail_exhausted():
    w = _world(goal=Point2(25, 25))
    st = NspmrState(pos=Point2(0, 0))
    st.used[CellId(0, 0)] = set(DIRECTIONS)
    _, ev = nspmr_step(st, w)
    assert ev.kind == "stuck"
    assert st.pos == Point2(0, 0)
    assert not st.dead


def test_goal_cell_is_never_marked_dead():
    # same cell as the goal but farther than delta/2 from it
    w = _world(goal=Point2(-0.12, -0.12))
    st = NspmrState(pos=Point2(0.12, 0.12))
    st.trail = [Point2(-0.13, 0.37), Point2(0.12, 0.12)]
    st.used[quantize(st.pos, 0.5)] = set(DIRECTIONS)
    assert distance(st.pos, w.goal) > 0.25
    assert quantize(st.pos, 0.5) == quantize(w.goal, 0.5) == CellId(0, 0)
    _, ev = nspmr_step(st, w)
    assert ev.kind == "backtracked"
    assert CellId(0, 0) not in st.dead


def test_rules_disabled_step_goes_stuck_instead_of_backtracking():
    # wall pocket: west approach, all free directions point away from goal
    w = _world(goal=Point2(25, 25))
    st = NspmrState(pos=Point2(0.25, 0.25))
    st.trail = [Point2(0, 0), Point2(0.25, 0.25)]
    st.used[CellId(1, 1)] = set(DIRECTIONS)
    _, ev = nspmr_step(st, w, rules_enabled=False)
    assert ev.kind == "moved"  # memory ignored: keeps moving
    st2 = NspmrState(pos=Point2(0, 0))
    blocked_scan_world = _world(
        _rect(-0.3, 0.1, 0.3, 0.3),
        _rect(0.1, -0.3, 0.3, 0.3),
        _rect(-0.3, -0.3, 0.3, -0.1),
        _rect(-0.3, -0.3, -0.1, 0.3),
        goal=Point2(25, 25),
    )
    _, ev2 = nspmr_step(st2, blocked_scan_world, rules_enabled=False)
    assert ev2.kind == "stuck"


def test_no_reversal_between_consecutive_moves():
    rng = random.Random(SEED + 3)
    w = _world(
        _rect(1.0, 1.0, 1.6, 1.6),
        _rect(-1.8, 0.4, -1.0, 1.2),
        goal=Point2(rng.uniform(3, 5), rng.uniform(3, 5)),
    )
    st = NspmrState(pos=Point2(0, 0))
    prev_move = None
    for _ in range(200):
        _, ev = nspmr_step(st, w)
        if ev.kind in ("goal_reached", "stuck"):
            break
        if ev.kind == "moved":
            if prev_move is not None:
                assert circular_diff(ev.direction, prev_move) != 180
            prev_move = ev.direction
        else:
            prev_move = None


# --- scan memo -------------------------------------------------------------------

def _walk(s, rules_enabled=True, max_steps=1000):
    st = NspmrState(pos=s.start)
    visited = {s.start}
    for _ in range(max_steps):
        _, ev = nspmr_step(st, s, rules_enabled)
        if ev.kind in ("goal_reached", "stuck"):
            break
        visited.add(ev.new_pos)
    return st, visited


def _count_scans(monkeypatch):
    calls = []

    def counting_scan(pos, world, d, delta):
        calls.append(pos)
        return scan(pos, world, d, delta)

    monkeypatch.setattr(planner, "scan", counting_scan)
    return calls


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if not builtin_scenario(n).is_dynamic])
def test_memoized_scans_equal_fresh_scans(name, monkeypatch):
    s = builtin_scenario(name)
    calls = _count_scans(monkeypatch)
    for rules in (True, False):
        calls.clear()
        st, visited = _walk(s, rules)
        # one real scan per distinct position; the last one (the goal) may go unscanned
        assert sorted(calls) == sorted(st.scans)
        assert set(st.scans) <= visited
        assert len(st.scans) >= len(visited) - 1
        for pos, memo in st.scans.items():
            assert memo == scan(pos, s, s.sensor_range, s.delta)


def test_moving_world_scans_every_step(monkeypatch):
    s = builtin_scenario("dynamic_crossing")
    calls = _count_scans(monkeypatch)
    _, res = run(s, "nspmr")
    assert res.outcome == "goal_reached"
    assert len(calls) == res.iterations  # one real scan per move, none from a memo
    st, _ = _walk(s)
    assert st.scans == {}
