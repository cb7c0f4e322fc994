"""How the local planner picks its next move.

Stand the robot just west of the tall wall in the two-wall scenario, scan
the eight sensor directions, and watch the selection key at work: smallest
angular distance to the goal bearing wins, a longer sensor reading breaks
ties, and blocked or already-used directions never enter the contest.
"""

from nspmr import (
    DIRECTIONS,
    NspmrState,
    Point2,
    builtin_scenario,
    desired_angle,
    filter_candidates,
    select_direction,
    scan,
)


def main():
    s = builtin_scenario("scenario1")
    pos = Point2(5.55, 5.0)
    readings = scan(pos, s)
    theta = desired_angle(pos, s.goal)
    print(f"robot at ({pos.x:g}, {pos.y:g}), goal at ({s.goal.x:g}, {s.goal.y:g})")
    print(f"desired bearing: {theta:.2f} deg (compass, 0 = +y, clockwise)\n")

    print("dir   free   range_m")
    for angle, r in zip(DIRECTIONS, readings):
        print(f"{angle:>3.0f}   {str(r.free):5}  {r.dist:7.3f}")

    state = NspmrState(start=pos)
    candidates = filter_candidates(readings, state)
    choice = select_direction(candidates, theta, readings)
    print(f"\ncandidates after the priority rules: {[f'{c:.0f}' for c in candidates]}")
    print(f"selected direction: {choice:.0f} deg")
    print("the wall shadows every sensor east of north, so the pick deflects")
    print("from the goal bearing to the nearest free direction, due north")


if __name__ == "__main__":
    main()
