"""The lattice kernel behind grid_oracle and generate_world: raster and search."""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from typing import TYPE_CHECKING

from .geometry import EPS_GEOM, Point2

if TYPE_CHECKING:
    from .world import Bounds, Scenario


# The most nodes a lattice may have: a raster of about 64 MiB, so the search holds about twice the raster
# (the raster and its transposed copy), about 128 MiB. A run's default budget is then at most
# 10 * 8 * 2**26 iterations. scenario1 stays within the limit down to delta = 0.0071.
MAX_LATTICE_NODES = 2**26


def _lattice_shape(b: Bounds, resolution: float) -> tuple[int, int]:
    """Node counts (nx, ny) of the lattice with spacing resolution anchored at (xmin, ymin). Raises
    ValueError when they cannot be counted: resolution is not positive (delta/2 underflows to 0 at
    delta = 5e-324), or an extent over resolution is not finite (delta = 1e-310, or bounds 2e308 wide);
    and when there are more than MAX_LATTICE_NODES of them."""
    if resolution > 0:
        fx, fy = (b.xmax - b.xmin) / resolution, (b.ymax - b.ymin) / resolution
        if math.isfinite(fx) and math.isfinite(fy):
            nx, ny = int(round(fx)) + 1, int(round(fy)) + 1
            if nx * ny > MAX_LATTICE_NODES:
                raise ValueError(f"a lattice of spacing {resolution:g} over the bounds has more than {MAX_LATTICE_NODES} nodes")
            return nx, ny
    raise ValueError(f"cannot count the nodes of a lattice of spacing {resolution:g} over the bounds")


def _lattice_blocked(s: Scenario, resolution: float, clearance: float) -> bytearray:
    """Occupancy of the lattice, padded with a blocked one-node ring.

    Node (i, j) sits at (xmin + i*resolution, ymin + j*resolution) and at flat
    index (i+1)*(ny+2) + (j+1). It is blocked exactly when
    point_polygon_distance(node, poly) <= clearance for some obstacle: inside
    by the even-odd rule of point_in_polygon, or within max(clearance,
    EPS_GEOM) of an edge (a node within EPS_GEOM is ON_BOUNDARY, distance 0).
    Each polygon is rasterized once: the x-crossings of each lattice row
    give its interior runs, and each edge tests only the nodes in its own
    bbox grown by that threshold. That band test is point_segment_distance's
    arithmetic inline, in the same order, with no call or Point2 per node;
    tests/test_lattice.py checks it node by node against point_polygon_distance.
    """
    b = s.bounds
    nx, ny = _lattice_shape(b, resolution)
    w = ny + 2
    blocked = bytearray((nx + 2) * w)
    blocked[:w] = blocked[-w:] = b"\x01" * w
    blocked[::w] = blocked[w - 1 :: w] = b"\x01" * (nx + 2)
    xs = [b.xmin + i * resolution for i in range(nx)]
    ys = [b.ymin + j * resolution for j in range(ny)]
    thr = max(clearance, EPS_GEOM)
    hypot = math.hypot

    def window(lo: float, hi: float, origin: float, n: int) -> range:
        # the 1e-9 keeps nodes that sit on the grown bbox edge up to rounding
        return range(
            max(0, math.ceil((lo - thr - origin) / resolution - 1e-9)),
            min(n - 1, math.floor((hi + thr - origin) / resolution + 1e-9)) + 1,
        )

    for poly in s.shapes:
        x0, y0, x1, y1 = poly.bbox
        cols = window(x0, x1, b.xmin, nx)
        verts = poly.vertices
        # (x_i, y_i, x_prev, y_prev): point_in_polygon's operand order, so the
        # crossings below are bit-for-bit the ones it computes
        spans = [(verts[i].x, verts[i].y, verts[i - 1].x, verts[i - 1].y) for i in range(len(verts))]
        for j in window(y0, y1, b.ymin, ny):
            y = ys[j]
            xc = sorted(xi + (y - yi) * (xp - xi) / (yp - yi) for xi, yi, xp, yp in spans if (yi > y) != (yp > y))
            # an even number of crossings; x is inside iff xc[2k] <= x < xc[2k+1]
            for k in range(0, len(xc), 2):
                lo = bisect_left(xs, xc[k], cols.start, cols.stop)
                hi = bisect_left(xs, xc[k + 1], cols.start, cols.stop)
                if lo < hi:
                    first = (lo + 1) * w + j + 1
                    blocked[first : first + (hi - lo) * w : w] = b"\x01" * (hi - lo)
        for a, c in poly.edges:
            ax, ay = a.x, a.y
            ex, ey = c.x - ax, c.y - ay
            denom = ex * ex + ey * ey
            # the edge's window lies inside the polygon's, which has the same growth
            jband = window(min(a.y, c.y), max(a.y, c.y), b.ymin, ny)
            for i in window(min(a.x, c.x), max(a.x, c.x), b.xmin, nx):
                row = (i + 1) * w + 1
                px = xs[i] - ax
                for j in jband:
                    if not blocked[row + j]:
                        py = ys[j] - ay
                        # t = 0 on a zero-length edge gives that function's hypot(px, py)
                        t = 0.0 if denom == 0.0 else (px * ex + py * ey) / denom
                        t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
                        if hypot(px - t * ex, py - t * ey) <= thr:
                            blocked[row + j] = 1
    return blocked


def _lattice_path(s: Scenario, resolution: float, clearance: float) -> float | None:
    """Shortest 8-connected lattice path start->goal, or None when none exists.

    Nodes within clearance of an obstacle are blocked (see _lattice_blocked);
    with clearance 0 that means on or inside one. A step needs only its
    target node free, so diagonal steps may cut corners: the model of
    jump-point search (Harabor & Grastien, AAAI 2011), whose pruning rules
    apply. After a straight move (di, 0) only (di, 0) is kept, plus (di, +-1)
    when (0, +-1) is blocked; after a diagonal (di, dj), (di, 0), (0, dj) and
    (di, dj), plus (-di, dj) when (-di, 0) is blocked and (di, -dj) when
    (0, -dj) is blocked. A jump stops at the goal, at a node with such a
    forced neighbour or, diagonally, where a straight jump would stop. A*
    with the octile heuristic orders the jump points. A jump adds its steps
    as one product, so lengths agree with a step-by-step search to 1e-12.
    """
    b = s.bounds
    nx, ny = _lattice_shape(b, resolution)
    w, h = ny + 2, nx + 2
    blocked = _lattice_blocked(s, resolution, clearance)

    def node(p: Point2) -> int | None:
        i = int(round((p.x - b.xmin) / resolution))
        j = int(round((p.y - b.ymin) / resolution))
        return (i + 1) * w + j + 1 if 0 <= i < nx and 0 <= j < ny else None

    src, dst = node(s.start), node(s.goal)
    if src is None or dst is None or blocked[src] or blocked[dst]:
        return None
    # the raster transposed, node (i, j) at (j+1)*h + (i+1), so that i-runs are contiguous too
    cols = bytearray(len(blocked))
    for c in range(w):
        cols[c * h : (c + 1) * h] = blocked[c::w]
    gi, gj = divmod(dst, w)
    dst_t = gj * h + gi

    def straight(a: bytearray, rw: int, k: int, step: int, goal: int) -> int:
        # the first jump point after k along a row of a (rows rw long), or -1; a forced
        # neighbour shows in a row beside as blocked-then-free in the direction of travel
        if step > 0:
            end = a.find(1, k + 1)
            hit = goal if k < goal < end else end
            up = a.find(b"\x01\x00", k + 1 + rw, hit + rw + 1)
            if up >= 0:
                hit = up - rw
            down = a.find(b"\x01\x00", k + 1 - rw, hit - rw + 1)
            if down >= 0:
                hit = down + rw
            return hit if hit < end else -1
        end = a.rfind(1, 0, k)
        hit = goal if end < goal < k else end
        up = a.rfind(b"\x00\x01", hit + rw, k + rw)
        if up >= 0:
            hit = up - rw + 1
        down = a.rfind(b"\x00\x01", hit - rw, k - rw)
        if down >= 0:
            hit = down + rw + 1
        return hit if hit > end else -1

    def jump(k: int, di: int, dj: int) -> int:
        # the jump point reached from k in direction (di, dj), or -1
        if not di:
            return straight(blocked, w, k, dj, dst)
        t = (k % w) * h + k // w
        if not dj:
            t = straight(cols, h, t, di, dst_t)
            return -1 if t < 0 else (t % h) * w + t // h
        step, step_t, back = di * w + dj, dj * h + di, di * w
        while True:
            k += step
            t += step_t
            if blocked[k]:
                return -1
            if (
                k == dst
                or (blocked[k - back] and not blocked[k - back + dj])
                or (blocked[k - dj] and not blocked[k + back - dj])
                or straight(blocked, w, k, dj, dst) >= 0
                or straight(cols, h, t, di, dst_t) >= 0
            ):
                return k

    diag = resolution * math.sqrt(2)
    # octile distance to the goal from a node's offsets gx, gy in nodes:
    # resolution per straight step, diag per diagonal one
    gx = [abs(i - gi) for i in range(h)]
    gy = [abs(j - gj) for j in range(w)]
    skew = diag - 2 * resolution
    everywhere = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]
    dist = {src: 0.0}
    # (f, node, g, di, dj): the direction of the jump that reached the node, (0, 0) at the start
    heap = [(0.0, src, 0.0, 0, 0)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        _, k, d, di, dj = pop(heap)
        if k == dst:
            return d
        if d > dist[k]:
            continue
        if di and dj:
            dirs = [(di, 0), (0, dj), (di, dj)]
            if blocked[k - di * w]:
                dirs.append((-di, dj))
            if blocked[k - dj]:
                dirs.append((di, -dj))
        elif di:
            dirs = [(di, e) for e in (-1, 0, 1) if not e or blocked[k + e]]
        elif dj:
            dirs = [(e, dj) for e in (-1, 0, 1) if not e or blocked[k + e * w]]
        else:
            dirs = everywhere
        for ei, ej in dirs:
            n = jump(k, ei, ej)
            if n < 0:
                continue
            steps = abs(n // w - k // w) if ei else abs(n - k)
            nd = d + steps * (diag if ei and ej else resolution)
            if nd < dist.get(n, math.inf) - 1e-15:
                dist[n] = nd
                dx, dy = gx[n // w], gy[n % w]
                push(heap, (nd + resolution * (dx + dy) + skew * (dx if dx < dy else dy), n, nd, ei, ej))
    return None
