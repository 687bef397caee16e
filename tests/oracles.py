"""Independent reference implementations used only to check the package.

Everything here is written from scratch against the mathematical definitions
(rational parametric intersection, Sutherland-Hodgman clipping, ray casting)
so it shares no decision path with the code under test.
"""
from __future__ import annotations

import math
from fractions import Fraction


def shoelace_area2(pts) -> int:
    # x_i * (y_{i+1} - y_{i-1}) variant of the shoelace formula
    n = len(pts)
    return sum(pts[i][0] * (pts[(i + 1) % n][1] - pts[(i - 1) % n][1])
               for i in range(n))


def _point_on_closed_segment(a, b, p) -> bool:
    if _cross(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and \
        min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def seg_intersection_exact(p1, p2, q1, q2) -> bool:
    """Closed segments share a point?  Solved parametrically over Q."""
    r = (p2[0] - p1[0], p2[1] - p1[1])
    s = (q2[0] - q1[0], q2[1] - q1[1])
    if r == (0, 0) and s == (0, 0):
        return p1 == q1
    if r == (0, 0):
        return _point_on_closed_segment(q1, q2, p1)
    if s == (0, 0):
        return _point_on_closed_segment(p1, p2, q1)
    denom = r[0] * s[1] - r[1] * s[0]
    qp = (q1[0] - p1[0], q1[1] - p1[1])
    qpxr = qp[0] * r[1] - qp[1] * r[0]
    if denom == 0:
        if qpxr != 0:
            return False  # parallel, different lines
        # collinear: project on dominant axis and compare intervals
        axis = 0 if r[0] != 0 else 1
        lo_p, hi_p = sorted((p1[axis], p2[axis]))
        lo_q, hi_q = sorted((q1[axis], q2[axis]))
        return max(lo_p, lo_q) <= min(hi_p, hi_q)
    t = Fraction(qp[0] * s[1] - qp[1] * s[0], denom)
    u = Fraction(qpxr, denom)
    return 0 <= t <= 1 and 0 <= u <= 1


def brute_force_simple(pts) -> bool:
    """All-pairs segment test straight from the definition of simplicity."""
    n = len(pts)
    if n < 3 or len(set(pts)) != n:
        return False
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = edges[i], edges[j]
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if adjacent:
                shared = set((a[0], a[1])) & set((b[0], b[1]))
                # beyond the shared endpoint nothing may coincide
                rest_a = [p for p in a if p not in shared]
                rest_b = [p for p in b if p not in shared]
                if seg_intersection_exact(rest_a[0], rest_a[0], b[0], b[1]):
                    return False
                if seg_intersection_exact(rest_b[0], rest_b[0], a[0], a[1]):
                    return False
            else:
                if seg_intersection_exact(a[0], a[1], b[0], b[1]):
                    return False
    return True


def convex_scan(pts) -> bool:
    n = len(pts)
    crosses = []
    for i in range(n):
        o, a, b = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
        crosses.append((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))
    return all(c >= 0 for c in crosses)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def point_in_convex_halfplanes(container_pts, p) -> bool:
    """Membership via the explicit half-plane form a*x + b*y <= c per edge."""
    n = len(container_pts)
    for i in range(n):
        (x1, y1), (x2, y2) = container_pts[i], container_pts[(i + 1) % n]
        # inward normal for CCW boundary: (-(y2-y1), x2-x1)
        a, b = y2 - y1, -(x2 - x1)
        c = a * x1 + b * y1
        if a * p[0] + b * p[1] > c:
            return False
    return True


def containment_row(container_pts, item_pts, ty):
    """Closed range (lo, hi) of the integers tx at which every vertex of the
    item shifted by (tx, ty) lies inside-or-on the CCW convex container, or
    None.  Each (edge, vertex) pair gives one linear bound on tx, solved
    over Q; a horizontal edge gives none on tx and is checked directly."""
    lo = hi = None
    n = len(container_pts)
    for i in range(n):
        (x1, y1), (x2, y2) = container_pts[i], container_pts[(i + 1) % n]
        for x, y in item_pts:
            # vertex (x + tx, y + ty) on or left of the edge:
            # (x2 - x1) * (y + ty - y1) - (y2 - y1) * (x + tx - x1) >= 0
            slope = y2 - y1
            rest = (x2 - x1) * (y + ty - y1) - slope * (x - x1)
            if slope == 0:
                if rest < 0:
                    return None
            elif slope > 0:
                bound = math.floor(Fraction(rest, slope))
                hi = bound if hi is None else min(hi, bound)
            else:
                bound = math.ceil(Fraction(rest, slope))
                lo = bound if lo is None else max(lo, bound)
    return (lo, hi) if lo <= hi else None


def clip_convex(subject, clip):
    """Sutherland-Hodgman over Fractions; both polygons CCW convex."""
    out = [(Fraction(x), Fraction(y)) for x, y in subject]
    m = len(clip)
    for i in range(m):
        a, b = clip[i], clip[(i + 1) % m]
        inp, out = out, []
        if not inp:
            break
        for k, cur in enumerate(inp):
            prv = inp[k - 1]
            cur_in = _cross(a, b, cur) >= 0
            prv_in = _cross(a, b, prv) >= 0
            if cur_in != prv_in:
                ca, cb = _cross(a, b, prv), _cross(a, b, cur)
                t = Fraction(ca, ca - cb)
                out.append((prv[0] + t * (cur[0] - prv[0]),
                            prv[1] + t * (cur[1] - prv[1])))
            if cur_in:
                out.append(cur)
    return out


def poly_area_fraction(pts) -> Fraction:
    if len(pts) < 3:
        return Fraction(0)
    total = Fraction(0)
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        total += Fraction(x0) * Fraction(y1) - Fraction(x1) * Fraction(y0)
    return total / 2


def overlap_by_clipping(tris_a, offset_a, tris_b, offset_b) -> bool:
    """Decisive interior-overlap oracle: some triangle pair clips to
    positive area.  Triangle lists must cover the polygons exactly."""
    ax, ay = offset_a
    bx, by = offset_b
    for ta in tris_a:
        sa = [(x + ax, y + ay) for x, y in ta]
        for tb in tris_b:
            sb = [(x + bx, y + by) for x, y in tb]
            inter = clip_convex(sa, sb)
            if inter and abs(poly_area_fraction(inter)) > 0:
                return True
    return False


def point_on_any_edge(pts, p) -> bool:
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if _cross(a, b, p) == 0 and \
           min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and \
           min(a[1], b[1]) <= p[1] <= max(a[1], b[1]):
            return True
    return False


def point_strictly_inside(pts, p) -> bool:
    """Exact ray cast (horizontal, to +x); boundary points are *not* inside."""
    if point_on_any_edge(pts, p):
        return False
    px, py = p
    crossings = 0
    n = len(pts)
    for i in range(n):
        (x1, y1), (x2, y2) = pts[i], pts[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            # x coordinate where the edge crosses the ray, exact compare
            # px < x1 + (py-y1)(x2-x1)/(y2-y1)
            lhs = (px - x1) * (y2 - y1)
            rhs = (py - y1) * (x2 - x1)
            if (y2 > y1 and lhs < rhs) or (y2 < y1 and lhs > rhs):
                crossings += 1
    return crossings % 2 == 1


def raster_interior_hit(pts_a, off_a, pts_b, off_b) -> bool:
    """Half-unit grid sampling: some sample strictly inside both polygons.
    Implies overlap when True; inconclusive when False."""
    da = [(2 * (x + off_a[0]), 2 * (y + off_a[1])) for x, y in pts_a]
    db = [(2 * (x + off_b[0]), 2 * (y + off_b[1])) for x, y in pts_b]
    lo_x = max(min(p[0] for p in da), min(p[0] for p in db))
    hi_x = min(max(p[0] for p in da), max(p[0] for p in db))
    lo_y = max(min(p[1] for p in da), min(p[1] for p in db))
    hi_y = min(max(p[1] for p in da), max(p[1] for p in db))
    for x in range(lo_x, hi_x + 1):
        for y in range(lo_y, hi_y + 1):
            if point_strictly_inside(da, (x, y)) and point_strictly_inside(db, (x, y)):
                return True
    return False


def min_rect_angle_sweep(pts, samples=10_000) -> float:
    """Upper-bound sweep: enclosing-rect area over `samples` orientations."""
    best = math.inf
    for k in range(samples):
        theta = (math.pi / 2) * k / samples
        c, s = math.cos(theta), math.sin(theta)
        us = [c * x + s * y for x, y in pts]
        ws = [-s * x + c * y for x, y in pts]
        area = (max(us) - min(us)) * (max(ws) - min(ws))
        if area < best:
            best = area
    return best


def hull_by_wrapping(points) -> list:
    """Strict counterclockwise hull by gift wrapping (Jarvis march): from
    the lexicographically least point, take each time the point with no
    other to its right, the farthest one among collinear candidates."""
    pts = sorted(set(points))
    hull = [pts[0]]
    while True:
        p = hull[-1]
        q = None
        for r in pts:
            if r == p:
                continue
            if q is None:
                q = r
                continue
            c = _cross(p, q, r)
            farther = (r[0] - p[0]) ** 2 + (r[1] - p[1]) ** 2 > \
                (q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2
            if c < 0 or (c == 0 and farther):
                q = r
        if q == hull[0]:
            return hull
        if len(hull) == len(pts):
            raise ValueError("no hull: the points are collinear")
        hull.append(q)


def min_rect_area_fraction(hull) -> Fraction:
    """Least enclosing-rectangle area over the hull's edge orientations,
    every edge's extents projected as Fractions of unit length squared."""
    best = None
    n = len(hull)
    for i in range(n):
        (ax, ay), (bx, by) = hull[i], hull[(i + 1) % n]
        dx, dy = bx - ax, by - ay
        along = [Fraction(dx * x + dy * y) for x, y in hull]
        across = [Fraction(dx * y - dy * x) for x, y in hull]
        area = (max(along) - min(along)) * (max(across) - min(across)) / (dx * dx + dy * dy)
        if best is None or area < best:
            best = area
    return best


def metric_means(polygons) -> tuple[Fraction, Fraction]:
    """(mean hull slack, mean rectangle ratio) over item outlines, as the
    Fraction formulas define them: (hull area - area) / hull area and
    area / minimum enclosing-rectangle area."""
    slack = Fraction(0)
    rect_ratio = Fraction(0)
    for pts in polygons:
        area = Fraction(shoelace_area2(pts), 2)
        hull = hull_by_wrapping(pts)
        hull_area = Fraction(shoelace_area2(hull), 2)
        slack += (hull_area - area) / hull_area
        rect_ratio += area / min_rect_area_fraction(hull)
    return slack / len(polygons), rect_ratio / len(polygons)


def max_ccw_subset_area2(points) -> int:
    """Max doubled area over all subsets that form a convex CCW polygon.
    Exponential; for small point sets only."""
    pts = sorted(set(points))
    n = len(pts)
    best = 0
    for mask in range(1, 1 << n):
        sub = [pts[i] for i in range(n) if mask >> i & 1]
        if len(sub) < 3:
            continue
        ordered = sort_ccw(sub)
        if ordered is None:
            continue
        if convex_scan(ordered):
            a2 = shoelace_area2(ordered)
            if a2 > best:
                best = a2
    return best


def cells_outline(cells):
    """CCW outline of an edge-connected set of unit cells.

    Directed boundary edges keep the interior on their left; stitching them
    start-to-end yields the cycle.  Diagonal pinches (two outgoing edges at a
    vertex) are rejected because they make the outline non-simple.
    """
    nxt = {}
    for x, y in cells:
        for edge in filter(None, [
            ((x, y), (x + 1, y)) if (x, y - 1) not in cells else None,
            ((x + 1, y), (x + 1, y + 1)) if (x + 1, y) not in cells else None,
            ((x + 1, y + 1), (x, y + 1)) if (x, y + 1) not in cells else None,
            ((x, y + 1), (x, y)) if (x - 1, y) not in cells else None,
        ]):
            if edge[0] in nxt:
                raise ValueError("pinched outline")
            nxt[edge[0]] = edge[1]
    start = min(nxt)
    cycle = [start]
    cur = nxt[start]
    while cur != start:
        cycle.append(cur)
        cur = nxt[cur]
    if len(cycle) != len(nxt):
        raise ValueError("disconnected boundary")
    out = []
    n = len(cycle)
    for i in range(n):
        a, b, c = cycle[i - 1], cycle[i], cycle[(i + 1) % n]
        if (b[0] - a[0]) * (c[1] - a[1]) != (b[1] - a[1]) * (c[0] - a[0]):
            out.append(b)
    return out


def sort_ccw(sub):
    """Angular sort around the centroid with exact comparisons; None if any
    two points share a direction from the centroid (can't order)."""
    k = len(sub)
    cx = Fraction(sum(p[0] for p in sub), k)
    cy = Fraction(sum(p[1] for p in sub), k)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    import functools

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        cr = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        if cr == 0:
            return 0
        return -1 if cr > 0 else 1

    ordered = sorted(sub, key=functools.cmp_to_key(cmp))
    for i in range(k):
        if cmp(ordered[i], ordered[(i + 1) % k]) == 0:
            return None
    return ordered


def cells_connected(cells) -> bool:
    """Edge-connected cell set?  Flood fill over the four neighbours."""
    if not cells:
        return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        c = stack.pop()
        if c in seen or c not in cells:
            continue
        seen.add(c)
        x, y = c
        stack.extend(((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)))
    return len(seen) == len(cells)
