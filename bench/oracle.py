"""Exact checks written apart from polypack, used to judge its outputs.

Nothing here imports the package.  Polygons are plain lists of integer
(x, y) pairs, counterclockwise.  Interior overlap is decided by the exact
area of the intersection: a polygon's indicator function is the signed sum
of the fan triangles (p0, p_i, p_i+1), so the intersection area of two
polygons is the signed sum of triangle-triangle intersection areas, each
found by Sutherland-Hodgman clipping over `Fraction`.  That shares no step
with the package's triangulation and separating-axis tests.
"""
from __future__ import annotations

from fractions import Fraction


def area2(pts) -> int:
    """Twice the signed area, x_i * (y_i+1 - y_i-1) form of the shoelace."""
    n = len(pts)
    return sum(pts[i][0] * (pts[(i + 1) % n][1] - pts[i - 1][1])
               for i in range(n))


def moved(pts, off):
    return [(x + off[0], y + off[1]) for x, y in pts]


def box(pts):
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return (min(xs), min(ys), max(xs), max(ys))


def boxes_meet(a, b) -> bool:
    """Open interiors of two boxes intersect."""
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def inside_convex(container, pts) -> bool:
    """Every point satisfies a*x + b*y <= c for each container edge."""
    n = len(container)
    for i in range(n):
        (x1, y1), (x2, y2) = container[i], container[(i + 1) % n]
        a, b = y2 - y1, x1 - x2
        c = a * x1 + b * y1
        for x, y in pts:
            if a * x + b * y > c:
                return False
    return True


def _side(a, b, p):
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _clip(subject, a, b):
    """Part of a convex polygon on the left of (or on) the line a->b."""
    out = []
    n = len(subject)
    for k in range(n):
        prv, cur = subject[k - 1], subject[k]
        sp, sc = _side(a, b, prv), _side(a, b, cur)
        if (sp >= 0) != (sc >= 0):
            t = Fraction(sp, sp - sc)
            out.append((prv[0] + t * (cur[0] - prv[0]),
                        prv[1] + t * (cur[1] - prv[1])))
        if sc >= 0:
            out.append(cur)
    return out


def _fan(pts):
    """(sign, ccw triangle, box) for each non-degenerate fan triangle."""
    p0 = pts[0]
    out = []
    for i in range(1, len(pts) - 1):
        tri = [p0, pts[i], pts[i + 1]]
        s = _side(*tri)
        if s == 0:
            continue
        if s < 0:
            tri = [p0, pts[i + 1], pts[i]]
        out.append((1 if s > 0 else -1, tri, box(tri)))
    return out


def _clipped_area2(tri, clip_tri) -> Fraction:
    poly = list(tri)
    for k in range(3):
        poly = _clip(poly, clip_tri[k], clip_tri[(k + 1) % 3])
        if len(poly) < 3:
            return Fraction(0)
    total = Fraction(0)
    n = len(poly)
    for i in range(n):
        total += poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1]
    return total


def overlap_area2(pa, pb) -> Fraction:
    """Twice the exact area of the intersection of two simple polygons."""
    if not boxes_meet(box(pa), box(pb)):
        return Fraction(0)
    fan_b = _fan(pb)
    total = Fraction(0)
    for sa, ta, ba in _fan(pa):
        for sb, tb, bb in fan_b:
            if boxes_meet(ba, bb):
                total += sa * sb * _clipped_area2(ta, tb)
    return total


def interiors_overlap(pa, pb) -> bool:
    return overlap_area2(pa, pb) > 0


def packing_faults(container, items, placements) -> list[str]:
    """Every reason the placements are not a feasible packing.

    `items` holds the item polygons, `placements` (index, (dx, dy)) pairs.
    Pairs are tested exhaustively, with only a box filter in front.
    """
    faults = []
    seen = set()
    shapes = []
    for idx, off in placements:
        if not 0 <= idx < len(items):
            faults.append(f"index {idx} out of range")
            continue
        if idx in seen:
            faults.append(f"index {idx} placed twice")
        seen.add(idx)
        pts = moved(items[idx], off)
        if not inside_convex(container, pts):
            faults.append(f"item {idx} not inside the container")
        shapes.append((idx, pts, box(pts)))
    for i in range(len(shapes)):
        ia, pa, ba = shapes[i]
        for j in range(i + 1, len(shapes)):
            ib, pb, bb = shapes[j]
            if boxes_meet(ba, bb) and interiors_overlap(pa, pb):
                faults.append(f"items {ia} and {ib} overlap")
    return faults


def area_bound(container_area2: int, items) -> Fraction:
    """Fractional knapsack on area: an upper bound on any packed value.

    `items` holds (area2, value) pairs; areas are doubled throughout.
    """
    cap = Fraction(container_area2)
    bound = Fraction(0)
    for a2, v in sorted(items, key=lambda it: Fraction(it[1], it[0]),
                        reverse=True):
        if a2 <= cap:
            bound += v
            cap -= a2
        else:
            bound += v * cap / a2
            break
    return bound
