"""Exact geometric primitives on integer-coordinate polygons.

Every decision (simplicity, convexity, containment, interior overlap) is made
with integer or rational arithmetic only; Python's arbitrary-precision ints
mean cross products never overflow.  Areas are returned as `Fraction` so the
shoelace half is kept exact.

Interior-overlap semantics: two placements conflict only if their *open*
interiors intersect.  Touching boundaries (shared edges or vertices) is legal,
which is what lets cut-up container pieces be reassembled exactly.

Offsets, like coordinates, are integers: both public predicates
(`interiors_overlap`, `contained_in_convex`), and so the verifier, read
them through `operator.index`, so a float offset raises TypeError instead
of being truncated.  The solver passes only its own ints
and calls the unchecked kernel `no_fit_exit` on the polygons' parts.  The
overlap predicates do not compare the placements' whole bounding boxes;
that filter is the caller's broad phase (`BoxIndex.query`).
Polygons are only translated, so each check is decided in one place, by
the half-planes of a fixed convex polygon of offsets.  Containment: an item's
translations inside the convex container form its inner-fit polygon
(`inner_fit`): the offset box, container box less item box, which stands for
every horizontal and vertical container edge, cut by one half-plane per
slanted edge; `containment_range` reads it a row at a time.  Overlap: the
offsets at which two convex parts overlap form their no-fit polygon, and
`no_fit_exit`, the one copy of the part-pair loop, tests its half-planes
k + u*dx + v*dy > 0, one per part edge; `interiors_overlap` checks the
offsets and calls it.  A hit also hands back the hit pair's half-planes,
from which `no_fit_rise` reads how far up they hold two columns.  A caller
that probes many offsets of the same polygons (the solver's grid scan)
may pass a memo that keeps each pair's half-planes between calls;
`interiors_overlap`, and so the verifier, passes none, so verifying keeps
no per-pair tables.  `in_inner_fit`, the one inner-fit test, serves both
`contained_in_convex` and the solver's `can_place`.  The generators trace
outlines with `trace_boundary`, drop straight vertices with
`drop_straight` and move point lists to the origin with `to_origin`.
A checked Polygon that is only flipped and turned by quarter turns is
moved by `lattice_image` instead: a signed permutation matrix maps Z^2
onto itself and keeps distances, so the image is again simple, integral
and of the same area.  A checked rectilinear outline on an index lattice
may first be stretched by strictly increasing integer scales per axis,
vertex (i, j) to (xs[i], ys[j]): extended piecewise linearly the scales
are an orientation-preserving homeomorphism of the plane that keeps
axis-parallel edges straight, so that image is simple too.  It is still
the one Polygon built without `Polygon.__init__`'s checks.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence


class GeometryError(ValueError):
    pass


class AllCollinear(GeometryError):
    """Raised when a point set has no 2D extent (no hull exists)."""


Coord = tuple[int, int]
Box = tuple[int, int, int, int]  # minx, miny, maxx, maxy


def boxes_interior_overlap(a: Box, b: Box) -> bool:
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def _bbox(pts: Sequence[Coord]) -> Box:
    xs, ys = zip(*pts)
    return (min(xs), min(ys), max(xs), max(ys))


def round_ratio(num: int, den: int) -> int:
    """num / den rounded to the nearest integer, ties toward +infinity: the
    one rounding rule of the generators and valuation, which hold a value
    as an integer ratio rather than a Fraction.

    num / den need not be in lowest terms, and den may be negative (the
    sign is moved to num first); den must not be 0.
    """
    if den < 0:
        num, den = -num, -den
    return (2 * num + den) // (2 * den)


def _coords(poly) -> tuple[Coord, ...]:
    """Accept a Polygon or any iterable of (x, y) pairs.

    Coordinates must be integral: operator.index raises TypeError on floats
    rather than silently truncating.  A point with other than two values
    raises GeometryError rather than being cut to its first two.
    """
    if isinstance(poly, Polygon):
        return poly.coords
    index = operator.index
    try:
        return tuple([(index(x), index(y)) for x, y in poly])
    except ValueError:  # unpacking a point of the wrong length
        raise GeometryError("every point must be an (x, y) pair") from None


def cross(o: Coord, a: Coord, b: Coord) -> int:
    """Signed parallelogram area of (a-o) x (b-o): >0 means b left of o->a."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def signed_area2(poly) -> int:
    """Twice the signed shoelace area; positive iff counterclockwise."""
    return _area2(_coords(poly))


def _area2(pts: Sequence[Coord]) -> int:
    """`signed_area2` of points `_coords` has already converted."""
    total = 0
    x0, y0 = pts[-1]
    for x1, y1 in pts:
        total += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return total


def _on_segment(p: Coord, q: Coord, r: Coord) -> bool:
    # q collinear with p-r assumed; is q within the bounding span?
    return (min(p[0], r[0]) <= q[0] <= max(p[0], r[0])
            and min(p[1], r[1]) <= q[1] <= max(p[1], r[1]))


def segments_intersect(p1: Coord, p2: Coord, q1: Coord, q2: Coord) -> bool:
    """True iff closed segments share at least one point (touching counts)."""
    d1 = cross(q1, q2, p1)
    d2 = cross(q1, q2, p2)
    d3 = cross(p1, p2, q1)
    d4 = cross(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) or d1 == 0 or d2 == 0) and \
       ((d3 > 0) != (d4 > 0) or d3 == 0 or d4 == 0):
        # Sign pattern permits intersection; settle collinear/touching cases.
        if d1 == 0 and _on_segment(q1, p1, q2):
            return True
        if d2 == 0 and _on_segment(q1, p2, q2):
            return True
        if d3 == 0 and _on_segment(p1, q1, p2):
            return True
        if d4 == 0 and _on_segment(p1, q2, p2):
            return True
        return d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0
    return False


def is_simple(poly) -> bool:
    """No repeated vertices, no zero-length edges, and non-adjacent edges
    never meet; adjacent edges meet only at their shared endpoint.

    `_walk` builds every edge's closed bounding box and finds spikes (an
    edge folding back over the one before it) in the same pass that
    `Polygon` reads its area and bounding box from.  `_edges_cross` then
    sweeps the boxes in order of min x (the broad phase of Shamos & Hoey's
    segment-intersection sweep): each box is compared with the later ones
    until one starts right of its max x, and only non-adjacent edges whose
    closed boxes meet reach `segments_intersect`.  Polygons whose edges are
    short against their extent cost O(n log n); edges that all share one
    x-range (a comb of long horizontal teeth) still cost n(n-1)/2 box
    comparisons, which only the full Shamos-Hoey line sweep would bound by
    O(n log n).
    """
    pts = _coords(poly)
    n = len(pts)
    if n < 3 or len(set(pts)) != n:
        return False
    boxes = _walk(pts)[2]
    return boxes is not None and not _edges_cross(pts, boxes)


def _walk(pts: Sequence[Coord]) -> tuple[int, Box, Optional[list]]:
    """One pass over the vertices of a closed chain of at least 2 points:
    (twice its signed area, its bounding box, its edge boxes), the edge
    boxes None if an edge folds back over the one before it (a spike).

    Each edge box is (minx, maxx, miny, maxy, i) of edge i, pts[i] ->
    pts[i + 1], with i running from -1 (the closing edge) to n - 2.
    """
    (ax, ay), (bx, by) = pts[-2], pts[-1]
    ex, ey = bx - ax, by - ay
    area2 = 0
    left = right = bx
    bottom = top = by
    spike = False
    boxes = []
    for i, (cx, cy) in enumerate(pts, -1):
        fx, fy = cx - bx, cy - by
        area2 += bx * cy - cx * by
        # edges e = a->b and f = b->c: a spike if f runs back along e
        if ex * fy == ey * fx and ex * fx + ey * fy < 0:
            spike = True
        if bx <= cx:
            x0, x1 = bx, cx
        else:
            x0, x1 = cx, bx
        if by <= cy:
            y0, y1 = by, cy
        else:
            y0, y1 = cy, by
        if x0 < left:
            left = x0
        if x1 > right:
            right = x1
        if y0 < bottom:
            bottom = y0
        if y1 > top:
            top = y1
        boxes.append((x0, x1, y0, y1, i))
        ex, ey, bx, by = fx, fy, cx, cy
    return area2, (left, bottom, right, top), None if spike else boxes


def _edges_cross(pts: Sequence[Coord], boxes: list) -> bool:
    """True iff two non-adjacent edges meet, given every edge's box as
    `_walk` builds them; sorts `boxes` in place."""
    n = len(pts)
    boxes.sort()
    for k in range(n):
        _, x1, y0, y1, i = boxes[k]
        for m in range(k + 1, n):
            u0, _, v0, v1, j = boxes[m]
            if u0 > x1:
                break
            if v0 > y1 or v1 < y0:
                continue
            d = i - j
            if d == 1 or d == -1 or d == n - 1 or d == 1 - n:
                continue  # adjacent edges share their endpoint
            if segments_intersect(pts[i], pts[i + 1], pts[j], pts[j + 1]):
                return True
    return False


def is_convex(poly) -> bool:
    """Every consecutive triple turns left or goes straight (CCW input)."""
    pts = _coords(poly)
    n = len(pts)
    for i in range(n):
        if cross(pts[i], pts[(i + 1) % n], pts[(i + 2) % n]) < 0:
            return False
    return True


def ensure_ccw(points: Sequence) -> list[Coord]:
    """The points as a list, reversed if clockwise; `_coords` converts them
    once."""
    pts = list(_coords(points))
    if _area2(pts) < 0:
        pts.reverse()
    return pts


def drop_straight(pts: Sequence[Coord]) -> list[Coord]:
    """The closed chain pts less every vertex collinear with its two
    neighbours in pts, in one pass: on a chain without spikes, dropping a
    straight vertex leaves the turns of the others as they were."""
    return [b for (ax, ay), b, (cx, cy)
            in zip(pts[-1:] + pts[:-1], pts, pts[1:] + pts[:1])
            if (b[0] - ax) * (cy - ay) != (b[1] - ay) * (cx - ax)]


def trace_boundary(edges: Sequence[tuple[Coord, Coord]],
                   start: Optional[Coord] = None) -> list[Coord]:
    """The cycle of a boundary's directed edges (a, b), shared edges already
    removed, walked from `start` (default: the least vertex), straight
    vertices dropped.  GeometryError if a vertex has two outgoing edges (a
    pinch) or if the walk misses an edge (a second cycle or a stray edge)."""
    nxt = dict(edges)
    if len(nxt) != len(edges):
        raise GeometryError("boundary pinches at a vertex")
    v = start = min(nxt) if start is None else start
    cycle = []
    while (w := nxt.pop(v, None)) is not None:  # each step takes its edge out
        cycle.append(v)
        v = w
    if v != start or nxt:
        raise GeometryError("boundary is not a single cycle")
    return drop_straight(cycle)


def to_origin(pts: Sequence[Coord]) -> tuple[list[Coord], Coord]:
    """pts moved so that their bounding box starts at (0, 0), and the
    corner (minx, miny) they were moved from."""
    xs, ys = zip(*pts)
    ox, oy = min(xs), min(ys)
    return [(x - ox, y - oy) for x, y in pts], (ox, oy)


class Polygon:
    """Immutable simple polygon, counterclockwise, integer vertices.

    Construction validates the full invariant (integer pairs, simplicity,
    positive area), so holding a Polygon is proof the shape is usable;
    predicates never re-validate.  After `_coords` converts the points, one
    walk over them (`_walk`) gives the doubled area, the bounding box, the
    spike test and the edge boxes that `is_simple`'s sweep reads.  The first
    failing check names the error: fewer than 3 vertices, then area <= 0
    (clockwise or degenerate), then not simple.  Derived data (convexity,
    convex parts) is cached on first use.  `lattice_image` is the one other
    way to build one: from a checked Polygon, by a map that keeps the
    invariant.
    """

    __slots__ = ("coords", "_area2", "_bbox", "_convex", "_parts")

    def __init__(self, vertices: Iterable):
        pts = _coords(vertices)
        n = len(pts)
        if n < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        area2, bbox, boxes = _walk(pts)
        if area2 <= 0:
            raise GeometryError("polygon must be counterclockwise with positive area")
        if len(set(pts)) != n or boxes is None or _edges_cross(pts, boxes):
            raise GeometryError("polygon is not simple")
        self.coords = pts
        self._area2 = area2
        self._bbox = bbox
        self._convex = None
        self._parts = None

    @property
    def bbox(self) -> tuple[int, int, int, int]:
        return self._bbox

    @property
    def area2(self) -> int:
        return self._area2

    @property
    def area(self) -> Fraction:
        return Fraction(self._area2, 2)

    @property
    def convex(self) -> bool:
        if self._convex is None:
            self._convex = is_convex(self.coords)
        return self._convex

    @property
    def parts(self) -> tuple[tuple[tuple[Coord, ...], Box, tuple], ...]:
        """Convex pieces as (vertices, bounding box, edges as `_edges` gives
        them): the polygon itself if it is convex, else its triangles."""
        if self._parts is None:
            pieces = (self.coords,) if self.convex else triangulate(self.coords)
            self._parts = tuple((p, _bbox(p), _edges(p)) for p in pieces)
        return self._parts

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Polygon({len(self.coords)} vertices, area={self.area})"


def lattice_image(poly: Polygon, a: int, b: int, c: int, d: int,
                  xs: Optional[Sequence[int]] = None,
                  ys: Optional[Sequence[int]] = None) -> Polygon:
    """poly mapped by (x, y) -> (a*x + b*y, c*x + d*y) and moved so that its
    bounding box starts at (0, 0), as a Polygon built without re-checking.

    The matrix must be a signed permutation: ints, one of a and b is +-1
    and the other 0, and the same for c and d, in the other column.  Such a
    map permutes Z^2 and is an isometry, so it keeps every vertex integral
    and distinct, every edge crossing or not, and the area; the image of a
    simple polygon is simple.  A map of determinant -1 turns the vertex
    order clockwise, so the list is then reversed, which is the list
    `ensure_ccw` would give.  The bounding box and the moving corner come
    from poly's box.

    With scales xs and ys, poly is an outline on an index lattice, and each
    vertex (i, j) is first moved to (xs[i], ys[j]).  The scales must be
    strictly increasing ints, every edge of poly axis-parallel, and every
    coordinate an index of its scale.  Extended piecewise linearly, the
    scales give an orientation-preserving homeomorphism (x, y) ->
    (X(x), Y(y)) of the plane that maps each axis-parallel edge onto the
    segment between its endpoints' images, so the image of a simple
    counterclockwise rectilinear polygon is again simple and
    counterclockwise, with distinct vertices, each corner still a corner,
    and convex just when poly is.  Its area is the image's shoelace sum and
    its box the scales' extent over poly's box.

    This is the only way to build a Polygon without `Polygon.__init__`'s
    checks; anything else raises ValueError.
    """
    if type(poly) is not Polygon:
        raise ValueError("lattice_image maps a Polygon")
    if not (type(a) is type(b) is type(c) is type(d) is int
            and a * a + b * b == 1 and c * c + d * d == 1 and a * c + b * d == 0):
        raise ValueError(f"not a signed permutation matrix: {(a, b, c, d)}")
    minx, miny, maxx, maxy = poly._bbox
    pts = poly.coords
    if xs is not None or ys is not None:
        if xs is None or ys is None:
            raise ValueError("lattice_image takes both scales or neither")
        if not (0 <= minx and maxx < len(xs) and 0 <= miny and maxy < len(ys)):
            raise ValueError("a vertex does not index the scales")
        for scale in (xs, ys):
            u = None
            for v in scale:
                if type(v) is not int or (u is not None and v <= u):
                    raise ValueError("scales must be strictly increasing ints")
                u = v
        x0, y0 = pts[-1]
        for x1, y1 in pts:
            if x0 != x1 and y0 != y1:
                raise ValueError("scaled outline has an edge that is not "
                                 "axis-parallel")
            x0, y0 = x1, y1
        pts = [(xs[i], ys[j]) for i, j in pts]
        minx, miny, maxx, maxy = xs[minx], ys[miny], xs[maxx], ys[maxy]
    if b == 0:  # x -> a*x, y -> d*y
        ox = minx if a > 0 else -maxx
        oy = miny if d > 0 else -maxy
        pts = [(a * x - ox, d * y - oy) for x, y in pts]
        box = (0, 0, maxx - minx, maxy - miny)
    else:  # x -> b*y, y -> c*x
        ox = miny if b > 0 else -maxy
        oy = minx if c > 0 else -maxx
        pts = [(b * y - ox, c * x - oy) for x, y in pts]
        box = (0, 0, maxy - miny, maxx - minx)
    if a * d - b * c < 0:
        pts.reverse()
    image = Polygon.__new__(Polygon)
    image.coords = tuple(pts)
    image._area2 = poly._area2 if xs is None else _area2(pts)
    image._bbox = box
    image._convex = poly._convex
    image._parts = None
    return image


def _hull(points: Iterable) -> tuple[Coord, ...]:
    """Strict counterclockwise hull of a point set as a coords tuple, by
    Andrew's monotone chain; collinear boundary points are dropped and the
    hull starts at the lexicographically least point.  Each chain's turn
    test is `cross` written out."""
    pts = sorted(set(_coords(points)))
    if len(pts) < 3:
        raise AllCollinear("need at least 3 distinct points")
    lower: list[Coord] = []
    for p in pts:
        px, py = p
        while len(lower) >= 2:
            (ox, oy), (ax, ay) = lower[-2], lower[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                break
            lower.pop()
        lower.append(p)
    upper: list[Coord] = []
    for p in reversed(pts):
        px, py = p
        while len(upper) >= 2:
            (ox, oy), (ax, ay) = upper[-2], upper[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                break
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise AllCollinear("all points collinear")
    return tuple(hull)


def convex_hull(points: Iterable) -> Polygon:
    """Strict counterclockwise hull (collinear boundary points dropped)."""
    return Polygon(_hull(points))


def _rect_extents(hull: Sequence[Coord]) -> tuple[int, int, int]:
    """(du, dw, den) of the minimum-area enclosing rectangle of a hull as
    `_hull` returns it: along the hull edge e it lies on, its sides are
    du / |e| and dw / |e| and its area is du * dw / den, with den = |e|^2.

    Rotating calipers (Toussaint 1983): one candidate orientation per hull
    edge.  For edge i with direction (dx, dy), u = dx*x + dy*y projects a
    vertex along it and w = dx*y - dy*x across it; du is max u - min u and
    dw is max w minus w at the edge.  Three pointers (max u, min u, max w)
    follow the edges counterclockwise and only move forward, so the walk
    is O(h).  Candidates are compared by integer cross-multiplication, and
    the first least-area edge in hull order wins ties.
    """
    h = len(hull)
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    hi = lo = top = 1
    best_num = best_den = best_du = best_dw = None
    for i in range(h):
        ax, ay = xs[i], ys[i]
        dx, dy = xs[(i + 1) % h] - ax, ys[(i + 1) % h] - ay
        # a strict convex hull has unimodal projections: each maximum or
        # minimum is reached by walking forward while the value improves
        u_hi = dx * xs[hi] + dy * ys[hi]
        while True:
            j = (hi + 1) % h
            u = dx * xs[j] + dy * ys[j]
            if u <= u_hi:
                break
            hi, u_hi = j, u
        if i == 0:
            lo = hi  # the minimum follows the maximum
        u_lo = dx * xs[lo] + dy * ys[lo]
        while True:
            # <= steps off a tie at the maximum, where the walk may start
            j = (lo + 1) % h
            u = dx * xs[j] + dy * ys[j]
            if u > u_lo:
                break
            lo, u_lo = j, u
        w_top = dx * ys[top] - dy * xs[top]
        while True:
            j = (top + 1) % h
            w = dx * ys[j] - dy * xs[j]
            if w <= w_top:
                break
            top, w_top = j, w
        du = u_hi - u_lo
        dw = w_top - (dx * ay - dy * ax)
        num, den = du * dw, dx * dx + dy * dy
        if best_num is None or num * best_den < best_num * den:
            best_num, best_den, best_du, best_dw = num, den, du, dw
    return best_du, best_dw, best_den


def min_area_bounding_rect(poly) -> Fraction:
    """Area of the least enclosing rectangle in any orientation (`_rect_extents`)."""
    du, dw, den = _rect_extents(_hull(poly))
    return Fraction(du * dw, den)


def _point_in_closed_triangle(p: Coord, a: Coord, b: Coord, c: Coord) -> bool:
    return cross(a, b, p) >= 0 and cross(b, c, p) >= 0 and cross(c, a, p) >= 0


def triangulate(poly) -> list[tuple[Coord, Coord, Coord]]:
    """Ear-clip a simple CCW polygon into n-2 CCW triangles.

    An ear is accepted only if no other remaining vertex lies in the closed
    candidate triangle, which is exactly diagonal validity for simple
    polygons; straight (collinear) vertices are dropped as they carry no
    area.  Meisters' two-ears theorem guarantees progress.
    """
    work = list(_coords(poly))
    triangles: list[tuple[Coord, Coord, Coord]] = []
    while len(work) > 3:
        n = len(work)
        straight = None
        for i in range(n):
            if cross(work[i - 1], work[i], work[(i + 1) % n]) == 0:
                straight = i
                break
        if straight is not None:
            del work[straight]
            continue
        clipped = False
        for i in range(n):
            a, b, c = work[i - 1], work[i], work[(i + 1) % n]
            if cross(a, b, c) <= 0:
                continue
            if any(_point_in_closed_triangle(p, a, b, c)
                   for j, p in enumerate(work)
                   if j not in (i - 1 if i else n - 1, i, (i + 1) % n)):
                continue
            triangles.append((a, b, c))
            del work[i]
            clipped = True
            break
        if not clipped:
            raise GeometryError("ear clipping stalled; polygon not simple?")
    if cross(work[0], work[1], work[2]) > 0:
        triangles.append(tuple(work))
    return triangles


def _edges(pts: Sequence[Coord]) -> tuple[tuple[int, int, int], ...]:
    """Edges of a CCW polygon, edge i running from vertex i-1 to vertex i, as
    (ex, ey, ex*ay - ey*ax) with (ax, ay) its start: a point p lies strictly
    left of the edge iff ex*py - ey*px > ex*ay - ey*ax."""
    out = []
    ax, ay = pts[-1]
    for bx, by in pts:
        ex, ey = bx - ax, by - ay
        out.append((ex, ey, ex * ay - ey * ax))
        ax, ay = bx, by
    return tuple(out)


def _extend_no_fit(planes: list, pa: Sequence[Coord], ea, pb: Sequence[Coord],
                   eb, dx: int, dy: int, least: Optional[int]) -> Optional[int]:
    """Derive the no-fit half-planes of parts pa and pb missing from
    `planes`, appending each, until one separates the parts at (dx, dy) or
    the list is whole.  None if one separates; else the least ceil(m / u)
    over the margins m of the planes with u > 0, the new ones and `least`,
    that of the planes already known.

    `planes` holds the half-planes (u, v, k) of pa's edges, then of pb's, in
    edge order.  An edge of pa fails to separate iff some vertex of pb
    shifted by (dx, dy) lies strictly left of it, and an edge of shifted pb
    iff some vertex of pa does (SAT over both parts' edge lines, with
    contact on the axis allowed)."""
    na = len(ea)
    for i in range(len(planes), na + len(eb)):
        if i < na:
            ex, ey, c = ea[i]
            u, v, pts = -ey, ex, pb
        else:
            ex, ey, c = eb[i - na]
            u, v, pts = ey, -ex, pa
        # greatest ex*y - ey*x over the other part; an explicit loop is
        # cheaper here than max() over a comprehension
        k = None
        for x, y in pts:
            w = ex * y - ey * x
            if k is None or w > k:
                k = w
        k -= c
        planes.append((u, v, k))
        m = k + u * dx + v * dy
        if m <= 0:
            return None
        if u > 0:
            m = -(-m // u)
            if least is None or m < least:
                least = m
    return least


def interiors_overlap(a: Polygon, ta, b: Polygon, tb) -> bool:
    """True iff the open interiors of the translated polygons intersect;
    boundary contact is not overlap.  The checked entry to `no_fit_exit`:
    the offsets are read through `operator.index`, so a float raises
    TypeError, and no memo is passed.  The whole bounding boxes are not
    compared first; that filter is the caller's broad phase.
    """
    tx = operator.index(ta[0])
    return no_fit_exit(a.parts, b.parts, tx, operator.index(tb[0]) - tx,
                       operator.index(tb[1]) - operator.index(ta[1])) is not None


def no_fit_exit(aparts, bparts, tx: int, dx: int, dy: int,
                memo: Optional[dict] = None) -> Optional[int]:
    """Where a row of overlaps ends, for a polygon with convex parts
    `aparts` at (tx, ty) and one with parts `bparts` at (tx + dx, ty + dy),
    on plain ints, which it does not check.  None if their open interiors
    do not meet; else `(x, planes)`: an integer x > tx such that the first,
    translated by (x', ty), still meets the second for every integer x' in
    [tx, x), and the half-planes of the part pair that gave it.

    Interiors meet iff some pair of parts' interiors meet.  Without
    rotation, the offsets (dx, dy) of b against a at which two parts
    overlap form one fixed open convex polygon, their no-fit polygon
    (Bennell & Oliveira 2008): the half-planes k + u*dx + v*dy > 0, one per
    edge of either part.  The first pair of parts, in part order, whose
    boxes meet and whose half-planes all hold gives the exit: a moving right
    by one lowers dx by one, so a margin m with u > 0 lasts ceil(m / u)
    steps, and the row ends at tx plus the least of them, taken in the
    pass that tests the half-planes.  That pair's list is complete, as
    `_extend_no_fit` derives to the end unless a plane separates.

    `memo`, if given, is a dict the caller keeps across calls on the same
    polygons, such as every probe of one grid scan.  It holds each part
    pair's half-planes, keyed by the parts' identity and filled only as far
    as a probe needed, so it must not outlive the polygons.  Results do not
    depend on it.
    """
    for pa, (ax0, ay0, ax1, ay1), ea in aparts:
        for pb, (bx0, by0, bx1, by1), eb in bparts:
            # boxes_interior_overlap inlined: this loop is the solver's hot path
            if not (ax0 < bx1 + dx and bx0 + dx < ax1
                    and ay0 < by1 + dy and by0 + dy < ay1):
                continue
            if memo is None:
                planes = []
            else:
                key = (id(ea), id(eb))
                planes = memo.get(key)
                if planes is None:
                    planes = memo[key] = []
            least = None  # the least step count over the known planes
            for u, v, k in planes:
                m = k + u * dx + v * dy
                if m <= 0:
                    break
                if u > 0:
                    m = -(-m // u)
                    if least is None or m < least:
                        least = m
            else:
                if len(planes) < len(ea) + len(eb):
                    least = _extend_no_fit(planes, pa, ea, pb, eb, dx, dy, least)
                if least is not None:
                    return tx + least, planes
    return None


def no_fit_rise(planes, dx0: int, dx1: int, dy: int) -> int:
    """The least r such that (dx0, dy - r) or (dx1, dy - r), dx1 <= dx0,
    lies outside the no-fit polygon of the complete half-planes `planes`,
    or 0 if one already does: a row up lowers dy by one, so a margin falls
    by v, the lesser of the two columns' margins is at dx1 if u > 0, and a
    bounded polygon has a plane with v > 0."""
    rise = None
    for u, v, k in planes:
        m = k + u * (dx1 if u > 0 else dx0) + v * dy
        if m <= 0:
            return 0
        if v > 0:
            m = -(-m // v)
            if rise is None or m < rise:
                rise = m
    return rise


def contained_in_convex(container: Polygon, item: Polygon, t) -> bool:
    """All translated item vertices inside-or-on the convex container (which
    suffices, as it is convex): t[0] lies in the `inner_fit` row at t[1]."""
    return in_inner_fit(inner_fit(container, item),
                        operator.index(t[0]), operator.index(t[1]))


def inner_fit(container: Polygon, item: Polygon) -> tuple:
    """The item's inner-fit polygon in the convex container (Bennell &
    Oliveira 2008): the offsets (tx, ty) at which the translated item is
    inside-or-on, as (lox, hix, loy, hiy, planes).

    A horizontal or vertical edge of a convex polygon lies on its bounding
    box, so its half-plane is one side of the offset box [lox, hix] x
    [loy, hiy], the container's box less the item's.  `planes` holds one
    half-plane (ex, ey, c) per slanted edge, which keeps the item inside iff
    ey*tx <= ex*ty + c: edge e = b - a keeps item vertex (x, y) on its left
    iff ey*(x + tx - ax) <= ex*(y + ty - ay), so c = ey*ax - ex*ay + the
    least ex*y - ey*x over the item's vertices.  An axis rectangle has no
    planes."""
    planes = []
    ax, ay = container.coords[-1]
    for bx, by in container.coords:
        ex, ey = bx - ax, by - ay
        if ex and ey:
            # an explicit loop is cheaper here than min() over a generator
            least = None
            for x, y in item.coords:
                v = ex * y - ey * x
                if least is None or v < least:
                    least = v
            planes.append((ex, ey, ey * ax - ex * ay + least))
        ax, ay = bx, by
    cx0, cy0, cx1, cy1 = container.bbox
    ix0, iy0, ix1, iy1 = item.bbox
    return cx0 - ix0, cx1 - ix1, cy0 - iy0, cy1 - iy1, tuple(planes)


def containment_range(fit, ty: int) -> Optional[tuple[int, int]]:
    """Closed range (lo, hi) of the integers tx at which the item translated
    by (tx, ty) is inside-or-on the container, or None if there are none:
    one row of the inner-fit polygon `fit`, in O(slanted container edges).
    The row starts as the offset box's [lox, hix] if ty is in [loy, hiy],
    and each slanted half-plane lowers hi if ey > 0 and raises lo if
    ey < 0."""
    lo, hi, loy, hiy, planes = fit
    if not loy <= ty <= hiy:
        return None
    for ex, ey, c in planes:
        r = ex * ty + c
        if ey > 0:
            bound = r // ey
            if bound < hi:
                hi = bound
        else:
            bound = -(r // -ey)  # ceil(r / ey)
            if bound > lo:
                lo = bound
    return (lo, hi) if lo <= hi else None


def in_inner_fit(fit, tx: int, ty: int) -> bool:
    """True iff tx lies in the row of the inner-fit polygon `fit` at ty."""
    row = containment_range(fit, ty)
    return row is not None and row[0] <= tx <= row[1]
