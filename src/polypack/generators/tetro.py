"""Tetris-derived polyomino generators (atris) and their sheared variant
(satris).

Items come from seven shape categories built on a small cell grid; each
column and row of cells gets an independently random pixel width/height, and
multi-arm shapes take bounded random arm parameters so the shape class and
edge-connectivity are always preserved.

The categories reach only a few dozen distinct cell sets (69 in 60,000
draws), so each set's outline is traced once, by `cells_to_outline`, and
kept in `_OUTLINES` as its vertices' column and row indices with the set's
column and row counts; the dict is bounded by the family.  An item then takes one integer
map and one check:
- its drawn pixel sizes become cumulative lists, so each outline vertex is
  two list lookups (`_pixel_scaled`);
- the result is checked once, as a Polygon; a sheared satris item is
  checked as `Polygon(ensure_ccw(sheared))` instead, and that check is the
  shear's retry test;
- its two flip coins and quarter turns compose into one signed permutation
  matrix, and `geom.lattice_image` builds the flipped, turned copy moved to
  the origin without a second check (`_flip_rotate`).

Generation stops when total item area exceeds t * container area; values are
area times a uniform [0.8, 1.2] factor times a per-category difficulty
constant (sheared items get an extra boost growing with the shear magnitude).
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from ..geom import (GeometryError, Polygon, ensure_ccw, lattice_image,
                    round_ratio, trace_boundary)
from ..model import Instance, Item
from ..rng import Rng
from .config import (MAX_RECT_CONTAINER_AREA, SHEAR_M_RANGE,
                     VALUE_SCALE_RANGE, GenConfig, GenerationFailed)

CATEGORIES = ("line", "squiggly", "double_squiggly", "y", "t", "l", "plus")

# harder-to-pack categories weigh more; line is the baseline
CATEGORY_VALUE = {
    "line": Fraction(1),
    "l": Fraction(11, 10),
    "t": Fraction(11, 10),
    "squiggly": Fraction(6, 5),
    "plus": Fraction(13, 10),
    "y": Fraction(13, 10),
    "double_squiggly": Fraction(7, 5),
}

SHEAR_VALUE_CONSTANT = Fraction(6, 5)


def shear_value_factor(m: Fraction) -> Fraction:
    """Value multiplier for sheared items; strictly increasing in m."""
    return SHEAR_VALUE_CONSTANT * (1 + Fraction(m) / 4)


def _row(y: int, x0: int, length: int):
    return {(x, y) for x in range(x0, x0 + length)}


def _nonzero_offset(rng: Rng, bound: int) -> int:
    # uniform over {-bound..-1, 1..bound}
    v = rng.in_range(1, bound)
    return -v if rng.coin() else v


def polyomino_cells(rng: Rng, category: str) -> set[tuple[int, int]]:
    """Random cell set for a category; arm parameters are bounded so the
    result stays edge-connected and recognizably of its category."""
    if category == "line":
        return _row(0, 0, rng.in_range(3, 5))
    if category == "squiggly":
        r = rng.in_range(2, 3)
        return _row(0, 0, r) | _row(1, _nonzero_offset(rng, r - 1), r)
    if category == "double_squiggly":
        r = rng.in_range(2, 3)
        o1 = _nonzero_offset(rng, r - 1)
        o2 = _nonzero_offset(rng, r - 1)
        return _row(0, 0, r) | _row(1, o1, r) | _row(2, o1 + o2, r)
    if category == "y":
        stem = rng.in_range(3, 5)
        bump = rng.in_range(1, stem - 2)
        return {(0, j) for j in range(stem)} | {(1, bump)}
    if category == "t":
        bar = rng.in_range(3, 5)
        stem = rng.in_range(1, 2)
        pos = rng.in_range(1, bar - 2)
        return _row(stem, 0, bar) | {(pos, j) for j in range(stem)}
    if category == "l":
        stem = rng.in_range(2, 4)
        foot = rng.in_range(1, 2)
        return {(0, j) for j in range(stem)} | _row(0, 1, foot)
    if category == "plus":
        cells = {(0, 0)}
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            for k in range(1, rng.in_range(1, 2) + 1):
                cells.add((dx * k, dy * k))
        return cells
    raise ValueError(f"unknown category {category!r}")


def cells_connected(cells: set[tuple[int, int]]) -> bool:
    """Flood fill over edge neighbours."""
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


def cells_to_outline(cells: set[tuple[int, int]]) -> list[tuple[int, int]]:
    """CCW outline of a cell set on the unit grid, collinear runs merged.

    Boundary edges are oriented with the interior on the left and traced by
    `trace_boundary` from the least vertex; a vertex with two outgoing edges
    means two cells touch only diagonally, which would make the outline
    non-simple, so it raises GeometryError.
    """
    edges = []
    add = edges.append
    for x, y in cells:
        if (x, y - 1) not in cells:
            add(((x, y), (x + 1, y)))
        if (x + 1, y) not in cells:
            add(((x + 1, y), (x + 1, y + 1)))
        if (x, y + 1) not in cells:
            add(((x + 1, y + 1), (x, y + 1)))
        if (x - 1, y) not in cells:
            add(((x, y + 1), (x, y)))
    return trace_boundary(edges)


# frozenset of cells -> (the outline's column indices, its row indices, both
# counted from the least column and row, column count, row count); one entry
# per cell set reached.  Flat index tuples rather than a list of pairs: the
# entries are made between the items' own objects and stay, and fewer small
# objects pin fewer of the allocator's pages (a list of pairs read 0.6 MB
# more peak RSS on the benchmark's verify-submissions workload).
_OUTLINES: dict[frozenset, tuple[tuple[int, ...], tuple[int, ...], int, int]] = {}


def _outline_entry(cells) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    key = frozenset(cells)
    entry = _OUTLINES.get(key)
    if entry is None:
        cols = {x for x, _ in cells}
        rows = {y for _, y in cells}
        x0, y0 = min(cols), min(rows)
        ncols, nrows = len(cols), len(rows)
        # the cumulative pixel lists assume what connected sets give:
        # contiguous columns and rows
        if max(cols) - x0 >= ncols or max(rows) - y0 >= nrows:
            raise GeometryError("cell set's columns or rows are not contiguous")
        outline = cells_to_outline(cells)
        entry = _OUTLINES[key] = (tuple([x - x0 for x, _ in outline]),
                                  tuple([y - y0 for _, y in outline]), ncols, nrows)
    return entry


def _pixel_scaled(cells, rng: Rng, lo: int, hi: int) -> list[tuple[int, int]]:
    """The cell set's outline with each column and row given a random pixel
    size: widths for the columns in order, then heights for the rows."""
    cols, rows, ncols, nrows = _outline_entry(cells)
    xs = list(accumulate([rng.in_range(lo, hi) for _ in range(ncols)], initial=0))
    ys = list(accumulate([rng.in_range(lo, hi) for _ in range(nrows)], initial=0))
    return [(xs[i], ys[j]) for i, j in zip(cols, rows)]


def _flip_rotate(poly: Polygon, rng: Rng) -> Polygon:
    """poly flipped in x and in y on two coins, then turned by below(4)
    quarter turns, moved to the origin: one signed permutation matrix."""
    a = -1 if rng.coin() else 1
    d = -1 if rng.coin() else 1
    b = c = 0
    for _ in range(rng.below(4)):  # (x, y) -> (-y, x) after the map so far
        a, b, c, d = -c, -d, a, b
    return lattice_image(poly, a, b, c, d)


def _shear_points(pts, m: Fraction):
    # x + m*y rounded: with m = num/den, x + m*y = (x*den + num*y) / den
    num, den = m.numerator, m.denominator
    return [(round_ratio(x * den + num * y, den), y) for x, y in pts]


def shear_polygon(poly: Polygon, m: Fraction) -> Polygon:
    """Apply the unit shear matrix [[1, m], [0, 1]], rounding x to integers.

    Raises NonSimpleAfterRounding when rounding collapses the shape.
    """
    pts = ensure_ccw(_shear_points(poly.coords, Fraction(m)))
    try:
        return Polygon(pts)
    except GeometryError as exc:
        raise NonSimpleAfterRounding(str(exc)) from exc


class NonSimpleAfterRounding(GenerationFailed):
    """Rounded shear produced a degenerate or self-intersecting polygon."""


def _derive_rect_container(cfg: GenConfig) -> tuple[int, int]:
    if cfg.container_width and cfg.container_height:
        return cfg.container_width, cfg.container_height
    lo, hi = cfg.pixel_size_range
    mean_pixel = Fraction(lo + hi, 2)
    est_item_area = 5 * mean_pixel * mean_pixel
    target = int(cfg.n_target * est_item_area / cfg.area_multiple_t)
    side = max(3 * hi + 1, math.isqrt(target) + 1)
    return side, side


def _gen_tetro(cfg: GenConfig, family: str) -> Instance:
    for key in ("value_kind", "value_noise", "value_scale"):
        if getattr(cfg, key) != getattr(GenConfig, key):
            raise ValueError(f"{family} sets its own item values; "
                             f"{key} must keep its default")
    width, height = _derive_rect_container(cfg)
    if width * height > MAX_RECT_CONTAINER_AREA:
        raise ValueError(
            f"container area {width * height} exceeds the supported cap "
            f"{MAX_RECT_CONTAINER_AREA} (needed for the value-sum guarantee)")
    hi = cfg.pixel_size_range[1]
    if 9 * hi * hi > width * height:
        raise ValueError(
            "pixel sizes too large for the container; the largest item "
            "(9 cells) must not exceed the container area")
    container = Polygon([(0, 0), (width, 0), (width, height), (0, height)])
    container_area2 = 2 * width * height
    target_area2 = cfg.area_multiple_t * container_area2
    shear_lo, shear_hi = SHEAR_M_RANGE
    val_lo, val_hi = VALUE_SCALE_RANGE

    items: list[Item] = []
    total_area2 = 0
    index = 0
    while total_area2 <= target_area2:
        rng = Rng(cfg.seed, stream=index)
        category = CATEGORIES[rng.below(len(CATEGORIES))]
        pts = _pixel_scaled(polyomino_cells(rng, category), rng,
                            *cfg.pixel_size_range)

        sheared_m = None
        if family == "satris" and cfg.shear_probability > 0 \
                and rng.chance(cfg.shear_probability):
            for _ in range(100):
                m = rng.fraction(shear_lo, shear_hi)
                try:
                    poly = Polygon(ensure_ccw(_shear_points(pts, m)))
                except GeometryError:
                    continue
                sheared_m = m
                break
            else:
                raise GenerationFailed(
                    f"item {index}: shear rounding never produced a simple polygon")
        if sheared_m is None:
            poly = Polygon(pts)  # a scaled outline is counterclockwise

        poly = _flip_rotate(poly, rng)
        u = rng.fraction(val_lo, val_hi)
        c = CATEGORY_VALUE[category]
        # area2 / 2 * u * c [* shear factor] as one integer ratio
        num = poly.area2 * u.numerator * c.numerator
        den = 2 * u.denominator * c.denominator
        if sheared_m is not None:
            f = shear_value_factor(sheared_m)
            num *= f.numerator
            den *= f.denominator
        items.append(Item(poly, max(1, round_ratio(num, den))))
        total_area2 += poly.area2
        index += 1

    name = f"{family}_s{cfg.seed}_n{len(items)}"
    meta = {
        "generator": family,
        "seed": cfg.seed,
        "t": str(cfg.area_multiple_t),
        "pixel_size_range": list(cfg.pixel_size_range),
    }
    if family == "satris":
        meta["shear_probability"] = str(cfg.shear_probability)
    return Instance(name, container, tuple(items), meta)


def gen_atris(cfg: GenConfig) -> Instance:
    return _gen_tetro(cfg, "atris")


def gen_satris(cfg: GenConfig) -> Instance:
    return _gen_tetro(cfg, "satris")
