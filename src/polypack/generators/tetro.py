"""Tetris-derived polyomino generators (atris) and their sheared variant
(satris).

Items come from seven shape categories built on a small cell grid; each
column and row of cells gets an independently random pixel width/height, and
multi-arm shapes take bounded random arm parameters so the shape class and
edge-connectivity are always preserved.

A drawn shape, the category and its arm parameters (`_draw_shape`), names
one cell set; there are 69.  `_OUTLINES` keeps, per shape reached, its
outline traced once by `cells_to_outline` and checked once as a Polygon on
the cells' index lattice; the dict is bounded by the family.  An
unsheared item is then one `geom.lattice_image` call: the drawn pixel sizes
become cumulative scales that move each outline vertex (i, j) to
(xs[i], ys[j]), and the two flip coins and quarter turns compose into one
signed permutation matrix; both maps keep the checked outline simple, so
the item needs no check of its own.  A sheared satris item comes from
`shear_polygon`, the one shear, whose check as a Polygon is the shear's
retry test; its flipped, turned copy is again one `lattice_image`.

Generation stops when total item area exceeds t * container area; values are
area times a uniform [0.8, 1.2] factor times a per-category difficulty
constant (sheared items get an extra boost growing with the shear magnitude).
The stop rule, the value factor and the shear are integer ratios, compared
by cross-multiplying or rounded by `round_ratio`, so no item builds a
Fraction.
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


def _shear_ratio(num: int, den: int) -> tuple[int, int]:
    """The shear value factor SHEAR_VALUE_CONSTANT * (1 + m/4) of
    m = num / den as an unreduced integer ratio; strictly increasing in m."""
    c = SHEAR_VALUE_CONSTANT
    return c.numerator * (4 * den + num), c.denominator * 4 * den


def _row(y: int, x0: int, length: int):
    return {(x, y) for x in range(x0, x0 + length)}


def _nonzero_offset(rng: Rng, bound: int) -> int:
    # uniform over {-bound..-1, 1..bound}
    v = rng.in_range(1, bound)
    return -v if rng.coin() else v


def _draw_shape(rng: Rng, category: str) -> tuple:
    """The category and its arm parameters, drawn from rng; the bounds keep
    each shape's cells edge-connected and recognizably of its category.
    Each shape names one cell set (`_shape_cells`): 69 shapes in all."""
    in_range = rng.in_range
    if category == "line":
        return category, in_range(3, 5)
    if category == "squiggly":
        r = in_range(2, 3)
        return category, r, _nonzero_offset(rng, r - 1)
    if category == "double_squiggly":
        r = in_range(2, 3)
        return category, r, _nonzero_offset(rng, r - 1), _nonzero_offset(rng, r - 1)
    if category == "y":
        stem = in_range(3, 5)
        return category, stem, in_range(1, stem - 2)
    if category == "t":
        bar = in_range(3, 5)
        return category, bar, in_range(1, 2), in_range(1, bar - 2)
    if category == "l":
        return category, in_range(2, 4), in_range(1, 2)
    if category == "plus":  # arm lengths right, left, up, down
        return category, in_range(1, 2), in_range(1, 2), in_range(1, 2), in_range(1, 2)
    raise ValueError(f"unknown category {category!r}")


def _shape_cells(shape: tuple) -> set[tuple[int, int]]:
    """The cell set a drawn shape names."""
    category, *p = shape
    if category == "line":
        return _row(0, 0, p[0])
    if category in ("squiggly", "double_squiggly"):  # rows shifted in turn
        r, *offsets = p
        cells, x0 = _row(0, 0, r), 0
        for y, offset in enumerate(offsets, 1):
            x0 += offset
            cells |= _row(y, x0, r)
        return cells
    if category == "y":
        stem, bump = p
        return {(0, j) for j in range(stem)} | {(1, bump)}
    if category == "t":
        bar, stem, pos = p
        return _row(stem, 0, bar) | {(pos, j) for j in range(stem)}
    if category == "l":
        stem, foot = p
        return {(0, j) for j in range(stem)} | _row(0, 1, foot)
    cells = {(0, 0)}  # plus
    for (dx, dy), arm in zip(((1, 0), (-1, 0), (0, 1), (0, -1)), p):
        cells.update((dx * k, dy * k) for k in range(1, arm + 1))
    return cells


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


# drawn shape -> the outline of its cells on their index lattice, checked
# once (`_lattice_outline`); one entry per shape reached, 69 at most.
_OUTLINES: dict[tuple, Polygon] = {}


def _lattice_outline(cells) -> Polygon:
    """The cell set's outline with columns and rows counted from its least
    ones, as a checked Polygon: vertex (i, j) is the corner left of column
    i and below row j."""
    cols = {x for x, _ in cells}
    rows = {y for _, y in cells}
    x0, y0 = min(cols), min(rows)
    # a pixel size is drawn for each column and row of the box, so the
    # box holds no empty one; connected sets give that
    if max(cols) - x0 >= len(cols) or max(rows) - y0 >= len(rows):
        raise GeometryError("cell set's columns or rows are not contiguous")
    return Polygon([(x - x0, y - y0) for x, y in cells_to_outline(cells)])


def _pixel_scales(outline: Polygon, rng: Rng, lo: int, hi: int):
    """Random pixel sizes, widths for the outline's columns in order, then
    heights for its rows, as cumulative scales for `lattice_image`."""
    _, _, ncols, nrows = outline.bbox
    return (list(accumulate([rng.in_range(lo, hi) for _ in range(ncols)], initial=0)),
            list(accumulate([rng.in_range(lo, hi) for _ in range(nrows)], initial=0)))


def _flip_rotate(poly: Polygon, rng: Rng, xs=None, ys=None) -> Polygon:
    """poly (scaled by xs and ys, if given) flipped in x and in y on two
    coins, then turned by below(4) quarter turns, moved to the origin: one
    signed permutation matrix and one `lattice_image`."""
    a = -1 if rng.coin() else 1
    d = -1 if rng.coin() else 1
    b = c = 0
    for _ in range(rng.below(4)):  # (x, y) -> (-y, x) after the map so far
        a, b, c, d = -c, -d, a, b
    return lattice_image(poly, a, b, c, d, xs, ys)


def shear_polygon(pts, num: int, den: int) -> Polygon:
    """The points under the unit shear [[1, m], [0, 1]], m = num / den, x
    rounded by `round_ratio`, as a checked counterclockwise Polygon.

    Raises GeometryError when rounding collapses the shape.
    """
    # x + m*y = (x*den + num*y) / den
    return Polygon(ensure_ccw([(round_ratio(x * den + num * y, den), y)
                               for x, y in pts]))


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
    lo, hi = cfg.pixel_size_range
    if 9 * hi * hi > width * height:
        raise ValueError(
            "pixel sizes too large for the container; the largest item "
            "(9 cells) must not exceed the container area")
    container = Polygon([(0, 0), (width, 0), (width, height), (0, height)])
    # stop once total area2 exceeds t * container area2, cross-multiplied
    t = cfg.area_multiple_t
    t_den, target = t.denominator, t.numerator * 2 * width * height
    shearing = family == "satris" and cfg.shear_probability > 0
    shear_lo, shear_hi = SHEAR_M_RANGE
    val_lo, val_hi = VALUE_SCALE_RANGE

    items: list[Item] = []
    total_area2 = 0
    index = 0
    while total_area2 * t_den <= target:
        rng = Rng(cfg.seed, stream=index)
        shape = _draw_shape(rng, CATEGORIES[rng.below(len(CATEGORIES))])
        outline = _OUTLINES.get(shape)
        if outline is None:
            outline = _OUTLINES[shape] = _lattice_outline(_shape_cells(shape))
        xs, ys = _pixel_scales(outline, rng, lo, hi)

        # area2 / 2 * u * c [* shear factor] as one integer ratio
        c = CATEGORY_VALUE[shape[0]]
        num, den = c.numerator, 2 * c.denominator
        if shearing and rng.chance(cfg.shear_probability):
            pts = [(xs[i], ys[j]) for i, j in outline.coords]
            for _ in range(100):
                m_num, m_den = rng.ratio(shear_lo, shear_hi)
                try:
                    poly = shear_polygon(pts, m_num, m_den)
                except GeometryError:
                    continue
                break
            else:
                raise GenerationFailed(
                    f"item {index}: shear rounding never produced a simple polygon")
            poly = _flip_rotate(poly, rng)
            f_num, f_den = _shear_ratio(m_num, m_den)
            num *= f_num
            den *= f_den
        else:
            poly = _flip_rotate(outline, rng, xs, ys)
        u_num, u_den = rng.ratio(val_lo, val_hi)
        items.append(Item(poly, max(1, round_ratio(poly.area2 * u_num * num,
                                                   u_den * den))))
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
