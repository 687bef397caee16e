import functools
import math
import random
from fractions import Fraction

import pytest

from polypack import geom
from polypack.generators import GenConfig, gen_atris, gen_jigsaw, gen_random, gen_satris
from polypack.geom import (AllCollinear, Polygon, contained_in_convex,
                           containment_range, convex_hull, drop_straight, inner_fit,
                           ensure_ccw, interiors_overlap, is_convex, is_simple,
                           lattice_image, min_area_bounding_rect, no_fit_exit,
                           no_fit_rise, signed_area2, to_origin, trace_boundary, triangulate)
from polypack.model import Instance, Item, Placement, Solution
from polypack.verifier import verify

import oracles

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
BOWTIE = [(0, 0), (2, 2), (2, 0), (0, 2)]


def random_star_polygon(rng, n_verts, radius=50, center=(0, 0)):
    """Test-local generator: star-shaped polygon via sorted random angles,
    re-rolled until the snapped result is simple per the brute-force oracle."""
    for _ in range(200):
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n_verts))
        pts = []
        for a in angles:
            r = rng.uniform(radius * 0.3, radius)
            pts.append((center[0] + round(r * math.cos(a)),
                        center[1] + round(r * math.sin(a))))
        if oracles.shoelace_area2(pts) < 0:
            pts.reverse()
        if oracles.brute_force_simple(pts) and oracles.shoelace_area2(pts) > 0:
            return pts
    raise AssertionError("could not build a random simple polygon")


class TestSignedArea:
    def test_unit_square(self):
        assert signed_area2(UNIT_SQUARE) == 2

    def test_triangle(self):
        assert signed_area2([(0, 0), (4, 0), (0, 3)]) == 12

    def test_clockwise_negative(self):
        assert signed_area2(list(reversed(UNIT_SQUARE))) == -2

    def test_against_independent_shoelace(self):
        rng = random.Random(1234)
        for _ in range(100):
            pts = random_star_polygon(rng, rng.randint(3, 12))
            assert signed_area2(pts) == oracles.shoelace_area2(pts)


class TestIsSimple:
    def test_convex_quad(self):
        assert is_simple(UNIT_SQUARE)

    def test_bowtie(self):
        assert not is_simple(BOWTIE)

    def test_repeated_vertex(self):
        assert not is_simple([(0, 0), (2, 0), (2, 2), (0, 0), (0, 2)][:4] + [(0, 0)])

    def test_spike(self):
        assert not is_simple([(0, 0), (4, 0), (2, 0), (2, 3)])

    def test_collinear_vertex_ok(self):
        assert is_simple([(0, 0), (2, 0), (4, 0), (4, 4), (0, 4)])

    def test_against_brute_force(self):
        rng = random.Random(99)
        agree = 0
        for _ in range(500):
            n = 10
            pts = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(n)]
            assert is_simple(pts) == oracles.brute_force_simple(pts)
            agree += 1
        assert agree == 500

    # Non-adjacent edges whose closed boxes meet in one point: an axis-
    # parallel T-junction (not simple) and a diagonal edge that only reaches
    # the corner of another edge's box (simple).
    T_ON_RIGHT_WALL = [(0, 0), (8, 0), (8, 8), (2, 8), (2, 4), (8, 4), (5, 2), (0, 2)]
    T_ON_TOP_WALL = [(0, 0), (3, 0), (3, 4), (4, 0), (6, 0), (6, 4), (0, 4)]
    BOX_CORNER_ONLY = [(0, 0), (2, 2), (4, 2), (4, 3), (2, 3), (0, 5), (-2, 2)]
    # an edge that runs back along part of a non-adjacent edge
    COLLINEAR_OVERLAP = [(0, 0), (6, 0), (6, 2), (5, 2), (5, 0), (3, 0), (3, 2), (0, 2)]

    def test_box_contact_cases(self):
        assert not is_simple(self.T_ON_RIGHT_WALL)
        assert not is_simple(self.T_ON_TOP_WALL)
        assert is_simple(self.BOX_CORNER_ONLY)
        assert not is_simple(self.COLLINEAR_OVERLAP)

    def test_exact_branch_against_brute_force(self):
        # Inputs that pass the early exits and reach the edge-pair tests:
        # simple star polygons, the same with one vertex moved onto the
        # midpoint of a non-adjacent edge (a T-junction), and distinct
        # points of a small grid, whose edges overlap collinearly and whose
        # boxes touch in single points; each also scaled by 2^30 and
        # shifted by -(2^45 + 3).
        rng = random.Random(2718)
        cases = [self.T_ON_RIGHT_WALL, self.T_ON_TOP_WALL, self.BOX_CORNER_ONLY,
                 self.COLLINEAR_OVERLAP]
        for _ in range(150):
            star = random_star_polygon(rng, rng.randint(4, 12))
            cases.append(star)
            moved = [(2 * x, 2 * y) for x, y in star]
            n = len(moved)
            j = rng.randrange(n)
            e = rng.choice([e for e in range(n) if e not in (j, (j - 1) % n)])
            (ax, ay), (bx, by) = moved[e], moved[(e + 1) % n]
            moved[j] = ((ax + bx) // 2, (ay + by) // 2)
            cases.append(moved)
        grid = [(x, y) for x in range(4) for y in range(4)]
        for _ in range(600):
            cases.append(rng.sample(grid, rng.randint(3, 7)))
        shift = -(2 ** 45 + 3)
        cases += [[(x * 2 ** 30 + shift, y * 2 ** 30 + shift) for x, y in pts]
                  for pts in cases]
        verdicts = [oracles.brute_force_simple(pts) for pts in cases]
        for pts, expected in zip(cases, verdicts):
            assert is_simple(pts) == expected, pts
        # both verdicts are well represented
        assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


class TestIsConvex:
    def test_hexagon(self):
        hexagon = [(2, 0), (4, 0), (6, 3), (4, 6), (2, 6), (0, 3)]
        assert is_convex(hexagon)

    def test_l_shape(self):
        l_shape = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        assert is_simple(l_shape)
        assert not is_convex(l_shape)

    def test_against_sweep(self):
        rng = random.Random(7)
        for _ in range(200):
            pts = random_star_polygon(rng, rng.randint(3, 10))
            assert is_convex(pts) == oracles.convex_scan(pts)


class TestConvexHull:
    def test_square_plus_center(self):
        hull = convex_hull([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
        assert set(hull.coords) == {(0, 0), (2, 0), (2, 2), (0, 2)}

    def test_already_convex(self):
        pts = [(0, 0), (5, 1), (6, 5), (2, 7)]
        hull = convex_hull(pts)
        assert set(hull.coords) == set(pts)
        assert hull.area2 > 0

    def test_all_collinear(self):
        with pytest.raises(AllCollinear):
            convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_small_sets_match_subset_enumeration(self):
        rng = random.Random(42)
        for _ in range(60):
            pts = [(rng.randint(0, 15), rng.randint(0, 15)) for _ in range(rng.randint(4, 8))]
            try:
                hull = convex_hull(pts)
            except AllCollinear:
                continue
            assert hull.area2 == oracles.max_ccw_subset_area2(pts)

    def test_large_sets_contain_all_points(self):
        rng = random.Random(43)
        for _ in range(40):
            pts = [(rng.randint(-500, 500), rng.randint(-500, 500)) for _ in range(1000)]
            hull = convex_hull(pts)
            assert is_convex(hull)
            hull_pts = hull.coords
            assert set(hull_pts) <= set(pts)
            for p in pts:
                assert oracles.point_in_convex_halfplanes(hull_pts, p)

    def test_idempotent(self):
        rng = random.Random(44)
        for _ in range(50):
            pts = [(rng.randint(0, 100), rng.randint(0, 100)) for _ in range(30)]
            h1 = convex_hull(pts)
            h2 = convex_hull(h1.coords)
            assert h1.coords == h2.coords


class TestMinAreaBoundingRect:
    def test_axis_aligned_rect(self):
        assert min_area_bounding_rect([(0, 0), (3, 0), (3, 2), (0, 2)]) == 6

    def test_rotated_rect_is_its_own(self):
        tilted = [(0, 0), (3, 3), (1, 5), (-2, 2)]
        assert min_area_bounding_rect(tilted) == Polygon(tilted).area

    def test_at_least_hull_area(self):
        rng = random.Random(5)
        for _ in range(100):
            pts = random_star_polygon(rng, rng.randint(4, 10))
            assert min_area_bounding_rect(pts) >= convex_hull(pts).area

    def test_angle_sweep_upper_bound(self):
        rng = random.Random(6)
        for _ in range(25):
            cloud = [(rng.randint(0, 200), rng.randint(0, 200)) for _ in range(12)]
            try:
                hull = convex_hull(cloud)
            except AllCollinear:
                continue
            exact = min_area_bounding_rect(hull)
            sweep = oracles.min_rect_angle_sweep(hull.coords)
            assert float(exact) <= sweep * (1 + 1e-6)
            assert sweep <= float(exact) * 1.05  # sampling is dense enough

    @staticmethod
    def _min_rect(hull):
        # (area, aspect >= 1) of the rectangle `_rect_extents` finds
        du, dw, den = geom._rect_extents(hull)
        return Fraction(du * dw, den), Fraction(max(du, dw), min(du, dw))

    @staticmethod
    def _reference(hull):
        # every hull edge's rectangle as Fractions; the first least area wins
        best = None
        for i, (ax, ay) in enumerate(hull):
            bx, by = hull[(i + 1) % len(hull)]
            dx, dy = bx - ax, by - ay
            us = [Fraction(dx * (x - ax) + dy * (y - ay)) for x, y in hull]
            ws = [Fraction(dx * (y - ay) - dy * (x - ax)) for x, y in hull]
            du, dw = max(us) - min(us), max(ws) - min(ws)
            area = du * dw / (dx * dx + dy * dy)
            if best is None or area < best[0]:
                best = (area, max(du, dw) / min(du, dw))
        return best

    TIED = [
        [(0, 0), (5, 0), (5, 5), (0, 5)],                              # square
        [(2, 0), (5, 0), (7, 2), (7, 5), (5, 7), (2, 7), (0, 5), (0, 2)],  # octagon
        [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)],
        [(0, 0), (2, 0), (4, 0), (4, 3), (4, 6), (2, 6), (0, 6), (0, 3)],  # collinear
        [(0, 0), (4, 2), (0, 2)],
    ]

    def test_tied_edges_match_fraction_reference(self):
        for pts in self.TIED:
            hull = geom._hull(pts)
            assert self._min_rect(hull) == self._reference(hull)

    def test_tie_keeps_first_edge_in_hull_order(self):
        # all three edges give area 8; the hull starts with the hypotenuse,
        # whose rectangle has aspect 5/2, while the legs' have aspect 2
        hull = geom._hull([(0, 0), (4, 2), (0, 2)])
        assert hull[:2] == ((0, 0), (4, 2))
        assert self._min_rect(hull) == (8, Fraction(5, 2))

    def test_random_hulls_match_fraction_reference(self):
        rng = random.Random(8)
        for _ in range(200):
            cloud = [(rng.randint(-9, 9), rng.randint(-9, 9))
                     for _ in range(rng.randint(3, 10))]
            try:
                hull = geom._hull(cloud)
            except AllCollinear:
                continue
            assert self._min_rect(hull) == self._reference(hull)

    @staticmethod
    def _circle_hull(rng, m, radius, scale=1):
        # m points on a circle, rounded to ints: a hull of up to m vertices
        # around which all three pointers of the walk travel a full turn
        cloud = []
        for _ in range(m):
            a = rng.uniform(0, 2 * math.pi)
            cloud.append((round(radius * math.cos(a)) * scale,
                          round(radius * math.sin(a)) * scale))
        return geom._hull(cloud)

    def test_large_hulls_match_fraction_reference(self):
        rng = random.Random(21)
        sizes = []
        for trial in range(60):
            scale = 1 << 30 if trial % 3 == 0 else 1
            hull = self._circle_hull(rng, rng.randint(24, 70), 10**6, scale)
            sizes.append(len(hull))
            assert self._min_rect(hull) == self._reference(hull)
        assert min(sizes) >= 20 and max(sizes) >= 60

    def test_symmetric_hulls_with_tied_edges_match(self):
        # regular polygons tie many edges' areas and put two vertices at
        # each extreme, where a pointer's walk must step over the tie
        for m in (4, 6, 8, 12, 20, 36, 60):
            for radius, scale in ((10**4, 1), (10**4, 1 << 30), (97, 1)):
                cloud = [(round(radius * math.cos(2 * math.pi * k / m)) * scale,
                          round(radius * math.sin(2 * math.pi * k / m)) * scale)
                         for k in range(m)]
                hull = geom._hull(cloud)
                assert self._min_rect(hull) == self._reference(hull)


def square_edges(x, y, side=1):
    """The directed CCW edges of an axis square with lower-left (x, y)."""
    pts = [(x, y), (x + side, y), (x + side, y + side), (x, y + side)]
    return list(zip(pts, pts[1:] + pts[:1]))


class TestTraceBoundary:
    def test_pinch_rejected(self):
        # two squares meeting only at (1, 1): two edges leave that vertex
        with pytest.raises(geom.GeometryError, match="pinch"):
            trace_boundary(square_edges(0, 0) + square_edges(1, 1))

    @pytest.mark.parametrize("edges", [
        square_edges(0, 0) + square_edges(5, 5),  # two disjoint cycles
        square_edges(0, 0) + [((7, 7), (8, 8))],  # a stray edge
        square_edges(0, 0)[:3],  # an open chain: the walk stops short
    ])
    def test_not_one_cycle_rejected(self, edges):
        with pytest.raises(geom.GeometryError, match="single cycle"):
            trace_boundary(edges)

    def test_start_honoured(self):
        assert trace_boundary(square_edges(0, 0)) == [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert trace_boundary(square_edges(0, 0), start=(1, 1)) == [
            (1, 1), (0, 1), (0, 0), (1, 0)]

    def test_start_off_the_boundary_rejected(self):
        with pytest.raises(geom.GeometryError):
            trace_boundary(square_edges(0, 0), start=(3, 3))

    def test_straight_vertices_dropped(self):
        # the outline of two cells side by side, unit edges: (1, 0) and
        # (1, 1) lie on straight runs, and so would a start among them
        pts = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]
        edges = list(zip(pts, pts[1:] + pts[:1]))
        assert trace_boundary(edges) == [(0, 0), (2, 0), (2, 1), (0, 1)]
        assert trace_boundary(edges, start=(1, 1)) == [(0, 1), (0, 0), (2, 0), (2, 1)]

    def test_drop_straight_one_pass(self):
        # a run of several straight vertices goes at once, and the order of
        # the kept vertices is that of the input
        pts = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 2), (3, 4), (0, 4), (0, 2)]
        assert drop_straight(pts) == [(0, 0), (3, 0), (3, 4), (0, 4)]
        assert drop_straight(tuple(pts)) == [(0, 0), (3, 0), (3, 4), (0, 4)]
        assert drop_straight(UNIT_SQUARE) == UNIT_SQUARE

    def test_to_origin(self):
        assert to_origin([(3, -2), (7, 5), (4, 9)]) == (
            [(0, 0), (4, 7), (1, 11)], (3, -2))


# the eight signed permutation matrices (a, b, c, d) of (x, y) -> (ax + by, cx + dy)
SIGNED_PERMUTATIONS = [(sa, 0, 0, sd) for sa in (1, -1) for sd in (1, -1)] + \
                      [(0, sb, sc, 0) for sb in (1, -1) for sc in (1, -1)]


def _lattice_image_cases():
    """Generator items of all four families, each also scaled by 2**40 and
    moved off the origin, plus one convex and one nonconvex shape away from
    the origin."""
    polys = []
    for gen, cfg in ((gen_atris, GenConfig(seed=3, n_target=15)),
                     (gen_satris, GenConfig(seed=3, n_target=15, shear_probability=1)),
                     (gen_random, GenConfig(seed=3, n_target=15)),
                     (gen_jigsaw, GenConfig(seed=3, jigsaw_line_count=6))):
        polys += [it.polygon for it in gen(cfg).items[:6]]
    polys += [Polygon([(x * (1 << 40) - (1 << 45) - 3, y * (1 << 40) + 7)
                       for x, y in p.coords]) for p in list(polys)]
    polys += [Polygon([(-5, -9), (4, -9), (4, 2)]),
              Polygon([(10, 10), (16, 10), (16, 12), (12, 12), (12, 15), (10, 15)])]
    return polys


class TestLatticeImage:
    @pytest.mark.parametrize("matrix", SIGNED_PERMUTATIONS)
    def test_equals_checked_construction(self, matrix):
        a, b, c, d = matrix
        for poly in _lattice_image_cases():
            mapped = [(a * x + b * y, c * x + d * y) for x, y in poly.coords]
            want = Polygon(to_origin(ensure_ccw(mapped))[0])
            src = Polygon(poly.coords)  # convexity not yet cached
            for convex_known in (False, True):
                if convex_known:
                    src.convex  # cached on the source, copied to the image
                got = lattice_image(src, a, b, c, d)
                assert type(got) is Polygon
                assert got.coords == want.coords
                assert got.area2 == want.area2 == poly.area2
                assert got.bbox == want.bbox
                assert got.convex == want.convex
                assert got.parts == want.parts

    @pytest.mark.parametrize("matrix", [
        (1, 0, 0, 0), (1, 1, 0, 1), (2, 0, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1),
        (-1, 0, 0, 2), (1.0, 0, 0, 1), (True, 0, 0, 1), (1, 0, 0, Fraction(1)),
        (0, 1, 1, 1),
    ])
    def test_rejects_other_matrices(self, matrix):
        with pytest.raises(ValueError, match="signed permutation"):
            lattice_image(Polygon(UNIT_SQUARE), *matrix)

    @pytest.mark.parametrize("shape", [UNIT_SQUARE, tuple(UNIT_SQUARE),
                                       Polygon(UNIT_SQUARE).parts])
    def test_rejects_other_than_a_polygon(self, shape):
        with pytest.raises(ValueError, match="Polygon"):
            lattice_image(shape, 1, 0, 0, 1)


@functools.cache
def _reachable_outlines():
    """The index-lattice outline of every shape atris and satris draw at
    seeds 0-199, streams 0-299: one per cell set, 69 in all."""
    from polypack.generators.tetro import (CATEGORIES, _draw_shape,
                                           _lattice_outline, _shape_cells)
    from polypack.rng import Rng
    shapes = set()
    for seed in range(200):
        for stream in range(300):
            rng = Rng(seed, stream)
            shapes.add(_draw_shape(rng, CATEGORIES[rng.below(len(CATEGORIES))]))
    cells = [frozenset(_shape_cells(shape)) for shape in shapes]
    assert len(shapes) == len(set(cells)) == 69
    return tuple(_lattice_outline(c) for c in cells)


def _scales(rng, n):
    """Three strictly increasing scales of n entries: steps of 1 from a
    negative start, steps of 1 to 40, and steps near 2**40 from 2**40."""
    yield list(range(-n, 0))
    for start, step in ((rng.randint(-50, 50), 40), (1 << 40, 1 << 40)):
        scale = [start]
        for _ in range(n - 1):
            scale.append(scale[-1] + rng.randint(1, step))
        yield scale


class TestLatticeImageScaled:
    @pytest.mark.parametrize("matrix", SIGNED_PERMUTATIONS)
    def test_equals_checked_construction(self, matrix):
        a, b, c, d = matrix
        rng = random.Random(sum(matrix) + 4 * b)
        for outline in _reachable_outlines():
            _, _, ncols, nrows = outline.bbox
            for xs, ys in zip(_scales(rng, ncols + 1), _scales(rng, nrows + 1)):
                scaled = [(xs[i], ys[j]) for i, j in outline.coords]
                mapped = [(a * x + b * y, c * x + d * y) for x, y in scaled]
                want = Polygon(to_origin(ensure_ccw(mapped))[0])
                src = Polygon(outline.coords)  # convexity not yet cached
                for convex_known in (False, True):
                    if convex_known:
                        src.convex
                    got = lattice_image(src, a, b, c, d, xs, ys)
                    assert type(got) is Polygon
                    assert got.coords == want.coords
                    assert got.area2 == want.area2 == signed_area2(scaled)
                    assert got.bbox == want.bbox
                    assert got.convex == want.convex

    @pytest.mark.parametrize("shape, xs, ys, match", [
        ([(0, 0), (2, 0), (0, 2)], [0, 1, 2], [0, 1, 2], "axis-parallel"),
        ([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], [0, 1, 2], [0, 3, 3],
         "increasing"),
        (UNIT_SQUARE, [0, -1], [0, 1], "increasing"),
        (UNIT_SQUARE, [0, 1.0], [0, 1], "ints"),
        (UNIT_SQUARE, [0, 1], [False, 1], "ints"),
        (UNIT_SQUARE, [0, 1], [Fraction(0), 1], "ints"),
        (UNIT_SQUARE, [0], [0, 1], "index"),
        (UNIT_SQUARE, [0, 1], [], "index"),
        ([(-1, 0), (0, 0), (0, 1), (-1, 1)], [0, 1], [0, 1], "index"),
        (UNIT_SQUARE, [0, 1], None, "both"),
        (UNIT_SQUARE, None, [0, 1], "both"),
    ])
    def test_rejects_bad_input(self, shape, xs, ys, match):
        with pytest.raises(ValueError, match=match):
            lattice_image(Polygon(shape), 1, 0, 0, 1, xs, ys)

    def test_rejects_other_than_a_polygon(self):
        with pytest.raises(ValueError, match="Polygon"):
            lattice_image(UNIT_SQUARE, 1, 0, 0, 1, [0, 1], [0, 1])


class TestTriangulate:
    def test_covers_exact_area(self):
        rng = random.Random(8)
        for _ in range(150):
            pts = random_star_polygon(rng, rng.randint(4, 14))
            tris = triangulate(pts)
            total = sum(oracles.shoelace_area2(t) for t in tris)
            assert total == oracles.shoelace_area2(pts)
            for t in tris:
                assert oracles.shoelace_area2(t) > 0
                assert set(t) <= set(pts)

    def test_triangle_interiors_disjoint(self):
        rng = random.Random(9)
        for _ in range(40):
            pts = random_star_polygon(rng, rng.randint(5, 10))
            tris = triangulate(pts)
            for i in range(len(tris)):
                for j in range(i + 1, len(tris)):
                    assert not oracles.overlap_by_clipping(
                        [tris[i]], (0, 0), [tris[j]], (0, 0))


def random_overlap_case(rng):
    a = random_star_polygon(rng, rng.randint(3, 8), radius=20, center=(20, 20))
    b = random_star_polygon(rng, rng.randint(3, 8), radius=20, center=(20, 20))
    ta = (rng.randint(-15, 15), rng.randint(-15, 15))
    tb = (rng.randint(-15, 15), rng.randint(-15, 15))
    return Polygon(a), ta, Polygon(b), tb


def exit_x(hit):
    """The exit x of a `no_fit_exit` result, None for no overlap."""
    return None if hit is None else hit[0]


def exit_at(a, ta, b, tb, memo=None):
    """The exit of `no_fit_exit` for a at ta against b at tb, called as the
    solver calls it."""
    return exit_x(no_fit_exit(a.parts, b.parts, ta[0], tb[0] - ta[0], tb[1] - ta[1], memo))


def pair_planes(pa, pb):
    """Every no-fit half-plane (u, v, k) of convex CCW parts pa and pb, pa's
    edges then pb's, from the SAT rule: b at offset (dx, dy) is strictly
    left of pa's edge a0 -> a1 for some vertex iff the greatest cross
    product of the edge with b's shifted vertices exceeds that of a0, and
    likewise for pb's edges against a's vertices."""
    planes = []
    for own, other, sign in ((pa, pb, 1), (pb, pa, -1)):
        for (ax, ay), (bx, by) in zip(own[-1:] + own[:-1], own):
            ex, ey = bx - ax, by - ay
            k = max(ex * y - ey * x for x, y in other) - (ex * ay - ey * ax)
            planes.append((-ey * sign, ex * sign, k))
    return planes


class TestInteriorsOverlap:
    def test_shared_edge_is_not_overlap(self):
        sq = Polygon(UNIT_SQUARE)
        assert not interiors_overlap(sq, (0, 0), sq, (1, 0))

    def test_identical_is_overlap(self):
        sq = Polygon(UNIT_SQUARE)
        assert interiors_overlap(sq, (0, 0), sq, (0, 0))

    def test_vertex_touch_is_not_overlap(self):
        sq = Polygon(UNIT_SQUARE)
        assert not interiors_overlap(sq, (0, 0), sq, (1, 1))

    def test_inscribed_via_boundary_vertices(self):
        # every vertex of the inner triangle lies on the square's boundary
        outer = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        inner = Polygon([(5, 0), (10, 5), (0, 10)])
        assert interiors_overlap(outer, (0, 0), inner, (0, 0))

    def test_concave_interlock_no_overlap(self):
        # C-shape hugging a square that sits in its notch
        c_shape = Polygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3)])
        plug = Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        assert not interiors_overlap(c_shape, (0, 0), plug, (1, 1))
        assert interiors_overlap(c_shape, (0, 0), plug, (0, 1))

    def test_against_clipping_oracle(self):
        rng = random.Random(11)
        for _ in range(250):
            a, ta, b, tb = random_overlap_case(rng)
            expected = oracles.overlap_by_clipping(
                triangulate(a.coords), ta, triangulate(b.coords), tb)
            assert interiors_overlap(a, ta, b, tb) == expected

    def test_against_raster_oracle_small_coords(self):
        rng = random.Random(12)
        checked_hits = 0
        for _ in range(120):
            a = random_star_polygon(rng, rng.randint(3, 7), radius=14, center=(16, 16))
            b = random_star_polygon(rng, rng.randint(3, 7), radius=14, center=(16, 16))
            ta = (rng.randint(0, 8), rng.randint(0, 8))
            tb = (rng.randint(0, 8), rng.randint(0, 8))
            pa, pb = Polygon(a), Polygon(b)
            got = interiors_overlap(pa, ta, pb, tb)
            if oracles.raster_interior_hit(a, ta, b, tb):
                assert got
                checked_hits += 1
            else:
                # sampling missed or truly disjoint; clipping decides
                assert got == oracles.overlap_by_clipping(
                    triangulate(pa.coords), ta, triangulate(pb.coords), tb)
        assert checked_hits > 30  # the raster branch actually exercised

    def test_symmetry_and_translation_equivariance(self):
        rng = random.Random(13)
        for _ in range(120):
            a, ta, b, tb = random_overlap_case(rng)
            r = interiors_overlap(a, ta, b, tb)
            assert r == interiors_overlap(b, tb, a, ta)
            shift = (rng.randint(-100, 100), rng.randint(-100, 100))
            assert r == interiors_overlap(
                a, (ta[0] + shift[0], ta[1] + shift[1]),
                b, (tb[0] + shift[0], tb[1] + shift[1]))


class TestContainedInConvex:
    def test_inside(self):
        box = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        sq = Polygon(UNIT_SQUARE)
        assert contained_in_convex(box, sq, (0, 0))
        assert contained_in_convex(box, sq, (9, 9))

    def test_boundary_vertex_outside_body(self):
        box = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        sq = Polygon(UNIT_SQUARE)
        assert not contained_in_convex(box, sq, (10, 0))

    CONTAINERS = [
        [(0, 0), (40, 0), (50, 30), (20, 45), (-5, 25)],
        [(-5, 0), (45, 0), (45, 45), (-5, 45)],  # rectangle: no slanted edge
        [(-5, 0), (50, 0), (50, 50)],  # right triangle: one slanted edge
        [(-10, 0), (55, 0), (40, 45), (5, 45)],  # trapezoid
    ]

    def test_against_halfplane_oracle(self):
        # also at 2**30 scale, shifted far from the origin, where a unit nudge
        # of the offset moves a vertex just across a container edge
        rng = random.Random(14)
        for scale, shift in ((1, 0), (2 ** 30, -(2 ** 45 + 3))):
            for pts in self.CONTAINERS:
                box_pts = [(x * scale + shift, y * scale + shift) for x, y in pts]
                box = Polygon(box_pts)
                inside = 0
                for _ in range(300):
                    item = Polygon([(x * scale, y * scale) for x, y in random_star_polygon(
                        rng, rng.randint(3, 8), radius=12, center=(12, 12))])
                    nudge = (rng.randint(-1, 1), rng.randint(-1, 1)) if scale > 1 else (0, 0)
                    t = (rng.randint(-20, 40) * scale + shift + nudge[0],
                         rng.randint(-20, 40) * scale + shift + nudge[1])
                    expected = all(
                        oracles.point_in_convex_halfplanes(box_pts, (x + t[0], y + t[1]))
                        for x, y in item.coords)
                    assert contained_in_convex(box, item, t) == expected, (pts, t)
                    inside += expected
                assert inside > 20, pts


class TestRowSkipping:
    """The two row helpers the solver's grid scan skips cells with."""

    def test_overlap_exit_against_brute_force(self):
        rng = random.Random(15)
        checked = nonconvex = jumps = 0
        for _ in range(400):
            a, ta, b, tb = random_overlap_case(rng)
            end = exit_at(a, ta, b, tb)
            if not interiors_overlap(a, ta, b, tb):
                assert end is None
                continue
            assert end > ta[0]
            for x in range(ta[0], end):
                assert interiors_overlap(a, (x, ta[1]), b, tb)
            checked += 1
            nonconvex += not (a.convex and b.convex)
            jumps += end > ta[0] + 1
        assert checked > 150 and nonconvex > 100 and jumps > 100

    def test_convex_exit_is_tight_at_any_scale(self):
        # one part pair per convex polygon, so the exit is the first integer
        # x at which the pair stops overlapping, also at 2**30 scale
        rng = random.Random(16)
        checked = 0
        for _ in range(200):
            scale = rng.choice((1, 2 ** 30))
            shift = rng.randint(-10 ** 12, 10 ** 12)
            pa, pb = (convex_hull(random_star_polygon(rng, rng.randint(3, 8), radius=20))
                      for _ in range(2))
            a = Polygon([(x * scale + shift, y * scale) for x, y in pa.coords])
            b = Polygon([(x * scale, y * scale - shift) for x, y in pb.coords])
            ta = (rng.randint(-15, 15) * scale - shift, rng.randint(-15, 15) * scale)
            tb = (rng.randint(-15, 15) * scale, rng.randint(-15, 15) * scale + shift)
            if not interiors_overlap(a, ta, b, tb):
                continue
            end = exit_at(a, ta, b, tb)
            assert end > ta[0]
            assert interiors_overlap(a, (end - 1, ta[1]), b, tb)
            assert not interiors_overlap(a, (end, ta[1]), b, tb)
            checked += 1
        assert checked > 50

    def test_memo_reuse_matches_fresh_evaluation(self):
        # one memo swept over scan-shaped offsets, rows of dy each crossing
        # many dx, so a part pair's half-planes are left partial by an early
        # separating edge at one offset and completed at a later one
        rng = random.Random(18)

        def nonconvex():
            while True:
                pts = random_star_polygon(rng, rng.randint(5, 8), radius=12, center=(12, 12))
                if not is_convex(pts):
                    return pts

        for scale, shift in ((1, 0), (2 ** 30, -(2 ** 45 + 3))):
            hits = misses = extended = 0
            for _ in range(3):
                a, b = (Polygon([(x * scale + shift, y * scale + shift) for x, y in nonconvex()])
                        for _ in range(2))
                tb = (shift, shift)
                memo = {}
                for row in range(-22, 23, 4):
                    for col in range(-22, 23, 3):
                        nudge = rng.randint(-1, 1) if scale > 1 else 0
                        ta = (col * scale + shift + nudge, row * scale + shift - nudge)
                        known = {key: len(planes) for key, planes in memo.items()}
                        got = exit_at(a, ta, b, tb, memo)
                        extended += any(0 < n < len(memo[key]) for key, n in known.items())
                        assert got == exit_at(a, ta, b, tb), (scale, ta)
                        expected = oracles.overlap_by_clipping(
                            triangulate(a.coords), ta, triangulate(b.coords), tb)
                        assert (got is not None) == expected, (scale, ta)
                        hits += expected
                        misses += not expected
            assert hits > 50 and misses > 50 and extended > 10

    def test_hit_planes_are_complete(self):
        # a hit hands back the whole half-plane list of the part pair that
        # gave the exit, one plane per edge of either part, each holding at
        # the probe, also when a memo kept the list partial at earlier probes
        rng = random.Random(24)
        checked = partial = 0
        for _ in range(60):
            a, ta, b, tb = random_overlap_case(rng)
            pairs = [(len(ea) + len(eb), pair_planes(pa, pb))
                     for pa, _, ea in a.parts for pb, _, eb in b.parts]
            memo = {}
            for _ in range(8):
                tx, ty = ta[0] + rng.randint(-20, 20), ta[1] + rng.randint(-20, 20)
                dx, dy = tb[0] - tx, tb[1] - ty
                for m in (None, memo):
                    hit = no_fit_exit(a.parts, b.parts, tx, dx, dy, m)
                    assert (hit is not None) == interiors_overlap(a, (tx, ty), b, tb)
                    if hit is None:
                        continue
                    planes = hit[1]
                    assert any(planes == full and len(planes) == n for n, full in pairs)
                    assert all(k + u * dx + v * dy > 0 for u, v, k in planes)
                    checked += 1
                partial += any(len(p) < max(n for n, _ in pairs) for p in memo.values())
        assert checked > 300 and partial > 100

    @pytest.mark.parametrize("scale, shift", [(1, 0), (2 ** 30, -(2 ** 45 + 3))])
    def test_rise_against_brute_force(self, scale, shift):
        # a pair's no-fit polygon holds both end columns, lox and glast, of
        # a window at row ty: both overlap at every row in [ty, ty + rise)
        # and not both at ty + rise; where one end is outside, the rise is
        # 0.  At 2**30 scale, with unit nudges off the grid, the rows in
        # between are checked at the two ends of the run, which by
        # convexity covers the rest
        rng = random.Random(25)
        risen = tall = outside = 0
        for _ in range(400):
            pa, pb = (convex_hull(random_star_polygon(rng, rng.randint(3, 8), radius=20))
                      for _ in range(2))
            a = Polygon([(x * scale, y * scale) for x, y in pa.coords])
            b = Polygon([(x * scale, y * scale) for x, y in pb.coords])
            ob = (rng.randint(-9, 9) * scale + shift, rng.randint(-9, 9) * scale - shift)

            def nudge():
                return rng.randint(-1, 1) if scale > 1 else 0

            ty = ob[1] + rng.randint(-30, 30) * scale + nudge()
            lox = ob[0] + rng.randint(-30, 30) * scale + nudge()
            glast = lox + max(0, rng.randint(0, 20) * scale + nudge())

            def both(row):
                return (interiors_overlap(a, (lox, row), b, ob)
                        and interiors_overlap(a, (glast, row), b, ob))

            hits = [no_fit_exit(a.parts, b.parts, x, ob[0] - x, ob[1] - ty)
                    for x in (lox, glast)]
            if hits == [None, None]:
                continue
            planes = (hits[0] or hits[1])[1]
            rise = no_fit_rise(planes, ob[0] - lox, ob[0] - glast, ob[1] - ty)
            if None in hits:
                assert rise == 0
                outside += 1
                continue
            assert rise > 0
            rows = range(ty, ty + rise) if scale == 1 else (ty, ty + rise - 1)
            for row in rows:
                assert both(row), (scale, lox, glast, ty, rise)
                if scale == 1:
                    mid = rng.randint(lox, glast)
                    assert interiors_overlap(a, (mid, row), b, ob)
            assert not both(ty + rise)
            risen += 1
            tall += rise > scale
        assert risen > 80 and tall > 80 and outside > 60

    def test_no_overlap_no_exit(self):
        sq = Polygon(UNIT_SQUARE)
        assert exit_at(sq, (0, 0), sq, (1, 0)) is None
        assert exit_at(sq, (0, 0), sq, (0, 0)) == 1

    @pytest.mark.parametrize("scale, shift", [(1, 0), (2 ** 30, -(2 ** 45 + 3))])
    def test_kernel_matches_checked_entry(self, scale, shift):
        # item pairs from all four generators, probed the way a grid scan
        # probes them: rows of ty, each crossing the columns of tx at which
        # the boxes can meet, one memo per scanned polygon across its
        # blockers; a unit nudge at 2**30 scale moves a probe off the grid
        rng = random.Random(23)
        cfg = dict(seed=5, n_target=12)
        families = (gen_random(GenConfig(**cfg)), gen_atris(GenConfig(**cfg)),
                    gen_satris(GenConfig(**cfg)),
                    gen_jigsaw(GenConfig(seed=5, jigsaw_line_count=5)))
        split = 0  # pairs with a triangulated polygon
        for inst in families:
            polys = [Polygon([(x * scale + shift, y * scale + shift)
                              for x, y in it.polygon.coords]) for it in inst.items]
            tris = {p: triangulate(p.coords) for p in polys}
            hits = misses = 0
            for a in rng.sample(polys, 2):
                memo = {}
                for b in rng.sample(polys, 3):
                    split += len(a.parts) > 1 or len(b.parts) > 1
                    ax0, ay0, ax1, ay1 = (c // scale for c in a.bbox)
                    bx0, by0, bx1, by1 = (c // scale for c in b.bbox)
                    cols = range(bx0 - ax1, bx1 - ax0 + 1, max(1, (bx1 - bx0) // 6))
                    for row in range(by0 - ay1, by1 - ay0 + 1, max(1, (by1 - by0) // 6)):
                        for col in cols:
                            nudge = rng.randint(-1, 1) if scale > 1 else 0
                            tx, ty = col * scale + nudge, row * scale - nudge
                            ox, oy = rng.randint(-9, 9) * scale, rng.randint(-9, 9) * scale
                            want = exit_at(a, (tx + ox, ty + oy), b, (ox, oy))
                            assert (want is not None) == interiors_overlap(
                                a, (tx + ox, ty + oy), b, (ox, oy))
                            if want is not None:
                                want -= ox
                            assert exit_x(no_fit_exit(a.parts, b.parts, tx, -tx, -ty)) == want
                            assert exit_x(no_fit_exit(a.parts, b.parts, tx, -tx, -ty,
                                                      memo)) == want
                            if rng.random() < 0.05:
                                assert (want is not None) == oracles.overlap_by_clipping(
                                    tris[a], (tx, ty), tris[b], (0, 0))
                            hits += want is not None
                            misses += want is None
            assert hits > 20 and misses > 20, inst.name
        assert split > 10

    def test_checked_entries_reject_float_offsets(self):
        # the solver's own ints skip the check; the public predicates and
        # verify still refuse a float rather than truncate it
        sq = Polygon(UNIT_SQUARE)
        for ta, tb in (((0.0, 0), (0, 0)), ((0, 0.5), (0, 0)),
                       ((0, 0), (1.0, 0)), ((0, 0), (0, 0.5))):
            with pytest.raises(TypeError):
                interiors_overlap(sq, ta, sq, tb)
        box = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        inst = Instance("f", box, (Item(sq, 1), Item(sq, 1)))
        with pytest.raises(TypeError):
            verify(inst, Solution("f", (Placement(0, (0, 0)), Placement(1, (0.5, 0)))))

    def test_containment_range_against_brute_force(self):
        rng = random.Random(17)
        box_pts = [(0, 0), (40, 0), (50, 30), (20, 45), (-5, 25)]
        box = Polygon(box_pts)
        nonempty = 0
        for _ in range(300):
            item = Polygon(random_star_polygon(rng, rng.randint(3, 8), radius=12,
                                               center=(12, 12)))
            ty = rng.randint(-30, 50)
            inside = [x for x in range(-80, 81)
                      if all(oracles.point_in_convex_halfplanes(box_pts, (px + x, py + ty))
                             for px, py in item.coords)]
            got = containment_range(inner_fit(box, item), ty)
            if not inside:
                assert got is None
                continue
            assert got == (inside[0], inside[-1])
            assert len(inside) == inside[-1] - inside[0] + 1
            nonempty += 1
        assert nonempty > 50

    def test_containment_range_horizontal_edges(self):
        box = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        sq = Polygon(UNIT_SQUARE)
        assert containment_range(inner_fit(box, sq), 0) == (0, 9)
        assert containment_range(inner_fit(box, sq), 9) == (0, 9)
        assert containment_range(inner_fit(box, sq), 10) is None
        assert containment_range(inner_fit(box, sq), -1) is None
        assert containment_range(inner_fit(box, Polygon([(0, 0), (11, 0), (0, 1)])),
                                 0) is None

    def test_axis_rectangle_rows_are_the_box_range(self):
        # in an axis-aligned rectangle, containment is the bounding-box test:
        # every row from loy to hiy is exactly (lox, hix), and none outside
        rng = random.Random(19)
        checked = 0
        for scale, shift in ((1, 0), (2 ** 30, -(2 ** 45 + 3))):
            for _ in range(60):
                w, h = rng.randint(10, 60), rng.randint(10, 60)
                x0, y0 = rng.randint(-20, 20), rng.randint(-20, 20)
                box = Polygon([((x0 + dx) * scale + shift, (y0 + dy) * scale + shift)
                               for dx, dy in ((0, 0), (w, 0), (w, h), (0, h))])
                item = Polygon([(x * scale + shift, y * scale + shift) for x, y in
                                random_star_polygon(rng, rng.randint(3, 8), radius=15)])
                cb, b = box.bbox, item.bbox
                lox, hix, loy, hiy = cb[0] - b[0], cb[2] - b[2], cb[1] - b[1], cb[3] - b[3]
                if lox > hix or loy > hiy:
                    continue
                fit = inner_fit(box, item)
                rows = range(loy, hiy + 1) if scale == 1 else \
                    [loy, loy + 1, hiy - 1, hiy] + [rng.randint(loy, hiy) for _ in range(20)]
                for ty in rows:
                    assert containment_range(fit, ty) == (lox, hix), (scale, ty)
                assert containment_range(fit, loy - 1) is None
                assert containment_range(fit, hiy + 1) is None
                checked += 1
        assert checked > 60


class TestPolygonClass:
    def test_rejects_bowtie(self):
        with pytest.raises(geom.GeometryError):
            Polygon(BOWTIE)

    def test_rejects_clockwise(self):
        with pytest.raises(geom.GeometryError):
            Polygon(list(reversed(UNIT_SQUARE)))

    def test_rejects_degenerate(self):
        with pytest.raises(geom.GeometryError):
            Polygon([(0, 0), (1, 0)])
        with pytest.raises(geom.GeometryError):
            Polygon([(0, 0), (1, 0), (2, 0)])

    def test_one_walk_matches_oracles(self):
        # Polygon reads area, bounding box and simplicity from one walk;
        # each answer and the first error are checked against the oracles
        # on random point lists and on variants that hit each early exit:
        # spikes, repeated vertices, collinear runs and clockwise order.
        rng = random.Random(4242)
        cases = []
        for _ in range(300):
            cases.append([(rng.randint(0, 6), rng.randint(0, 6))
                          for _ in range(rng.randint(3, 14))])
            star = random_star_polygon(rng, rng.randint(3, 14))
            cases.append(star)
            cases.append(star[::-1])
            n = len(star)
            j = rng.randrange(n)
            (ax, ay), (bx, by) = star[j - 1], star[j]
            doubled = [(2 * x, 2 * y) for x, y in star]
            # a collinear run: the midpoint of edge j-1 -> j inserted
            cases.append(doubled[:j] + [(ax + bx, ay + by)] + doubled[j:])
            # a spike: back along edge j-1 -> j to its midpoint, then on
            cases.append(doubled[:j + 1] + [(ax + bx, ay + by)] + doubled[j + 1:])
            # a repeated vertex, next to its twin or apart from it
            cases.append(star[:j] + [star[j]] + star[j:])
            cases.append(star + [star[rng.randrange(n - 1)]])
        accepted = 0
        for pts in cases:
            area2 = oracles.shoelace_area2(pts)
            if area2 <= 0:
                expected = "positive area"
            elif not oracles.brute_force_simple(pts):
                expected = "not simple"
            else:
                expected = None
            if expected is not None:
                with pytest.raises(geom.GeometryError, match=expected):
                    Polygon(pts)
                continue
            poly = Polygon(pts)
            accepted += 1
            xs, ys = [x for x, _ in pts], [y for _, y in pts]
            assert poly.area2 == area2
            assert poly.bbox == (min(xs), min(ys), max(xs), max(ys))
            assert poly.coords == tuple(pts)
        assert 0.2 < accepted / len(cases) < 0.8

    def test_error_order(self):
        # fewer than 3 vertices, then area <= 0, then not simple
        with pytest.raises(geom.GeometryError, match="at least 3 vertices"):
            Polygon([(0, 0), (5, 5)])
        clockwise_bowtie = [(0, 0), (4, 4), (4, 0), (0, 1)]
        assert oracles.shoelace_area2(clockwise_bowtie) < 0
        assert not oracles.brute_force_simple(clockwise_bowtie)
        with pytest.raises(geom.GeometryError,
                           match="counterclockwise with positive area"):
            Polygon(clockwise_bowtie)
        with pytest.raises(geom.GeometryError, match="not simple"):
            Polygon(clockwise_bowtie[::-1])

    def test_points_must_be_pairs(self):
        # a third value is not dropped, a missing one not invented
        for pts in ([(0, 0, 9), (4, 0, 9), (0, 3, 9)],
                    [(0, 0), (4, 0, 1), (0, 3)],
                    [(0, 0), (4,), (0, 3)]):
            with pytest.raises(geom.GeometryError, match=r"\(x, y\) pair"):
                Polygon(pts)
            with pytest.raises(geom.GeometryError):
                is_simple(pts)
        with pytest.raises(TypeError):
            Polygon([(0, 0), (4.0, 0), (0, 3)])
        assert Polygon([[0, 0], [4, 0], [0, 3]]).coords == ((0, 0), (4, 0), (0, 3))

    def test_round_nearest(self):
        assert geom.round_ratio(1, 2) == 1
        assert geom.round_ratio(-1, 2) == 0
        assert geom.round_ratio(7, 10) == 1
        assert geom.round_ratio(3, 10) == 0
        assert geom.round_ratio(-7, 10) == -1

    def test_round_ratio_equals_round_nearest(self):
        rng = random.Random(12)
        cases = [(n, d) for n in range(-13, 14) for d in range(-6, 7) if d]
        # exact ties m + 1/2, also unreduced and with a negative denominator
        cases += [(s * (2 * m + 1) * c, 2 * c * t) for m in range(-5, 6)
                  for c in (1, 3, 1 << 40) for s, t in ((1, 1), (-1, -1), (1, -1))]
        cases += [(rng.randint(-1 << 80, 1 << 80), rng.choice((-1, 1)) * rng.randint(1, 1 << 60))
                  for _ in range(2000)]
        for n, d in cases:
            expected = math.floor(Fraction(n, d) + Fraction(1, 2))
            assert geom.round_ratio(n, d) == expected, (n, d)
