import hashlib
from fractions import Fraction

import pytest

from polypack import generators
from polypack.generators import (GenConfig, cells_connected, gen_atris,
                                 gen_jigsaw, gen_random, gen_satris,
                                 polyomino_cells, shear_polygon,
                                 shear_value_factor)
from polypack.generators.jigsaw import _merge_faces
from polypack.generators.tetro import NonSimpleAfterRounding
from polypack.geom import Polygon, is_convex, is_simple, signed_area, signed_area2
from polypack.model import (MAX_TOTAL_VALUE, Placement, Solution,
                            read_instance, write_instance)
from polypack.rng import Rng
from polypack.verifier import verify

import oracles


def identity_solution(instance):
    ident = instance.meta["identity"]
    return Solution(instance.name, tuple(
        Placement(i, (tx, ty)) for i, tx, ty in zip(
            ident["item_indices"], ident["x_translations"], ident["y_translations"])))


class TestDeterminism:
    @pytest.mark.parametrize("family", ["random", "jigsaw", "atris", "satris"])
    def test_same_seed_byte_identical(self, family):
        cfg = GenConfig(seed=1, n_target=12, jigsaw_line_count=5)
        gen = generators.FAMILIES[family]
        assert write_instance(gen(cfg)) == write_instance(gen(cfg))

    def test_different_seeds_differ(self):
        a = write_instance(gen_random(GenConfig(seed=1, n_target=8)))
        b = write_instance(gen_random(GenConfig(seed=2, n_target=8)))
        assert a != b


class TestRandomFamily:
    def test_all_convex_when_ratio_one(self):
        inst = gen_random(GenConfig(seed=3, n_target=20, convexity_ratio=1))
        assert all(is_convex(it.polygon) for it in inst.items)

    def test_concave_present_when_ratio_zero(self):
        inst = gen_random(GenConfig(seed=4, n_target=20, convexity_ratio=0))
        assert any(not is_convex(it.polygon) for it in inst.items)

    def test_validity_sweep(self):
        for seed in range(50):
            inst = gen_random(GenConfig(seed=seed, n_target=6))
            again = read_instance(write_instance(inst))
            assert again == inst
            assert is_convex(inst.container)
            for it in inst.items:
                assert is_simple(it.polygon)
                assert it.value >= 1

    def test_rejects_container_size(self):
        # the container is drawn from the items, so a size could not apply
        with pytest.raises(ValueError, match="container"):
            gen_random(GenConfig(seed=1, n_target=5, container_width=50,
                                 container_height=50))


class TestContainerConfig:
    @pytest.mark.parametrize("width, height", [(0, 40), (40, 0)])
    def test_one_zero_side_rejected(self, width, height):
        with pytest.raises(ValueError, match="both"):
            GenConfig(container_width=width, container_height=height)

    def test_rectangular_families_read_it(self):
        for gen in (gen_jigsaw, gen_atris, gen_satris):
            inst = gen(GenConfig(seed=1, n_target=5, container_width=120,
                                 container_height=90))
            assert inst.container.bbox == (0, 0, 120, 90)


class TestJigsawFamily:
    def test_unperturbed_identity_tiles_exactly(self):
        cfg = GenConfig(seed=5, jigsaw_line_count=6, jigsaw_copies=1,
                        jigsaw_perturb_amplitude=0)
        inst = gen_jigsaw(cfg)
        total = sum(it.polygon.area for it in inst.items)
        assert total == inst.container.area
        report = verify(inst, identity_solution(inst))
        assert report.valid
        assert report.packed_value == sum(it.value for it in inst.items)

    def test_identity_round_trips_through_json(self):
        cfg = GenConfig(seed=6, jigsaw_line_count=5, jigsaw_perturb_amplitude=0)
        inst = read_instance(write_instance(gen_jigsaw(cfg)))
        assert verify(inst, identity_solution(inst)).valid

    def test_copies_scale_total_area(self):
        cfg = GenConfig(seed=7, jigsaw_line_count=6, jigsaw_copies=3)
        inst = gen_jigsaw(cfg)
        total = sum(it.polygon.area for it in inst.items)
        target = 3 * inst.container.area
        assert abs(total - target) <= Fraction(2, 100) * target

    def test_validity_sweep(self):
        for seed in range(50):
            inst = gen_jigsaw(GenConfig(seed=seed, jigsaw_line_count=4))
            for it in inst.items:
                assert is_simple(it.polygon)
            assert read_instance(write_instance(inst)) == inst

    def test_merges_produce_concave_pieces(self):
        hit = False
        for seed in range(10):
            inst = gen_jigsaw(GenConfig(seed=seed, jigsaw_line_count=7,
                                        jigsaw_merge_fraction=1))
            if any(not is_convex(it.polygon) for it in inst.items):
                hit = True
                break
        assert hit


class TestMergeFaces:
    def test_partial_edge_with_t_junction(self):
        # g's corner (4, 1) lies inside f's right edge; the walk starts where
        # f's boundary leaves the shared segment (4, 1)-(4, 3)
        f = [(0, 0), (4, 0), (4, 3), (0, 3)]
        g = [(4, 1), (6, 1), (6, 5), (4, 3)]
        assert _merge_faces(f, g) == [(4, 3), (0, 3), (0, 0), (4, 0), (4, 1),
                                      (6, 1), (6, 5)]

    def test_vertex_contact_is_not_adjacency(self):
        f = [(0, 0), (2, 0), (2, 2), (0, 2)]
        assert _merge_faces(f, [(2, 2), (4, 2), (4, 4), (2, 4)]) is None

    def test_disjoint_faces(self):
        f = [(0, 0), (2, 0), (2, 2), (0, 2)]
        assert _merge_faces(f, [(5, 5), (7, 5), (7, 7), (5, 7)]) is None

    def test_nonconvex_l_shapes_sharing_an_edge(self):
        l1 = [(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)]
        l2 = [(4, 0), (8, 0), (8, 4), (6, 4), (6, 2), (4, 2)]
        merged = _merge_faces(l1, l2)
        assert merged == [(2, 2), (2, 4), (0, 4), (0, 0), (8, 0), (8, 4),
                          (6, 4), (6, 2)]
        assert signed_area2(merged) == signed_area2(l1) + signed_area2(l2)

    def test_bent_shared_boundary(self):
        # the L fills the U's notch and covers its right arm: three shared
        # edges meeting at right angles
        u = [(0, 0), (6, 0), (6, 4), (4, 4), (4, 2), (2, 2), (2, 4), (0, 4)]
        l = [(2, 2), (4, 2), (4, 4), (6, 4), (6, 6), (2, 6)]
        assert _merge_faces(u, l) == [(2, 4), (0, 4), (0, 0), (6, 0), (6, 6),
                                      (2, 6)]

    def test_union_with_hole(self):
        u = [(0, 0), (6, 0), (6, 4), (4, 4), (4, 2), (2, 2), (2, 4), (0, 4)]
        assert _merge_faces(u, [(0, 4), (6, 4), (6, 6), (0, 6)]) is None


class TestJigsawPinnedOutput:
    """SHA-256 of write_instance for the benchmark's jigsaw configs and for
    merge-heavy ones: any change to cutting, merging or perturbation shows
    up here."""

    @pytest.mark.parametrize("fields, sha256", [
        (dict(seed=9, jigsaw_line_count=5, jigsaw_copies=3),
         "9fc8fb0b7ac9afafaaf06c10b2399a714d069f0ac288d1ce2f575664f06ecc25"),
        (dict(seed=10, jigsaw_line_count=5, jigsaw_copies=3),
         "24c3eac76f255c87d9afb6a21af00a23cb6d60a15139b5a082ccf5a0928306ed"),
        (dict(seed=9, jigsaw_line_count=8, jigsaw_copies=3),
         "53259f34af101ffa8f402047d610141172a55aa128fe51d0d0c3eb0f85e91470"),
        (dict(seed=10, jigsaw_line_count=8, jigsaw_copies=3),
         "1d1adfb0ad31b66998d61d58ae20640472dc30ec10e75143f72269014ad746f4"),
        (dict(seed=11, jigsaw_line_count=8, jigsaw_copies=3),
         "03293a15a4f0203ea02f90672057c27b826d42fa174e5867d5ac048086d90904"),
        (dict(seed=12, jigsaw_line_count=8, jigsaw_copies=3),
         "25909f46dac74c9d125070222ec5652e89c514451f75a55311fc83e393b406c1"),
        (dict(seed=1, jigsaw_line_count=40, jigsaw_perturb_amplitude=0),
         "d900b6bc90f12c5f512b718e68f999e4a0571185f64790e46cd97b539a598108"),
        (dict(seed=0, jigsaw_line_count=7, jigsaw_merge_fraction=1),
         "64aa30b623e4d554814ddfb3c16a91af80d8bfc80e8167190e49d344a1da84fb"),
        (dict(seed=1, jigsaw_line_count=7, jigsaw_merge_fraction=1),
         "4611ebd1927dbe2ec473ff27fad6a6be6713e8fbfafb109d0957cc46ba597824"),
        (dict(seed=2, jigsaw_line_count=7, jigsaw_merge_fraction=1),
         "e2262cc51afd1f17fe0469aea62da349cdaa5eff12417586fd0400e237aeab0d"),
        (dict(seed=3, jigsaw_line_count=7, jigsaw_merge_fraction=1),
         "7cb86d21bbdeccbd6a0ed97105307384f039909ba31c87a69d01b2c8243e5107"),
    ])
    def test_bytes(self, fields, sha256):
        data = write_instance(gen_jigsaw(GenConfig(**fields)))
        assert hashlib.sha256(data).hexdigest() == sha256


class TestPoolPinnedOutput:
    """SHA-256 of write_instance for the benchmark pool's random, atris and
    satris configs (run seed 1): any change to hull building, simplicity
    checks or shear rounding shows up here."""

    @pytest.mark.parametrize("gen, fields, sha256", [
        (gen_random, dict(seed=1000020, n_target=120),
         "bcb5cc1ce7ea5b7c322a17343d371f19edc0d760cc01eabd9b0bb468779540d3"),
        (gen_atris, dict(seed=1007939, n_target=400),
         "4073650453e19644eb5c3a189ca5a245d0805eb2d86836a89d95beeaa39f4192"),
        (gen_satris, dict(seed=1015858, n_target=400),
         "e1ec4c9551d865f10362f250de01a79267a489d0840db6a818249c931731f2a8"),
    ])
    def test_bytes(self, gen, fields, sha256):
        data = write_instance(gen(GenConfig(**fields)))
        assert hashlib.sha256(data).hexdigest() == sha256


class TestAtrisFamily:
    def test_area_stopping_rule(self):
        for seed in range(10):
            t = Fraction(1 + seed % 2, 1) + Fraction(seed % 3, 4)  # within [1, 2]
            t = min(t, Fraction(2))
            cfg = GenConfig(seed=seed, n_target=40, area_multiple_t=t)
            inst = gen_atris(cfg)
            total = sum(it.polygon.area for it in inst.items)
            container_area = inst.container.area
            max_item = max(it.polygon.area for it in inst.items)
            assert total > t * container_area
            assert total <= t * container_area + max_item

    def test_all_integral(self):
        inst = gen_atris(GenConfig(seed=11, n_target=30))
        data = write_instance(inst)
        obj = __import__("json").loads(data)
        for item in obj["items"]:
            assert all(isinstance(v, int) for v in item["x"])
            assert all(isinstance(v, int) for v in item["y"])
            assert isinstance(item["value"], int) and item["value"] >= 1

    def test_value_sum_bound_midsize(self):
        inst = gen_atris(GenConfig(seed=12, n_target=2000))
        assert sum(it.value for it in inst.items) < MAX_TOTAL_VALUE

    def test_container_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            gen_atris(GenConfig(seed=1, container_width=1 << 19,
                                container_height=1 << 19))

    def test_pixel_too_large_rejected(self):
        with pytest.raises(ValueError, match="pixel"):
            gen_atris(GenConfig(seed=1, container_width=30, container_height=30,
                                pixel_size_range=(10, 20)))

    def test_validity_sweep(self):
        for seed in range(25):
            inst = gen_atris(GenConfig(seed=seed, n_target=15))
            for it in inst.items:
                assert is_simple(it.polygon)
            assert read_instance(write_instance(inst)) == inst

    def test_template_connectivity_flood_fill(self):
        for seed in range(300):
            rng = Rng(seed, stream=77)
            cat = generators.CATEGORIES[rng.below(len(generators.CATEGORIES))]
            cells = polyomino_cells(rng, cat)
            assert cells_connected(cells)

    def test_outline_matches_independent_tracer(self):
        for seed in range(100):
            rng = Rng(seed, stream=78)
            cat = generators.CATEGORIES[rng.below(len(generators.CATEGORIES))]
            cells = polyomino_cells(rng, cat)
            from polypack.generators.tetro import cells_to_outline
            ours = cells_to_outline(cells)
            theirs = oracles.cells_outline(cells)
            # the same sequence from the same start: CCW from the least
            # vertex, collinear runs merged
            assert ours == theirs
            assert oracles.shoelace_area2(ours) == 2 * len(cells)

    def test_flip_rotate_preserves_area(self):
        from polypack.generators.tetro import _flip_rotate, _pixel_scaled
        for seed in range(50):
            rng = Rng(seed, stream=79)
            cat = generators.CATEGORIES[rng.below(len(generators.CATEGORIES))]
            cells = polyomino_cells(rng, cat)
            pts = _pixel_scaled(cells, rng, 2, 9)
            out = _flip_rotate(Polygon(pts), rng).coords
            assert oracles.shoelace_area2(out) == oracles.shoelace_area2(pts) > 0


class TestOutlineCache:
    @staticmethod
    def reachable_cell_sets():
        """Every cell set `_gen_tetro` draws at seeds 0-199, streams 0-299."""
        sets = set()
        for seed in range(200):
            for stream in range(300):
                rng = Rng(seed, stream)
                cat = generators.CATEGORIES[rng.below(len(generators.CATEGORIES))]
                sets.add(frozenset(polyomino_cells(rng, cat)))
        return sets

    def test_every_reachable_entry_matches_independent_tracer(self):
        from polypack.generators.tetro import _outline_entry
        sets = self.reachable_cell_sets()
        assert len(sets) == 69
        for cells in sets:
            cols, rows, ncols, nrows = _outline_entry(set(cells))
            x0 = min(x for x, _ in cells)
            y0 = min(y for _, y in cells)
            assert [(i + x0, j + y0) for i, j in zip(cols, rows)] == \
                oracles.cells_outline(cells)
            assert ncols == len({x for x, _ in cells}) == max(cols)
            assert nrows == len({y for _, y in cells}) == max(rows)

    def test_gapped_cell_set_rejected(self):
        from polypack.generators.tetro import _outline_entry
        with pytest.raises(ValueError, match="contiguous"):
            _outline_entry({(0, 0), (2, 0)})

    @pytest.mark.parametrize("first, second", [(gen_atris, gen_satris),
                                               (gen_satris, gen_atris)])
    def test_cold_and_warm_cache_give_equal_bytes(self, monkeypatch, first, second):
        from polypack.generators import tetro
        cfg = GenConfig(seed=5, n_target=120, shear_probability=Fraction(1, 2))
        monkeypatch.setattr(tetro, "_OUTLINES", {})
        cold = write_instance(first(cfg))
        assert tetro._OUTLINES
        warm = write_instance(first(cfg))
        assert cold == warm
        monkeypatch.setattr(tetro, "_OUTLINES", {})
        cold_second = write_instance(second(cfg))
        monkeypatch.setattr(tetro, "_OUTLINES", {})
        write_instance(first(cfg))
        assert write_instance(second(cfg)) == cold_second


class TestSatrisFamily:
    def test_zero_probability_matches_atris(self):
        cfg_a = GenConfig(seed=13, n_target=25)
        cfg_s = GenConfig(seed=13, n_target=25, shear_probability=0)
        a = gen_atris(cfg_a)
        s = gen_satris(cfg_s)
        assert [it.polygon for it in a.items] == [it.polygon for it in s.items]
        assert [it.value for it in a.items] == [it.value for it in s.items]

    def test_shear_value_factor_monotone(self):
        ms = [Fraction(1, 10) + Fraction(k, 20) for k in range(0, 39)]
        factors = [shear_value_factor(m) for m in ms]
        assert all(f > 1 for f in factors)
        assert all(b > a for a, b in zip(factors, factors[1:]))

    def test_sheared_item_values_increase_with_m(self):
        # fixed large pre-value so rounding cannot flatten the trend
        base = Polygon([(0, 0), (200, 0), (200, 120), (0, 120)])
        pre = base.area
        values = []
        for k in range(20):
            m = Fraction(1, 10) + Fraction(k, 10)
            sheared = shear_polygon(base, m)
            v = round(pre * shear_value_factor(m))
            values.append(v)
            assert sheared.area >= pre * Fraction(95, 100)
        assert all(b > a for a, b in zip(values, values[1:]))
        unsheared = round(pre)
        assert all(v > unsheared for v in values)

    def test_sheared_items_simple_sweep(self):
        for seed in range(50):
            inst = gen_satris(GenConfig(seed=seed, n_target=12,
                                        shear_probability=1))
            for it in inst.items:
                assert is_simple(it.polygon)
            assert read_instance(write_instance(inst)) == inst


class TestShearPolygon:
    def test_identity(self):
        sq = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert shear_polygon(sq, Fraction(0)) == sq

    def test_unit_square_m1(self):
        sq = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert shear_polygon(sq, Fraction(1)).coords == ((0, 0), (1, 0), (2, 1), (1, 1))

    def test_integer_shear_preserves_area(self):
        import random
        from test_geom import random_star_polygon
        rng = random.Random(55)
        for _ in range(100):
            poly = Polygon(random_star_polygon(rng, rng.randint(4, 10)))
            for m in (1, 2):
                assert shear_polygon(poly, Fraction(m)).area == poly.area

    def test_exact_rational_shear_is_unimodular(self):
        # applied without rounding (test-local), area is always preserved
        import random
        from test_geom import random_star_polygon
        rng = random.Random(56)
        for _ in range(100):
            pts = random_star_polygon(rng, rng.randint(4, 10))
            m = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            sheared = [(Fraction(x) + m * y, Fraction(y)) for x, y in pts]
            assert oracles.poly_area_fraction(sheared) == \
                oracles.poly_area_fraction(pts)

    def test_non_simple_after_rounding(self):
        thin = Polygon([(0, 0), (5, 1), (9, 2)])
        with pytest.raises(NonSimpleAfterRounding):
            shear_polygon(thin, Fraction(3, 10))
