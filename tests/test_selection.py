import csv
import hashlib
import io
import math
import random
import statistics
from fractions import Fraction

import pytest

from polypack.generators import (GenConfig, gen_atris, gen_jigsaw, gen_random,
                                 gen_satris)
from polypack.geom import Polygon
from polypack.model import Instance, Item
from polypack.selection import (METRIC_NAMES, DegenerateFeatures,
                                SelectionConfig, compute_metrics,
                                features_csv, select_from_features,
                                _pca_project)

import oracles

BOX = Polygon([(0, 0), (50, 0), (50, 50), (0, 50)])


def inst_of(polys, name="m", values=None):
    values = values or [1] * len(polys)
    return Instance(name, BOX, tuple(Item(p, v) for p, v in zip(polys, values)))


class TestMetrics:
    def test_single_item_log_zero(self):
        fv = compute_metrics(inst_of([Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])]))
        assert fv.values[0] == 0.0

    def test_all_convex_items_zero_slack(self):
        polys = [Polygon([(0, 0), (3, 0), (3, 2), (0, 2)]),
                 Polygon([(0, 0), (4, 0), (2, 3)])]
        fv = compute_metrics(inst_of(polys))
        assert fv.values[1] == 0.0

    def test_concave_item_positive_slack(self):
        l_shape = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        fv = compute_metrics(inst_of([l_shape]))
        assert fv.values[1] > 0.0

    def test_atris_axis_alignment_is_one(self):
        for seed in range(5):
            inst = gen_atris(GenConfig(seed=seed, n_target=10))
            fv = compute_metrics(inst)
            assert fv.values[5] == 1.0

    def test_empty_instance_named_in_value_error(self):
        # every metric is a mean over the items, so none exists without them
        with pytest.raises(ValueError, match="'bare' has no items"):
            compute_metrics(inst_of([], name="bare"))

    def test_vector_length_and_names(self):
        fv = compute_metrics(inst_of([Polygon([(0, 0), (1, 0), (1, 1)])]))
        assert len(fv.values) == len(METRIC_NAMES) == 11
        assert all(math.isfinite(v) for v in fv.values)


def blob_features(rng, n_per_blob, centers, spread=0.5, dims=11):
    feats = []
    for b, center in enumerate(centers):
        for i in range(n_per_blob):
            vec = [center + rng.uniform(-spread, spread) for _ in range(dims)]
            feats.append((f"blob{b}_{i}", vec))
    return feats


class TestSelection:
    def test_k_equals_n_returns_everything(self):
        rng = random.Random(71)
        feats = blob_features(rng, 5, [0.0, 100.0])
        out = select_from_features(feats, SelectionConfig(k=10, seed=1))
        assert sorted(out) == sorted(name for name, _ in feats)

    def test_two_blobs_one_pick_each_100_seeds(self):
        rng = random.Random(72)
        feats = blob_features(rng, 20, [0.0, 1000.0])
        for seed in range(100):
            out = select_from_features(feats, SelectionConfig(k=2, seed=seed))
            assert len(out) == 2
            prefixes = {name.split("_")[0] for name in out}
            assert prefixes == {"blob0", "blob1"}

    def test_order_insensitive(self):
        rng = random.Random(73)
        feats = blob_features(rng, 12, [0.0, 30.0, 90.0])
        cfg = SelectionConfig(k=5, seed=3)
        base = select_from_features(feats, cfg)
        for _ in range(5):
            rng.shuffle(feats)
            assert select_from_features(feats, cfg) == base

    def test_output_distinct_and_from_input(self):
        rng = random.Random(74)
        feats = blob_features(rng, 30, [0.0, 5.0, 10.0, 20.0])
        names = {name for name, _ in feats}
        for k in (1, 7, 40):
            out = select_from_features(feats, SelectionConfig(k=k, seed=9))
            assert len(out) == k == len(set(out))
            assert set(out) <= names

    def test_duplicate_rows_still_fill_k(self):
        feats = [(f"dup{i}", [1.0, 2.0, 3.0 + (i % 2)]) for i in range(10)]
        with pytest.warns(UserWarning):  # two of the three columns are constant
            out = select_from_features(feats, SelectionConfig(k=4, seed=2))
        assert len(out) == len(set(out)) == 4

    def test_degenerate_all_constant(self):
        feats = [(f"c{i}", [1.0] * 11) for i in range(6)]
        with pytest.raises(DegenerateFeatures):
            select_from_features(feats, SelectionConfig(k=2, seed=1))

    def test_constant_column_dropped_with_warning(self):
        rng = random.Random(75)
        feats = [(f"x{i}", [5.0, rng.random(), rng.random()]) for i in range(12)]
        with pytest.warns(UserWarning, match="constant"):
            out = select_from_features(feats, SelectionConfig(k=3, seed=4))
        assert len(out) == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_named(self, bad):
        # such a metric used to be dropped as "constant"
        rng = random.Random(76)
        feats = [(f"x{i}", [rng.random() for _ in range(4)]) for i in range(8)]
        feats[5][1][2] = bad
        with pytest.raises(ValueError, match="'x5': metric container_rect_ratio"):
            select_from_features(feats, SelectionConfig(k=3, seed=1))

    @pytest.mark.parametrize("k", [3, 8])
    def test_ragged_features_rejected(self, k):
        rng = random.Random(77)
        feats = [(f"x{i}", [rng.random() for _ in range(4)]) for i in range(8)]
        feats[6][1].pop()
        with pytest.raises(ValueError, match="'x6' has 3 metrics, expected 4"):
            select_from_features(feats, SelectionConfig(k=k, seed=1))

    @pytest.mark.parametrize("fields, named", [
        (dict(kmeans_restarts=0), "kmeans_restarts"),
        (dict(kmeans_restarts=-2), "kmeans_restarts"),
        (dict(pca_components=-1), "pca_components"),
    ])
    def test_unusable_config_rejected(self, fields, named):
        # no silent clamp to one restart, and no negative count read as "auto"
        with pytest.raises(ValueError, match=named):
            SelectionConfig(k=2, **fields)
        assert SelectionConfig(k=2, kmeans_restarts=1, pca_components=0)

    def test_pca_variance_retained(self):
        rng = random.Random(42)
        base = [[rng.gauss(0, 1) for _ in range(3)] for _ in range(200)]
        mix = [[rng.gauss(0, 1) for _ in range(11)] for _ in range(3)]
        data = [[sum(b * m for b, m in zip(row, col)) + 0.01 * rng.gauss(0, 1)
                 for col in zip(*mix)] for row in base]
        cols = [(statistics.fmean(col), statistics.pstdev(col)) for col in zip(*data)]
        z = [[(v - mean) / std for v, (mean, std) in zip(row, cols)] for row in data]
        proj = _pca_project(z, 0)
        # auto-selected components keep >= 95% of the variance
        assert len(proj[0]) <= 11
        total_var = sum(statistics.pvariance(col) for col in zip(*z))
        kept_var = sum(statistics.pvariance(col) for col in zip(*proj))
        assert kept_var / total_var >= 0.95


@pytest.fixture(scope="module")
def mixed_features():
    instances = []
    for seed in range(12):
        instances.append(gen_random(GenConfig(seed=seed, n_target=6)))
        instances.append(gen_jigsaw(GenConfig(seed=seed, jigsaw_line_count=4)))
        instances.append(gen_atris(GenConfig(seed=seed, n_target=8)))
    return [(i.name, compute_metrics(i).values) for i in instances]


class TestEndToEndSelection:
    def test_mixed_corpus_coverage(self, mixed_features):
        out = select_from_features(mixed_features, SelectionConfig(k=9, seed=5))
        assert len(out) == len(set(out)) == 9
        assert set(out) <= {name for name, _ in mixed_features}

    @pytest.mark.parametrize("k, seed, sha256", [
        (3, 0, "e4bd61dedb3507917f4319c824107c77e91570cb0d2501150bd778281d9fdaa7"),
        (3, 1, "86f184f82e4cd65228c631842219a290936c22b3c54108e086a2b2a1df3f4058"),
        (3, 2, "a19f2e690859de8c679000eee78359e1a15b3fbda08a4eb5c8502a7a02454f80"),
        (3, 3, "8ce2191b0fc277974e8e7f26a3ac44b392ede3f5da8723b9f19735520c31ec87"),
        (3, 4, "298c58abb29821dd1af3bc9cba2f2c32a8a913e133442ee4cf2ec69480417e13"),
        (9, 0, "3b5540f8a9acb0b398b91d744a365397b1375867989ef37a202225394a6f0a70"),
        (9, 1, "1237e1c168192d4b518631f50db08b843a7f89df6a6ebbb4190e0565a1253c78"),
        (9, 2, "6ce7923186e3bfd9bc291e9a1deb1e5a2b1afc14b14217bb6a0ea7c1911370fd"),
        (9, 3, "54b33aaa3c6a09d9a2a06d148c3ca03e212d72c2a969f28115b330a469171ae4"),
        (9, 4, "93c04357fd723b2b42b9c36a94d25119ed90de7918fa9edbba3201d969f6d006"),
        (20, 0, "a0becca1e0b56000aa468520cfba7994ae7913b1834864b94f85d2c77cb0a660"),
        (20, 1, "ad991f0ec04dd4619b8574830c4de5adca8127443feff7e16966c499c20944bb"),
        (20, 2, "11666c8305769c3151245a3c654b421f33d118f30422d02d0d6b0e65a0ab9b6b"),
        (20, 3, "be568663bf5074ef76d97764f9b8be2e45fd90533dcc4bf54f47efc43a669ef0"),
        (20, 4, "d69e4ea790703b4f2ce7a05e04fafb82a3f282e1ac47c45efa68152e21eb850b"),
    ])
    def test_pinned_picks(self, mixed_features, k, seed, sha256):
        # recorded when a LAPACK eigensolver did the PCA: the plain-float
        # pipeline must pick the same names
        picks = select_from_features(mixed_features, SelectionConfig(k=k, seed=seed))
        assert hashlib.sha256("\n".join(picks).encode()).hexdigest() == sha256

    def test_features_csv_shape(self):
        instances = [gen_random(GenConfig(seed=s, n_target=5)) for s in range(3)]
        csv_text = features_csv([(i.name, compute_metrics(i).values)
                                 for i in instances])
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith("name,log_item_count")
        assert len(lines) == 4
        assert len(lines[1].split(",")) == 12


    def test_features_csv_plain_bytes(self):
        text = features_csv([("b", (1.0, 0.5)), ("a", (2 / 3, -1e-12))])
        assert text == ("name," + ",".join(METRIC_NAMES) + "\n"
                        "a,0.666666667,-1e-12\nb,1,0.5\n")

    def test_features_csv_round_trip(self):
        named = [("a,b", (1.0, 2.0)), ('say "hi"', (3.0, 4.0)),
                 ("two\nlines", (5.0, 6.0)), ("plain", (7.0, 8.0)),
                 ("c\rr", (9.0, 10.0))]
        rows = list(csv.reader(io.StringIO(features_csv(named), newline="")))
        assert rows[0] == ["name", *METRIC_NAMES]
        assert rows[1:] == [[name, f"{x:g}", f"{y:g}"] for name, (x, y) in sorted(named)]


class TestMetricsReference:
    """compute_metrics' integer sums equal the Fraction formulas of
    `oracles.metric_means`, float for float."""

    @staticmethod
    def check(inst):
        values = compute_metrics(inst).values
        slack, rect_ratio = oracles.metric_means([it.polygon.coords for it in inst.items])
        assert values[1] == float(slack)
        assert values[3] == float(rect_ratio)
        container = inst.container.coords
        c_rect = oracles.min_rect_area_fraction(oracles.hull_by_wrapping(container))
        assert values[2] == float(Fraction(oracles.shoelace_area2(container), 2) / c_rect)

    @pytest.mark.parametrize("gen, fields", [
        (gen_random, dict(n_target=8)),
        (gen_atris, dict(n_target=12)),
        (gen_satris, dict(n_target=12)),
        (gen_jigsaw, dict(jigsaw_line_count=6)),
    ])
    @pytest.mark.parametrize("seed", range(5))
    def test_small_instances(self, gen, fields, seed):
        self.check(gen(GenConfig(seed=seed, **fields)))

    def test_coordinates_near_2_to_50(self):
        big = 1 << 50
        box = Polygon([(big - 10**9, big - 10**9), (big, big - 10**9), (big, big),
                       (big - 10**9, big)])
        rng = random.Random(50)
        polys = []
        while len(polys) < 8:
            pts = [(big - rng.randint(1, 10**8), big - rng.randint(1, 10**8))
                   for _ in range(rng.randint(3, 9))]
            ordered = oracles.sort_ccw(pts)
            if ordered is not None and oracles.brute_force_simple(ordered):
                polys.append(Polygon(ordered))
        self.check(Instance("big", box, tuple(Item(p, 1) for p in polys)))


class TestMetricsPinned:
    """The eleven compute_metrics floats for the benchmark pool's first
    instance of each family (run seed 1): hull, rectangle and aspect
    arithmetic must give these exact values."""

    @pytest.mark.parametrize("gen, fields, values", [
        (gen_random, dict(seed=1000020, n_target=120),
         (4.787491742782046, 0.043000080831568685, 0.8672314691745541,
          0.6980692883986199, 1.9238835877567075, 0.04396984924623116,
          6.633333333333334, 0.42334521597553665, 0.058881178105070306,
          7.0, 1.4818681681921102)),
        (gen_atris, dict(seed=1007939, n_target=400),
         (5.883322388488279, 0.2278417939296454, 1.0,
          0.6485329886447128, 1.5027082435438968, 1.0,
          8.389972144846796, 0.17635969381918273, 0.15910928567165364,
          4.0, 2.149433987392249)),
        (gen_satris, dict(seed=1015858, n_target=400),
         (5.945420608606575, 0.2345719789518559, 1.0,
          0.5995007868062809, 1.5002271430069074, 0.7482605945604048,
          8.277486910994764, 0.19125450634586655, 0.278227359567378,
          4.0, 3.239605176495825)),
        (gen_jigsaw, dict(seed=1023777, jigsaw_line_count=30, jigsaw_perturb_amplitude=0),
         (3.258096538021482, 0.021961093580615335, 1.0,
          0.512065909434189, 1.0, 0.2967032967032967,
          3.5, 2.8278383413020833, 0.05495368661021776,
          4.0, 12.421363586684517)),
    ])
    def test_values(self, gen, fields, values):
        assert compute_metrics(gen(GenConfig(**fields))).values == values
