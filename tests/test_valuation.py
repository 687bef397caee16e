import hashlib
import random
from fractions import Fraction

import pytest

from polypack.generators import GenConfig, gen_atris, gen_jigsaw, gen_random, gen_satris
from polypack.geom import Polygon
from polypack.model import Instance, Item, write_instance
from polypack.valuation import (ValueKind, ValueOverflow, ValueSpec,
                                assign_values, base_value)

from test_geom import random_star_polygon

BOX = Polygon([(0, 0), (100, 0), (100, 100), (0, 100)])


def make_instance(polys):
    return Instance("v", BOX, tuple(Item(p, 1) for p in polys))


def test_uniform_scale_100():
    inst = make_instance([Polygon([(0, 0), (3, 0), (0, 4)])] * 3)
    out = assign_values(inst, ValueSpec(ValueKind.UNIFORM, global_scale=Fraction(100)))
    assert [it.value for it in out.items] == [100, 100, 100]


def test_area_values_exact():
    unit = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    rect = Polygon([(0, 0), (3, 0), (3, 2), (0, 2)])
    out = assign_values(make_instance([unit, rect]), ValueSpec(ValueKind.AREA))
    assert [it.value for it in out.items] == [1, 6]


def test_base_containment_chain():
    rng = random.Random(21)
    for _ in range(80):
        poly = Polygon(random_star_polygon(rng, rng.randint(4, 12)))
        a = base_value(poly, ValueKind.AREA)
        h = base_value(poly, ValueKind.CONVEX_HULL_AREA)
        r = base_value(poly, ValueKind.ROTATED_BBOX)
        assert a <= h <= r
        if poly.convex:
            assert a == h


def test_noise_zero_is_seed_independent():
    rng = random.Random(22)
    polys = [Polygon(random_star_polygon(rng, 6)) for _ in range(10)]
    inst = make_instance(polys)
    v1 = [it.value for it in assign_values(inst, ValueSpec(ValueKind.AREA, seed=1)).items]
    v2 = [it.value for it in assign_values(inst, ValueSpec(ValueKind.AREA, seed=999)).items]
    assert v1 == v2


def test_noise_bounded_and_deterministic():
    rng = random.Random(23)
    polys = [Polygon(random_star_polygon(rng, 6, radius=200)) for _ in range(30)]
    inst = make_instance(polys)
    eps = Fraction(1, 10)
    spec = ValueSpec(ValueKind.AREA, noise_amplitude=eps, seed=5)
    out1 = assign_values(inst, spec)
    out2 = assign_values(inst, spec)
    assert [i.value for i in out1.items] == [i.value for i in out2.items]
    for it, noisy in zip(inst.items, out1.items):
        base = it.polygon.area
        assert (1 - eps) * base - 1 <= noisy.value <= (1 + eps) * base + 1


def test_values_clamp_to_one():
    sliver = Polygon([(0, 0), (2, 1), (0, 1)])  # area 1 scaled down below 1
    out = assign_values(make_instance([sliver]),
                        ValueSpec(ValueKind.AREA, global_scale=Fraction(1, 100)))
    assert out.items[0].value == 1


def test_overflow_rejected():
    big = Polygon([(0, 0), (100, 0), (100, 100), (0, 100)])
    inst = make_instance([big])
    with pytest.raises(ValueOverflow):
        assign_values(inst, ValueSpec(ValueKind.AREA, global_scale=Fraction(1 << 40)))


def test_spec_recorded_and_suppressible():
    inst = make_instance([Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])])
    out = assign_values(inst, ValueSpec(ValueKind.AREA))
    assert out.meta["value_spec"]["kind"] == "area"
    hidden = assign_values(inst, ValueSpec(ValueKind.AREA), record=False)
    assert hidden.meta is None or "value_spec" not in hidden.meta


def test_generated_and_valued_corpus_pinned():
    """One SHA-256 over all four families for 12 seeds, every satris item
    sheared at pixel sizes 1 to 6, and the random and jigsaw instances
    valued under every kind, noise and scale: any change to generation,
    hull or rectangle bases, noise draws or rounding shows up here."""
    digest = hashlib.sha256()
    for seed in range(12):
        rand = gen_random(GenConfig(seed=seed, n_target=40))
        jig = gen_jigsaw(GenConfig(seed=seed, jigsaw_line_count=8))
        for inst in (rand, jig, gen_atris(GenConfig(seed=seed, n_target=60)),
                     gen_satris(GenConfig(seed=seed, n_target=60, shear_probability=1,
                                          pixel_size_range=(1, 6)))):
            digest.update(write_instance(inst))
        for inst in (rand, jig):
            for kind in ValueKind:
                for noise in (0, Fraction(1, 10), Fraction(9, 10)):
                    for scale in (1, Fraction(7, 3)):
                        spec = ValueSpec(kind, noise, seed=seed, global_scale=scale)
                        digest.update(write_instance(assign_values(inst, spec)))
    assert digest.hexdigest() == \
        "536ac90cb834a3e0ffaad6d334a8c3a61d4ffd703fe7fc08f7d00649620f1149"
