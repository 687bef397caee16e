"""Value functions: assign item values from geometry.

Four bases are supported: exact item area, convex-hull area, minimum rotated
bounding-rectangle area, and a uniform constant.  An optional multiplicative
noise factor, uniform in [1-eps, 1+eps] per item, perturbs the base before
rounding.  All arithmetic is rational until the final round-to-integer, and
values clamp to >= 1 so the item invariant always holds.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .geom import _area2, _hull, min_area_bounding_rect, round_ratio
from .model import MAX_TOTAL_VALUE, Instance, Item
from .rng import Rng


class ValueKind(enum.Enum):
    AREA = "area"
    CONVEX_HULL_AREA = "hull"
    ROTATED_BBOX = "minrect"
    UNIFORM = "uniform"


class ValueOverflow(ValueError):
    """Assigned values would break the 2^40 total bound."""


@dataclass(frozen=True)
class ValueSpec:
    kind: ValueKind = ValueKind.AREA
    noise_amplitude: Fraction = Fraction(0)
    seed: int = 0
    global_scale: Fraction = Fraction(1)

    def __post_init__(self):
        eps = Fraction(self.noise_amplitude)
        if not 0 <= eps < 1:
            raise ValueError("noise amplitude must be in [0, 1)")
        if Fraction(self.global_scale) <= 0:
            raise ValueError("global scale must be positive")
        object.__setattr__(self, "noise_amplitude", eps)
        object.__setattr__(self, "global_scale", Fraction(self.global_scale))


def base_value(item_polygon, kind: ValueKind) -> Fraction:
    """Exact rational base before scaling, noise and rounding."""
    if kind is ValueKind.AREA:
        return item_polygon.area
    if kind is ValueKind.CONVEX_HULL_AREA:
        return Fraction(_area2(_hull(item_polygon)), 2)
    if kind is ValueKind.ROTATED_BBOX:
        return min_area_bounding_rect(item_polygon)
    return Fraction(1)


def assign_values(instance: Instance, spec: ValueSpec, record: bool = True) -> Instance:
    """New instance with values round(scale * base * noise_i), clamped to 1.

    The product is held as one integer ratio and rounded by `round_ratio`;
    noise_i is the integer pair `Rng.ratio(1 - eps, 1 + eps)`.

    With noise_amplitude 0 the result depends on geometry alone (the seed is
    never consulted).  Raises ValueOverflow instead of emitting an instance
    whose value sum would reach 2^40.
    """
    eps = spec.noise_amplitude
    noise_lo, noise_hi = 1 - eps, 1 + eps
    scale = spec.global_scale
    rng = Rng(spec.seed, stream=0xA11)
    items = []
    total = 0
    for it in instance.items:
        b = base_value(it.polygon, spec.kind)
        num = scale.numerator * b.numerator
        den = scale.denominator * b.denominator
        if eps:
            noise_num, noise_den = rng.ratio(noise_lo, noise_hi)
            num *= noise_num
            den *= noise_den
        value = max(1, round_ratio(num, den))
        total += value
        items.append(Item(it.polygon, value))
    if total >= MAX_TOTAL_VALUE:
        raise ValueOverflow(
            f"total value {total} reaches 2^40; reduce global_scale")
    meta = dict(instance.meta or {})
    if record:
        meta["value_spec"] = {
            "kind": spec.kind.value,
            "noise": str(eps),
            "seed": spec.seed,
            "scale": str(spec.global_scale),
        }
    return Instance(instance.name, instance.container, tuple(items), meta or None)
