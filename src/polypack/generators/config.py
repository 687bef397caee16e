"""Shared generator configuration and stream layout.

Every family draws from SplitMix64 streams keyed off (seed, stream id):
item i uses stream i, auxiliary phases (container, cutting lines, merging,
perturbation, value noise) use dedicated high stream ids so adding draws to
one phase never shifts another.  Coordinate-affecting randomness is rational
or integral only, which keeps output byte-identical across platforms.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..valuation import ValueKind

# fixed ranges for the shear magnitude and the per-item value scaling factor
SHEAR_M_RANGE = (Fraction(1, 10), Fraction(2))
VALUE_SCALE_RANGE = (Fraction(4, 5), Fraction(6, 5))

STREAM_CONTAINER = 1 << 40
STREAM_VALUES = (1 << 40) + 1
STREAM_LINES = 1 << 41  # + copy index
STREAM_MERGE = 1 << 42  # + copy index
STREAM_PERTURB = 1 << 43  # + copy index

# rectangular container area cap; keeps the worst-case value sum below 2^40
# (values <= ~3.1x area, total area <= ~2.2x container area, 6.8 * 2^36 < 2^40)
MAX_RECT_CONTAINER_AREA = 1 << 36


class GenerationFailed(RuntimeError):
    """Retry budget exhausted while producing a valid shape."""


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    n_target: int = 20
    container_width: int = 0   # 0 (both) means the family's default
    container_height: int = 0
    area_multiple_t: Fraction = Fraction(3, 2)
    shear_probability: Fraction = Fraction(1, 2)
    convexity_ratio: Fraction = Fraction(1, 2)
    jigsaw_line_count: int = 8
    jigsaw_copies: int = 1
    pixel_size_range: tuple[int, int] = (4, 12)
    # documented defaults for knobs the families need beyond the core set
    random_points_range: tuple[int, int] = (6, 14)
    random_extent_range: tuple[int, int] = (30, 120)
    jigsaw_perturb_amplitude: int = 1  # 0 disables perturbation (test hook)
    jigsaw_merge_fraction: Fraction = Fraction(3, 5)
    value_kind: ValueKind = ValueKind.AREA
    value_noise: Fraction = Fraction(1, 10)
    value_scale: Fraction = Fraction(1)

    def __post_init__(self):
        # counts, sizes and ranges are exact ints (a bool is refused too), so
        # a wrong type is named here rather than failing deep in a family
        for name in ("seed", "n_target", "container_width", "container_height",
                     "jigsaw_line_count", "jigsaw_copies", "jigsaw_perturb_amplitude"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, not {getattr(self, name)!r}")
        for name in ("pixel_size_range", "random_points_range", "random_extent_range"):
            r = getattr(self, name)
            if not (isinstance(r, (tuple, list)) and len(r) == 2
                    and type(r[0]) is int and type(r[1]) is int):
                raise ValueError(f"{name} must be a pair of ints, not {r!r}")
        for name in ("random_points_range", "random_extent_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} must satisfy min <= max")
        object.__setattr__(self, "area_multiple_t", Fraction(self.area_multiple_t))
        object.__setattr__(self, "shear_probability", Fraction(self.shear_probability))
        object.__setattr__(self, "convexity_ratio", Fraction(self.convexity_ratio))
        object.__setattr__(self, "jigsaw_merge_fraction",
                           Fraction(self.jigsaw_merge_fraction))
        if not 1 <= self.area_multiple_t <= 2:
            raise ValueError("area_multiple_t must lie in [1, 2]")
        if not 0 <= self.shear_probability <= 1:
            raise ValueError("shear_probability must lie in [0, 1]")
        if not 0 <= self.convexity_ratio <= 1:
            raise ValueError("convexity_ratio must lie in [0, 1]")
        if not 0 <= self.jigsaw_merge_fraction <= 1:
            raise ValueError("jigsaw_merge_fraction must lie in [0, 1]")
        if self.n_target < 1:
            raise ValueError("n_target must be >= 1")
        lo, hi = self.pixel_size_range
        if not 1 <= lo <= hi:
            raise ValueError("pixel_size_range must satisfy 1 <= min <= max")
        if self.jigsaw_line_count < 1 or self.jigsaw_copies < 1:
            raise ValueError("jigsaw_line_count and jigsaw_copies must be >= 1")
        if self.jigsaw_perturb_amplitude < 0:
            raise ValueError("jigsaw_perturb_amplitude must be >= 0")
        if self.container_width < 0 or self.container_height < 0:
            raise ValueError("container dimensions must be non-negative")
        if (self.container_width == 0) != (self.container_height == 0):
            raise ValueError("container dimensions must both be positive, "
                             "or both 0 for the family's default")
