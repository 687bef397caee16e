"""Random-polygon instances: items are convex or concave hulls of random
point clouds, inside a random convex container.

A random ratio decides per item whether it becomes the convex hull of its
cloud or a concave polygon built by nearest-neighbour chaining (rejected and
redrawn whenever chaining self-intersects).
"""
from __future__ import annotations

import math

from ..geom import (AllCollinear, Polygon, _hull, convex_hull, ensure_ccw,
                    to_origin)
from ..model import Instance, Item
from ..rng import Rng
from ..valuation import ValueSpec, assign_values
from .config import STREAM_CONTAINER, STREAM_VALUES, GenConfig, GenerationFailed

MAX_ITEM_ATTEMPTS = 1000


def _point_cloud(rng: Rng, k: int, extent: int) -> list[tuple[int, int]]:
    pts = {(rng.in_range(0, extent), rng.in_range(0, extent)) for _ in range(k)}
    return sorted(pts)


def _concave_chain(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Nearest-neighbour chaining from the lexicographically first point;
    deterministic tie-breaks keep generation reproducible."""
    remaining = sorted(pts)
    chain = [remaining.pop(0)]
    while remaining:
        cx, cy = chain[-1]
        best = min(remaining,
                   key=lambda p: ((p[0] - cx) ** 2 + (p[1] - cy) ** 2, p))
        remaining.remove(best)
        chain.append(best)
    return chain


def _random_item(rng: Rng, cfg: GenConfig, index: int) -> Polygon:
    for _ in range(MAX_ITEM_ATTEMPTS):
        extent = rng.in_range(*cfg.random_extent_range)
        k = rng.in_range(*cfg.random_points_range)
        cloud = _point_cloud(rng, k, extent)
        if len(cloud) < 3:
            continue
        if rng.chance(cfg.convexity_ratio):
            try:
                pts = _hull(cloud)
            except AllCollinear:
                continue
        else:
            pts = ensure_ccw(_concave_chain(cloud))
        try:
            return Polygon(to_origin(pts)[0])
        except ValueError:
            continue
    raise GenerationFailed(
        f"item {index}: no simple polygon after {MAX_ITEM_ATTEMPTS} attempts")


def _random_container(rng: Rng, total_area2: int, t) -> Polygon:
    # hull of a moderate cloud lands near 70% of its square, so pick the
    # square a bit larger than the targeted container area
    target_area = max(100, int(total_area2 // 2 / t))
    side = max(20, math.isqrt(target_area * 3 // 2) + 1)
    for _ in range(MAX_ITEM_ATTEMPTS):
        cloud = _point_cloud(rng, 16, side)
        try:
            return convex_hull(cloud)
        except AllCollinear:
            continue
    raise GenerationFailed("container cloud kept collapsing")


def gen_random(cfg: GenConfig) -> Instance:
    if cfg.container_width or cfg.container_height:
        raise ValueError("random draws its own convex container; "
                         "container_width and container_height must stay 0")
    polys = [_random_item(Rng(cfg.seed, stream=i), cfg, i)
             for i in range(cfg.n_target)]
    total_area2 = sum(p.area2 for p in polys)
    container = _random_container(Rng(cfg.seed, stream=STREAM_CONTAINER),
                                  total_area2, cfg.area_multiple_t)
    name = f"random_s{cfg.seed}_n{cfg.n_target}"
    meta = {"generator": "random", "seed": cfg.seed,
            "convexity_ratio": str(cfg.convexity_ratio)}
    draft = Instance(name, container, tuple(Item(p, 1) for p in polys), meta)
    spec = ValueSpec(cfg.value_kind, cfg.value_noise,
                     seed=Rng(cfg.seed, stream=STREAM_VALUES).next_u64(),
                     global_scale=cfg.value_scale)
    return assign_values(draft, spec)
