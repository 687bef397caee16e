"""Benchmark curation: instance metrics, PCA, k-means, one pick per cluster.

Eleven per-instance metrics are computed with exact geometry and converted to
floats only at this module's boundary; this is the one module allowed to use
floating point, since its output feeds no geometric decision.  Features are
z-scored, projected onto enough principal components to keep 95% of the
variance, clustered with k-means++ (best of several restarts), and one
uniformly random member per cluster forms the benchmark.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geom import _hull, _rect_extents, signed_area2
from .model import Instance
from .rng import Rng

METRIC_NAMES = (
    "log_item_count",
    "item_hull_slack_mean",      # (hull area - area) / hull area, mean over items
    "container_rect_ratio",      # container area / its min rotated rectangle
    "item_rect_ratio_mean",      # item area / its min rotated rectangle, mean
    "total_item_area_ratio",     # sum of item areas / container area
    "axis_aligned_edge_fraction",
    # extension metrics (6-11 are this artifact's completion of the set)
    "item_vertex_count_mean",
    "item_area_cv2",             # normalized variance of item areas
    "value_density_dispersion",  # coefficient of variation of value/area
    "container_vertex_count",
    "item_aspect_mean",
)


class DegenerateFeatures(ValueError):
    """All metrics are constant across the candidate set; nothing to select on."""


@dataclass(frozen=True)
class FeatureVector:
    values: tuple[float, ...]

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class SelectionConfig:
    k: int
    pca_components: int = 0  # 0 = keep components explaining >= 95% variance
    seed: int = 0
    kmeans_restarts: int = 10

    def __post_init__(self):
        if self.pca_components < 0:
            raise ValueError("pca_components must be 0 (auto) or positive, "
                             f"got {self.pca_components}")
        if self.kmeans_restarts < 1:
            raise ValueError(f"kmeans_restarts must be at least 1, got {self.kmeans_restarts}")


def _mean_ratio(pairs, n: int) -> float:
    """float of the mean of the ratios num/den (den > 0) over n of them.

    The sum is kept as one integer pair whose denominator is the lcm of
    the terms' reduced denominators, so it grows no faster than a Fraction
    sum, and it is divided once; int / int is correctly rounded, so the
    result equals float(sum of Fractions / n).
    """
    total, common = 0, 1
    for num, den in pairs:
        g = math.gcd(num, den)
        num, den = num // g, den // g
        lcm = common // math.gcd(common, den) * den
        total = total * (lcm // common) + num * (lcm // den)
        common = lcm
    return total / (common * n)


def compute_metrics(instance: Instance) -> FeatureVector:
    """The eleven METRIC_NAMES values of one instance, in that order;
    ValueError if the instance has no items.

    Each item's hull is built once (`_hull`) and serves both its hull area
    and its minimum rectangle (`_rect_extents`).  Every ratio is exact
    until its one final division: areas stay doubled integers, the
    hull-slack and rectangle-ratio means are summed as integer pairs
    (`_mean_ratio`) and each int / int division is correctly rounded, so
    the floats equal those of the same formulas over Fractions, and no
    Fraction is built per item.
    """
    items = instance.items
    n = len(items)
    if n == 0:
        raise ValueError(f"instance {instance.name!r} has no items")
    area2s = [it.polygon.area2 for it in items]
    hulls = [_hull(it.polygon) for it in items]
    rects = [_rect_extents(h) for h in hulls]
    c_du, c_dw, c_den = _rect_extents(_hull(instance.container))
    c_area2 = instance.container.area2

    # (hull area - area) / hull area and area / (du * dw / den), per item
    slack = _mean_ratio(((h2 - a2, h2) for a2, h2
                         in zip(area2s, map(signed_area2, hulls))), n)
    rect_ratio = _mean_ratio(((a2 * den, 2 * du * dw)
                              for a2, (du, dw, den) in zip(area2s, rects)), n)

    axis_edges = 0
    edges = 0
    for it in items:
        pts = it.polygon.coords
        m = len(pts)
        for i in range(m):
            dx = pts[(i + 1) % m][0] - pts[i][0]
            dy = pts[(i + 1) % m][1] - pts[i][1]
            axis_edges += dx == 0 or dy == 0
            edges += 1

    area_floats = [a2 / 2 for a2 in area2s]
    mean_area = sum(area_floats) / n
    var_area = sum((a - mean_area) ** 2 for a in area_floats) / n
    densities = [it.value / a for it, a in zip(items, area_floats)]
    mean_density = sum(densities) / n
    var_density = sum((d - mean_density) ** 2 for d in densities) / n

    values = (
        math.log(n),
        slack,
        c_area2 * c_den / (2 * c_du * c_dw),
        rect_ratio,
        sum(area2s) / c_area2,
        axis_edges / edges,
        sum(len(it.polygon.coords) for it in items) / n,
        var_area / (mean_area * mean_area) if mean_area else 0.0,
        math.sqrt(var_density) / mean_density if mean_density else 0.0,
        float(len(instance.container.coords)),
        sum(max(du, dw) / min(du, dw) for du, dw, _ in rects) / n,
    )
    return FeatureVector(values)


def _zscore(matrix: np.ndarray):
    """Drop constant columns (with a warning), z-score the rest."""
    std = matrix.std(axis=0)
    keep = std > 0
    if not keep.any():
        raise DegenerateFeatures("every metric is constant across instances")
    dropped = [METRIC_NAMES[i] if i < len(METRIC_NAMES) else f"col{i}"
               for i in np.flatnonzero(~keep)]
    if dropped:
        warnings.warn(f"dropping constant metrics: {', '.join(dropped)}",
                      stacklevel=3)
    sub = matrix[:, keep]
    return (sub - sub.mean(axis=0)) / sub.std(axis=0)


def _pca_project(z: np.ndarray, n_components: int) -> np.ndarray:
    cov = np.cov(z, rowvar=False)
    cov = np.atleast_2d(cov)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0, None)
    eigvecs = eigvecs[:, order]
    if n_components <= 0:
        total = eigvals.sum()
        if total <= 0:
            n_components = 1
        else:
            ratio = np.cumsum(eigvals) / total
            n_components = int(np.searchsorted(ratio, 0.95) + 1)
    n_components = min(n_components, z.shape[1])
    return z @ eigvecs[:, :n_components]


def _kmeans_once(pts: np.ndarray, k: int, rng: Rng):
    n = len(pts)
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.below(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = rng.below(n)
        else:
            # weighted pick proportional to squared distance (k-means++)
            r = (rng.next_u64() / 2**64) * total
            idx = int(np.searchsorted(np.cumsum(d2), r))
            idx = min(idx, n - 1)
        centers[c] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[c]) ** 2).sum(axis=1))

    assign = np.full(n, -1, dtype=int)
    for _round in range(100):
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        # re-seat empty clusters with a member of the largest cluster
        for c in range(k):
            if not (new_assign == c).any():
                sizes = np.bincount(new_assign, minlength=k)
                big = int(sizes.argmax())
                members = np.flatnonzero(new_assign == big)
                steal = members[int(dists[members, big].argmax())]
                new_assign[steal] = c
                centers[c] = pts[steal]
        if (new_assign == assign).all():
            break
        assign = new_assign
        for c in range(k):
            members = pts[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    inertia = float(((pts - centers[assign]) ** 2).sum())
    return assign, inertia


def select_from_features(named_features, cfg: SelectionConfig) -> list[str]:
    """Core pipeline over (name, feature sequence) pairs; order-insensitive."""
    pairs = sorted((str(name), tuple(float(v) for v in feats))
                   for name, feats in named_features)
    names = [p[0] for p in pairs]
    if len(set(names)) != len(names):
        raise ValueError("duplicate instance names in candidate set")
    if not 1 <= cfg.k <= len(pairs):
        raise ValueError(f"k={cfg.k} must lie in [1, {len(pairs)}]")
    if cfg.k == len(pairs):
        return sorted(names)
    matrix = np.asarray([p[1] for p in pairs], dtype=float)
    z = _zscore(matrix)
    proj = _pca_project(z, cfg.pca_components)

    best = None
    for restart in range(cfg.kmeans_restarts):
        assign, inertia = _kmeans_once(proj, cfg.k, Rng(cfg.seed, stream=restart))
        if best is None or inertia < best[1]:
            best = (assign, inertia)
    assign = best[0]

    pick_rng = Rng(cfg.seed, stream=1 << 20)
    chosen = []
    for c in range(cfg.k):
        members = [names[i] for i in np.flatnonzero(assign == c)]
        chosen.append(members[pick_rng.below(len(members))])
    return sorted(chosen)


def features_csv(named_features) -> str:
    """CSV of `(name, metric values)` pairs, one row per instance by name."""
    lines = ["name," + ",".join(METRIC_NAMES)]
    for name, values in sorted(named_features):
        lines.append(name + "," + ",".join(f"{v:.9g}" for v in values))
    return "\n".join(lines) + "\n"
