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
from fractions import Fraction

import numpy as np

from .geom import _hull, _min_rect, signed_area2
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


def compute_metrics(instance: Instance) -> FeatureVector:
    """The eleven METRIC_NAMES values of one instance, in that order.

    Each item's hull is built once (`_hull`) and serves both its hull area
    and its minimum rectangle; every ratio is exact until the final float.
    """
    items = instance.items
    n = len(items)
    areas = [it.polygon.area for it in items]
    hulls = [_hull(it.polygon) for it in items]
    rects = [_min_rect(h) for h in hulls]
    c_area, c_aspect = _min_rect(_hull(instance.container))

    slack = [Fraction(h2 - it.polygon.area2, h2)
             for it, h2 in zip(items, map(signed_area2, hulls))]
    rect_ratio = [a / r[0] for a, r in zip(areas, rects)]
    total_area = sum(areas, Fraction(0))

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

    area_floats = [float(a) for a in areas]
    mean_area = sum(area_floats) / n
    var_area = sum((a - mean_area) ** 2 for a in area_floats) / n
    densities = [it.value / float(a) for it, a in zip(items, areas)]
    mean_density = sum(densities) / n
    var_density = sum((d - mean_density) ** 2 for d in densities) / n

    values = (
        math.log(n),
        float(sum(slack, Fraction(0)) / n),
        float(instance.container.area / c_area),
        float(sum(rect_ratio, Fraction(0)) / n),
        float(total_area / instance.container.area),
        axis_edges / edges,
        sum(len(it.polygon.coords) for it in items) / n,
        var_area / (mean_area * mean_area) if mean_area else 0.0,
        math.sqrt(var_density) / mean_density if mean_density else 0.0,
        float(len(instance.container.coords)),
        sum(float(r[1]) for r in rects) / n,
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
