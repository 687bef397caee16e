"""Benchmark curation: instance metrics, PCA, k-means, one pick per cluster.

Eleven per-instance metrics are computed with exact geometry and converted to
floats only at this module's boundary; this is the one module allowed to use
floating point, since its output feeds no geometric decision.  The rest runs
on plain Python floats in a fixed order of operations, so the picks do not
depend on a linear-algebra library:

- z-scores: each metric's mean and population standard deviation come from
  `math.fsum`; a metric whose deviation is 0 is dropped with a warning.
- PCA: the ddof-1 covariance of the z-scores (again `math.fsum`) is
  diagonalised by cyclic Jacobi rotations; the features are projected onto
  the leading eigenvectors, as many as keep 95% of the variance.
- k-means: k-means++ seeding (Arthur & Vassilvitskii 2007) draws from the
  module's `Rng`, then at most 100 Lloyd rounds with `math.dist`; the best
  of several restarts by inertia wins, and one uniformly random member per
  cluster forms the benchmark.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass

from .geom import _area2, _hull, _rect_extents
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


def _float_sum(xs) -> float:
    """Left to right: `sum` compensates float sums from Python 3.12 on."""
    return functools.reduce(operator.add, xs, 0.0)


def compute_metrics(instance: Instance) -> FeatureVector:
    """The eleven METRIC_NAMES values of one instance, in that order;
    ValueError if the instance has no items.

    Each item's hull is built once (`_hull`) and serves both its hull area
    (`_area2`, which reads `_hull`'s ints as they are) and its minimum
    rectangle (`_rect_extents`).  Every ratio is exact until its one final
    division: areas stay doubled integers, the hull-slack and
    rectangle-ratio means are summed as integer pairs (`_mean_ratio`) and
    each int / int division is correctly rounded, so the floats equal those
    of the same formulas over Fractions, and no Fraction is built per item.
    The float means and variances are summed left to right (`_float_sum`).
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
                         in zip(area2s, map(_area2, hulls))), n)
    rect_ratio = _mean_ratio(((a2 * den, 2 * du * dw)
                              for a2, (du, dw, den) in zip(area2s, rects)), n)

    axis_edges = 0
    edges = 0
    for it in items:
        pts = it.polygon.coords
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            axis_edges += x0 == x1 or y0 == y1
        edges += len(pts)

    area_floats = [a2 / 2 for a2 in area2s]
    mean_area = _float_sum(area_floats) / n
    var_area = _float_sum((a - mean_area) ** 2 for a in area_floats) / n
    densities = [it.value / a for it, a in zip(items, area_floats)]
    mean_density = _float_sum(densities) / n
    var_density = _float_sum((d - mean_density) ** 2 for d in densities) / n

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
        _float_sum(max(du, dw) / min(du, dw) for du, dw, _ in rects) / n,
    )
    return FeatureVector(values)


def _zscore(rows):
    """Drop constant columns (with a warning), z-score the rest with the
    population std."""
    n = len(rows)
    cols = list(zip(*rows))
    means = [math.fsum(col) / n for col in cols]
    stds = [math.sqrt(math.fsum((v - m) ** 2 for v in col) / n)
            for col, m in zip(cols, means)]
    keep = [j for j, sd in enumerate(stds) if sd > 0]
    if not keep:
        raise DegenerateFeatures("every metric is constant across instances")
    dropped = [_metric_name(j) for j, sd in enumerate(stds) if sd == 0]
    if dropped:
        warnings.warn(f"dropping constant metrics: {', '.join(dropped)}",
                      stacklevel=3)
    return [[(row[j] - means[j]) / stds[j] for j in keep] for row in rows]


def _metric_name(j: int) -> str:
    return METRIC_NAMES[j] if j < len(METRIC_NAMES) else f"col{j}"


def _jacobi_eigen(a):
    """Eigenvalues and unit eigenvectors (as rows) of the symmetric matrix
    a, by cyclic Jacobi rotations (Golub & Van Loan, Matrix Computations,
    section 8.5).  Each rotation zeroes one off-diagonal entry; sweeps stop
    once the off-diagonal mass is below rounding of the whole matrix."""
    d = len(a)
    a = [list(row) for row in a]
    vecs = [[float(i == j) for j in range(d)] for i in range(d)]
    norm2 = math.fsum(x * x for row in a for x in row)
    for _sweep in range(64):
        off2 = math.fsum(a[p][q] ** 2 for p in range(d) for q in range(p + 1, d))
        if off2 <= 1e-32 * norm2:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                new_p, new_q = _rotate(a[p], a[q], c, s)
                new_p[p], new_q[q] = a[p][p] - t * apq, a[q][q] + t * apq
                new_p[q] = new_q[p] = 0.0
                a[p], a[q] = new_p, new_q
                for r, row in enumerate(a):
                    row[p], row[q] = new_p[r], new_q[r]
                vecs[p], vecs[q] = _rotate(vecs[p], vecs[q], c, s)
    return [a[i][i] for i in range(d)], vecs


def _rotate(u, v, c: float, s: float):
    """The rows u, v turned by the plane rotation (c, s)."""
    return ([c * x - s * y for x, y in zip(u, v)],
            [s * x + c * y for x, y in zip(u, v)])


def _pca_project(z, n_components: int):
    """Rows of z projected onto the leading principal components of its
    ddof-1 covariance: n_components of them, or if 0 the fewest that keep
    95% of the variance."""
    n, d = len(z), len(z[0])
    cols = [[v - math.fsum(col) / n for v in col] for col in zip(*z)]
    cov = [[math.fsum(map(operator.mul, ci, cj)) / (n - 1) for cj in cols]
           for ci in cols]
    eigvals, eigvecs = _jacobi_eigen(cov)
    order = sorted(range(d), key=eigvals.__getitem__, reverse=True)
    eigvals = [max(eigvals[i], 0.0) for i in order]
    if n_components <= 0:
        total = math.fsum(eigvals)
        if total <= 0:
            n_components = 1
        else:
            shares = [cum / total for cum in itertools.accumulate(eigvals)]
            n_components = bisect.bisect_left(shares, 0.95) + 1
    axes = [eigvecs[i] for i in order[:min(n_components, d)]]
    return [tuple(math.fsum(map(operator.mul, row, axis)) for axis in axes)
            for row in z]


def _kmeans_once(pts, k: int, rng: Rng):
    """One k-means++ seeding and at most 100 Lloyd rounds; (assignment,
    inertia)."""
    n = len(pts)
    centers = [pts[rng.below(n)]]
    d2 = [math.dist(p, centers[0]) ** 2 for p in pts]
    for _ in range(1, k):
        cum = list(itertools.accumulate(d2))
        if cum[-1] <= 0:
            idx = rng.below(n)
        else:
            # weighted pick proportional to squared distance (k-means++)
            r = (rng.next_u64() / 2**64) * cum[-1]
            idx = min(bisect.bisect_left(cum, r), n - 1)
        center = pts[idx]
        centers.append(center)
        d2 = [min(old, math.dist(p, center) ** 2) for old, p in zip(d2, pts)]

    assign = None
    for _round in range(100):
        new_assign = []
        for p in pts:
            row = [math.dist(p, c) for c in centers]
            new_assign.append(row.index(min(row)))
        # re-seat empty clusters with the farthest member of the largest
        sizes = [0] * k
        for c in new_assign:
            sizes[c] += 1
        for c in range(k):
            if sizes[c] == 0:
                big = sizes.index(max(sizes))
                center = centers[big]
                steal = max((i for i, a in enumerate(new_assign) if a == big),
                            key=lambda i: math.dist(pts[i], center))
                new_assign[steal] = c
                sizes[big] -= 1
                sizes[c] = 1
                centers[c] = pts[steal]
        if new_assign == assign:
            break
        assign = new_assign
        groups = [[] for _ in range(k)]
        for p, c in zip(pts, assign):
            groups[c].append(p)
        centers = [tuple(math.fsum(col) / len(g) for col in zip(*g)) for g in groups]
    inertia = math.fsum((x - y) ** 2 for p, c in zip(pts, assign)
                        for x, y in zip(p, centers[c]))
    return assign, inertia


def _check_features(pairs) -> None:
    """ValueError unless every (name, floats) pair has finite values and
    the pairs agree in length."""
    width = len(pairs[0][1]) if pairs else 0
    for name, row in pairs:
        if len(row) != width:
            raise ValueError(f"instance {name!r} has {len(row)} metrics, "
                             f"expected {width}")
        for j, v in enumerate(row):
            if not math.isfinite(v):
                raise ValueError(f"instance {name!r}: metric {_metric_name(j)} is {v}")


def select_from_features(named_features, cfg: SelectionConfig) -> list[str]:
    """Core pipeline over (name, feature sequence) pairs; order-insensitive.

    ValueError for duplicate names, a k outside [1, n], or feature vectors
    that differ in length or hold a NaN or infinity."""
    pairs = sorted((str(name), tuple(float(v) for v in feats))
                   for name, feats in named_features)
    names = [p[0] for p in pairs]
    if len(set(names)) != len(names):
        raise ValueError("duplicate instance names in candidate set")
    _check_features(pairs)
    if not 1 <= cfg.k <= len(pairs):
        raise ValueError(f"k={cfg.k} must lie in [1, {len(pairs)}]")
    if cfg.k == len(pairs):
        return sorted(names)
    z = _zscore([p[1] for p in pairs])
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
        members = [name for name, a in zip(names, assign) if a == c]
        chosen.append(members[pick_rng.below(len(members))])
    return sorted(chosen)


def features_csv(named_features) -> str:
    """CSV of `(name, metric values)` pairs, one row per instance by name,
    each row ended by a newline.  A name holding a comma, a quote, a
    carriage return or a newline is quoted, its quotes doubled (RFC 4180);
    `csv.writer` would leave a lone carriage return unquoted."""
    rows = [",".join(("name",) + METRIC_NAMES)]
    for name, values in sorted(named_features):
        if any(c in name for c in ',"\r\n'):
            name = '"' + name.replace('"', '""') + '"'
        rows.append(",".join([name] + [f"{v:.9g}" for v in values]))
    return "\n".join(rows) + "\n"
