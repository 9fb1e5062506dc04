"""Unsupervised statistical de-raining filters: ROR, SOR, DROR, DSOR.

All four return a keep-mask over the input cloud. Conventions are fixed so
the fast kd-tree path and the exhaustive brute-force oracle agree exactly:
neighbor counts exclude the query point, distances exactly on a radius or
threshold boundary count as "within" (keep side), and SOR/DSOR use the
population standard deviation.

All four filters read one table per cloud: each point's sorted distances to
its nearest neighbors. SOR/DSOR average a prefix of a row. ROR/DROR use the
order statistic: a point has at least m neighbors within r exactly when its
m-th nearest-neighbor distance is <= r, so they compare one column of the
table with the radius (m = 0 keeps every point). The table's distances come
from the oracle's own numpy expression, so boundary cases agree bit for bit.
Past a cloud's n - 1 neighbors the table holds +inf padding, which ROR/DROR
never read, so a radius that overflows to inf (DROR's beta * alpha * range)
still counts only real neighbors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.spatial import cKDTree

from .core import PointCloud, validate_cloud
from .errors import EmptyIndexError, InvalidInputError, TooFewPointsError, TooLargeError

BRUTE_FORCE_LIMIT = 2000


@dataclass(frozen=True)
class Ror:
    """Radius outlier removal: keep points with >= min_neighbors within radius."""

    radius: float
    min_neighbors: int

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise InvalidInputError("radius must be positive and finite")
        if self.min_neighbors < 0:
            raise InvalidInputError("min_neighbors must be non-negative")


@dataclass(frozen=True)
class Sor:
    """Statistical outlier removal: keep d_i <= mean + s * std of kNN mean distances."""

    k: int
    s: float

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInputError("k must be >= 1")
        if self.s < 0:
            raise InvalidInputError("s must be non-negative")


@dataclass(frozen=True)
class Dror:
    """Dynamic ROR: search radius max(sr_min, beta * alpha * range_i)."""

    alpha: float
    beta: float
    k_min: int
    sr_min: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise InvalidInputError("alpha and beta must be positive and finite")
        if self.k_min < 0 or not 0 <= self.sr_min < math.inf:
            raise InvalidInputError("k_min and sr_min must be non-negative, sr_min finite")


@dataclass(frozen=True)
class Dsor:
    """Dynamic SOR: per-point threshold (mean + s * std) * r * range_i."""

    k: int
    s: float
    r: float

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInputError("k must be >= 1")
        if self.s < 0 or not self.r > 0:
            raise InvalidInputError("need s >= 0 and r > 0")


FilterParams = Union[Ror, Sor, Dror, Dsor]


class SpatialIndex:
    """kd-tree over a cloud answering kNN distance tables and radius counts.

    Query results match exhaustive search exactly; the query point itself is
    excluded from both counts and neighbor distances. The widest kNN distance
    table computed so far (n x k_max float64, 8*n*k_max bytes) is cached, so a
    query for any k <= k_max is a slice of it and only a larger k queries the
    tree again. Each row is sorted ascending and holds +inf past the cloud's
    n - 1 neighbors. Filters given no index use the cloud's own, ``cloud.index``.
    """

    def __init__(self, cloud: PointCloud):
        validate_cloud(cloud)
        self.coords = cloud.coords
        self.count = cloud.count
        self._tree = cKDTree(cloud.coords) if cloud.count else None
        self._knn_dists = np.empty((self.count, 0))

    def _require_points(self):
        if self._tree is None:
            raise EmptyIndexError("index over an empty cloud")

    def radius_counts(self, radii) -> np.ndarray:
        """Neighbors (self excluded) within radius of each point; radii may be scalar."""
        self._require_points()
        counts = self._tree.query_ball_point(self.coords, np.broadcast_to(radii, (self.count,)),
                                             return_length=True)
        return np.asarray(counts) - 1  # boundary inclusive; self sits at distance 0

    def knn_dists(self, k: int) -> np.ndarray:
        """n x k distances to each point's k nearest neighbors (self excluded), rows ascending.

        Columns past the cloud's n - 1 neighbors hold +inf.
        """
        self._require_points()
        if k > self._knn_dists.shape[1]:
            width = min(k + 1, self.count)
            _, idx = self._tree.query(self.coords, k=width)
            # Recompute distances with the same numpy expression the brute-force
            # oracle uses, in its sorted order, so the two paths agree bit-for-bit.
            neighbors = self.coords[idx.reshape(self.count, width)[:, 1:]]
            diff = neighbors - self.coords[:, None, :]
            dists = np.sort(np.sqrt((diff ** 2).sum(axis=2)), axis=1)
            self._knn_dists = np.pad(dists, ((0, 0), (0, k + 1 - width)),
                                     constant_values=np.inf)
        return self._knn_dists[:, :k]

    def knn_mean_dists(self, k: int) -> np.ndarray:
        """Mean distance of each point to its k nearest neighbors (self excluded)."""
        self._require_points()
        if self.count < k + 1:
            raise TooFewPointsError(f"need at least {k + 1} points, have {self.count}")
        return self.knn_dists(k).mean(axis=1)


def build_index(cloud: PointCloud) -> SpatialIndex:
    return SpatialIndex(cloud)


def _point_ranges(cloud: PointCloud) -> np.ndarray:
    return np.linalg.norm(cloud.coords, axis=1)


def _has_neighbors(cloud: PointCloud, m: int, radii, index: SpatialIndex | None) -> np.ndarray:
    """At least m neighbors within radii: the m-th nearest-neighbor distance is <= radii.

    A cloud with fewer than m other points keeps none, without reading the padding.
    """
    if m == 0 or m >= cloud.count:
        return np.full(cloud.count, m == 0)
    return (index or cloud.index).knn_dists(m)[:, m - 1] <= radii


def ror(cloud: PointCloud, params: Ror, index: SpatialIndex | None = None) -> np.ndarray:
    return _has_neighbors(cloud, params.min_neighbors, params.radius, index)


def sor(cloud: PointCloud, params: Sor, index: SpatialIndex | None = None) -> np.ndarray:
    if cloud.count == 0:
        return np.zeros(0, dtype=bool)
    d = (index or cloud.index).knn_mean_dists(params.k)
    threshold = d.mean() + params.s * d.std()
    return d <= threshold


def dror(cloud: PointCloud, params: Dror, index: SpatialIndex | None = None) -> np.ndarray:
    sr = np.maximum(params.sr_min, params.beta * params.alpha * _point_ranges(cloud))
    return _has_neighbors(cloud, params.k_min, sr, index)


def dsor(cloud: PointCloud, params: Dsor, index: SpatialIndex | None = None) -> np.ndarray:
    if cloud.count == 0:
        return np.zeros(0, dtype=bool)
    d = (index or cloud.index).knn_mean_dists(params.k)
    global_threshold = d.mean() + params.s * d.std()
    dynamic = global_threshold * params.r * _point_ranges(cloud)
    return d <= dynamic


def apply_filter(cloud: PointCloud, params: FilterParams,
                 index: SpatialIndex | None = None) -> np.ndarray:
    """Dispatch to the filter matching the params variant. Returns a keep-mask."""
    if isinstance(params, Ror):
        return ror(cloud, params, index)
    if isinstance(params, Sor):
        return sor(cloud, params, index)
    if isinstance(params, Dror):
        return dror(cloud, params, index)
    if isinstance(params, Dsor):
        return dsor(cloud, params, index)
    raise InvalidInputError(f"unknown filter params {type(params).__name__}")


def brute_force_mask(cloud: PointCloud, params: FilterParams) -> np.ndarray:
    """Exhaustive-pairwise oracle with the same contract as the fast filters.

    Guarded to small clouds; this is O(n^2) on purpose.
    """
    if cloud.count > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"brute force limited to {BRUTE_FORCE_LIMIT} points")
    n = cloud.count
    if n == 0:
        return np.zeros(0, dtype=bool)
    diff = cloud.coords[:, None, :] - cloud.coords[None, :, :]
    # Self-exclusion: drop the diagonal, leaving each point's n - 1 neighbor distances.
    dist = np.sqrt((diff ** 2).sum(axis=2))[~np.eye(n, dtype=bool)].reshape(n, n - 1)

    if isinstance(params, Ror):
        return (dist <= params.radius).sum(axis=1) >= params.min_neighbors
    if isinstance(params, Dror):
        sr = np.maximum(params.sr_min, params.beta * params.alpha * _point_ranges(cloud))
        return (dist <= sr[:, None]).sum(axis=1) >= params.k_min

    k = params.k
    if n < k + 1:
        raise TooFewPointsError(f"need at least {k + 1} points, have {n}")
    d = np.sort(dist, axis=1)[:, :k].mean(axis=1)
    threshold = d.mean() + params.s * d.std()
    if isinstance(params, Sor):
        return d <= threshold
    if isinstance(params, Dsor):
        return d <= threshold * params.r * _point_ranges(cloud)
    raise InvalidInputError(f"unknown filter params {type(params).__name__}")
