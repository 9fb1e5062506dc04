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

Each params class describes its kind once: its fields, ``count`` (the field
setting how many table columns it reads), ``space`` (its tuning search space)
and ``bound`` (the radius or threshold of its rule). Everything else derives from them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np
from scipy.spatial import cKDTree

from .core import PointCloud, validate_cloud
from .errors import EmptyIndexError, InvalidInputError, TooFewPointsError, TooLargeError

BRUTE_FORCE_LIMIT = 2000


@dataclass(frozen=True)
class Ror:
    """Radius outlier removal: keep points with >= min_neighbors within radius."""

    count: ClassVar[str] = "min_neighbors"
    space: ClassVar[dict] = {"radius": ("log", 0.05, 2.0), "min_neighbors": ("int", 1, 20)}

    radius: float
    min_neighbors: int

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise InvalidInputError("radius must be positive and finite")
        if self.min_neighbors < 0:
            raise InvalidInputError("min_neighbors must be non-negative")

    def bound(self, cloud: PointCloud, d=None):
        return self.radius


@dataclass(frozen=True)
class Sor:
    """Statistical outlier removal: keep d_i <= mean + s * std of kNN mean distances."""

    count: ClassVar[str] = "k"
    space: ClassVar[dict] = {"k": ("int", 2, 30), "s": ("lin", 0.0, 3.0)}

    k: int
    s: float

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInputError("k must be >= 1")
        if not 0 <= self.s < math.inf:
            raise InvalidInputError("s must be non-negative and finite")

    def bound(self, cloud: PointCloud, d=None):
        return d.mean() + self.s * d.std()


@dataclass(frozen=True)
class Dror:
    """Dynamic ROR: search radius max(sr_min, beta * alpha * range_i)."""

    count: ClassVar[str] = "k_min"
    space: ClassVar[dict] = {
        "alpha": ("log", 1e-3, 0.1),
        "beta": ("lin", 1.0, 5.0),
        "k_min": ("int", 1, 20),
        "sr_min": ("lin", 0.01, 0.5),
    }

    alpha: float
    beta: float
    k_min: int
    sr_min: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise InvalidInputError("alpha and beta must be positive and finite")
        if self.k_min < 0 or not 0 <= self.sr_min < math.inf:
            raise InvalidInputError("k_min and sr_min must be non-negative, sr_min finite")

    def bound(self, cloud: PointCloud, d=None):
        return np.maximum(self.sr_min, self.beta * self.alpha * _point_ranges(cloud))


@dataclass(frozen=True)
class Dsor:
    """Dynamic SOR: per-point threshold (mean + s * std) * r * range_i."""

    count: ClassVar[str] = "k"
    space: ClassVar[dict] = {"k": ("int", 2, 30), "s": ("lin", 0.0, 2.0), "r": ("log", 0.01, 1.0)}

    k: int
    s: float
    r: float

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInputError("k must be >= 1")
        if not (0 <= self.s < math.inf and 0 < self.r < math.inf):
            raise InvalidInputError("need s >= 0 and r > 0, both finite")

    def bound(self, cloud: PointCloud, d=None):
        return (d.mean() + self.s * d.std()) * self.r * _point_ranges(cloud)


FilterParams = Union[Ror, Sor, Dror, Dsor]
# Each kind's default params, keyed by the kind's name: its lowercased class name.
DEFAULT_PARAMS = {type(p).__name__.lower(): p for p in (
    Ror(radius=0.5, min_neighbors=5),
    Sor(k=5, s=1.0),
    Dror(alpha=0.01, beta=3.0, k_min=3, sr_min=0.04),
    Dsor(k=5, s=1.0, r=0.05),
)}
KINDS = {name: type(p) for name, p in DEFAULT_PARAMS.items()}


class SpatialIndex:
    """kd-tree over a cloud answering kNN distance tables.

    Query results match exhaustive search exactly; the query point itself is
    excluded from the neighbor distances. The widest kNN distance
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

    def knn_dists(self, k: int) -> np.ndarray:
        """n x k distances to each point's k nearest neighbors (self excluded), rows ascending.

        Columns past the cloud's n - 1 neighbors hold +inf.
        """
        if self._tree is None:
            raise EmptyIndexError("index over an empty cloud")
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


def apply_filter(cloud: PointCloud, params: FilterParams,
                 index: SpatialIndex | None = None) -> np.ndarray:
    """Keep-mask of the params' rule: ROR/DROR's order statistic, SOR/DSOR's prefix mean."""
    if isinstance(params, (Ror, Dror)):
        return _has_neighbors(cloud, getattr(params, params.count), params.bound(cloud), index)
    if not isinstance(params, (Sor, Dsor)):
        raise InvalidInputError(f"unknown filter params {type(params).__name__}")
    if cloud.count == 0:
        return np.zeros(0, dtype=bool)
    if cloud.count < params.k + 1:
        raise TooFewPointsError(f"need at least {params.k + 1} points, have {cloud.count}")
    d = (index or cloud.index).knn_dists(params.k).mean(axis=1)
    return d <= params.bound(cloud, d)


def brute_force_mask(cloud: PointCloud, params: FilterParams) -> np.ndarray:
    """Exhaustive-pairwise oracle with the same contract as the fast filters.

    It counts and sorts all pairwise distances itself and takes only each
    kind's bound from the params. Guarded to small clouds; this is O(n^2) on purpose.
    """
    if cloud.count > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"brute force limited to {BRUTE_FORCE_LIMIT} points")
    n = cloud.count
    if n == 0:
        return np.zeros(0, dtype=bool)
    diff = cloud.coords[:, None, :] - cloud.coords[None, :, :]
    # Self-exclusion: drop the diagonal, leaving each point's n - 1 neighbor distances.
    dist = np.sqrt((diff ** 2).sum(axis=2))[~np.eye(n, dtype=bool)].reshape(n, n - 1)

    m = getattr(params, params.count)
    if isinstance(params, (Ror, Dror)):
        return (dist <= np.reshape(params.bound(cloud), (-1, 1))).sum(axis=1) >= m
    if n < m + 1:
        raise TooFewPointsError(f"need at least {m + 1} points, have {n}")
    d = np.sort(dist, axis=1)[:, :m].mean(axis=1)
    return d <= params.bound(cloud, d)
