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
never read: a cloud of at most m points gets nan for the column and keeps
none, so a radius that overflows to inf (DROR's beta * alpha * range) still
counts only real neighbors.

Each params class describes its kind once: its fields, ``count`` (the field
setting how many table columns it reads), ``space`` (its tuning search space)
and ``bound(ranges, mean, std)`` (the radius or threshold of its rule, given
each point's range and, for SOR/DSOR, the mean and population std of the
prefix means d over the point's cloud; arrays or scalars that broadcast).
Everything else derives from them.

``CloudStack`` evaluates these rules over several clouds at once. It reads
each cloud's table in place and gathers, once per count, only the column or
prefix means a rule reads, so one params' keep-mask is a few array operations
over all rows. ``apply_filter`` is its one-cloud case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .core import PointCloud
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

    def bound(self, ranges, mean=None, std=None):
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

    def bound(self, ranges, mean=None, std=None):
        return mean + self.s * std


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

    def bound(self, ranges, mean=None, std=None):
        # fmax, not maximum: at range 0 an overflowed beta * alpha gives inf * 0 = nan,
        # and the radius there is sr_min.
        with np.errstate(invalid="ignore"):
            return np.fmax(self.sr_min, self.beta * self.alpha * ranges)


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

    def bound(self, ranges, mean=None, std=None):
        return (mean + self.s * std) * self.r * ranges


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
        from scipy.spatial import cKDTree  # here, not at module level: it is slow to import
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


def _count(params: FilterParams) -> int:
    """How many table columns the params' rule reads; unknown params are an error."""
    if not isinstance(params, tuple(KINDS.values())):
        raise InvalidInputError(f"unknown filter params {type(params).__name__}")
    return getattr(params, params.count)


def _concat(parts) -> np.ndarray:
    """The float arrays end to end; one array is returned as it is, with no copy."""
    return parts[0] if len(parts) == 1 else np.concatenate([np.empty(0), *parts])


class CloudStack:
    """Clouds' rows end to end, so one params' keep-mask over all of them is a few array ops.

    It holds each non-empty cloud's index (the cloud's own, ``cloud.index``, or
    the one given for it), the clouds' sizes and the rows' ranges, and reads
    each cloud's kNN table in place. On construction each table is made as
    wide as the largest params count below its cloud's size, the widest that
    any of the params can read there, so a count from outside the program
    builds no table wider than its cloud. ``keep`` gathers only what its rule
    reads, once per count, and keeps it for the stack's life: ROR/DROR's
    column m - 1 of every table in ``columns`` (8 * sum(n) bytes per m), and
    SOR/DSOR's prefix means d with each cloud's mean and std of them in
    ``means`` (3 * 8 * sum(n) bytes per k).
    """

    def __init__(self, clouds, params, indexes=None):
        clouds = list(clouds)
        rows = [(c, i) for c, i in zip(clouds, indexes or [None] * len(clouds)) if c.count]
        self.indexes = [index or cloud.index for cloud, index in rows]
        self.sizes = [cloud.count for cloud, _ in rows]
        self.ranges = _concat([cloud.ranges for cloud, _ in rows])
        counts = [_count(p) for p in params]
        for index, n in zip(self.indexes, self.sizes):
            index.knn_dists(max((c for c in counts if c < n), default=0))
        self.columns = {}
        self.means = {}

    def keep(self, params: FilterParams) -> np.ndarray:
        """Keep-mask over all rows: ROR/DROR's order statistic, SOR/DSOR's prefix mean."""
        m = _count(params)
        if isinstance(params, (Ror, Dror)):
            if m == 0:
                return np.ones(len(self.ranges), dtype=bool)
            if m not in self.columns:
                # A cloud of at most m points gets nan, never <= a bound (even inf): it keeps none.
                self.columns[m] = _concat([
                    index.knn_dists(m)[:, m - 1] if m < n else np.full(n, np.nan)
                    for index, n in zip(self.indexes, self.sizes)])
            return self.columns[m] <= params.bound(self.ranges)
        d, mean, std = self._means(m)
        return d <= params.bound(self.ranges, mean, std)

    def _means(self, k: int):
        """Each row's mean distance d to its k nearest, and its cloud's mean and std of d."""
        too_few = [n for n in self.sizes if n < k + 1]
        if too_few:
            raise TooFewPointsError(f"need at least {k + 1} points, have {too_few[0]}")
        if k not in self.means:
            # The same numpy calls on each cloud's own rows as for one cloud, so bit for bit.
            ds = [index.knn_dists(k).mean(axis=1) for index in self.indexes]
            self.means[k] = (_concat(ds), _concat([np.full(len(d), d.mean()) for d in ds]),
                             _concat([np.full(len(d), d.std()) for d in ds]))
        return self.means[k]


def apply_filter(cloud: PointCloud, params: FilterParams,
                 index: SpatialIndex | None = None) -> np.ndarray:
    """Keep-mask of the params' rule on one cloud: the one-cloud case of ``CloudStack``."""
    return CloudStack([cloud], [params], [index]).keep(params)


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
        return (dist <= np.reshape(params.bound(cloud.ranges), (-1, 1))).sum(axis=1) >= m
    if n < m + 1:
        raise TooFewPointsError(f"need at least {m + 1} points, have {n}")
    d = np.sort(dist, axis=1)[:, :m].mean(axis=1)
    return d <= params.bound(cloud.ranges, d.mean(), d.std())
