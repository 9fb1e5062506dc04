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
mask out (a cloud of at most m points keeps none), so a radius that
overflows to inf (DROR's beta * alpha * range) still counts only real neighbors.

Each params class describes its kind once: its fields, ``count`` (the field
setting how many table columns it reads), ``space`` (its tuning search space)
and ``bound(ranges, mean, std)`` (the radius or threshold of its rule, given
each point's range and, for SOR/DSOR, the mean and population std of the
prefix means d over the point's cloud; arrays or scalars that broadcast).
Everything else derives from them.

``CloudStack`` evaluates these rules over several clouds at once: their
tables' rows stacked, so one params' keep-mask is a few array operations over
all rows. ``apply_filter`` is its one-cloud case.
"""
from __future__ import annotations

import itertools
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


def _count(params: FilterParams) -> int:
    """How many table columns the params' rule reads; unknown params are an error."""
    if not isinstance(params, tuple(KINDS.values())):
        raise InvalidInputError(f"unknown filter params {type(params).__name__}")
    return getattr(params, params.count)


class CloudStack:
    """Clouds stacked row-wise, so one params' keep-mask over all of them is a few array ops.

    Built once for the params it will evaluate: the rows of each non-empty
    cloud's kNN table (from the cloud's own index or the one given for it),
    each row's range and cloud size, and the non-empty clouds' sizes. The
    table is as wide as the largest count k of the params that read it: not
    ROR/DROR with m at least the largest cloud's size (every cloud keeps
    none), nor SOR/DSOR with k at least the smallest's (``TooFewPointsError``),
    so a count from outside the program builds no table wider than the
    clouds. A stack of one cloud reads that cloud's table (or the given
    index's) without copying it; a stack of several holds a second copy,
    8 * sum(n) * k bytes, for its own lifetime.
    SOR/DSOR's prefix means, and each cloud's mean and std of them, depend on
    k only: ``means`` keeps them per k (at most 3 * 8 * sum(n) bytes per k);
    clear it to time a filter from scratch.
    """

    def __init__(self, clouds, params, indexes=None):
        clouds = list(clouds)
        rows = [(c, i) for c, i in zip(clouds, indexes or [None] * len(clouds)) if c.count]
        self.sizes = [cloud.count for cloud, _ in rows]
        largest, smallest = max(self.sizes, default=0), min(self.sizes, default=0)
        counts = [(_count(p), largest if isinstance(p, (Ror, Dror)) else smallest) for p in params]
        self.count = max((m for m, _ in counts), default=0)
        width = max((m for m, limit in counts if m < limit), default=0)
        tables = [(index or cloud.index).knn_dists(width) for cloud, index in rows]
        ranges = [cloud.ranges for cloud, _ in rows]
        self.table = tables[0] if len(tables) == 1 else np.concatenate(
            [np.empty((0, width)), *tables])
        self.ranges = ranges[0] if len(ranges) == 1 else np.concatenate([np.empty(0), *ranges])
        self.row_sizes = np.repeat(self.sizes, self.sizes)
        self.means = {}

    def keep(self, params: FilterParams) -> np.ndarray:
        """Keep-mask over all rows: ROR/DROR's order statistic, SOR/DSOR's prefix mean."""
        m = _count(params)
        if m > self.count:
            raise InvalidInputError(f"params count {m} exceeds the stack's {self.count}")
        if isinstance(params, (Ror, Dror)):
            if m > self.table.shape[1]:
                # Only when every cloud has at most m points.
                return np.zeros(self.table.shape[0], dtype=bool)
            if m == 0:
                return np.ones(self.table.shape[0], dtype=bool)
            # Rows of clouds with at most m points read padding: those clouds keep none.
            return (self.table[:, m - 1] <= params.bound(self.ranges)) & (m < self.row_sizes)
        d, mean, std = self._means(m)
        return d <= params.bound(self.ranges, mean, std)

    def _means(self, k: int):
        """Each row's mean distance d to its k nearest, and its cloud's mean and std of d."""
        too_few = [n for n in self.sizes if n < k + 1]
        if too_few:
            raise TooFewPointsError(f"need at least {k + 1} points, have {too_few[0]}")
        if k not in self.means:
            d = self.table[:, :k].mean(axis=1)
            # Each cloud's statistics come from numpy's own calls on its slice, as for one cloud.
            ends = itertools.accumulate(self.sizes)
            parts = [d[end - n:end] for n, end in zip(self.sizes, ends)]
            stats = np.array([(part.mean(), part.std()) for part in parts]).reshape(-1, 2)
            # One cloud keeps its two scalars; several repeat theirs over their rows.
            mean, std = stats[0] if len(parts) == 1 else np.repeat(stats.T, self.sizes, axis=1)
            self.means[k] = d, mean, std
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
