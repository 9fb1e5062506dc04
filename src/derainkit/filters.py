"""Unsupervised statistical de-raining filters: ROR, SOR, DROR, DSOR.

All four return a keep-mask over the input cloud. Conventions are fixed so
the fast kd-tree path and the exhaustive brute-force oracle agree exactly:
neighbor counts exclude the query point, distances exactly on a radius or
threshold boundary count as "within" (keep side), and SOR/DSOR use the
population standard deviation.

All four filters read one table per cloud: each point's sorted distances to
its nearest neighbors. ROR/DROR use the order statistic: a point has at least
m neighbors within r exactly when its m-th nearest-neighbor distance is <= r,
so they compare one column of the table with the radius (m = 0 keeps every
point). SOR/DSOR read one column of the table's running sums: a point's d for
count k is the left-to-right sum of its k nearest distances divided by k,
which is numpy's mean of the row for k <= 7 (numpy adds fewer than 8 terms
left to right and more pairwise). The table's distances come from the
oracle's own arithmetic and the oracle forms d the same way, so boundary
cases agree bit for bit.
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
each cloud's tables in place and gathers, once per count, only the column a
rule reads, so one params' keep-mask is a few array operations over all rows.
``apply_filter`` is its one-cloud case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .core import PointCloud
from .errors import EmptyIndexError, InvalidInputError, TooFewPointsError, TooLargeError

BRUTE_FORCE_LIMIT = 2000


def _check_count(params, least: int) -> None:
    """Every kind's count rule: the field that ``count`` names holds an integer >= least."""
    n = getattr(params, params.count)
    if not (isinstance(n, (int, np.integer)) and n >= least):
        raise InvalidInputError(f"{params.count} must be an integer >= {least}")


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
        _check_count(self, 0)

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
        _check_count(self, 1)
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
        _check_count(self, 0)
        if not 0 <= self.sr_min < math.inf:
            raise InvalidInputError("sr_min must be non-negative and finite")

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
        _check_count(self, 1)
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
    """kd-tree over a cloud answering kNN distance tables and their running sums.

    Query results match exhaustive search exactly; the query point itself is
    excluded from the neighbor distances. The widest kNN distance
    table computed so far (n x k_max float64, 8*n*k_max bytes) is cached, so a
    query for any k <= k_max is a slice of it and only a larger k queries the
    tree again. Each row is sorted ascending and holds +inf past the cloud's
    n - 1 neighbors. The running sums of the table's rows are cached the same
    way once asked for (another 8*n*k_max bytes). Both are read-only. Filters
    given no index use the cloud's own, ``cloud.index``.
    """

    def __init__(self, cloud: PointCloud):
        from scipy.spatial import cKDTree  # here, not at module level: it is slow to import
        self.coords = cloud.coords
        self.count = cloud.count
        self._tree = cKDTree(cloud.coords) if cloud.count else None
        self._knn_dists = self._knn_sums = np.empty((self.count, 0))

    def knn_dists(self, k: int) -> np.ndarray:
        """n x k distances to each point's k nearest neighbors (self excluded), rows ascending.

        Columns past the cloud's n - 1 neighbors hold +inf.
        """
        if self._tree is None:
            raise EmptyIndexError("index over an empty cloud")
        if k > self._knn_dists.shape[1]:
            width = min(k + 1, self.count)
            _, idx = self._tree.query(self.coords, k=width)
            # Recompute distances in the oracle's sorted order with the sum its
            # (diff ** 2).sum(axis=2) forms, ((dx*dx + dy*dy) + dz*dz), so the two
            # paths agree bit for bit.
            neighbors = idx.reshape(self.count, width)[:, 1:]
            dx, dy, dz = (axis[neighbors] - axis[:, None] for axis in self.coords.T)
            dists = np.sort(np.sqrt((dx * dx + dy * dy) + dz * dz), axis=1)
            self._knn_dists = _read_only(np.pad(dists, ((0, 0), (0, k + 1 - width)),
                                                constant_values=np.inf))
        return self._knn_dists[:, :k]

    def knn_sums(self, k: int) -> np.ndarray:
        """n x k running sums of the distance table's rows, added left to right.

        Column j holds d_1 + ... + d_(j+1), so a point's mean distance to its k
        nearest neighbors is column k - 1 divided by k.
        """
        self.knn_dists(k)
        if k > self._knn_sums.shape[1]:
            self._knn_sums = _read_only(np.cumsum(self._knn_dists, axis=1))
        return self._knn_sums[:, :k]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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
    each cloud's kNN table and running sums in place. On construction each
    table (and, for SOR/DSOR params, its running sums) is made as wide as the
    largest params count below its cloud's size, the widest that any of the
    params can read there, so a count from outside the program builds no
    table wider than its cloud. ``keep`` gathers only what its rule
    reads, once per count, and keeps it for the stack's life: ROR/DROR's
    column m - 1 of every table in ``columns`` (8 * sum(n) bytes per m), and
    SOR/DSOR's d, column k - 1 of every running-sum table divided by k, with
    each row's cloud mean and std of d in ``means`` (3 * 8 * sum(n) bytes per k).
    """

    def __init__(self, clouds, params, indexes=None):
        clouds = list(clouds)
        rows = [(c, i) for c, i in zip(clouds, indexes or [None] * len(clouds)) if c.count]
        self.indexes = [index or cloud.index for cloud, index in rows]
        self.sizes = [cloud.count for cloud, _ in rows]
        self.ranges = _concat([cloud.ranges for cloud, _ in rows])
        counts = [_count(p) for p in params]
        # SOR/DSOR read the running sums, built here too, so keep never builds a table.
        build = (SpatialIndex.knn_sums if any(isinstance(p, (Sor, Dsor)) for p in params)
                 else SpatialIndex.knn_dists)
        for index, n in zip(self.indexes, self.sizes):
            build(index, max((c for c in counts if c < n), default=0))
        self.columns = {}
        self.means = {}

    def keep(self, params: FilterParams) -> np.ndarray:
        """Keep-mask over all rows: ROR/DROR's order statistic, SOR/DSOR's prefix mean."""
        m = _count(params)
        if isinstance(params, (Ror, Dror)):
            if m == 0:
                return np.ones(len(self.ranges), dtype=bool)
            if m not in self.columns:
                self.columns[m] = self._gather(SpatialIndex.knn_dists, m)
            return self.columns[m] <= params.bound(self.ranges)
        d, mean, std = self._means(m)
        return d <= params.bound(self.ranges, mean, std)

    def _gather(self, table, m: int) -> np.ndarray:
        """Column m - 1 of each cloud's ``table(index, m)``, end to end.

        A cloud of at most m points gets nan, never <= a bound (even inf): it keeps none.
        """
        return _concat([table(index, m)[:, m - 1] if m < n else np.full(n, np.nan)
                        for index, n in zip(self.indexes, self.sizes)])

    def _means(self, k: int):
        """Each row's mean distance d to its k nearest, and its cloud's mean and std of d."""
        too_few = [n for n in self.sizes if n < k + 1]
        if too_few:
            raise TooFewPointsError(f"need at least {k + 1} points, have {too_few[0]}")
        if k not in self.means:
            d = self._gather(SpatialIndex.knn_sums, k) / k
            # d.mean() and d.std() per cloud, bit for bit: numpy's own steps, a pairwise
            # np.add.reduce over each cloud's slice and elementwise operations after it.
            sizes = np.array(self.sizes, dtype=np.intp)
            mean = np.repeat(self._cloud_sums(d) / sizes, sizes)
            dev = d - mean
            dev *= dev
            std = np.repeat(np.sqrt(self._cloud_sums(dev) / sizes), sizes)
            self.means[k] = d, mean, std
        return self.means[k]

    def _cloud_sums(self, rows: np.ndarray) -> np.ndarray:
        ends = np.cumsum(self.sizes)
        return np.array([np.add.reduce(rows[end - n:end]) for n, end in zip(self.sizes, ends)],
                        dtype=float)


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
    d = np.cumsum(np.sort(dist, axis=1)[:, :m], axis=1)[:, -1] / m
    return d <= params.bound(cloud.ranges, d.mean(), d.std())
