"""Unsupervised statistical de-raining filters: ROR, SOR, DROR, DSOR.

All four return a keep-mask over the input cloud. Conventions are fixed so
the fast kd-tree path and the exhaustive brute-force oracle agree exactly:
neighbor counts exclude the query point, distances exactly on a radius or
threshold boundary count as "within" (keep side), and SOR/DSOR use the
population standard deviation.

All four filters read one table per cloud: each point's sorted distances to
its nearest neighbors. ROR/DROR's "order" rule: a point has at least m
neighbors within r exactly when its m-th nearest distance is <= r, so they
compare one column of the table with the radius (for m = 0 the column is
zeros, within every radius: every point is kept). SOR/DSOR's "mean" rule
reads a point's prefix mean d for count k: the sum of its k
nearest distances added left to right, divided by k, which is numpy's mean of
the row for k <= 7 (numpy adds fewer than 8 terms left to right and more
pairwise). The table holds the kd-tree query's own distances, which equal the
oracle's arithmetic bit for bit, and the oracle forms d the same way, so
boundary cases agree bit for bit. The table is stored column-major, so the
column a rule reads is contiguous, and the oracle works a block of points at
a time, so neither holds n x n or n x k x 3 temporaries.
Past a cloud's n - 1 neighbors the table holds +inf padding, which ROR/DROR
never read: a cloud of at most m points gets nan for the column and keeps
none, so a radius that overflows to inf (DROR's beta * alpha * range) still
counts only real neighbors.

Each params class describes its kind once: its fields, ``rule``, ``count``
(the field setting how many table columns it reads), ``space`` (its tuning
search space) and ``bound(ranges, mean, std)`` (the radius or threshold of
its rule, given each point's range and, for the mean rule, the mean and
population std of the prefix means d over the point's cloud; arrays or
scalars that broadcast). Everything else derives from them.

``CloudStack`` evaluates these rules over the ``SpatialIndex``es it is handed,
each its cloud's one holder of ranges and tables. It gathers each row's statistic
once per rule and count (a table column, or the prefix means), so one params'
keep-mask is one comparison over all rows. ``apply_filter`` is its one-cloud case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .core import PointCloud, is_integer, read_only
from .errors import EmptyIndexError, InvalidInputError, TooFewPointsError, TooLargeError

BRUTE_FORCE_LIMIT = 2000
# Points per kd-tree query while a neighbour table is built.
KNN_BLOCK = 4096
# Point pairs per block of the exhaustive oracles: each block's float64 temporaries are 1 MB.
ORACLE_BLOCK = 1 << 17


def _check_count(params, least: int) -> None:
    """Every kind's count rule: the field that ``count`` names holds an integer >= least."""
    n = getattr(params, params.count)
    if not (is_integer(n) and n >= least):
        raise InvalidInputError(f"{params.count} must be an integer >= {least}")


@dataclass(frozen=True)
class Ror:
    """Radius outlier removal: keep points with >= min_neighbors within radius."""

    rule: ClassVar[str] = "order"
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

    rule: ClassVar[str] = "mean"
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

    rule: ClassVar[str] = "order"
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

    rule: ClassVar[str] = "mean"
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
    """kd-tree over a cloud answering kNN distance tables and prefix means.

    The one holder of the cloud's filter state: ``coords``, ``count``, each
    point's ``ranges`` and the tables. Query results match exhaustive search
    exactly, the query point itself excluded. The widest kNN distance table
    computed so far (k_max x n float64, 8*n*k_max bytes) is cached
    column-major: row j holds every point's (j+1)-th nearest distance, so one
    column of the n x k table a query returns (its ``.T`` view) is contiguous,
    and a query for any k <= k_max is a slice of it; only a larger k queries
    the tree again. The tree is queried ``KNN_BLOCK`` points at a time and
    each block's distances are written straight into the table, so building
    it takes the table plus a few blocks of k_max + 1 distances and indices.
    Each point's distances ascend and hold +inf past the cloud's n - 1
    neighbors. Each k's prefix means and their cloud mean and std are cached
    once asked for (8*n bytes per distinct k). The arrays are read-only.
    """

    def __init__(self, cloud: PointCloud):
        from scipy.spatial import cKDTree  # here, not at module level: it is slow to import
        self.coords = cloud.coords
        self.count = cloud.count
        self.ranges = read_only(np.linalg.norm(cloud.coords, axis=1))
        self._tree = cKDTree(cloud.coords) if cloud.count else None
        self._dists = np.empty((0, self.count))
        self._means = {}

    def knn_dists(self, k: int) -> np.ndarray:
        """n x k distances to each point's k nearest neighbors (self excluded), rows ascending.

        k is an integer >= 0; columns past the cloud's n - 1 neighbors hold +inf.
        The distances are the tree's own, which equal the oracle's
        ``sqrt((dx*dx + dy*dy) + dz*dz)`` bit for bit; the tree's first neighbor of
        each point, itself at distance 0, is dropped.
        """
        if not (is_integer(k) and k >= 0):
            raise InvalidInputError(f"k must be >= 0 and an integer, got {k!r}")
        if self._tree is None:
            raise EmptyIndexError("index over an empty cloud")
        if k > len(self._dists):
            width = min(k + 1, self.count)
            dists = np.empty((k, self.count))
            dists[width - 1:] = np.inf
            for start in range(0, self.count, KNN_BLOCK):
                block, _ = self._tree.query(self.coords[start:start + KNN_BLOCK], k=width)
                dists[:width - 1, start:start + KNN_BLOCK] = block.reshape(-1, width)[:, 1:].T
            self._dists = read_only(dists)
        return self._dists[:k].T

    def knn_means(self, k: int):
        """(d, d.mean(), d.std()): each point's prefix mean d over its k nearest distances.

        d is ((d_1 + d_2) + ...) + d_k, added left to right, divided by k; a k
        that is not an integer >= 1 is an InvalidInputError. A cloud of at most
        k points has fewer than k neighbors: TooFewPointsError.
        """
        if not (is_integer(k) and k >= 1):
            raise InvalidInputError(f"k must be >= 1 and an integer, got {k!r}")
        if self.count < k + 1:
            raise TooFewPointsError(f"need at least {k + 1} points, have {self.count}")
        if k not in self._means:
            # n > k >= 1, so numpy adds the C-contiguous k x n table row by row, left to right.
            d = self.knn_dists(k).T.mean(axis=0)
            self._means[k] = read_only(d), d.mean(), d.std()
        return self._means[k]


def build_index(cloud: PointCloud) -> SpatialIndex:
    return SpatialIndex(cloud)


def _key(params: FilterParams) -> tuple[str, int]:
    """The params' rule and how many table columns it reads; unknown params are an error."""
    if not isinstance(params, tuple(KINDS.values())):
        raise InvalidInputError(f"unknown filter params {type(params).__name__}")
    return params.rule, getattr(params, params.count)


def _concat(parts) -> np.ndarray:
    """The float arrays end to end; one array is returned as it is, with no copy."""
    return parts[0] if len(parts) == 1 else np.concatenate([np.empty(0), *parts])


class CloudStack:
    """Indexes' rows end to end, so one params' keep-mask over all of them is a few array ops.

    It holds the non-empty indexes it is handed, their sizes and the rows'
    ranges. On construction each table is made as wide as the largest params
    count below its index's size, the widest that any of the params can read
    there, so a count from outside the program builds no table wider than its
    cloud; each mean-rule params' prefix means are computed there too, on every
    index of more than k points. ``keep`` gathers once per (rule, count) and
    keeps for the stack's life ``stats[(rule, m)] = (statistic, mean, std)``:
    the order rule's column m - 1 of every table, None, None (8 * sum(n) bytes
    per m); the mean rule's d of every index, with each row's cloud mean and
    std of d (3 * 8 * sum(n) bytes per k).
    """

    def __init__(self, indexes, params):
        self.indexes = [index for index in indexes if index.count]
        self.sizes = [index.count for index in self.indexes]
        self.ranges = _concat([index.ranges for index in self.indexes])
        keys = {_key(p) for p in params}
        # Everything keep reads is built here, so keep computes nothing per cloud.
        for index, n in zip(self.indexes, self.sizes):
            index.knn_dists(max((m for _, m in keys if m < n), default=0))
            for rule, m in keys:
                if rule == "mean" and m < n:
                    index.knn_means(m)
        self.stats = {}

    def keep(self, params: FilterParams) -> np.ndarray:
        """Keep-mask over all rows: each row's statistic for the params' rule within its bound."""
        key = _key(params)
        if key not in self.stats:
            self.stats[key] = self._gather(*key)
        statistic, mean, std = self.stats[key]
        return statistic <= params.bound(self.ranges, mean, std)

    def _gather(self, rule: str, m: int):
        """The rule's (statistic, mean, std) over all rows for count m."""
        if rule == "mean":
            stats = [index.knn_means(m) for index in self.indexes]
            d, mean, std = zip(*stats) if stats else ((), (), ())
            return _concat(d), np.repeat(mean, self.sizes), np.repeat(std, self.sizes)
        # m = 0 reads zeros, within every order-rule bound: every row is kept. A cloud of
        # at most m points gets nan, never <= a bound (even inf): it keeps none.
        return _concat([np.zeros(n) if m == 0 else
                        index.knn_dists(m)[:, m - 1] if m < n else np.full(n, np.nan)
                        for index, n in zip(self.indexes, self.sizes)]), None, None


def apply_filter(cloud: PointCloud, params: FilterParams,
                 index: SpatialIndex | None = None) -> np.ndarray:
    """Keep-mask of the params' rule on one cloud: the one-cloud case of ``CloudStack``,
    over ``cloud.index`` or a given index over the same points (else InvalidInputError)."""
    if index is not None and not (index.coords is cloud.coords
                                  or np.array_equal(index.coords, cloud.coords)):
        raise InvalidInputError("index is not over the cloud's points")
    return CloudStack([index or cloud.index], [params]).keep(params)


def squared_distance_blocks(rows: np.ndarray, points: np.ndarray):
    """Yield (start, the squared distances of rows[start:stop] to every point), in blocks
    of about ``ORACLE_BLOCK`` pairs (at least one row each).

    Each entry is ``(dx*dx + dy*dy) + dz*dz``, the sum ``(diff ** 2).sum(axis=2)``
    forms over the differences row - point, so the exhaustive oracles keep their
    arithmetic bit for bit while their memory stays a few blocks.
    """
    step = max(1, ORACLE_BLOCK // max(1, len(points)))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        squares = block[:, 0, None] - points[:, 0]
        squares *= squares
        for axis in (1, 2):
            diff = block[:, axis, None] - points[:, axis]
            diff *= diff
            squares += diff
        yield start, squares


def brute_force_mask(cloud: PointCloud, params: FilterParams) -> np.ndarray:
    """Exhaustive-pairwise oracle with the same contract as the fast filters.

    It counts and sorts all pairwise distances itself, a block of points at a
    time (``squared_distance_blocks``), and takes only each kind's bound from
    the params. Guarded to small clouds; this is O(n^2) on purpose.
    """
    if cloud.count > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"brute force limited to {BRUTE_FORCE_LIMIT} points")
    n = cloud.count
    if n == 0:
        return np.zeros(0, dtype=bool)
    rule, m = _key(params)
    ranges = np.linalg.norm(cloud.coords, axis=1)
    radius = rule == "order"
    if radius:
        bound = np.broadcast_to(np.reshape(params.bound(ranges), (-1, 1)), (n, 1))
    elif n < m + 1:
        raise TooFewPointsError(f"need at least {m + 1} points, have {n}")
    # Per point: ROR/DROR's count of neighbors within the bound, SOR/DSOR's prefix mean d.
    stat = np.empty(n)
    columns = np.arange(n)
    for start, squares in squared_distance_blocks(cloud.coords, cloud.coords):
        rows = slice(start, start + len(squares))
        # Self-exclusion: drop the diagonal, leaving each point's n - 1 neighbor distances.
        dist = np.sqrt(squares)[columns != columns[rows, None]].reshape(len(squares), n - 1)
        stat[rows] = ((dist <= bound[rows]).sum(axis=1) if radius
                      else np.cumsum(np.sort(dist, axis=1)[:, :m], axis=1)[:, -1] / m)
    if radius:
        return stat >= m
    return stat <= params.bound(ranges, stat.mean(), stat.std())
