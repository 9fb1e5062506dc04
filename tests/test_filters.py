import itertools

import numpy as np
import pytest
from scipy.spatial import cKDTree

from derainkit import (
    Dror,
    Dsor,
    PointCloud,
    Ror,
    Sor,
    apply_filter,
    brute_force_mask,
    build_index,
)
from derainkit.core import empty_cloud
from derainkit.filters import DEFAULT_PARAMS, KINDS, CloudStack, SpatialIndex
from derainkit.errors import (
    EmptyIndexError,
    InvalidInputError,
    TooFewPointsError,
    TooLargeError,
)


def random_cloud(n, seed, spread=5.0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-spread, spread, (n, 3)), rng.uniform(0, 1, n))


def test_index_empty_cloud_queries_error():
    index = build_index(empty_cloud())
    with pytest.raises(EmptyIndexError):
        index.knn_dists(1)


def test_empty_cloud_gives_empty_mask_for_every_filter():
    for params in (Ror(1.0, 1), Sor(5, 1.0), Dror(0.01, 3.0, 3, 0.04), Dsor(5, 1.0, 0.05)):
        keep = apply_filter(empty_cloud(), params)
        assert keep.dtype == bool
        np.testing.assert_array_equal(keep, brute_force_mask(empty_cloud(), params))
        assert keep.shape == (0,)


def tied_cloud(seed, decimals):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 200))
    return PointCloud(np.round(rng.uniform(-3, 3, (n, 3)), decimals), np.full(n, 0.5))


def test_knn_table_matches_fresh_query():
    """Means of the cached kNN table equal a fresh index's, whatever k was asked first."""
    ks = range(1, 31)
    for seed in range(10):
        for decimals in (0, 1, 2):
            cloud = tied_cloud(seed, decimals)
            fresh = {k: build_index(cloud).knn_dists(k).mean(axis=1) for k in ks}
            for order in (ks, reversed(ks)):
                index = build_index(cloud)
                for k in order:
                    np.testing.assert_array_equal(index.knn_dists(k).mean(axis=1), fresh[k])


def test_cloud_table_equals_fresh_index_in_any_order():
    """A cloud's own table equals a fresh SpatialIndex's at every k, whatever order k comes in."""
    ks = list(range(1, 31))
    for seed in range(10):
        for decimals in (0, 1, 2):
            cloud = tied_cloud(seed, decimals)
            fresh = {k: SpatialIndex(cloud).knn_dists(k) for k in ks}
            shuffled = np.random.default_rng(seed).permutation(ks)
            for order in (ks, ks[::-1], shuffled):
                copy = PointCloud(cloud.coords, cloud.intensity)
                for k in order:
                    np.testing.assert_array_equal(copy.index.knn_dists(k), fresh[k])
                assert copy.index is copy.index and copy.index is not cloud.index


def test_knn_table_sorted_padded_and_counts_radius():
    """Rows ascend, pad with inf past n - 1, and column m - 1 answers radius counts."""
    ms = range(1, 21)
    for seed in range(10):
        for decimals in (0, 1, 2):
            cloud = tied_cloud(seed, decimals)
            dist = np.sqrt(((cloud.coords[:, None] - cloud.coords[None]) ** 2).sum(axis=2))
            levels = np.unique(dist)
            gaps = np.flatnonzero(np.diff(levels) > 1e-6)
            rng = np.random.default_rng(seed)
            # midway between two distinct pairwise distances: on no boundary
            radii = [(levels[i] + levels[i + 1]) / 2 for i in rng.choice(gaps, 3)]
            tree = cKDTree(cloud.coords)
            # self sits at distance 0, inside every ball
            counts = {r: tree.query_ball_point(cloud.coords, r, return_length=True) - 1
                      for r in radii}
            fresh = {m: build_index(cloud).knn_dists(m) for m in ms}
            for order in (ms, reversed(ms)):
                index = build_index(cloud)
                for m in order:
                    table = index.knn_dists(m)
                    np.testing.assert_array_equal(table, fresh[m])
                    assert (np.diff(table, axis=1) >= 0).all()
                    for r in radii:
                        np.testing.assert_array_equal(table[:, m - 1] <= r, counts[r] >= m)
    for n in range(1, 6):
        table = build_index(random_cloud(n, n)).knn_dists(8)
        assert table.shape == (n, 8)
        assert np.isfinite(table[:, :n - 1]).all() and np.isinf(table[:, n - 1:]).all()
        assert not apply_filter(random_cloud(n, n), Ror(100.0, n)).any()


def table_clouds():
    """Random and snapped (tied) clouds, and clouds of at most a few points (n <= k)."""
    for seed in range(6):
        yield random_cloud(int(np.random.default_rng(seed).integers(40, 200)), seed)
        for decimals in (0, 1):
            yield tied_cloud(seed, decimals)
    for n in range(1, 6):
        yield random_cloud(n, n)


def test_knn_table_equals_pairwise_difference_recompute():
    """The table equals the tree's neighbors' distances as (diff ** 2).sum(axis=2) gives them."""
    for cloud in table_clouds():
        for k in (1, 5, 30):
            width = min(k + 1, cloud.count)
            _, idx = cKDTree(cloud.coords).query(cloud.coords, k=width)
            diff = cloud.coords[idx.reshape(cloud.count, width)[:, 1:]] - cloud.coords[:, None]
            dists = np.sort(np.sqrt((diff ** 2).sum(axis=2)), axis=1)
            expected = np.pad(dists, ((0, 0), (0, k + 1 - width)), constant_values=np.inf)
            np.testing.assert_array_equal(SpatialIndex(cloud).knn_dists(k), expected)


def test_prefix_means_add_each_row_left_to_right():
    """d for k is (((d_1 + d_2) + ...) + d_k) / k, in any order k is asked for; below 8 terms
    that is numpy's own row sum, so d is the row's mean bit for bit. The cloud's statistics
    are numpy's d.mean() and d.std(), and a cloud of at most k points has no d."""
    ks = range(1, 31)
    for cloud in table_clouds():
        table = SpatialIndex(cloud).knn_dists(30)
        sums = np.array([list(itertools.accumulate(row)) for row in table.tolist()])
        for order in (ks, reversed(ks)):
            index = SpatialIndex(cloud)
            for k in order:
                if cloud.count <= k:
                    with pytest.raises(TooFewPointsError):
                        index.knn_means(k)
                    continue
                d, mean, std = index.knn_means(k)
                np.testing.assert_array_equal(d, sums[:, k - 1] / k)
                np.testing.assert_array_equal([mean, std], [d.mean(), d.std()])
                if k <= 7:
                    np.testing.assert_array_equal(sums[:, k - 1],
                                                  np.add.reduce(table[:, :k], axis=1))
                    np.testing.assert_array_equal(d, table[:, :k].mean(axis=1))


def test_prefix_means_need_a_count_of_at_least_one():
    """k = 0 has no prefix mean: the index raises rather than dividing an empty sum by 0."""
    for k in (0, -1):
        with pytest.raises(InvalidInputError, match="k must be >= 1"):
            random_cloud(20, 3).index.knn_means(k)


@pytest.mark.parametrize("query, k, least", [
    ("knn_dists", -1, 0), ("knn_dists", True, 0), ("knn_dists", 2.5, 0),
    ("knn_dists", np.float64(3.0), 0), ("knn_means", True, 1), ("knn_means", 2.0, 1)])
def test_index_counts_must_be_integers_it_can_answer(query, k, least):
    """knn_dists takes an integer k >= 0 and knn_means one >= 1; a bool, a float or a
    smaller k is an InvalidInputError, also after a wider table is cached."""
    index = random_cloud(20, 3).index
    assert index.knn_dists(5).shape == (20, 5) and index.knn_means(2)[0].shape == (20,)
    with pytest.raises(InvalidInputError, match=f"k must be >= {least}"):
        getattr(index, query)(k)
    assert index.knn_dists(0).shape == (20, 0)
    np.testing.assert_array_equal(index.knn_means(np.int64(2))[0], index.knn_means(2)[0])


def test_stack_mean_and_std_are_numpys_per_cloud():
    """Around numpy's pairwise-sum blocks (8 and 128 terms) and for one cloud, each cloud's
    mean and std of d are its d.mean() and d.std() bit for bit."""
    rng = np.random.default_rng(40)
    for case in range(40):
        sizes = [int(rng.integers(*rng.choice([(2, 8), (8, 129), (129, 400)])))
                 for _ in range(1 if case < 10 else int(rng.integers(2, 7)))]
        clouds = [random_cloud(n, 100 * case + i) for i, n in enumerate(sizes)]
        k = int(rng.integers(1, min(sizes)))
        stack = CloudStack([c.index for c in clouds], [Sor(k, 1.0)])
        stack.keep(Sor(k, 1.0))
        d, mean, std = stack.stats[("mean", k)]
        ends = np.cumsum(sizes)
        for n, end in zip(sizes, ends):
            cloud_d = d[end - n:end].copy()
            np.testing.assert_array_equal(mean[end - n:end], np.full(n, cloud_d.mean()))
            np.testing.assert_array_equal(std[end - n:end], np.full(n, cloud_d.std()))


def test_one_cloud_stack_leaves_index_tables_unchanged():
    """A one-cloud stack gathers views of its index's arrays, which are read-only."""
    cloud = random_cloud(200, 30)
    table, d = cloud.index.knn_dists(12).copy(), cloud.index.knn_means(12)[0].copy()
    stack = CloudStack([cloud.index], [Sor(12, 1.0)])
    for params in (Sor(5, 1.0), Dsor(12, 0.5, 0.1), Ror(1.0, 3), Dror(0.01, 3.0, 4, 0.04)):
        np.testing.assert_array_equal(stack.keep(params), brute_force_mask(cloud, params))
    np.testing.assert_array_equal(cloud.index.knn_dists(12), table)
    np.testing.assert_array_equal(cloud.index.knn_means(12)[0], d)
    for gathered in (stack.stats[("mean", 5)][0], stack.stats[("order", 3)][0],
                     cloud.index.knn_dists(12), cloud.index.knn_means(12)[0]):
        with pytest.raises(ValueError, match="read-only"):
            gathered /= 5


def test_stack_of_fresh_indexes_equals_apply_filter():
    """A stack reads only the indexes it is handed: over fresh ``SpatialIndex``es it
    gives the clouds' apply_filter masks end to end and builds no ``cloud.index``."""
    clouds = [random_cloud(n, seed) for n, seed in ((60, 50), (0, 51), (90, 52), (5, 53))]
    params = [Ror(1.0, 3), Sor(4, 1.0), Dror(0.02, 3.0, 6, 0.3), Dsor(4, 0.5, 0.3)]
    stack = CloudStack([SpatialIndex(c) for c in clouds], params)
    masks = [stack.keep(p) for p in params]
    assert all("index" not in vars(c) for c in clouds)
    for p, mask in zip(params, masks):
        np.testing.assert_array_equal(mask, np.concatenate([apply_filter(c, p) for c in clouds]))


@pytest.mark.parametrize("params", DEFAULT_PARAMS.values(), ids=DEFAULT_PARAMS.keys())
def test_apply_filter_rejects_another_clouds_index(params):
    """A given index must be over the cloud's points; one over an equal copy is accepted."""
    cloud = random_cloud(20, 60)
    for other in (random_cloud(30, 61), random_cloud(20, 62), random_cloud(0, 63)):
        with pytest.raises(InvalidInputError, match="index is not over the cloud's points"):
            apply_filter(cloud, params, build_index(other))
    copy = PointCloud(cloud.coords.copy(), cloud.intensity)
    assert copy.coords is not cloud.coords
    np.testing.assert_array_equal(apply_filter(cloud, params, build_index(copy)),
                                  apply_filter(cloud, params))
    np.testing.assert_array_equal(apply_filter(cloud, params, build_index(cloud)),
                                  brute_force_mask(cloud, params))


@pytest.mark.parametrize("decimals", [None, 1])
def test_radius_filters_exact_on_boundary(decimals):
    """Radii equal to pairwise distances keep the points the oracle keeps."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 60))
        coords = rng.uniform(-3, 3, (n, 3))
        cloud = PointCloud(coords if decimals is None else np.round(coords, decimals),
                           np.full(n, 0.5))
        dist = np.sqrt(((cloud.coords[:, None] - cloud.coords[None]) ** 2).sum(axis=2))
        pairwise = dist[np.triu_indices(n, 1)]
        index = build_index(cloud)
        for r in rng.choice(pairwise[pairwise > 0], 10):
            for m in (1, 3, 7):
                # alpha * beta * range (< 6e-4 m) is far below these radii: sr is sr_min
                for params in (Ror(float(r), m), Dror(1e-4, 1.0, m, float(r))):
                    np.testing.assert_array_equal(apply_filter(cloud, params, index),
                                                  brute_force_mask(cloud, params))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, kept", [(1, True), (2, False), (3, False)])
def test_dror_radius_overflow_counts_real_neighbors_only(m, kept):
    """beta * alpha * range overflows to inf; each of two points still has one neighbor.

    At the origin inf * 0 is nan, and the radius there is sr_min, which holds the neighbor.
    """
    for coords, sr_min in (([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], 0.04),
                           ([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]], 1.0)):
        cloud = PointCloud(coords, [0.5, 0.5])
        params = Dror(1e200, 1e200, m, sr_min)
        expected = np.full(2, kept)
        np.testing.assert_array_equal(brute_force_mask(cloud, params), expected)
        np.testing.assert_array_equal(apply_filter(cloud, params), expected)
        np.testing.assert_array_equal(apply_filter(cloud, params, build_index(cloud)), expected)


def test_radius_params_must_be_finite():
    for make in (lambda v: Ror(v, 1), lambda v: Dror(v, 3.0, 1, 0.04),
                 lambda v: Dror(0.01, v, 1, 0.04), lambda v: Dror(0.01, 3.0, 1, v)):
        for bad in (np.inf, np.nan):
            with pytest.raises(InvalidInputError):
                make(bad)


def test_mean_params_must_be_finite():
    for make in (lambda v: Sor(5, v), lambda v: Dsor(5, v, 0.05), lambda v: Dsor(5, 1.0, v)):
        for bad in (np.inf, np.nan):
            with pytest.raises(InvalidInputError):
                make(bad)


def test_bounds_hand_case():
    """Each kind's bound is its paper definition, which the oracle takes as given."""
    ranges = np.array([5.0, 10.0])
    mean, std = 2.0, 1.0  # of d = [1, 3]
    assert Ror(0.7, 2).bound(ranges) == 0.7
    np.testing.assert_array_equal(Dror(0.01, 3.0, 1, 0.2).bound(ranges), [0.2, 0.3])
    assert Sor(1, 1.5).bound(ranges, mean, std) == 3.5
    np.testing.assert_array_equal(Dsor(1, 1.5, 0.1).bound(ranges, mean, std),
                                  [3.5 * 0.1 * 5, 3.5 * 0.1 * 10])


def test_kinds_registry():
    assert list(KINDS) == ["ror", "sor", "dror", "dsor"]
    assert list(KINDS.values()) == [Ror, Sor, Dror, Dsor]
    for kind, cls in KINDS.items():
        params = DEFAULT_PARAMS[kind]
        assert type(params) is cls and cls.count in cls.space
        assert isinstance(getattr(params, cls.count), int)


def test_unknown_params_rejected():
    with pytest.raises(InvalidInputError):
        apply_filter(random_cloud(5, 0), object())


def test_index_single_point_self_excluded():
    index = build_index(PointCloud([[0, 0, 0]], [0.5]))
    assert index.knn_dists(1)[0, 0] == np.inf


def test_ror_zero_threshold_keeps_all():
    cloud = random_cloud(50, 1)
    assert apply_filter(cloud, Ror(0.1, 0)).all()


def test_ror_hand_case():
    cloud = PointCloud([[0, 0, 0], [0.1, 0, 0], [5, 0, 0]], [0.5] * 3)
    np.testing.assert_array_equal(apply_filter(cloud, Ror(0.5, 1)), [True, True, False])


def test_ror_empty(knn_widths):
    assert apply_filter(empty_cloud(), Ror(1.0, 1)).shape == (0,)
    # A count past the cloud's size keeps none, and reads no table column.
    cloud = random_cloud(700, 1)
    for params in (Ror(1.0, 10**12), Dror(0.01, 3.0, 10**12, 0.04), Ror(1.0, 700)):
        assert not apply_filter(cloud, params).any()
    assert {k for _, k in knn_widths} == {0}


def test_sor_hand_case():
    cloud = PointCloud([[0, 0, 0], [1, 0, 0], [10, 0, 0]], [0.5] * 3)
    # d = [1, 1, 9], mean = 11/3; with s = 0 the far point falls out
    np.testing.assert_array_equal(apply_filter(cloud, Sor(1, 0.0)), [True, True, False])


def test_sor_too_few_points(knn_widths):
    with pytest.raises(TooFewPointsError):
        apply_filter(random_cloud(3, 2), Sor(5, 1.0))
    # A k past the cloud's size raises without reading a table column.
    for params in (Sor(10**12, 1.0), Dsor(10**12, 1.0, 0.05), Sor(700, 1.0)):
        with pytest.raises(TooFewPointsError):
            apply_filter(random_cloud(700, 2), params)
    assert {k for _, k in knn_widths} == {0}


def test_stack_keeps_counts_wider_than_it_was_built_for():
    """keep reads a count past the stack's params from a wider table; it holds no n x k array."""
    clouds = [random_cloud(n, seed) for n, seed in ((60, 20), (90, 21), (5, 22))]
    order = CloudStack([c.index for c in clouds], [Ror(1.0, 2)])
    for params in (Ror(2.0, 12), Dror(0.02, 3.0, 30, 0.5), Ror(2.0, 2)):
        np.testing.assert_array_equal(
            order.keep(params), np.concatenate([brute_force_mask(c, params) for c in clouds]))
    mean = CloudStack([c.index for c in clouds[:2]], [Sor(2, 1.0)])
    for params in (Sor(9, 1.0), Dsor(40, 0.5, 0.3)):
        np.testing.assert_array_equal(
            mean.keep(params), np.concatenate([brute_force_mask(c, params) for c in clouds[:2]]))
    arrays = [a for stack in (order, mean) for v in stack.stats.values() for a in v
              if a is not None]
    assert len(arrays) == 3 + 2 * 3 and all(a.ndim == 1 for a in [mean.ranges, *arrays])


def test_sor_large_s_keeps_all():
    cloud = random_cloud(100, 3)
    assert apply_filter(cloud, Sor(4, 100.0)).all()


def test_dror_zero_threshold_keeps_all():
    assert apply_filter(random_cloud(40, 4), Dror(0.01, 3.0, 0, 0.04)).all()


def test_dror_far_pair_kept_near_pair_removed():
    direction = np.array([1.0, 0.0, 0.0])
    far = PointCloud(np.stack([direction * 20.0, direction * 20.0 + [0, 0.2, 0]]), [0.5] * 2)
    params = Dror(alpha=0.01, beta=2.0, k_min=1, sr_min=0.04)
    # sr at 20 m = 0.4 > 0.2 separation
    assert apply_filter(far, params).all()
    near = PointCloud(np.stack([direction * 1.0, direction * 1.0 + [0, 0.2, 0]]), [0.5] * 2)
    # sr at 1 m = max(0.04, 0.02) = 0.04 < 0.2 separation
    assert not apply_filter(near, params).any()


def test_dsor_reduces_to_sor_at_uniform_range():
    # all points at range 10 and r = 1/10: dynamic threshold equals the global one
    rng = np.random.default_rng(5)
    direction = rng.normal(size=(60, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    cloud = PointCloud(direction * 10.0, rng.uniform(0, 1, 60))
    np.testing.assert_array_equal(apply_filter(cloud, Dsor(3, 0.5, 0.1)),
                                  apply_filter(cloud, Sor(3, 0.5)))


def test_dsor_large_r_keeps_all():
    cloud = random_cloud(80, 6)
    assert apply_filter(cloud, Dsor(3, 0.0, 1e6)).all()


def test_dsor_spares_far_sparse_point():
    rng = np.random.default_rng(8)
    near_cluster = rng.normal(scale=0.05, size=(40, 3)) + [2, 0, 0]
    far_lone = np.array([[40.0, 0.0, 0.0], [40.0, 1.2, 0.0]])
    cloud = PointCloud(np.vstack([near_cluster, far_lone]), np.full(42, 0.5))
    k, s = 3, 0.0
    sor_mask = apply_filter(cloud, Sor(k, s))
    dsor_mask = apply_filter(cloud, Dsor(k, s, 1.0))
    assert not sor_mask[40] and not sor_mask[41]
    assert dsor_mask[40] and dsor_mask[41]
    np.testing.assert_array_equal(dsor_mask, brute_force_mask(cloud, Dsor(k, s, 1.0)))


def test_brute_force_guard():
    with pytest.raises(TooLargeError):
        brute_force_mask(random_cloud(2001, 9), Ror(1.0, 1))


def test_brute_force_trivial_cases():
    assert brute_force_mask(empty_cloud(), Ror(1.0, 0)).shape == (0,)
    assert not brute_force_mask(PointCloud([[0, 0, 0]], [0.1]), Ror(1.0, 1))[0]


def random_params(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return Ror(float(rng.uniform(0.2, 3.0)), int(rng.integers(0, 8)))
    if kind == 1:
        return Sor(int(rng.integers(1, 8)), float(rng.uniform(0, 2)))
    if kind == 2:
        return Dror(float(rng.uniform(0.005, 0.05)), float(rng.uniform(1, 4)),
                    int(rng.integers(0, 6)), float(rng.uniform(0.01, 0.2)))
    return Dsor(int(rng.integers(1, 8)), float(rng.uniform(0, 2)),
                float(rng.uniform(0.02, 0.5)))


@pytest.mark.parametrize("seed", range(20))
def test_oracle_equivalence_sample(seed):
    rng = np.random.default_rng(seed)
    cloud = random_cloud(int(rng.integers(50, 500)), seed + 1000)
    params = random_params(rng)
    np.testing.assert_array_equal(apply_filter(cloud, params),
                                  brute_force_mask(cloud, params))


def test_ror_monotone_in_min_neighbors():
    cloud = random_cloud(200, 12)
    previous = apply_filter(cloud, Ror(1.0, 0))
    for m in range(1, 8):
        current = apply_filter(cloud, Ror(1.0, m))
        assert not (current & ~previous).any()
        previous = current


def test_order_equivariance():
    cloud = random_cloud(150, 13)
    rng = np.random.default_rng(14)
    perm = rng.permutation(cloud.count)
    shuffled = PointCloud(cloud.coords[perm], cloud.intensity[perm])
    for params in (Ror(1.0, 2), Sor(4, 0.8), Dror(0.02, 2.0, 2, 0.05), Dsor(4, 0.8, 0.2)):
            np.testing.assert_array_equal(apply_filter(shuffled, params),
                                      apply_filter(cloud, params)[perm])
