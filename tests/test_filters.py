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
from derainkit.filters import DEFAULT_PARAMS, KINDS, SpatialIndex
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


@pytest.mark.parametrize("m, kept", [(1, True), (2, False), (3, False)])
def test_dror_radius_overflow_counts_real_neighbors_only(m, kept):
    """beta * alpha * range overflows to inf; each of two points still has one neighbor."""
    cloud = PointCloud([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [0.5, 0.5])
    params = Dror(1e200, 1e200, m, 0.04)
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
    cloud = PointCloud([[3.0, 4.0, 0.0], [0.0, 0.0, 10.0]], [0.5, 0.5])  # ranges 5 and 10
    d = np.array([1.0, 3.0])  # mean 2, population std 1
    assert Ror(0.7, 2).bound(cloud) == 0.7
    np.testing.assert_array_equal(Dror(0.01, 3.0, 1, 0.2).bound(cloud), [0.2, 0.3])
    assert Sor(1, 1.5).bound(cloud, d) == 3.5
    np.testing.assert_array_equal(Dsor(1, 1.5, 0.1).bound(cloud, d),
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


def test_ror_empty():
    assert apply_filter(empty_cloud(), Ror(1.0, 1)).shape == (0,)


def test_sor_hand_case():
    cloud = PointCloud([[0, 0, 0], [1, 0, 0], [10, 0, 0]], [0.5] * 3)
    # d = [1, 1, 9], mean = 11/3; with s = 0 the far point falls out
    np.testing.assert_array_equal(apply_filter(cloud, Sor(1, 0.0)), [True, True, False])


def test_sor_too_few_points():
    with pytest.raises(TooFewPointsError):
        apply_filter(random_cloud(3, 2), Sor(5, 1.0))


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
