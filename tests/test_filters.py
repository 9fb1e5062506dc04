import numpy as np
import pytest

from derainkit import (
    Dror,
    Dsor,
    PointCloud,
    Ror,
    Sor,
    apply_filter,
    brute_force_mask,
    build_index,
    dror,
    dsor,
    ror,
    sor,
)
from derainkit.core import empty_cloud
from derainkit.errors import EmptyIndexError, TooFewPointsError, TooLargeError


def random_cloud(n, seed, spread=5.0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-spread, spread, (n, 3)), rng.uniform(0, 1, n))


def test_index_empty_cloud_queries_error():
    index = build_index(empty_cloud())
    with pytest.raises(EmptyIndexError):
        index.radius_counts(1.0)


def test_empty_cloud_gives_empty_mask_for_every_filter():
    for params in (Ror(1.0, 1), Sor(5, 1.0), Dror(0.01, 3.0, 3, 0.04), Dsor(5, 1.0, 0.05)):
        keep = apply_filter(empty_cloud(), params)
        assert keep.dtype == bool
        np.testing.assert_array_equal(keep, brute_force_mask(empty_cloud(), params))
        assert keep.shape == (0,)


def test_knn_table_matches_fresh_query():
    """Cached kNN means equal a fresh index's, whatever k was asked first."""
    ks = range(1, 31)
    for seed in range(10):
        for decimals in (0, 1, 2):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(40, 200))
            cloud = PointCloud(np.round(rng.uniform(-3, 3, (n, 3)), decimals), np.full(n, 0.5))
            fresh = {k: build_index(cloud).knn_mean_dists(k) for k in ks}
            for order in (ks, reversed(ks)):
                index = build_index(cloud)
                for k in order:
                    np.testing.assert_array_equal(index.knn_mean_dists(k), fresh[k])


def test_index_single_point_self_excluded():
    index = build_index(PointCloud([[0, 0, 0]], [0.5]))
    assert index.radius_counts(100.0)[0] == 0


def test_index_counts_match_brute_force():
    cloud = random_cloud(500, 0)
    index = build_index(cloud)
    diff = cloud.coords[:, None] - cloud.coords[None]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    for radius in (0.5, 1.5, 3.0):
        np.testing.assert_array_equal(index.radius_counts(radius),
                                      (dist <= radius).sum(axis=1))


def test_ror_zero_threshold_keeps_all():
    cloud = random_cloud(50, 1)
    assert ror(cloud, Ror(0.1, 0)).all()


def test_ror_hand_case():
    cloud = PointCloud([[0, 0, 0], [0.1, 0, 0], [5, 0, 0]], [0.5] * 3)
    np.testing.assert_array_equal(ror(cloud, Ror(0.5, 1)), [True, True, False])


def test_ror_empty():
    assert ror(empty_cloud(), Ror(1.0, 1)).shape == (0,)


def test_sor_hand_case():
    cloud = PointCloud([[0, 0, 0], [1, 0, 0], [10, 0, 0]], [0.5] * 3)
    # d = [1, 1, 9], mean = 11/3; with s = 0 the far point falls out
    np.testing.assert_array_equal(sor(cloud, Sor(1, 0.0)), [True, True, False])


def test_sor_too_few_points():
    with pytest.raises(TooFewPointsError):
        sor(random_cloud(3, 2), Sor(5, 1.0))


def test_sor_large_s_keeps_all():
    cloud = random_cloud(100, 3)
    assert sor(cloud, Sor(4, 100.0)).all()


def test_dror_zero_threshold_keeps_all():
    assert dror(random_cloud(40, 4), Dror(0.01, 3.0, 0, 0.04)).all()


def test_dror_far_pair_kept_near_pair_removed():
    direction = np.array([1.0, 0.0, 0.0])
    far = PointCloud(np.stack([direction * 20.0, direction * 20.0 + [0, 0.2, 0]]), [0.5] * 2)
    params = Dror(alpha=0.01, beta=2.0, k_min=1, sr_min=0.04)
    # sr at 20 m = 0.4 > 0.2 separation
    assert dror(far, params).all()
    near = PointCloud(np.stack([direction * 1.0, direction * 1.0 + [0, 0.2, 0]]), [0.5] * 2)
    # sr at 1 m = max(0.04, 0.02) = 0.04 < 0.2 separation
    assert not dror(near, params).any()


def test_dsor_reduces_to_sor_at_uniform_range():
    # all points at range 10 and r = 1/10: dynamic threshold equals the global one
    rng = np.random.default_rng(5)
    direction = rng.normal(size=(60, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    cloud = PointCloud(direction * 10.0, rng.uniform(0, 1, 60))
    np.testing.assert_array_equal(dsor(cloud, Dsor(3, 0.5, 0.1)), sor(cloud, Sor(3, 0.5)))


def test_dsor_large_r_keeps_all():
    cloud = random_cloud(80, 6)
    assert dsor(cloud, Dsor(3, 0.0, 1e6)).all()


def test_dsor_spares_far_sparse_point():
    rng = np.random.default_rng(8)
    near_cluster = rng.normal(scale=0.05, size=(40, 3)) + [2, 0, 0]
    far_lone = np.array([[40.0, 0.0, 0.0], [40.0, 1.2, 0.0]])
    cloud = PointCloud(np.vstack([near_cluster, far_lone]), np.full(42, 0.5))
    k, s = 3, 0.0
    sor_mask = sor(cloud, Sor(k, s))
    dsor_mask = dsor(cloud, Dsor(k, s, 1.0))
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
    from derainkit import apply_filter
    np.testing.assert_array_equal(apply_filter(cloud, params),
                                  brute_force_mask(cloud, params))


def test_ror_monotone_in_min_neighbors():
    cloud = random_cloud(200, 12)
    previous = ror(cloud, Ror(1.0, 0))
    for m in range(1, 8):
        current = ror(cloud, Ror(1.0, m))
        assert not (current & ~previous).any()
        previous = current


def test_order_equivariance():
    cloud = random_cloud(150, 13)
    rng = np.random.default_rng(14)
    perm = rng.permutation(cloud.count)
    shuffled = PointCloud(cloud.coords[perm], cloud.intensity[perm])
    for params in (Ror(1.0, 2), Sor(4, 0.8), Dror(0.02, 2.0, 2, 0.05), Dsor(4, 0.8, 0.2)):
        from derainkit import apply_filter
        np.testing.assert_array_equal(apply_filter(shuffled, params),
                                      apply_filter(cloud, params)[perm])
