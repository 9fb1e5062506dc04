"""Memory gates: the exhaustive oracles and the kNN table build allocate a few blocks, not
n x n x 3 temporaries or n x k x 3 recomputes, and a SOR/DSOR filter holds one table, not a
second k x n table of sums (``tracemalloc`` sees numpy's buffers)."""
import tracemalloc

import numpy as np

from derainkit import LabelSet, PointCloud
from derainkit.annotate import brute_force_transfer
from derainkit.filters import Dsor, Ror, SpatialIndex, apply_filter, brute_force_mask

MB = 1 << 20


def random_cloud(n, seed):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-10, 10, (n, 3)), rng.uniform(0, 1, n))


def peak_of(call):
    """The call's result and the peak of the memory it allocated over what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_brute_force_mask_peaks_below_16_mb():
    cloud = random_cloud(2000, 1)
    for params in (Ror(1.0, 3), Dsor(10, 1.0, 0.05)):
        keep, peak = peak_of(lambda: brute_force_mask(cloud, params))
        assert keep.shape == (2000,)
        assert peak < 16 * MB, f"{type(params).__name__}: {peak / MB:.1f} MB"


def test_brute_force_transfer_peaks_below_16_mb():
    src, dst = random_cloud(6000, 2), random_cloud(4000, 3)
    labels = LabelSet(np.random.default_rng(4).integers(0, 8, 6000))
    out, peak = peak_of(lambda: brute_force_transfer(src, labels, dst))
    assert out.count == 4000
    assert peak < 16 * MB, f"{peak / MB:.1f} MB"


def test_knn_table_build_allocates_the_table_and_at_most_16_mb_more():
    cloud = random_cloud(50_000, 5)
    index = SpatialIndex(cloud)
    table, peak = peak_of(lambda: index.knn_dists(31))
    assert table.shape == (50_000, 31)
    assert peak <= table.nbytes + 16 * MB, f"{(peak - table.nbytes) / MB:.1f} MB over the table"


def test_dsor_filter_allocates_the_table_and_at_most_8_mb_more():
    import scipy.spatial  # noqa: F401  imported before the count starts, so it is not counted
    cloud = random_cloud(50_000, 5)
    keep, peak = peak_of(lambda: apply_filter(cloud, Dsor(30, 1.0, 0.05)))
    table = 30 * 50_000 * 8
    assert keep.shape == (50_000,)
    assert peak <= table + 8 * MB, f"{(peak - table) / MB:.1f} MB over the table"
