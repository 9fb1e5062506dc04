"""Memory gates: the exhaustive oracles and the kNN table build allocate a few blocks, not
n x n x 3 temporaries or n x k x 3 recomputes, a SOR/DSOR filter holds one table, not a
second k x n table of sums, a stack keeps one statistic per row for each SOR k, and the
simulation path's temporaries scale with a block of beams, not the grid (``tracemalloc``
sees numpy's buffers)."""
import tracemalloc

import numpy as np
import pytest

from derainkit import LabelSet, PointCloud, RainConfig, grid_calibration, inject_rain
from derainkit.annotate import brute_force_transfer
from derainkit.filters import (CloudStack, Dsor, Ror, Sor, SpatialIndex, apply_filter,
                               brute_force_mask)
from derainkit.scene import builtin_scene, raycast_scene

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


def test_brute_force_mask_holds_two_blocks():
    """Two 1 MB blocks, the distances and one difference buffer, and little else."""
    cloud = random_cloud(2000, 1)
    for params in (Ror(1.0, 3), Dsor(10, 1.0, 0.05)):
        _, peak = peak_of(lambda: brute_force_mask(cloud, params))
        assert peak <= 3 * MB, f"{type(params).__name__}: {peak / MB:.2f} MB"


def test_brute_force_transfer_holds_two_blocks():
    src, dst = random_cloud(6000, 2), random_cloud(4000, 3)
    labels = LabelSet(np.random.default_rng(4).integers(0, 8, 6000))
    _, peak = peak_of(lambda: brute_force_transfer(src, labels, dst))
    assert peak <= 3.4 * MB, f"{peak / MB:.2f} MB"


def test_stack_keeps_8_bytes_per_row_for_each_sor_k():
    """Each SOR k keeps its prefix means d (8 B/row) and two floats per cloud, not a mean
    and std per row; one keep call's temporaries (the mean and std repeated to rows, the
    bound's terms and the mask) add at most 48 B/row."""
    clouds = [random_cloud(n, seed) for seed, n in enumerate((1500, 2500, 3500), 6)]
    rows = sum(cloud.count for cloud in clouds)
    params = [Sor(k, 1.0) for k in range(2, 12)]
    stack = CloudStack([cloud.index for cloud in clouds], params)  # builds the tables and d's

    def keep_all():
        for p in params:
            stack.keep(p)

    _, peak = peak_of(keep_all)
    assert len(stack.stats) == len(params)
    assert peak <= (8 * len(params) + 48) * rows, f"{peak / rows:.1f} B/row"


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


# (V, H, r_max): raycast_scene's and inject_rain's B/beam bounds. 64x512 is eight blocks of
# beams, where whole-grid temporaries peaked at 218 and 154 B/beam; 32x128 is one block,
# which may allocate no more than the whole-grid code did (219 and 169 B/beam). The grid's
# four arrays and the labels are 45 B/beam of each peak.
SIMULATION_BOUNDS = {(64, 512, 6.0): (130, 110), (32, 128, 15.0): (219, 169)}


@pytest.mark.parametrize("grid", SIMULATION_BOUNDS, ids=lambda g: f"{g[0]}x{g[1]}")
def test_simulation_peaks_per_beam(grid):
    v, h, r_max = grid
    calib = grid_calibration(v, h, r_max=r_max, elevation_span=(-0.42, 0.03),
                             azimuth_span=(-0.7, 0.7))
    spec, config = builtin_scene("rehearse-like"), RainConfig(rate=25.0, seed=2)
    raycast_bound, inject_bound = SIMULATION_BOUNDS[grid]
    (clean, labels), peak = peak_of(lambda: raycast_scene(spec, calib, 0.01, seed=1))
    assert peak / (v * h) <= raycast_bound, f"raycast_scene: {peak / (v * h):.0f} B/beam"
    _, peak = peak_of(lambda: inject_rain(clean, labels, calib, config))
    assert peak / (v * h) <= inject_bound, f"inject_rain: {peak / (v * h):.0f} B/beam"
