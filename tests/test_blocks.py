"""Block sizes change no bit: the kd-tree table build (``filters.KNN_BLOCK`` points per
query) and the exhaustive oracles (``filters.ORACLE_BLOCK`` pairs per block) give the same
tables, prefix means, masks, tuning results and transferred labels whether a block is one
point, seven points, every point or the default; and the simulation path
(``pgm.BEAM_BLOCK`` beams per block) gives the same grids, labels and rain whether a
block is two, three or seven beams, every beam or the default."""
import numpy as np
import pytest

from derainkit import LabelSet, PointCloud, RainConfig, filters, grid_calibration, pgm
from derainkit.annotate import brute_force_transfer, transfer_labels
from derainkit.core import RAIN
from derainkit.evaluation import DEFAULT_PARAMS, tune_filter
from derainkit.filters import SpatialIndex, apply_filter, brute_force_mask
from derainkit.rainsim import inject_rain
from derainkit.scene import BUILTIN_SCENE_NAMES, SceneSpec, builtin_scene, raycast_scene

BLOCKS = ["1", "7", "n", "default"]


def clouds():
    """Random and snapped (tied) clouds, the sizes around 7 included, and clouds of at most
    a few points (n <= k)."""
    for seed, n in enumerate((1, 2, 5, 7, 8, 14, 15, 60, 301)):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(-3, 3, (n, 3))
        for snapped in (coords, np.round(coords, 0)):
            yield PointCloud(snapped, rng.uniform(0, 1, n))


def table_block(block, n):
    return {"1": 1, "7": 7, "n": n, "default": filters.KNN_BLOCK}[block]


def oracle_block(block, points):
    """The pair budget that gives blocks of 1, 7 or all rows against the given points."""
    rows = {"1": 1, "7": 7, "n": 10 ** 6}
    return rows[block] * max(1, points) if block in rows else filters.ORACLE_BLOCK


def fresh(cloud):
    """The cloud with an index of its own, built under the current block size."""
    return PointCloud(cloud.coords, cloud.intensity)


def tables(cloud):
    index = SpatialIndex(cloud)
    out = [index.knn_dists(k).copy() for k in (3, 31)]
    for k in (12, 31):
        if k < cloud.count:
            d, mean, std = index.knn_means(k)
            out += [d.copy(), np.array([mean, std])]
    return out + [index.knn_dists(20).copy()]


def masks(cloud):
    out = []
    for params in (*DEFAULT_PARAMS.values(), filters.Ror(1.5, 0), filters.Sor(1, 0.5)):
        if params.count == "k" and cloud.count < getattr(params, "k") + 1:
            continue
        out += [brute_force_mask(cloud, params), apply_filter(fresh(cloud), params)]
    return out


REFERENCE = {}


def reference(name, compute):
    """The result under the default block sizes, computed once."""
    if name not in REFERENCE:
        REFERENCE[name] = compute()
    return REFERENCE[name]


@pytest.mark.parametrize("block", BLOCKS)
def test_tables_and_running_sums_do_not_depend_on_the_block(block, monkeypatch):
    for i, cloud in enumerate(clouds()):
        expected = reference(("tables", i), lambda: tables(cloud))
        monkeypatch.setattr(filters, "KNN_BLOCK", table_block(block, cloud.count))
        got = tables(cloud)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
            assert a.shape == b.shape


@pytest.mark.parametrize("block", BLOCKS)
def test_masks_do_not_depend_on_the_block(block, monkeypatch):
    for i, cloud in enumerate(clouds()):
        expected = reference(("masks", i), lambda: masks(cloud))
        monkeypatch.setattr(filters, "KNN_BLOCK", table_block(block, cloud.count))
        monkeypatch.setattr(filters, "ORACLE_BLOCK", oracle_block(block, cloud.count))
        got = masks(cloud)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
        for fast, oracle in zip(got[1::2], got[::2]):
            np.testing.assert_array_equal(fast, oracle)


def tuning_set():
    """Clouds of more than 30 points (the largest SOR/DSOR k tuned), each with fresh indexes."""
    out = []
    for seed in range(6):
        rng = np.random.default_rng(50 + seed)
        n = int(rng.integers(31, 300))
        coords = rng.uniform(-3, 3, (n, 3))
        cloud = PointCloud(np.round(coords, 0) if seed % 2 else coords, rng.uniform(0, 1, n))
        out.append((cloud, LabelSet(np.where(coords[:, 2] > 1.0, RAIN, 0))))
    return out


def tune_all(dataset):
    return [tune_filter(kind, dataset, n_trials=15, seed=3) for kind in DEFAULT_PARAMS]


@pytest.mark.parametrize("block", BLOCKS)
def test_tuning_does_not_depend_on_the_block(block, monkeypatch):
    expected = reference("tune", lambda: tune_all(tuning_set()))
    monkeypatch.setattr(filters, "KNN_BLOCK", table_block(block, 300))
    assert tune_all(tuning_set()) == expected


def transfer_case(seed):
    """Snapped source and destination with duplicates, so many rows are redone as ties."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    coords = np.round(rng.uniform(-2, 2, (n, 3)), 0)
    src = PointCloud(np.vstack([coords, coords[: n // 2]]), np.full(n + n // 2, 0.5))
    dst = PointCloud(np.round(rng.uniform(-2.5, 2.5, (50, 3)), 0), np.full(50, 0.5))
    return src, LabelSet(rng.integers(0, 8, src.count)), dst


@pytest.mark.parametrize("block", BLOCKS)
def test_transferred_labels_do_not_depend_on_the_block(block, monkeypatch):
    for seed in range(12):
        src, labels, dst = transfer_case(seed)
        expected = reference(("transfer", seed), lambda: (
            transfer_labels(src, labels, dst).labels, brute_force_transfer(src, labels, dst).labels))
        monkeypatch.setattr(filters, "ORACLE_BLOCK", oracle_block(block, src.count))
        got = transfer_labels(src, labels, dst).labels, brute_force_transfer(src, labels, dst).labels
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
        np.testing.assert_array_equal(got[0], got[1])


@pytest.mark.parametrize("block", BLOCKS)
def test_oracle_blocks_cover_every_row_once(block, monkeypatch):
    rows, points = np.zeros((23, 3)), np.ones((5, 3))
    monkeypatch.setattr(filters, "ORACLE_BLOCK", oracle_block(block, len(points)))
    starts, sizes = zip(*((start, len(sq)) for start, sq in
                          filters.squared_distance_blocks(rows, points)))
    assert list(starts) == list(np.cumsum((0, *sizes[:-1]))) and sum(sizes) == len(rows)
    assert {"1": max(sizes) == 1, "7": max(sizes) == 7, "n": len(sizes) == 1,
            "default": True}[block]


BEAM_BLOCKS = ["2", "3", "7", "default", "m"]
# A one-block grid; one with a 128-beam tail block; one of 4,097 beams, whose lone tail
# beam must join the block before it.
BEAM_GRIDS = [(5, 7), (33, 128), (17, 241)]
_BUSY = builtin_scene("rehearse-like")
# The builtin scenes and a tilted ground under the busiest one's boxes: a one-row block
# rounds its ground denominator, and the yawed boxes' frames, unlike a longer block, and
# here the 17x241 grid's last beam shows it.
SCENES = {name: builtin_scene(name) for name in BUILTIN_SCENE_NAMES} | {
    "tilted": SceneSpec((-0.28, -0.28, 1.0), 0.0, _BUSY.boxes, _BUSY.road_polygon)}


def beam_block(block, beams):
    return {"default": pgm.BEAM_BLOCK, "m": beams}.get(block) or int(block)


def simulated(grid, scene, noise):
    """raycast_scene's grid and labels, then inject_rain's with and without occlusion."""
    calib = grid_calibration(*grid, r_max=15.0, elevation_span=(-0.42, 0.03),
                             azimuth_span=(-0.7, 0.7))
    clean, labels = raycast_scene(SCENES[scene], calib, noise, seed=3)
    out = [clean, labels]
    for occlude in (True, False):
        out += inject_rain(clean, labels, calib, RainConfig(rate=50.0, seed=4), occlude)
    return [array for value in out for array in
            ((value.labels,) if isinstance(value, LabelSet) else
             (value.coords, value.intensity, value.ranges, value.unreturned))]


def assert_same_bits(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def beam_cases():
    """Each block on the 5x7 grid; on the large grids the default, every beam and seven
    beams (600 blocks), but not two or three (2,000 blocks and more: seconds a grid)."""
    return [pytest.param(block, grid, id=f"{block}-{grid[0]}x{grid[1]}")
            for grid in BEAM_GRIDS for block in BEAM_BLOCKS
            if grid == (5, 7) or block not in ("2", "3")]


@pytest.mark.parametrize("block, grid", beam_cases())
def test_simulation_does_not_depend_on_the_beam_block(block, grid, monkeypatch):
    """Every scene at noise 0 and 0.01, but seven-beam blocks on a large grid run the
    busiest scene with noise only."""
    beams = grid[0] * grid[1]
    for scene in SCENES:
        for noise in (0.0, 0.01):
            if beams > 35 and block == "7" and (scene, noise) != ("rehearse-like", 0.01):
                continue
            expected = reference(("simulated", grid, scene, noise),
                                 lambda: simulated(grid, scene, noise))
            with monkeypatch.context() as patch:
                patch.setattr(pgm, "BEAM_BLOCK", beam_block(block, beams))
                assert_same_bits(simulated(grid, scene, noise), expected)


@pytest.mark.parametrize("block", BEAM_BLOCKS)
def test_beam_blocks_cover_every_beam_once_and_none_is_one_row(block, monkeypatch):
    for beams in (0, 1, 2, 3, 4, 5, 7, 8, 9, 35, 4096, 4097, 4098, 4224, 8193):
        monkeypatch.setattr(pgm, "BEAM_BLOCK", beam_block(block, max(beams, 2)))
        blocks = pgm.beam_blocks(beams)
        assert blocks[0].start == 0 and blocks[-1].stop == beams
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [b.stop - b.start for b in blocks]
        assert min(sizes) >= min(beams, 2) and max(sizes) <= pgm.BEAM_BLOCK + 1
