import numpy as np
import pytest

from derainkit import (
    PointCloud,
    PolarGridMap,
    SensorCalibration,
    flatten,
    grid_calibration,
    nearest_angle_index,
    project_to_pgm,
    to_euclidean,
    to_polar,
)
from derainkit.core import empty_cloud
from derainkit.errors import EmptyCalibrationError, EmptyTableError, FieldError, OriginPointError


def small_calib(v=2, h=3, r_max=50.0):
    return SensorCalibration(
        elevations=np.linspace(-0.3, 0.1, v),
        azimuths=np.linspace(-0.5, 0.5, h),
        r_max=r_max,
    )


def test_to_polar_axis_cases():
    r, az, el = to_polar([[1, 0, 0]])
    assert r[0] == 1 and az[0] == 0 and el[0] == 0
    r, az, el = to_polar([[0, 0, 1]])
    assert r[0] == 1 and abs(el[0] - np.pi / 2) < 1e-12


def test_to_polar_hand_case():
    r, az, el = to_polar([[1, 1, np.sqrt(2)]])
    np.testing.assert_allclose([r[0], az[0], el[0]], [2, np.pi / 4, np.pi / 4], rtol=1e-12)


def test_to_polar_origin_errors():
    with pytest.raises(OriginPointError) as err:
        to_polar([[1, 0, 0], [0, 0, 0]])
    assert err.value.index == 1


def test_to_euclidean_cases():
    np.testing.assert_allclose(to_euclidean(1, 0, 0), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(to_euclidean(2, np.pi / 4, np.pi / 4), [1, 1, np.sqrt(2)], rtol=1e-12)
    np.testing.assert_array_equal(to_euclidean(0, 1.3, -0.7), [0, 0, 0])


def test_polar_round_trip_random():
    rng = np.random.default_rng(7)
    coords = rng.normal(size=(500, 3))
    np.testing.assert_allclose(to_euclidean(*to_polar(coords)), coords, rtol=1e-9)


def test_nearest_angle_index_tie_prefers_lower():
    assert nearest_angle_index(0.10, [0.0, 0.2]) == 0


def test_nearest_angle_index_scan():
    assert nearest_angle_index(0.19, [0.0, 0.2]) == 1


def test_nearest_angle_index_clamps():
    assert nearest_angle_index(-5.0, [0.0, 0.2]) == 0
    assert nearest_angle_index(5.0, [0.0, 0.2]) == 1


def test_nearest_angle_index_empty_table():
    with pytest.raises(EmptyTableError):
        nearest_angle_index(0.0, [])


def test_project_empty_cloud_all_unreturned():
    calib = small_calib()
    grid = project_to_pgm(empty_cloud(), calib)
    assert grid.unreturned.all()
    assert (grid.ranges == calib.r_max).all()
    assert (grid.intensity == 0).all()
    np.testing.assert_allclose(np.linalg.norm(grid.coords, axis=2), grid.ranges, rtol=1e-12)


def test_project_onto_an_empty_calibration_raises():
    for v, h in ((0, 4), (4, 0)):
        with pytest.raises(EmptyCalibrationError):
            project_to_pgm(empty_cloud(), grid_calibration(v, h))


def test_project_grid_aligned_round_trip():
    calib = small_calib()
    az, el = np.meshgrid(calib.azimuths, calib.elevations)
    coords = to_euclidean(np.full(az.shape, 10.0), az, el).reshape(-1, 3)
    cloud = PointCloud(coords, np.full(coords.shape[0], 0.5))
    grid = project_to_pgm(cloud, calib)
    assert not grid.unreturned.any()
    np.testing.assert_allclose(grid.coords.reshape(-1, 3), coords, atol=1e-4)


def test_cell_collision_keeps_nearest():
    calib = small_calib()
    direction = to_euclidean(1.0, calib.azimuths[1], calib.elevations[0])
    cloud = PointCloud(np.stack([direction * 9.0, direction * 5.0]), [0.2, 0.8])
    grid = project_to_pgm(cloud, calib)
    assert grid.ranges[0, 1] == pytest.approx(5.0)
    assert grid.intensity[0, 1] == pytest.approx(0.8)


def test_flatten_single_cell():
    calib = SensorCalibration(elevations=[0.0], azimuths=[0.0], r_max=20.0)
    p = PointCloud([[4.0, 0.0, 0.0]], [0.7])
    cloud, mask = flatten(project_to_pgm(p, calib))
    assert cloud.count == 1 and not mask[0]
    np.testing.assert_allclose(cloud.coords[0], [4, 0, 0])


def test_flatten_all_unreturned():
    calib = small_calib()
    cloud, mask = flatten(project_to_pgm(empty_cloud(), calib))
    assert cloud.count == 6 and mask.all()
    np.testing.assert_allclose(np.linalg.norm(cloud.coords, axis=1), calib.r_max, rtol=1e-12)


def test_flatten_recovers_projected_points_as_set():
    calib = small_calib(4, 8)
    rng = np.random.default_rng(3)
    az, el = np.meshgrid(calib.azimuths, calib.elevations)
    ranges = rng.uniform(2, 40, az.shape)
    pick = rng.random(az.shape) < 0.6
    coords = to_euclidean(ranges, az, el)[pick]
    cloud = PointCloud(coords, np.full(pick.sum(), 0.4))
    flat_cloud, mask = flatten(project_to_pgm(cloud, calib))
    assert flat_cloud.count == 32
    assert (~mask).sum() == pick.sum()
    got = sorted(map(tuple, np.round(flat_cloud.coords[~mask], 6)))
    want = sorted(map(tuple, np.round(coords, 6)))
    assert got == want


def test_returned_cells_bounded_by_input_size():
    calib = small_calib(4, 8)
    rng = np.random.default_rng(11)
    cloud = PointCloud(rng.normal(size=(10, 3)) * 5, rng.uniform(0, 1, 10))
    grid = project_to_pgm(cloud, calib)
    assert (~grid.unreturned).sum() <= min(10, 32)


@pytest.mark.parametrize("coords, intensity, ranges, unreturned, field", [
    (np.zeros((2, 3, 3)), np.zeros(4), np.zeros((1, 1)), np.zeros(7), "intensity"),
    (np.zeros((6, 3)), np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3), bool), "coords"),
    (np.zeros((2, 3, 2)), np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3), bool), "coords"),
    (np.zeros((2, 3, 3)), np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((2, 3), bool), "ranges"),
    (np.zeros((2, 3, 3)), np.zeros((2, 3)), np.zeros(6), np.zeros((2, 3), bool), "ranges"),
    (np.zeros((2, 3, 3)), np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)), "unreturned"),
], ids=["roadmap-example", "flat-coords", "coords-width", "ranges-transposed", "ranges-flat",
        "float-mask"])
def test_polar_grid_map_checks_shapes_and_mask(coords, intensity, ranges, unreturned, field):
    """ranges is (V, H); intensity and unreturned match it, unreturned is bool; coords is
    (V, H, 3). Anything else raises at construction, naming the field."""
    with pytest.raises(FieldError) as err:
        PolarGridMap(coords, intensity, ranges, unreturned)
    assert err.value.field == field



def test_projecting_a_raycast_scan_reproduces_its_unreturned_cells():
    """Both paths put an unreturned cell on beam_directions(calib) * r_max, bit for bit."""
    from derainkit import builtin_scene, grid_calibration, raycast_scene

    calib = grid_calibration(32, 128, elevation_span=(-0.42, 0.03), azimuth_span=(-0.7, 0.7),
                             r_max=15.0)
    grid, _ = raycast_scene(builtin_scene("rehearse-like"), calib, noise_sigma=0.01, seed=3)
    cloud, unreturned = flatten(grid)
    returned = PointCloud(cloud.coords[~unreturned], cloud.intensity[~unreturned])
    projected = project_to_pgm(returned, calib)
    mask = grid.unreturned
    assert 0 < mask.sum() < mask.size
    np.testing.assert_array_equal(projected.unreturned, mask)
    for name in ("coords", "ranges", "intensity"):
        np.testing.assert_array_equal(getattr(projected, name)[mask], getattr(grid, name)[mask])
    np.testing.assert_array_equal(projected.coords[~mask], grid.coords[~mask])
