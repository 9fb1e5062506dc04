import numpy as np
import pytest

from derainkit import (
    ConfusionCounts,
    LabelSet,
    PointCloud,
    SensorCalibration,
    merge_clouds,
    validate_cloud,
)
from derainkit.core import empty_cloud
from derainkit.errors import (
    IntensityOutOfRangeError,
    InvalidInputError,
    NonFiniteCoordinateError,
)


def make_cloud(n, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.normal(size=(n, 3)), rng.uniform(0, 1, n))


def test_validate_empty_cloud_succeeds():
    validate_cloud(empty_cloud())


def test_validate_intensity_out_of_range_names_index():
    good = make_cloud(5)
    intensity = good.intensity.copy()
    intensity[3] = 1.5
    cloud = PointCloud(good.coords, intensity)
    with pytest.raises(IntensityOutOfRangeError) as err:
        validate_cloud(cloud)
    assert err.value.index == 3


def test_validate_nan_coordinate_names_index():
    good = make_cloud(4)
    coords = good.coords.copy()
    coords[0, 0] = np.nan
    cloud = PointCloud(coords, good.intensity)
    with pytest.raises(NonFiniteCoordinateError) as err:
        validate_cloud(cloud)
    assert err.value.index == 0


def test_cloud_arrays_are_read_only_copies():
    coords = np.arange(12.0).reshape(4, 3)
    intensity = np.full(4, 0.5)
    cloud = PointCloud(coords, intensity)
    with pytest.raises(ValueError):
        cloud.coords[0, 0] = 1.0
    with pytest.raises(ValueError):
        cloud.intensity[0] = 1.0
    coords[0, 0] = -1.0
    intensity[0] = 0.25
    assert coords.flags.writeable and intensity.flags.writeable
    assert cloud.coords[0, 0] == 0.0 and cloud.intensity[0] == 0.5


@pytest.mark.parametrize("bad", [
    {"elevations": [np.nan]},
    {"elevations": [-0.1, np.nan, 0.1]},
    {"azimuths": [0.0, np.nan]},
    {"azimuths": [np.nan]},
    {"r_min": np.nan},
    {"r_max": np.inf},
    {"r_max": np.nan},
    {"sensor_height": np.nan},
    {"sensor_height": -np.inf},
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_calibration_rejects_non_finite(bad):
    good = {"elevations": [-0.1, 0.1], "azimuths": [0.0, 0.5], "r_max": 10.0, "r_min": 0.5,
            "sensor_height": 2.0}
    SensorCalibration(**good)
    with pytest.raises(InvalidInputError):
        SensorCalibration(**{**good, **bad})


def test_merge_with_empty_is_identity():
    a = make_cloud(3)
    la = LabelSet([1, 2, 3])
    merged, labels = merge_clouds(a, la, empty_cloud(), LabelSet([]))
    assert merged.count == 3
    np.testing.assert_array_equal(merged.coords, a.coords)
    np.testing.assert_array_equal(labels.labels, la.labels)


def test_merge_empty_empty():
    merged, labels = merge_clouds(empty_cloud(), LabelSet([]), empty_cloud(), LabelSet([]))
    assert merged.count == 0 and labels.count == 0


def test_merge_concatenates_in_order():
    lidar = PointCloud([[1, 0, 0], [2, 0, 0]], [0.1, 0.2])
    radar = PointCloud([[0, 5, 0]], [0.9])
    merged, labels = merge_clouds(lidar, LabelSet([1, 3]), radar, LabelSet([2]))
    assert merged.count == 3
    np.testing.assert_array_equal(labels.labels, [1, 3, 2])
    np.testing.assert_allclose(merged.coords[2], [0, 5, 0])
    np.testing.assert_allclose(merged.intensity, [0.1, 0.2, 0.9])


def test_merge_rejects_invalid_input():
    bad = PointCloud([[np.inf, 0, 0]], [0.5])
    with pytest.raises(InvalidInputError):
        merge_clouds(bad, LabelSet([0]), empty_cloud(), LabelSet([]))


def test_merge_count_additive_and_associative_up_to_order():
    a, b, c = make_cloud(4, 1), make_cloud(5, 2), make_cloud(6, 3)
    la, lb, lc = LabelSet([0] * 4), LabelSet([1] * 5), LabelSet([2] * 6)
    ab, lab = merge_clouds(a, la, b, lb)
    left, llab = merge_clouds(ab, lab, c, lc)
    bc, lbc = merge_clouds(b, lb, c, lc)
    right, rlab = merge_clouds(a, la, bc, lbc)
    assert left.count == right.count == 15
    np.testing.assert_array_equal(left.coords, right.coords)
    np.testing.assert_array_equal(llab.labels, rlab.labels)
    validate_cloud(left)


def test_confusion_counts_total():
    counts = ConfusionCounts(1, 2, 3, 4)
    assert counts.total == 10
    assert (counts + counts).total == 20
