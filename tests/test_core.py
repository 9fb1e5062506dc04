import numpy as np
import pytest

from derainkit import (
    ConfusionCounts,
    LabelSet,
    PointCloud,
    SensorCalibration,
    merge_clouds,
)
from derainkit.core import empty_cloud
from derainkit.errors import (
    IndexedError,
    IntensityOutOfRangeError,
    InvalidClassError,
    InvalidInputError,
    InvalidMaskByteError,
    LengthMismatchError,
    NonFiniteCoordinateError,
    OriginPointError,
)


def make_cloud(n, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.normal(size=(n, 3)), rng.uniform(0, 1, n))


def test_validate_empty_cloud_succeeds():
    assert empty_cloud().count == 0


def test_validate_intensity_out_of_range_names_index():
    good = make_cloud(5)
    intensity = good.intensity.copy()
    intensity[3] = 1.5
    with pytest.raises(IntensityOutOfRangeError) as err:
        PointCloud(good.coords, intensity)
    assert err.value.index == 3
    for intensity, index in (([0.5, -0.0, 1.0, np.nan], 3), ([-1e-300, 0.5, 0.5, 0.5], 0),
                             ([1.0, np.inf, -np.inf, 0.5], 1)):
        with pytest.raises(IntensityOutOfRangeError) as err:
            PointCloud(np.zeros((4, 3)), intensity)
        assert err.value.index == index


def test_validate_nan_coordinate_names_index():
    good = make_cloud(4)
    coords = good.coords.copy()
    coords[0, 0] = np.nan
    with pytest.raises(NonFiniteCoordinateError) as err:
        PointCloud(coords, good.intensity)
    assert err.value.index == 0
    coords = np.zeros((6, 3))
    coords[4, 2] = -np.inf
    coords[2, 1] = np.nan
    with pytest.raises(NonFiniteCoordinateError) as err:  # checked before intensity
        PointCloud(coords, np.full(6, 2.0))
    assert err.value.index == 2


def test_cloud_needs_one_intensity_per_point():
    with pytest.raises(LengthMismatchError):
        PointCloud([[0, 0, 0]], [0.5, 0.5])


def test_labels_reject_ids_outside_the_classes():
    for labels, index in (([9], 0), ([0, -1], 1), ([7, 0, 8, -1], 2)):
        with pytest.raises(InvalidClassError) as err:
            LabelSet(labels)
        assert err.value.index == index
    np.testing.assert_array_equal(LabelSet(range(8)).labels, np.arange(8))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("labels, index", [
    ([2.7], 0), ([2**40], 0), ([np.nan], 0), ([2**70], 0), ([1, 2.5], 1), ([np.inf], 0),
    (np.array([1, 2**31 + 1], np.uint32), 1), (np.array([3, 2**32 + 2]), 1),
])
def test_labels_check_ids_before_the_int32_cast(labels, index):
    """2.7 is not truncated to 2, 2**32 + 2 not wrapped to 2; NaN is no bare ValueError."""
    with pytest.raises(InvalidClassError) as err:
        LabelSet(labels)
    assert err.value.index == index


def test_labels_take_whole_numbers_of_any_type():
    for labels in ([1.0, 7.0], np.array([1, 7], np.uint32), [True, 7], np.array([1, 7], np.int64)):
        stored = LabelSet(labels).labels
        assert stored.dtype == np.int32 and stored.tolist() == [1, 7]


@pytest.mark.parametrize("error, message", [
    (NonFiniteCoordinateError, "non-finite coordinate at index 3"),
    (IntensityOutOfRangeError, "intensity outside [0, 1] at index 3"),
    (OriginPointError, "zero-norm point at index 3"),
    (InvalidClassError, "invalid class id at index 3"),
    (InvalidMaskByteError, "mask byte other than 0 or 1 at index 3"),
])
def test_indexed_errors_share_one_base(error, message):
    err = error(np.int64(3))
    assert isinstance(err, IndexedError) and type(err.index) is int
    assert err.index == 3 and str(err) == message


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
    with pytest.raises(InvalidInputError):
        merge_clouds(make_cloud(2), LabelSet([0]), empty_cloud(), LabelSet([]))
    with pytest.raises(InvalidInputError):
        merge_clouds(empty_cloud(), LabelSet([]), make_cloud(1), LabelSet([0, 0]))


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


def test_confusion_counts_total():
    counts = ConfusionCounts(1, 2, 3, 4)
    assert counts.total == 10
    assert (counts + counts).total == 20
