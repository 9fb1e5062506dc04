"""Every checked value type stores read-only copies of its arrays, so what constructs
stays valid, and whatever a writer writes reads back."""
import dataclasses

import numpy as np
import pytest

from derainkit import (CAR, LabelSet, PointCloud, PolarGridMap, RainConfig, SensorCalibration,
                       fileio, grid_calibration, inject_rain)
from derainkit.annotate import AnnotationScene, PlaneModel
from derainkit.core import HandedOver
from derainkit.errors import DerainKitError, FieldError
from derainkit.scene import OrientedBox, SceneSpec, builtin_scene, raycast_scene

SQUARE = np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)])


def _scene_with_box(box):
    return SceneSpec((0.0, 0.0, 1.0), 0.0, (box,), SQUARE)


# name: (constructor from the caller's array, that array, the field holding it,
#        a write into it, one the constructor rejects where a codec is given,
#        writer and reader or None)
CHECKED = {
    "PointCloud": (lambda a: PointCloud(a, np.full(2, 0.5)), np.zeros((2, 3)), "coords",
                   ((0, 0), np.nan), (fileio.write_cloud, fileio.read_cloud)),
    "LabelSet": (LabelSet, np.array([1, 2], np.int32), "labels", (0, 9),
                 (fileio.write_labels, fileio.read_labels)),
    "SensorCalibration": (lambda a: SensorCalibration(a, [0.0, 0.5], 10.0),
                          np.array([-0.1, 0.1]), "elevations", (1, 5.0),
                          (fileio.write_calibration_json, fileio.read_calibration_json)),
    "OrientedBox": (lambda a: OrientedBox(a, (1.0, 1.0, 1.0), 0.0, CAR, 0.5),
                    np.array([5.0, 0.0, 1.0]), "center", (0, np.nan),
                    (lambda box: fileio.write_scene_json(_scene_with_box(box)),
                     lambda text: fileio.read_scene_json(text).boxes[0])),
    # Moving vertex 2 across the square's left edge makes a bow-tie.
    "SceneSpec": (lambda a: SceneSpec((0.0, 0.0, 1.0), 0.0, (), a), SQUARE, "road_polygon",
                  (2, (-4.0, 4.0)), (fileio.write_scene_json, fileio.read_scene_json)),
    "AnnotationScene": (lambda a: AnnotationScene((), (), a), SQUARE, "road_polygon",
                        (2, np.nan),
                        (fileio.write_annotation_json, fileio.read_annotation_json)),
    "PlaneModel": (lambda a: PlaneModel(a, -1.0, 10), np.array([0.0, 0.0, 1.0]), "normal",
                   (0, 5.0), None),
    "PolarGridMap": (lambda a: PolarGridMap(np.zeros((1, 2, 3)), np.zeros((1, 2)), a,
                                            np.zeros((1, 2), bool)),
                     np.ones((1, 2)), "ranges", ((0, 1), 5.0), None),
}


@pytest.mark.parametrize("name", CHECKED)
def test_checked_values_keep_read_only_copies(name):
    build, given, field, (index, bad), codec = CHECKED[name]
    given = given.copy()
    value = build(given)
    stored = getattr(value, field)
    before = stored.copy()
    given[index] = bad
    np.testing.assert_array_equal(getattr(value, field), before)
    with pytest.raises(ValueError, match="read-only"):
        stored[index] = bad
    if codec is not None:
        with pytest.raises(DerainKitError):
            build(given)  # the write above is one the constructor rejects
        write, read = codec
        np.testing.assert_array_equal(getattr(read(write(value)), field), before)


def test_grids_copy_the_callers_arrays_and_keep_the_packages_own():
    """A ``PolarGridMap`` built from the caller's arrays copies each one, so a later write
    into them changes nothing; arrays the package hands over (``core.HandedOver``) are
    kept, not copied, and made read-only, as raycast_scene's and inject_rain's are."""
    def arrays():
        return [np.ones((2, 3, 3)), np.full((2, 3), 0.5), np.ones((2, 3)), np.zeros((2, 3), bool)]

    fields = ("coords", "intensity", "ranges", "unreturned")
    given, before = arrays(), arrays()
    grid = PolarGridMap(*given)
    for array, expected, name in zip(given, before, fields):
        stored = getattr(grid, name)
        assert not np.shares_memory(array, stored) and array.flags.writeable
        array[0, 0] = 0
        np.testing.assert_array_equal(stored, expected)
    handed = arrays()
    grid = PolarGridMap(*map(HandedOver, handed))
    for array, name in zip(handed, fields):
        assert np.shares_memory(array, getattr(grid, name)) and not array.flags.writeable
    calib = grid_calibration(3, 5, r_max=10.0)
    clean, labels = raycast_scene(builtin_scene("rehearse-like"), calib, 0.01, seed=1)
    rainy, rainy_labels = inject_rain(clean, labels, calib, RainConfig(rate=50.0, seed=1))
    for value in (clean, rainy):
        for name in fields:
            with pytest.raises(ValueError, match="read-only"):
                getattr(value, name)[0, 0] = 0
    for value in (labels, rainy_labels):
        with pytest.raises(ValueError, match="read-only"):
            value.labels[0] = 0


@pytest.mark.parametrize("cls", [PointCloud, LabelSet, SensorCalibration, OrientedBox,
                                 SceneSpec, AnnotationScene, PlaneModel, PolarGridMap])
def test_checked_array_fields_declare_their_shape(cls):
    arrays = [f for f in dataclasses.fields(cls) if f.type in ("np.ndarray", np.ndarray)]
    assert arrays and all("shape" in f.metadata for f in arrays)


@pytest.mark.parametrize("build, field, cause", [
    (lambda: PointCloud(np.zeros(4), np.zeros(1)), "coords", ValueError),
    (lambda: PointCloud([[0.0, 0.0, 0.0], [1.0]], [0.5, 0.5]), "coords", ValueError),
    (lambda: PointCloud(np.zeros((1, 3)), ["bright"]), "intensity", ValueError),
    (lambda: OrientedBox((1, 2), (1, 1, 1), 0.0, CAR, 0.5), "center", ValueError),
    (lambda: LabelSet(["1"]), "labels", TypeError),
    (lambda: LabelSet([None]), "labels", TypeError),
], ids=["cloud-size", "cloud-ragged", "intensity-text", "box-center", "label-text",
        "label-none"])
def test_arrays_that_cannot_take_their_field_raise_field_error(build, field, cause):
    """numpy's own reshape, compare or cast error comes out as a DerainKitError that
    names the field, with numpy's error as its cause."""
    with pytest.raises(FieldError) as err:
        build()
    assert isinstance(err.value, DerainKitError) and err.value.field == field
    assert str(err.value).startswith(f"field {field}: ")
    assert isinstance(err.value.__cause__, cause)
    assert not isinstance(err.value.__cause__, DerainKitError)
