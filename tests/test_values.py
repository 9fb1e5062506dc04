"""Every checked value type stores read-only copies of its arrays, so what constructs
stays valid, and whatever a writer writes reads back."""
import dataclasses

import numpy as np
import pytest

from derainkit import CAR, LabelSet, PointCloud, SensorCalibration, fileio
from derainkit.annotate import AnnotationScene, PlaneModel
from derainkit.errors import DerainKitError
from derainkit.scene import OrientedBox, SceneSpec

SQUARE = np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)])


def _scene_with_box(box):
    return SceneSpec((0.0, 0.0, 1.0), 0.0, (box,), SQUARE)


# name: (constructor from the caller's array, that array, the field holding it,
#        a write into it that the constructor rejects, writer and reader or None)
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


@pytest.mark.parametrize("cls", [PointCloud, LabelSet, SensorCalibration, OrientedBox,
                                 SceneSpec, AnnotationScene, PlaneModel])
def test_checked_array_fields_declare_their_shape(cls):
    arrays = [f for f in dataclasses.fields(cls) if f.type in ("np.ndarray", np.ndarray)]
    assert arrays and all("shape" in f.metadata for f in arrays)
