import numpy as np
import pytest

from derainkit import SensorCalibration, builtin_scene, raycast_scene
from derainkit.core import RAIN
from derainkit.errors import InvalidSpecError, UnknownSceneError
from derainkit.scene import OrientedBox, SceneSpec, points_in_polygon


def single_beam_calib(elevation, azimuth=0.0, r_max=60.0, sensor_height=2.0):
    return SensorCalibration(
        elevations=[elevation], azimuths=[azimuth], r_max=r_max,
        sensor_height=sensor_height,
    )


def test_builtin_minimal():
    spec = builtin_scene("minimal")
    assert len(spec.boxes) == 0
    assert spec.road_polygon.shape[0] == 4


def test_builtin_rehearse_like_covers_classes():
    spec = builtin_scene("rehearse-like")
    classes = {box.class_id for box in spec.boxes}
    assert classes == {3, 4, 5, 6, 7}
    assert len(spec.boxes) >= 5


def test_unknown_scene():
    with pytest.raises(UnknownSceneError):
        builtin_scene("nope")


def test_ground_hit_closed_form():
    # 2 m above the plane, 30 degrees down: range = 2 / sin(30) = 4
    grid, labels = raycast_scene(builtin_scene("minimal"), single_beam_calib(-np.pi / 6))
    assert not grid.unreturned[0, 0]
    assert grid.ranges[0, 0] == pytest.approx(4.0, rel=1e-12)
    assert labels.labels[0] == 1  # road


def test_upward_beam_is_unreturned():
    grid, labels = raycast_scene(builtin_scene("minimal"), single_beam_calib(np.deg2rad(10)))
    assert grid.unreturned[0, 0]
    assert grid.ranges[0, 0] == 60.0
    assert labels.labels[0] == 0


def test_box_occludes_ground():
    box = OrientedBox((10.0, 0.0, 1.0), (0.5, 4.0, 1.0), 0.0, 3, 0.5)
    spec = SceneSpec((0, 0, 1), 0.0, (box,),
                     [(-20, -20), (20, -20), (20, 20), (-20, 20)])
    # Slightly downward beam: ground at ~40 m, box face at x = 9.5
    calib = single_beam_calib(-np.arcsin(2.0 / 40.0))
    grid, labels = raycast_scene(spec, calib)
    expected = 9.5 / np.cos(np.arcsin(2.0 / 40.0))
    assert labels.labels[0] == 3
    assert grid.ranges[0, 0] == pytest.approx(expected, rel=1e-9)


def test_zero_noise_is_seed_independent():
    calib = SensorCalibration(np.linspace(-0.4, 0.0, 8), np.linspace(-0.5, 0.5, 16),
                              r_max=30.0, sensor_height=2.0)
    spec = builtin_scene("rehearse-like")
    g1, l1 = raycast_scene(spec, calib, 0.0, seed=1)
    g2, l2 = raycast_scene(spec, calib, 0.0, seed=99)
    np.testing.assert_array_equal(g1.ranges, g2.ranges)
    np.testing.assert_array_equal(l1.labels, l2.labels)


def test_noise_tail_bound():
    calib = SensorCalibration(np.linspace(-0.4, -0.05, 16), np.linspace(-0.6, 0.6, 32),
                              r_max=40.0, sensor_height=2.0)
    spec = builtin_scene("rehearse-like")
    clean, _ = raycast_scene(spec, calib, 0.0)
    sigma = 0.02
    deviations = []
    for seed in range(10):
        noisy, _ = raycast_scene(spec, calib, sigma, seed=seed)
        returned = ~clean.unreturned
        deviations.append(np.abs(noisy.ranges[returned] - clean.ranges[returned]))
    deviations = np.concatenate(deviations)
    assert (deviations <= 4 * sigma).mean() >= 0.9999


def test_never_emits_rain_and_full_length():
    calib = SensorCalibration(np.linspace(-0.4, 0.1, 8), np.linspace(-0.6, 0.6, 16),
                              r_max=30.0, sensor_height=2.0)
    grid, labels = raycast_scene(builtin_scene("corridor"), calib, 0.01, seed=5)
    assert labels.count == 8 * 16
    assert not (labels.labels == RAIN).any()


def test_invalid_spec_rejected():
    with pytest.raises(InvalidSpecError):
        raycast_scene(SceneSpec((0, 0, -1), 0.0, (), [(0, 0), (1, 0), (1, 1)]),
                      single_beam_calib(-0.3))
    bowtie = SceneSpec((0, 0, 1), 0.0, (), [(0, 0), (1, 1), (1, 0), (0, 1)])
    with pytest.raises(InvalidSpecError):
        raycast_scene(bowtie, single_beam_calib(-0.3))


BOX = dict(center=(5.0, 0.0, 1.0), half_extents=(1.0, 1.0, 1.0), yaw=0.2, class_id=3,
           reflectance=0.5)
SPEC = dict(ground_normal=(0, 0, 1), ground_offset=0.0,
            road_polygon=[(0, 0), (1, 0), (1, 1)], ground_reflectance=0.3)
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, bad", [
    ("center", (NAN, 0.0, 1.0)), ("center", (0.0, INF, 1.0)), ("half_extents", (1.0, INF, 1.0)),
    ("half_extents", (NAN, 1.0, 1.0)), ("yaw", NAN), ("yaw", INF),
    ("reflectance", NAN), ("reflectance", 5.0), ("reflectance", -0.1),
    ("half_extents", (1.0, 0.0, 1.0)), ("half_extents", (1.0, 1.0, -0.5)),
    ("class_id", 8), ("class_id", 99), ("class_id", -1), ("class_id", 2.5),
])
def test_box_rejects_bad_values(field, bad):
    with pytest.raises(InvalidSpecError):
        OrientedBox(**{**BOX, field: bad})


@pytest.mark.parametrize("field, bad", [
    ("ground_offset", NAN), ("ground_offset", INF), ("ground_normal", (0.0, NAN, 1.0)),
    ("ground_normal", (0.0, 0.0, INF)), ("ground_normal", (0.0, 0.0, 0.0)),
    ("ground_normal", (0.0, 0.0, 1e-120)), ("ground_normal", (0.0, 1e200, 1e200)),
    ("ground_reflectance", 7.0),
    ("ground_reflectance", NAN), ("ground_reflectance", -1.0),
    ("road_polygon", [(0, 0), (1, 0), (1, NAN)]), ("road_polygon", [(0, 0), (INF, 0), (1, 1)]),
])
def test_scene_spec_rejects_bad_values(field, bad):
    with pytest.raises(InvalidSpecError):
        SceneSpec(**{**SPEC, field: bad})


def test_box_frame_is_the_yaw_rotation():
    """to_box_frame rotates by -yaw about z: the box's +x axis maps to (1, 0, 0)."""
    box = OrientedBox(**BOX)
    axis = np.array([np.cos(box.yaw), np.sin(box.yaw), 0.5])
    np.testing.assert_allclose(box.to_box_frame(axis), [1.0, 0.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(box.to_box_frame(np.stack([axis, -axis])),
                               [[1.0, 0.0, 0.5], [-1.0, 0.0, -0.5]], atol=1e-15)


def test_points_in_polygon_rules():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert points_in_polygon([[0.5, 0.5]], square)[0]
    assert not points_in_polygon([[2, 2]], square)[0]
    assert points_in_polygon([[0, 0]], square)[0]  # vertex counts as inside
