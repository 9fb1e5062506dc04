import numpy as np
import pytest

from derainkit import SensorCalibration, builtin_scene, raycast_scene
from derainkit.core import RAIN
from derainkit.errors import InvalidSpecError, UnknownSceneError
from derainkit.scene import (
    BUILTIN_SCENE_NAMES,
    OrientedBox,
    SceneSpec,
    _ray_box_hits,
    points_in_polygon,
)


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


def test_builtin_scenes_are_shared_immutable_values():
    assert BUILTIN_SCENE_NAMES == ("minimal", "corridor", "rehearse-like")
    for name in BUILTIN_SCENE_NAMES:
        spec = builtin_scene(name)
        assert builtin_scene(name) is spec
        arrays = [spec.ground_normal, spec.road_polygon]
        arrays += [a for box in spec.boxes for a in (box.center, box.half_extents)]
        assert not any(a.flags.writeable for a in arrays)


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


def test_tie_keeps_the_earlier_box():
    # Two boxes of the same geometry: every beam meets both at the same range.
    boxes = [OrientedBox((10.0, 0.0, 1.0), (0.5, 4.0, 1.0), 0.0, class_id, refl)
             for class_id, refl in ((3, 0.5), (4, 0.9))]
    calib = single_beam_calib(-np.arcsin(2.0 / 40.0))
    for first, second in (boxes, boxes[::-1]):
        spec = SceneSpec((0, 0, 1), 0.0, (first, second),
                         [(-20, -20), (20, -20), (20, 20), (-20, 20)])
        grid, labels = raycast_scene(spec, calib)
        assert labels.labels[0] == first.class_id
        assert grid.intensity[0, 0] == first.reflectance


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
    """A scene that constructs can be simulated: the constructor rejects a downward
    normal, a self-intersecting (bowtie) polygon and one of fewer than 3 vertices."""
    for normal, polygon in (((0, 0, -1), [(0, 0), (1, 0), (1, 1)]),
                            ((0, 1, 0), [(0, 0), (1, 0), (1, 1)]),
                            ((0, 0, 1), [(0, 0), (1, 1), (1, 0), (0, 1)]),
                            ((0, 0, 1), []), ((0, 0, 1), [(0, 0), (1, 0)])):
        with pytest.raises(InvalidSpecError):
            SceneSpec(normal, 0.0, (), polygon)


BOX = dict(center=(5.0, 0.0, 1.0), half_extents=(1.0, 1.0, 1.0), yaw=0.2, class_id=3,
           reflectance=0.5)
SPEC = dict(ground_normal=(0, 0, 1), ground_offset=0.0, boxes=(),
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
@pytest.mark.filterwarnings("error")
def test_scene_spec_rejects_bad_values(field, bad):
    with pytest.raises(InvalidSpecError):
        SceneSpec(**{**SPEC, field: bad})


def test_normalized_ground_normal_is_read_only():
    normal = np.array([0.0, 0.0, 2.0])
    spec = SceneSpec(**{**SPEC, "ground_normal": normal})
    normal[2] = -1.0
    assert spec.ground_normal.tolist() == [0.0, 0.0, 1.0]
    assert not spec.ground_normal.flags.writeable


def test_scene_spec_rejects_polygon_past_1e100():
    """Past 1e100 the self-intersection test's cross products overflow: a convex
    quadrilateral would be called self-intersecting."""
    quad = np.array([(0, 0), (3, 1), (2, 4), (-1, 2)], dtype=float)
    with pytest.raises(InvalidSpecError):
        SceneSpec(**{**SPEC, "road_polygon": quad * 1e200})
    SceneSpec(**{**SPEC, "road_polygon": quad * 1e99})


def test_box_frame_is_the_yaw_rotation():
    """to_box_frame rotates by -yaw about z: the box's +x axis maps to (1, 0, 0)."""
    box = OrientedBox(**BOX)
    axis = np.array([np.cos(box.yaw), np.sin(box.yaw), 0.5])
    np.testing.assert_allclose(box.to_box_frame(axis), [1.0, 0.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(box.to_box_frame(np.stack([axis, -axis])),
                               [[1.0, 0.0, 0.5], [-1.0, 0.0, -0.5]], atol=1e-15)


@pytest.mark.filterwarnings("error")
def test_points_in_polygon_rules():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert points_in_polygon([[0.5, 0.5]], square)[0]
    assert not points_in_polygon([[2, 2]], square)[0]
    assert points_in_polygon([[0, 0]], square)[0]  # vertex counts as inside
    # A horizontal edge is never crossed, so its zero height is never divided by.
    huge = np.array(square, dtype=float) * 1e100
    np.testing.assert_array_equal(
        points_in_polygon([[5e99, 5e99], [2e100, 5e99], [5e99, 0.0]], huge), [True, False, True])



def ray_box_hits_by_row_reductions(origin, dirs, box):
    """The slab test as first written, reducing each (M, 3) array along its rows."""
    o = box.to_box_frame(origin - box.center)
    d = box.to_box_frame(dirs)
    d = np.where(np.abs(d) < 1e-300, 1e-300, d)
    t1 = (-box.half_extents - o) / d
    t2 = (box.half_extents - o) / d
    t_near = np.minimum(t1, t2).max(axis=1)
    t_far = np.maximum(t1, t2).min(axis=1)
    hit = (t_far >= t_near) & (t_far > 0)
    t = np.where(t_near > 0, t_near, t_far)
    return np.where(hit, t, np.inf)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_slab_columns_match_row_reductions_on_random_rays():
    rng = np.random.default_rng(20)
    hits = []
    for yaw in (0.0, 0.3, -2.5):
        box = OrientedBox((4.0, -1.0, 0.5), (1.0, 0.5, 2.0), yaw, 3, 0.5)
        for origin in (np.zeros(3), np.array([4.0, -1.0, 0.5]), rng.normal(0, 6, 3)):
            dirs = rng.normal(size=(5000, 3))
            dirs[::7, rng.integers(0, 3)] = 0.0  # a zero component in every 7th ray
            hits.append(_ray_box_hits(origin, dirs, box))
            assert_same_bits(hits[-1], ray_box_hits_by_row_reductions(origin, dirs, box))
    hits = np.concatenate(hits)
    assert np.isfinite(hits).sum() > 5000 and np.isinf(hits).sum() > 5000


def test_slab_columns_match_row_reductions_through_faces_edges_and_corners():
    """Rays aimed at every face centre, edge midpoint and corner of an axis-aligned
    box, rays grazing its faces with zero direction components of either sign, and a
    NaN ray, which misses in both."""
    box = OrientedBox((0.0, 0.0, 0.0), (1.0, 2.0, 0.5), 0.0, 3, 0.5)
    targets = np.array([(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)])
    targets = targets * box.half_extents.tolist()
    rows = []
    for origin in ((-5.0, 0.0, 0.0), (0.0, 7.0, 3.0), (-3.0, -4.0, -2.0), (0.0, 0.0, 0.0)):
        origin = np.array(origin)
        dirs = np.vstack([targets - origin, origin - targets,
                          [(1.0, 0.0, 0.0), (-0.0, 1.0, 0.0), (0.0, -0.0, -1.0),
                           (1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (np.nan, 1.0, 0.0)]])
        rows.append(_ray_box_hits(origin, dirs, box))
        assert_same_bits(rows[-1], ray_box_hits_by_row_reductions(origin, dirs, box))
    for origin in ((-5.0, 2.0, 0.0), (-5.0, -2.0, 0.5), (0.0, -9.0, -0.5)):  # on a slab plane
        origin = np.array(origin)
        dirs = np.array([(1.0, 0.0, 0.0), (1.0, -0.0, 0.0), (0.0, 1.0, -0.0), (1.0, 0.0, 1e-310)])
        rows.append(_ray_box_hits(origin, dirs, box))
        assert_same_bits(rows[-1], ray_box_hits_by_row_reductions(origin, dirs, box))
    hits = np.concatenate(rows)
    assert np.isfinite(hits).sum() > 50 and np.isinf(hits).sum() > 10
