import json

import numpy as np
import pytest

from derainkit import (
    AnnotationScene,
    LabelSet,
    PointCloud,
    RansacConfig,
    annotation_scene_from_spec,
    auto_annotate,
    brute_force_transfer,
    builtin_scene,
    fileio,
    ransac_plane,
    transfer_labels,
)
from derainkit.core import BACKGROUND, RAIN, ROAD
from derainkit.errors import (
    DegeneratePolygonError,
    EmptySourceError,
    InvalidInputError,
    InvalidSpecError,
    TooFewPointsError,
)
from derainkit.scene import OrientedBox, SceneSpec, points_in_polygon

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def plane_cloud(n, seed=0, sigma=0.0, extent=10.0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-extent, extent, (n, 2))
    z = rng.normal(0, sigma, n) if sigma > 0 else np.zeros(n)
    return PointCloud(np.column_stack([xy, z]), np.full(n, 0.5))


def test_ransac_exact_plane():
    plane = ransac_plane(plane_cloud(100), iterations=20, inlier_threshold=0.01)
    np.testing.assert_allclose(plane.normal, [0, 0, 1], atol=1e-9)
    assert abs(plane.offset) < 1e-9
    assert plane.inlier_count == 100


def test_ransac_too_few_points():
    with pytest.raises(TooFewPointsError):
        ransac_plane(plane_cloud(2), iterations=10, inlier_threshold=0.05)


def test_ransac_with_noise_and_outliers():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        inliers = plane_cloud(700, seed=seed, sigma=0.02).coords
        outliers = np.column_stack([
            rng.uniform(-10, 10, (300, 2)),
            rng.uniform(0.2, 5.0, 300),
        ])
        cloud = PointCloud(np.vstack([inliers, outliers]), np.full(1000, 0.5))
        plane = ransac_plane(cloud, iterations=200, inlier_threshold=0.05, seed=seed)
        angle = np.degrees(np.arccos(np.clip(plane.normal @ [0, 0, 1], -1, 1)))
        if angle <= 1.0 and abs(plane.offset) < 0.03:
            hits += 1
    assert hits >= 19


def test_ransac_more_iterations_never_worse():
    cloud = plane_cloud(300, seed=3, sigma=0.05)
    few = ransac_plane(cloud, iterations=5, inlier_threshold=0.03, seed=7)
    many = ransac_plane(cloud, iterations=50, inlier_threshold=0.03, seed=7)
    assert many.inlier_count >= few.inlier_count


def test_point_in_polygon_cases():
    inside = points_in_polygon([(0.5, 0.5), (2, 2), (0, 0), (0.5, 0)], SQUARE)
    np.testing.assert_array_equal(inside, [True, False, True, True])


def synthetic_annotation_case(seed=0):
    rng = np.random.default_rng(seed)
    road = plane_cloud(400, seed=seed).coords
    rain = np.column_stack([
        rng.uniform(-8, 8, (60, 2)),
        rng.uniform(0.5, 4.0, 60),
    ])
    box = OrientedBox((3.0, 3.0, 1.0), (0.8, 0.8, 1.0), 0.0, 3, 0.5)
    in_box = rng.uniform(-0.7, 0.7, (30, 3)) + box.center
    below = np.column_stack([rng.uniform(-8, 8, (20, 2)), np.full(20, -1.0)])
    coords = np.vstack([road, rain, in_box, below])
    cloud = PointCloud(coords, np.full(len(coords), 0.5))
    scene = AnnotationScene(
        sprinkler_boxes=(),
        object_boxes=(box,),
        road_polygon=[(-10, -10), (10, -10), (10, 10), (-10, 10)],
    )
    want = np.concatenate([
        np.full(400, ROAD),
        np.full(60, RAIN),
        np.full(30, 3),
        np.full(20, BACKGROUND),
    ])
    return cloud, scene, want


def test_auto_annotate_precedence():
    cloud, scene, want = synthetic_annotation_case()
    labels = auto_annotate(cloud, scene, RansacConfig(iterations=100, inlier_threshold=0.03))
    # rain points that fall inside the object box are claimed by the box,
    # which outranks rain; everything else must match exactly
    box = scene.object_boxes[0]
    local = np.abs(cloud.coords - box.center) <= box.half_extents
    claimed = local.all(axis=1)
    agree = labels.labels == want
    assert agree[~claimed].all()
    assert (labels.labels[claimed & (want == RAIN)] == 3).all()


def test_auto_annotate_plane_only_all_road():
    cloud = plane_cloud(200, seed=2)
    scene = AnnotationScene((), (), [(-15, -15), (15, -15), (15, 15), (-15, 15)])
    labels = auto_annotate(cloud, scene, RansacConfig(iterations=50, inlier_threshold=0.02))
    assert (labels.labels == ROAD).all()


def test_auto_annotate_no_rain_outside_polygon_or_below_plane():
    cloud, scene, _ = synthetic_annotation_case(seed=4)
    labels = auto_annotate(cloud, scene, RansacConfig(iterations=100, inlier_threshold=0.03))
    rain_pts = cloud.coords[labels.labels == RAIN]
    assert (rain_pts[:, 2] > 0).all()
    assert points_in_polygon(rain_pts[:, :2], scene.road_polygon).all()


def test_annotation_scene_from_spec_splits_and_inflates():
    spec = builtin_scene("rehearse-like")
    ann = annotation_scene_from_spec(spec, margin=0.1, sensor_height=2.0)
    assert len(ann.sprinkler_boxes) == 2
    assert len(ann.object_boxes) == len(spec.boxes) - 2
    src = next(b for b in spec.boxes if b.class_id == 3)
    dst = next(b for b in ann.object_boxes if b.class_id == 3)
    np.testing.assert_allclose(dst.half_extents, src.half_extents + 0.1)
    np.testing.assert_allclose(dst.center, src.center + [0, 0, -2.0])


def test_annotation_scene_from_spec_rejects_shrinking_boxes_away():
    """A margin that leaves a box no volume is an error, not a silently dropped object."""
    with pytest.raises(InvalidSpecError):
        annotation_scene_from_spec(builtin_scene("rehearse-like"), margin=-1.0)


def test_annotation_scene_needs_three_vertices():
    for polygon in ([], [(0, 0), (1, 0)], [(0, 0), (1, 0), (float("nan"), 1)]):
        with pytest.raises(DegeneratePolygonError):
            AnnotationScene((), (), polygon)


def test_annotation_scene_rejects_polygon_past_1e100():
    """Past 1e100 the edge tolerance overflows to inf and every point is on an edge."""
    with pytest.raises(DegeneratePolygonError):
        AnnotationScene((), (), np.array(SQUARE) * 1e200)
    diamond = AnnotationScene((), (), np.array([(1, 0), (0, 1), (-1, 0), (0, -1)]) * 1e100)
    np.testing.assert_array_equal(
        points_in_polygon([(5e100, 5e100), (2e99, 2e99)], diamond.road_polygon), [False, True])


def test_annotation_scene_rejects_a_bow_tie_as_scene_spec_does():
    """One rule for a road polygon: the constructor and the reader reject a bow-tie."""
    bow_tie = [(0, 0), (1, 1), (1, 0), (0, 1)]
    with pytest.raises(DegeneratePolygonError, match="self-intersecting"):
        AnnotationScene((), (), bow_tie)
    with pytest.raises(InvalidSpecError, match="self-intersecting"):
        SceneSpec((0.0, 0.0, 1.0), 0.0, (), bow_tie)
    boxes = {"sprinkler_boxes": [], "object_boxes": []}
    square = fileio.read_annotation_json(json.dumps({**boxes, "road_polygon": SQUARE}))
    np.testing.assert_array_equal(square.road_polygon, SQUARE)
    with pytest.raises(DegeneratePolygonError, match="self-intersecting"):
        fileio.read_annotation_json(json.dumps({**boxes, "road_polygon": bow_tie}))


@pytest.mark.parametrize("bad", [
    {"iterations": 0}, {"iterations": -3}, {"iterations": 2.5},
    {"inlier_threshold": 0.0}, {"inlier_threshold": -0.1},
    {"inlier_threshold": float("nan")}, {"inlier_threshold": float("inf")},
    {"iterations": -3, "inlier_threshold": float("nan")},
])
def test_ransac_config_rejects_bad_values(bad):
    with pytest.raises(InvalidInputError):
        RansacConfig(**bad)
    with pytest.raises(InvalidInputError):
        ransac_plane(plane_cloud(10), **{"iterations": 5, "inlier_threshold": 0.1, **bad})


def test_transfer_coincident_point():
    src = PointCloud([[0, 0, 0], [5, 0, 0]], [0.5, 0.5])
    out = transfer_labels(src, LabelSet([ROAD, RAIN]), PointCloud([[5, 0, 0]], [0.1]))
    assert out.labels[0] == RAIN


def test_transfer_tie_prefers_lowest_index():
    src = PointCloud([[0, 0, 0], [0, 0, 0], [2, 0, 0]], [0.5] * 3)
    # dst equidistant (coincident) to src 0 and 1
    out = transfer_labels(src, LabelSet([RAIN, ROAD, BACKGROUND]), PointCloud([[0, 0, 0]], [0.1]))
    assert out.labels[0] == RAIN


def test_transfer_matches_brute_force_oracle():
    rng = np.random.default_rng(6)
    src = PointCloud(rng.normal(size=(500, 3)), rng.uniform(0, 1, 500))
    labels = LabelSet(rng.integers(0, 8, 500))
    dst = PointCloud(rng.normal(size=(50, 3)), rng.uniform(0, 1, 50))
    got = transfer_labels(src, labels, dst)
    dist = np.linalg.norm(dst.coords[:, None] - src.coords[None], axis=2)
    np.testing.assert_array_equal(got.labels, labels.labels[np.argmin(dist, axis=1)])


def test_transfer_idempotent_on_self():
    rng = np.random.default_rng(7)
    src = PointCloud(rng.normal(size=(100, 3)), rng.uniform(0, 1, 100))
    labels = LabelSet(rng.integers(0, 8, 100))
    out = transfer_labels(src, labels, src)
    np.testing.assert_array_equal(out.labels, labels.labels)


def test_transfer_empty_source():
    from derainkit.core import empty_cloud
    with pytest.raises(EmptySourceError):
        transfer_labels(empty_cloud(), LabelSet([]), PointCloud([[0, 0, 0]], [0.1]))


def rounded_transfer_case(seed, decimals):
    """Rounded coordinates (many exact distance ties) and duplicated source points.

    The destination mixes fresh rounded points with copies of source points
    that occur more than once, so coincident nearest neighbours are common.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    coords = np.round(rng.uniform(-2, 2, (n, 3)), decimals)
    coords = np.vstack([coords, coords[rng.integers(0, n, n // 2)]])
    src = PointCloud(coords[rng.permutation(len(coords))], np.full(len(coords), 0.5))
    labels = LabelSet(rng.integers(0, 8, src.count))
    m = int(rng.integers(1, 200))
    fresh = np.round(rng.uniform(-2.5, 2.5, (m, 3)), decimals)
    dst_coords = np.vstack([fresh, src.coords[rng.integers(0, src.count, m)]])
    return src, labels, PointCloud(dst_coords, np.full(len(dst_coords), 0.5))


@pytest.mark.parametrize("decimals", [0, 1, 2])
def test_transfer_equals_brute_force_on_ties(decimals):
    for seed in range(70):
        src, labels, dst = rounded_transfer_case(seed, decimals)
        np.testing.assert_array_equal(transfer_labels(src, labels, dst).labels,
                                      brute_force_transfer(src, labels, dst).labels)


def test_transfer_single_source_point_and_empty_destination():
    src = PointCloud([[1.0, 2.0, 3.0]], [0.5])
    dst = PointCloud(np.random.default_rng(3).normal(size=(40, 3)), np.full(40, 0.5))
    out = transfer_labels(src, LabelSet([RAIN]), dst)
    assert (out.labels == RAIN).all()
    np.testing.assert_array_equal(out.labels, brute_force_transfer(src, LabelSet([RAIN]), dst).labels)
    from derainkit.core import empty_cloud
    empty = transfer_labels(src, LabelSet([RAIN]), empty_cloud())
    assert empty.count == 0
    assert brute_force_transfer(src, LabelSet([RAIN]), empty_cloud()).count == 0
