"""Automatic annotation: RANSAC road plane, box labels, elimination rain labeling,
and nearest-neighbor label transfer to sparse clouds.

Labeling precedence is total and fixed: sprinkler boxes, then object boxes,
then rain (above plane, inside road polygon), then road (within plane
tolerance, inside polygon), then background. Points below the plane beyond
tolerance keep their slot as background so cloud and label lengths stay
aligned. ``AnnotationScene`` holds its road polygon to ``SceneSpec``'s rule
(``check_road_polygon``), and both keep read-only copies of their arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import BACKGROUND, RAIN, ROAD, SPRINKLER, LabelSet, PointCloud, store_fields
from .errors import (
    DegeneratePolygonError,
    EmptySourceError,
    InvalidInputError,
    NoValidHypothesisError,
    TooFewPointsError,
)
from .scene import OrientedBox, SceneSpec, check_road_polygon, points_in_polygon


@dataclass(frozen=True)
class PlaneModel:
    """Plane {p : normal . p + offset = 0} with unit normal, normal.z >= 0."""

    normal: np.ndarray = field(metadata={"shape": (3,)})
    offset: float
    inlier_count: int

    def __post_init__(self):
        store_fields(self)

    def signed_distance(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(coords).reshape(-1, 3) @ self.normal + self.offset


@dataclass(frozen=True)
class AnnotationScene:
    """Hand-drawn annotation geometry: labeled boxes plus the 2D road polygon."""

    sprinkler_boxes: tuple = field(metadata={"item": OrientedBox})
    object_boxes: tuple = field(metadata={"item": OrientedBox})
    road_polygon: np.ndarray = field(metadata={"shape": (-1, 2)})

    def __post_init__(self):
        store_fields(self)
        check_road_polygon(self.road_polygon, DegeneratePolygonError)


@dataclass(frozen=True)
class RansacConfig:
    """iterations an integer >= 1, inlier_threshold (m) positive and finite."""

    iterations: int = 200
    inlier_threshold: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.iterations, (int, np.integer)) and self.iterations >= 1):
            raise InvalidInputError("iterations must be an integer >= 1")
        if not 0 < self.inlier_threshold < math.inf:
            raise InvalidInputError("inlier_threshold must be positive and finite")


def ransac_plane(cloud: PointCloud, iterations: int, inlier_threshold: float,
                 seed: int = 0) -> PlaneModel:
    """Best-of-N three-point RANSAC plane fit with least-squares refit.

    Degenerate (collinear) samples are skipped but still count against the
    iteration budget. Deterministic for a fixed seed.
    """
    RansacConfig(iterations, inlier_threshold, seed)  # checks the three values
    if cloud.count < 3:
        raise TooFewPointsError(f"plane fit needs >= 3 points, have {cloud.count}")

    coords = cloud.coords
    rng = np.random.default_rng(seed)
    best_count = -1
    best_mask = None
    for _ in range(iterations):
        i, j, k = rng.choice(cloud.count, size=3, replace=False)
        normal = np.cross(coords[j] - coords[i], coords[k] - coords[i])
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal = normal / norm
        offset = -normal @ coords[i]
        dist = np.abs(coords @ normal + offset)
        mask = dist <= inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
    if best_mask is None:
        raise NoValidHypothesisError("all sampled triplets were degenerate")

    inliers = coords[best_mask]
    centroid = inliers.mean(axis=0)
    _, _, vt = np.linalg.svd(inliers - centroid, full_matrices=False)
    normal = vt[-1]
    if normal[2] < 0:
        normal = -normal
    return PlaneModel(normal, float(-normal @ centroid), best_count)


def _in_box(coords: np.ndarray, box: OrientedBox) -> np.ndarray:
    local = box.to_box_frame(coords - box.center)
    return (np.abs(local) <= box.half_extents).all(axis=1)


def annotation_scene_from_spec(spec: SceneSpec, margin: float = 0.0,
                               sensor_height: float = 0.0) -> AnnotationScene:
    """Derive annotation geometry from a synthesis scene.

    Boxes are shifted into the sensor frame (scene synthesis emits
    sensor-frame clouds) and optionally inflated by a margin to absorb range
    noise on object surfaces.
    """
    shift = np.array([0.0, 0.0, -sensor_height])
    sprinklers = []
    objects = []
    for box in spec.boxes:
        grown = OrientedBox(box.center + shift, box.half_extents + margin, box.yaw,
                            box.class_id, box.reflectance)
        (sprinklers if box.class_id == SPRINKLER else objects).append(grown)
    return AnnotationScene(tuple(sprinklers), tuple(objects), spec.road_polygon)


def auto_annotate(
    cloud: PointCloud,
    scene: AnnotationScene,
    ransac: RansacConfig = RansacConfig(),
    plane_tolerance: float = 0.1,
) -> LabelSet:
    """Label a cloud by elimination against the fitted road plane and scene boxes."""
    plane = ransac_plane(cloud, ransac.iterations, ransac.inlier_threshold, ransac.seed)
    d = plane.signed_distance(cloud.coords)

    labels = np.full(cloud.count, -1, dtype=np.int32)
    for box in scene.sprinkler_boxes + scene.object_boxes:
        unlabeled = labels < 0
        inside = _in_box(cloud.coords, box)
        labels[unlabeled & inside] = box.class_id

    in_road = points_in_polygon(cloud.coords[:, :2], scene.road_polygon)
    unlabeled = labels < 0
    labels[unlabeled & (d > plane_tolerance) & in_road] = RAIN
    unlabeled = labels < 0
    labels[unlabeled & (np.abs(d) <= plane_tolerance) & in_road] = ROAD
    labels[labels < 0] = BACKGROUND
    return LabelSet(labels)


def _check_transfer(src_cloud: PointCloud, src_labels: LabelSet, dst_cloud: PointCloud) -> None:
    if src_cloud.count == 0:
        raise EmptySourceError("source cloud is empty")
    if src_labels.count != src_cloud.count:
        raise EmptySourceError(
            f"source labels ({src_labels.count}) do not match cloud ({src_cloud.count})"
        )


def _argmin_nearest(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """First-occurrence argmin of squared distances, in blocks of ~2M pairs."""
    out = np.empty(dst.shape[0], dtype=np.intp)
    chunk = max(1, 2_000_000 // max(1, src.shape[0]))
    for start in range(0, dst.shape[0], chunk):
        diff = dst[start:start + chunk, None, :] - src[None, :, :]
        out[start:start + chunk] = np.argmin((diff ** 2).sum(axis=2), axis=1)
    return out


def transfer_labels(src_cloud: PointCloud, src_labels: LabelSet,
                    dst_cloud: PointCloud) -> LabelSet:
    """Give each destination point the label of its nearest source point.

    One kd-tree query over the source, O((N + M) log N) for N source and M
    destination points. Exact distance ties resolve to the lowest source
    index: rows whose two nearest distances lie within rounding of each other
    are redone with the first-occurrence argmin of ``brute_force_transfer``,
    so the result equals that oracle bit for bit.
    """
    from scipy.spatial import cKDTree  # here, not at module level: it is slow to import
    _check_transfer(src_cloud, src_labels, dst_cloud)
    src, dst = src_cloud.coords, dst_cloud.coords
    dist, nearest = cKDTree(src).query(dst, k=2)
    # A one-point source has d2 = inf, so every row is redone against it.
    tied = dist[:, 1] - dist[:, 0] <= 1e-9 * (1.0 + dist[:, 1])
    nearest = nearest[:, 0]
    nearest[tied] = _argmin_nearest(dst[tied], src)
    return LabelSet(src_labels.labels[nearest])


def brute_force_transfer(src_cloud: PointCloud, src_labels: LabelSet,
                         dst_cloud: PointCloud) -> LabelSet:
    """Exhaustive O(N * M) oracle for ``transfer_labels`` with the same contract."""
    _check_transfer(src_cloud, src_labels, dst_cloud)
    return LabelSet(src_labels.labels[_argmin_nearest(dst_cloud.coords, src_cloud.coords)])
