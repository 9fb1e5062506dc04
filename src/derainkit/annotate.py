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

from .core import (
    BACKGROUND,
    RAIN,
    ROAD,
    SPRINKLER,
    LabelSet,
    PointCloud,
    check_seed,
    is_integer,
    store_fields,
)
from .errors import (
    EmptySourceError,
    InvalidInputError,
    NoValidHypothesisError,
    TooFewPointsError,
)
from .filters import squared_distance_blocks
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
        check_road_polygon(self.road_polygon)


@dataclass(frozen=True)
class RansacConfig:
    """iterations an integer >= 1, inlier_threshold (m) positive and finite, seed as
    ``check_seed`` requires."""

    iterations: int = 200
    inlier_threshold: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not (is_integer(self.iterations) and self.iterations >= 1):
            raise InvalidInputError("iterations must be an integer >= 1")
        if not 0 < self.inlier_threshold < math.inf:
            raise InvalidInputError("inlier_threshold must be positive and finite")
        check_seed(self.seed)


def _triplet_normal(p, q, r) -> np.ndarray:
    """The normal of three points given as coordinate lists, unnormalised: bit-identical to
    ``np.cross(q - p, r - p)``, which evaluates the same products and differences."""
    a0, a1, a2 = q[0] - p[0], q[1] - p[1], q[2] - p[2]
    b0, b1, b2 = r[0] - p[0], r[1] - p[1], r[2] - p[2]
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def ransac_plane(cloud: PointCloud, iterations: int, inlier_threshold: float,
                 seed: int = 0) -> PlaneModel:
    """Best-of-N three-point RANSAC plane fit with least-squares refit.

    Degenerate (collinear) samples are skipped but still count against the
    iteration budget. Deterministic for a fixed seed. Each hypothesis' normal
    comes from ``_triplet_normal``, bit-identical to ``np.cross``.
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
        normal = _triplet_normal(*coords[[i, j, k]].tolist())
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
    inside = (np.abs(box.to_box_frame(coords - box.center)) <= box.half_extents).T
    return inside[0] & inside[1] & inside[2]


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
    if not 0 <= plane_tolerance < math.inf:  # NaN fails it
        raise InvalidInputError("plane_tolerance must be non-negative and finite")
    plane = ransac_plane(cloud, ransac.iterations, ransac.inlier_threshold, ransac.seed)
    d = plane.signed_distance(cloud.coords)

    boxes = scene.sprinkler_boxes + scene.object_boxes
    in_road = points_in_polygon(cloud.coords[:, :2], scene.road_polygon)
    # np.select gives each point the label of the first rule it meets, which is the
    # precedence of the module docstring: one mask per rule, no relabelling pass.
    rules = [_in_box(cloud.coords, box) for box in boxes]
    rules += [(d > plane_tolerance) & in_road, (np.abs(d) <= plane_tolerance) & in_road]
    return LabelSet(np.select(rules, [box.class_id for box in boxes] + [RAIN, ROAD], BACKGROUND))


def _check_transfer(src_cloud: PointCloud, src_labels: LabelSet) -> None:
    if src_cloud.count == 0:
        raise EmptySourceError("source cloud is empty")
    src_labels.check_count(src_cloud.count, "source points")


def _argmin_nearest(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """First-occurrence argmin of squared distances, a block of ``squared_distance_blocks``
    at a time."""
    out = np.empty(dst.shape[0], dtype=np.intp)
    for start, squares in squared_distance_blocks(dst, src):
        out[start:start + len(squares)] = np.argmin(squares, axis=1)
    return out


def transfer_labels(src_cloud: PointCloud, src_labels: LabelSet,
                    dst_cloud: PointCloud) -> LabelSet:
    """Give each destination point the label of its nearest source point.

    One kd-tree query over the source; a destination point in the air, far
    off the scanned surfaces, costs several times one on them (see README).
    Exact distance ties resolve to the lowest source index: rows whose two
    nearest distances lie within rounding of each other are redone with the
    first-occurrence argmin of ``brute_force_transfer``, so the result equals
    that oracle bit for bit.
    """
    from scipy.spatial import cKDTree  # here, not at module level: it is slow to import
    _check_transfer(src_cloud, src_labels)
    src, dst = src_cloud.coords, dst_cloud.coords
    # Unbalanced sliding-midpoint splits and uncompacted boxes: points far off the source
    # (rain in the air over a scanned surface) prune well; the answers do not change.
    tree = cKDTree(src, compact_nodes=False, balanced_tree=False)
    dist, nearest = tree.query(dst, k=2)
    # A one-point source has d2 = inf, so every row is redone against it.
    tied = dist[:, 1] - dist[:, 0] <= 1e-9 * (1.0 + dist[:, 1])
    nearest = nearest[:, 0]
    nearest[tied] = _argmin_nearest(dst[tied], src)
    return LabelSet(src_labels.labels[nearest])


def brute_force_transfer(src_cloud: PointCloud, src_labels: LabelSet,
                         dst_cloud: PointCloud) -> LabelSet:
    """Exhaustive O(N * M) oracle for ``transfer_labels`` with the same contract."""
    _check_transfer(src_cloud, src_labels)
    return LabelSet(src_labels.labels[_argmin_nearest(dst_cloud.coords, src_cloud.coords)])
