"""Procedural clean-weather scan synthesis.

Casts the calibrated beam pattern against a parametric scene (ground plane,
yaw-rotated boxes, road polygon) and emits a labeled polar grid map. This is
the ground-truth generator: box hits carry the box class, ground hits inside
the road polygon are road, other ground hits are background, sky beams are
unreturned. Rain labels never originate here. The scene types check their
values when built and keep read-only copies of their arrays, so every
``SceneSpec`` that constructs can be raycast; the builtin scenes are built
once, at import, and shared.

Scene geometry lives in a world frame whose z axis points up; the sensor sits
at (0, 0, sensor_height) and output coordinates are sensor-frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BACKGROUND,
    NUM_CLASSES,
    BIKE,
    CAR,
    PEDESTRIAN,
    ROAD,
    SPRINKLER,
    TARGETS,
    LabelSet,
    SensorCalibration,
    check_seed,
    is_integer,
    read_only,
    store_fields,
)
from .errors import DegeneratePolygonError, InvalidSpecError, UnknownSceneError
from .pgm import PolarGridMap, beam_directions


@dataclass(frozen=True)
class OrientedBox:
    """Axis-aligned box rotated by yaw about z: center (m), half extents (m)."""

    center: np.ndarray = field(metadata={"shape": (3,)})
    half_extents: np.ndarray = field(metadata={"shape": (3,)})
    yaw: float
    class_id: int
    reflectance: float

    def __post_init__(self):
        store_fields(self)
        half = self.half_extents.tolist()
        if not all(map(math.isfinite, [*self.center.tolist(), *half, self.yaw])):
            raise InvalidSpecError("box center, half extents and yaw must be finite")
        if not min(half) > 0:
            raise InvalidSpecError("box half extents must be positive")
        if not (is_integer(self.class_id) and 0 <= self.class_id < NUM_CLASSES):
            raise InvalidSpecError(f"box class_id must be an integer in [0, {NUM_CLASSES})")
        if not 0 <= self.reflectance <= 1:
            raise InvalidSpecError("box reflectance must be in [0, 1]")

    def to_box_frame(self, vectors: np.ndarray) -> np.ndarray:
        """(..., 3) vectors in the box's axes (rotated by -yaw about z).

        For points, subtract the center first.
        """
        c, s = np.cos(-self.yaw), np.sin(-self.yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return vectors @ rot.T


@dataclass(frozen=True)
class SceneSpec:
    """Parametric scene: upward ground plane, labeled boxes, simple road polygon."""

    ground_normal: np.ndarray = field(metadata={"shape": (3,)})
    ground_offset: float
    boxes: tuple = field(metadata={"item": OrientedBox})
    road_polygon: np.ndarray = field(metadata={"shape": (-1, 2)})
    ground_reflectance: float = 0.3

    def __post_init__(self):
        store_fields(self)
        normal = self.ground_normal
        if not all(map(math.isfinite, [*normal.tolist(), self.ground_offset])):
            raise InvalidSpecError("ground normal and offset must be finite")
        # A component past 1e100 is rejected before its square can overflow the norm.
        norm = np.linalg.norm(normal) if np.abs(normal).max() <= 1e100 else math.inf
        if not 1e-100 <= norm <= 1e100:  # outside, the squares under- or overflow
            raise InvalidSpecError("ground normal length must lie in [1e-100, 1e100]")
        # A normal of unit length within rounding is kept as it is, so normalizing a
        # normalized spec changes nothing and its JSON round trip is exact.
        if abs(norm - 1.0) > 1e-12:
            normal = read_only(normal / norm)
            object.__setattr__(self, "ground_normal", normal)
        if not normal[2] > 0:
            raise InvalidSpecError("ground normal must have positive z component")
        if not 0 <= self.ground_reflectance <= 1:
            raise InvalidSpecError("ground reflectance must be in [0, 1]")
        check_road_polygon(self.road_polygon)


def _segments_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def check_road_polygon(poly: np.ndarray) -> None:
    """Raise ``DegeneratePolygonError`` unless the (n, 2) polygon is simple, with n >= 3
    vertices in [-1e100, 1e100]."""
    # Beyond 1e100 the cross products of the polygon tests overflow.
    if not (np.abs(poly) <= 1e100).all():
        raise DegeneratePolygonError("road polygon vertices must lie in [-1e100, 1e100]")
    if poly.shape[0] < 3:
        raise DegeneratePolygonError("road polygon needs at least 3 vertices")
    if not _polygon_is_simple(poly):
        raise DegeneratePolygonError("road polygon is self-intersecting")


def _polygon_is_simple(poly: np.ndarray) -> bool:
    poly = poly.tolist()  # Python floats: the same double arithmetic as numpy scalars, faster
    n = len(poly)
    for i in range(n):
        a1, a2 = poly[i], poly[(i + 1) % n]
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_intersect(a1, a2, poly[j], poly[(j + 1) % n]):
                return False
    return True


_GROUND = dict(ground_normal=(0.0, 0.0, 1.0), ground_offset=0.0)

# Scenes are immutable, so each builtin is built once and shared.
_BUILTIN_SCENES = {
    "minimal": SceneSpec(
        **_GROUND,
        boxes=(),
        road_polygon=[(-20.0, -20.0), (20.0, -20.0), (20.0, 20.0), (-20.0, 20.0)],
    ),
    "corridor": SceneSpec(
        **_GROUND,
        boxes=(
            OrientedBox((12.0, -4.0, 1.0), (10.0, 0.3, 1.0), 0.0, TARGETS, 0.5),
            OrientedBox((12.0, 4.0, 1.0), (10.0, 0.3, 1.0), 0.0, TARGETS, 0.5),
        ),
        road_polygon=[(0.0, -4.0), (25.0, -4.0), (25.0, 4.0), (0.0, 4.0)],
    ),
    "rehearse-like": SceneSpec(
        **_GROUND,
        boxes=(
            OrientedBox((10.0, 2.0, 0.8), (2.2, 0.9, 0.8), 0.15, CAR, 0.55),
            OrientedBox((7.0, -2.5, 0.9), (0.3, 0.3, 0.9), 0.0, PEDESTRIAN, 0.4),
            OrientedBox((13.0, -1.0, 0.7), (0.9, 0.3, 0.7), -0.4, BIKE, 0.45),
            OrientedBox((5.0, 4.0, 1.2), (0.4, 0.4, 1.2), 0.0, SPRINKLER, 0.6),
            OrientedBox((16.0, 4.5, 1.2), (0.4, 0.4, 1.2), 0.0, SPRINKLER, 0.6),
            OrientedBox((18.0, -3.5, 0.6), (0.5, 0.5, 0.6), 0.3, TARGETS, 0.7),
            OrientedBox((21.0, 1.5, 0.6), (0.5, 0.5, 0.6), -0.2, TARGETS, 0.7),
        ),
        road_polygon=[(-2.0, -25.0), (30.0, -25.0), (30.0, 25.0), (-2.0, 25.0)],
    ),
}
BUILTIN_SCENE_NAMES = tuple(_BUILTIN_SCENES)


def builtin_scene(name: str) -> SceneSpec:
    """A shared fixed scene: "minimal", "corridor", or "rehearse-like"."""
    if name not in _BUILTIN_SCENES:
        raise UnknownSceneError(f"unknown scene {name!r}; choose from {BUILTIN_SCENE_NAMES}")
    return _BUILTIN_SCENES[name]


def _ray_box_hits(origin: np.ndarray, dirs: np.ndarray, box: OrientedBox) -> np.ndarray:
    """Entry distance of each ray into the box, +inf where missed. dirs is (M, 3).

    The slab bounds fold the three columns with ``np.maximum``/``np.minimum``,
    bit-identical to ``.max(axis=1)``/``.min(axis=1)`` and far cheaper on (M, 3).
    """
    o = box.to_box_frame(origin - box.center)
    d = box.to_box_frame(dirs)
    d = np.where(np.abs(d) < 1e-300, 1e-300, d)
    t1 = (-box.half_extents - o) / d
    t2 = (box.half_extents - o) / d
    near, far = np.minimum(t1, t2).T, np.maximum(t1, t2).T
    t_near = np.maximum(np.maximum(near[0], near[1]), near[2])
    t_far = np.minimum(np.minimum(far[0], far[1]), far[2])
    hit = (t_far >= t_near) & (t_far > 0)
    t = np.where(t_near > 0, t_near, t_far)
    return np.where(hit, t, np.inf)


def points_in_polygon(xy: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Even-odd (ray crossing) test; points on an edge count as inside."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    polygon = np.asarray(polygon, dtype=np.float64).reshape(-1, 2)
    x, y = xy[:, 0], xy[:, 1]
    inside = np.zeros(xy.shape[0], dtype=bool)
    on_edge = np.zeros(xy.shape[0], dtype=bool)
    n = polygon.shape[0]
    scale = max(1.0, np.abs(polygon).max())
    eps = 1e-12 * scale * scale
    for i in range(n):
        ax, ay = polygon[i]
        bx, by = polygon[(i + 1) % n]
        cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        dot = (x - ax) * (bx - ax) + (y - ay) * (by - ay)
        seg_len2 = (bx - ax) ** 2 + (by - ay) ** 2
        on_edge |= (np.abs(cross) <= eps) & (dot >= -eps) & (dot <= seg_len2 + eps)
        if by != ay:  # a horizontal edge is never crossed, so it is not divided by
            inside ^= ((ay > y) != (by > y)) & (x < (bx - ax) * (y - ay) / (by - ay) + ax)
    return inside | on_edge


def raycast_scene(
    spec: SceneSpec,
    calib: SensorCalibration,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> tuple[PolarGridMap, LabelSet]:
    """Cast every calibrated beam against the scene.

    Returns the resulting grid and per-cell labels over the flattened grid
    (length V*H). Range noise is zero-mean Gaussian along the ray, drawn from
    a counter-based generator so results are schedule-independent;
    noise_sigma must be non-negative and finite, seed as ``check_seed`` requires.
    """
    if not 0 <= noise_sigma < math.inf:  # NaN fails it
        raise InvalidSpecError("noise_sigma must be non-negative and finite")
    check_seed(seed)
    v, h = calib.v, calib.h
    origin = np.array([0.0, 0.0, calib.sensor_height])
    dirs = beam_directions(calib).reshape(-1, 3)
    m = dirs.shape[0]

    # Ground plane: normal . p + offset = 0 in world coordinates.
    denom = dirs @ spec.ground_normal
    denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
    t_ground = -(spec.ground_normal @ origin + spec.ground_offset) / denom
    t_ground = np.where(t_ground > 0, t_ground, np.inf)

    # first[b] is the surface beam b meets first: 0 the ground, i the box spec.boxes[i - 1].
    # The strict < keeps the earlier surface on a tie: the ground, then the lower box index.
    best_t = t_ground
    first = np.zeros(m, dtype=np.intp)
    for i, box in enumerate(spec.boxes, 1):
        t_box = _ray_box_hits(origin, dirs, box)
        closer = t_box < best_t
        best_t = np.where(closer, t_box, best_t)
        first[closer] = i
    surface_labels = np.array([BACKGROUND, *(box.class_id for box in spec.boxes)])
    surface_refl = np.array([spec.ground_reflectance, *(box.reflectance for box in spec.boxes)])

    returned = np.isfinite(best_t) & (best_t >= calib.r_min) & (best_t <= calib.r_max)

    # Ground hits become road only inside the road polygon.
    ground_hit = returned & (first == 0)
    labels = np.where(returned, surface_labels[first], BACKGROUND)
    hit_xy = origin[:2] + dirs[ground_hit, :2] * best_t[ground_hit, None]
    labels[ground_hit] = np.where(points_in_polygon(hit_xy, spec.road_polygon), ROAD, BACKGROUND)

    ranges = np.where(returned, best_t, calib.r_max)
    if noise_sigma > 0:
        rng = np.random.Generator(np.random.Philox(key=seed))
        noise = rng.normal(0.0, noise_sigma, m)
        ranges = np.where(returned, np.clip(ranges + noise, calib.r_min, calib.r_max), ranges)

    coords = dirs * ranges[:, None]
    intensity = np.where(returned, surface_refl[first], 0.0)
    grid = PolarGridMap(
        coords.reshape(v, h, 3),
        intensity.reshape(v, h),
        ranges.reshape(v, h),
        (~returned).reshape(v, h),
    )
    return grid, LabelSet(labels)
