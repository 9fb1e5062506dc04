"""Shared domain types: point clouds, sensor calibration, labels, confusion counts.

All types are plain immutable values built on numpy arrays, each checked once,
by its constructor; a bad point or label raises a typed error naming its index.
Operations here are pure; nothing mutates its inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    IntensityOutOfRangeError,
    InvalidClassError,
    InvalidInputError,
    LengthMismatchError,
    NonFiniteCoordinateError,
)

# Semantic class ids. Stable numbering with background = 0; the rain class
# drives the binary de-raining task.
BACKGROUND = 0
ROAD = 1
RAIN = 2
CAR = 3
PEDESTRIAN = 4
BIKE = 5
SPRINKLER = 6
TARGETS = 7

NUM_CLASSES = 8

CLASS_NAMES = {
    BACKGROUND: "background",
    ROAD: "road",
    RAIN: "rain",
    CAR: "car",
    PEDESTRIAN: "pedestrian",
    BIKE: "bike",
    SPRINKLER: "sprinkler",
    TARGETS: "targets",
}


@dataclass(frozen=True)
class PointCloud:
    """N points: finite 3D sensor-frame coords (m), intensity in [0, 1], both read-only copies."""

    coords: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        # Widening a float32 signalling NaN sets the invalid flag; the check below names it.
        with np.errstate(invalid="ignore"):
            for name, shape in (("coords", (-1, 3)), ("intensity", (-1,))):
                array = np.array(getattr(self, name), dtype=np.float64).reshape(shape)
                array.flags.writeable = False
                object.__setattr__(self, name, array)
        coords, intensity = self.coords, self.intensity
        if coords.shape[0] != intensity.shape[0]:
            raise LengthMismatchError(
                f"coords has {coords.shape[0]} points, intensity has {intensity.shape[0]}"
            )
        # One flat pass per check; the offending row is looked for only on failure.
        if not np.isfinite(coords).all():
            raise NonFiniteCoordinateError(int(np.argmin(np.isfinite(coords).all(axis=1))))
        in_range = (intensity >= 0.0) & (intensity <= 1.0)  # NaN fails both
        if not in_range.all():
            raise IntensityOutOfRangeError(int(np.argmin(in_range)))

    @property
    def count(self) -> int:
        return self.coords.shape[0]

    @cached_property
    def ranges(self) -> np.ndarray:
        """Each point's distance from the sensor origin, computed on first use; read-only."""
        ranges = np.linalg.norm(self.coords, axis=1)
        ranges.flags.writeable = False
        return ranges

    @cached_property
    def index(self):
        """This cloud's ``SpatialIndex``, built on first use; read-only arrays keep it current."""
        from .filters import SpatialIndex  # a lazy import: filters imports this module
        return SpatialIndex(self)


def empty_cloud() -> PointCloud:
    return PointCloud(np.empty((0, 3)), np.empty(0))


@dataclass(frozen=True)
class LabelSet:
    """Per-point semantic class ids in [0, NUM_CLASSES), paired with a cloud of the same length."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int32).reshape(-1)
        valid = (labels >= 0) & (labels < NUM_CLASSES)
        if not valid.all():
            raise InvalidClassError(int(np.argmin(valid)))
        object.__setattr__(self, "labels", labels)

    @property
    def count(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class SensorCalibration:
    """Calibrated beam tables and range limits.

    elevations : V radians, strictly ascending, each in (-pi/2, pi/2)
    azimuths   : H radians, strictly ascending, each in [-pi, pi)
    r_max      : maximum sensor range (m), > 0 and finite
    r_min      : minimum sensor range (m), >= 0 and < r_max
    sensor_height : height of the sensor origin above world ground (m),
        finite, used only by scene synthesis

    Each check is written so that NaN fails it.
    """

    elevations: np.ndarray
    azimuths: np.ndarray
    r_max: float
    r_min: float = 0.0
    sensor_height: float = 0.0

    def __post_init__(self):
        elev = np.asarray(self.elevations, dtype=np.float64).reshape(-1)
        azim = np.asarray(self.azimuths, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "elevations", elev)
        object.__setattr__(self, "azimuths", azim)
        if not (np.all(np.diff(elev) > 0) and np.all(np.abs(elev) < np.pi / 2)):
            raise InvalidInputError("elevations must be strictly ascending within (-pi/2, pi/2)")
        if azim.size and not (np.all(np.diff(azim) > 0) and -np.pi <= azim[0] and azim[-1] < np.pi):
            raise InvalidInputError("azimuths must be strictly ascending within [-pi, pi)")
        if not 0 < self.r_max < math.inf:
            raise InvalidInputError("r_max must be positive and finite")
        if not 0 <= self.r_min < self.r_max:
            raise InvalidInputError("r_min must satisfy 0 <= r_min < r_max")
        if not math.isfinite(self.sensor_height):
            raise InvalidInputError("sensor_height must be finite")

    @property
    def v(self) -> int:
        return self.elevations.shape[0]

    @property
    def h(self) -> int:
        return self.azimuths.shape[0]


def grid_calibration(
    v: int,
    h: int,
    elevation_span=(-0.45, 0.05),
    azimuth_span=(-0.8, 0.8),
    r_max: float = 30.0,
    r_min: float = 0.5,
    sensor_height: float = 2.0,
) -> SensorCalibration:
    """Evenly spaced beam tables, a stand-in for a real sensor's calibration."""
    return SensorCalibration(
        elevations=np.linspace(elevation_span[0], elevation_span[1], v),
        azimuths=np.linspace(azimuth_span[0], azimuth_span[1], h),
        r_max=r_max,
        r_min=r_min,
        sensor_height=sensor_height,
    )


@dataclass(frozen=True)
class ConfusionCounts:
    """TP/FP/FN/TN tallies for the binary rain / not-rain task."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp,
            self.fp + other.fp,
            self.fn + other.fn,
            self.tn + other.tn,
        )


def merge_clouds(
    a: PointCloud,
    a_labels: LabelSet,
    b: PointCloud,
    b_labels: LabelSet,
) -> tuple[PointCloud, LabelSet]:
    """Early fusion: concatenate two labeled clouds, a's points first."""
    for cloud, labels in ((a, a_labels), (b, b_labels)):
        if labels.count != cloud.count:
            raise InvalidInputError(
                f"labels ({labels.count}) do not match cloud ({cloud.count})"
            )
    merged = PointCloud(
        np.concatenate([a.coords, b.coords], axis=0),
        np.concatenate([a.intensity, b.intensity]),
    )
    merged_labels = LabelSet(np.concatenate([a_labels.labels, b_labels.labels]))
    return merged, merged_labels
