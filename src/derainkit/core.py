"""Shared domain types: point clouds, sensor calibration, labels, confusion counts.

All types are plain immutable values built on numpy arrays, each checked once,
by its constructor; a bad point or label raises a typed error naming its index.
Every checked type stores its arrays through ``store_fields``: read-only copies
in the shape and dtype each field declares, so a value that constructs stays
valid. Operations here are pure; nothing mutates its inputs.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
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


def store_fields(value, **checks) -> None:
    """Store each field of the frozen dataclass ``value`` as its metadata declares: a
    ``shape`` field as a read-only copy in that shape and its ``dtype`` (float64 by
    default), an ``item`` field as a tuple. A keyword names a field and a check that
    sees the array as given, before the dtype cast."""
    # Widening a float32 signalling NaN sets the invalid flag; the value's checks name it.
    with np.errstate(invalid="ignore"):
        for f in dataclasses.fields(value):
            if "item" in f.metadata:
                object.__setattr__(value, f.name, tuple(getattr(value, f.name)))
            elif "shape" in f.metadata:
                given = np.asarray(getattr(value, f.name)).reshape(f.metadata["shape"])
                if f.name in checks:
                    checks[f.name](given)
                array = given.astype(f.metadata.get("dtype", np.float64))
                array.flags.writeable = False
                object.__setattr__(value, f.name, array)


@dataclass(frozen=True)
class PointCloud:
    """N points: finite 3D sensor-frame coords (m), intensity in [0, 1]."""

    coords: np.ndarray = field(metadata={"shape": (-1, 3)})
    intensity: np.ndarray = field(metadata={"shape": (-1,)})

    def __post_init__(self):
        store_fields(self)
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


def _check_class_ids(ids: np.ndarray) -> None:
    """Ids as given, so the int32 cast can neither truncate 2.7 nor wrap 2**40 into range."""
    valid = (ids >= 0) & (ids < NUM_CLASSES)  # NaN fails both
    if ids.dtype.kind not in "biu":
        valid[valid] = ids[valid] % 1 == 0
    if not valid.all():
        raise InvalidClassError(int(np.argmin(valid)))


@dataclass(frozen=True)
class LabelSet:
    """Per-point semantic class ids in [0, NUM_CLASSES), paired with a cloud of the same length."""

    labels: np.ndarray = field(metadata={"shape": (-1,), "dtype": np.int32})

    def __post_init__(self):
        store_fields(self, labels=_check_class_ids)

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

    elevations: np.ndarray = field(metadata={"shape": (-1,)})
    azimuths: np.ndarray = field(metadata={"shape": (-1,)})
    r_max: float
    r_min: float = 0.0
    sensor_height: float = 0.0

    def __post_init__(self):
        store_fields(self)
        elev, azim = self.elevations, self.azimuths
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
