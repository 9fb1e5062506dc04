"""Polar grid map projection.

A list-form scan is binned onto a dense V x H grid indexed by the calibrated
(elevation, azimuth) beam angles. Cells no point falls into are materialized
as unreturned beams: maximum range, zero intensity. Flattening the grid back
to list form therefore yields exactly V*H points per scan, which is what the
rain injector needs to reason about unreturned beams.

All math runs in double precision; the binary file format is the only place
single precision appears.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import PointCloud, SensorCalibration, store_fields
from .errors import EmptyCalibrationError, EmptyTableError, FieldError, OriginPointError


@dataclass(frozen=True)
class PolarGridMap:
    """Dense beam grid: coords (V,H,3), intensity (V,H), ranges (V,H), bool unreturned (V,H).

    Stores read-only copies; arrays of other shapes, or a non-bool mask, raise ``FieldError``.
    """

    coords: np.ndarray = field(metadata={"shape": ("v", "h", 3)})
    intensity: np.ndarray = field(metadata={"shape": ("v", "h")})
    ranges: np.ndarray = field(metadata={"shape": ("v", "h")})
    unreturned: np.ndarray = field(metadata={"shape": ("v", "h"), "dtype": bool})

    def __post_init__(self):
        store_fields(self, unreturned=_check_bool)


def _check_bool(unreturned: np.ndarray) -> None:
    if unreturned.dtype != bool:
        raise FieldError("unreturned", f"dtype {unreturned.dtype} is not bool")


def to_polar(coords: np.ndarray):
    """Cartesian (N,3) -> (range, azimuth in [-pi, pi), elevation in (-pi/2, pi/2)).

    Raises OriginPointError for any zero-norm point.
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    ranges = np.linalg.norm(coords, axis=1)
    zero = ranges == 0.0
    if zero.any():
        raise OriginPointError(int(np.argmax(zero)))
    azimuths = np.arctan2(coords[:, 1], coords[:, 0])
    # arctan2 returns (-pi, pi]; fold the single boundary value to -pi
    azimuths[azimuths == np.pi] = -np.pi
    elevations = np.arcsin(np.clip(coords[:, 2] / ranges, -1.0, 1.0))
    return ranges, azimuths, elevations


def to_euclidean(ranges, azimuths, elevations) -> np.ndarray:
    """Inverse of to_polar: x = r cos(el) cos(az), y = r cos(el) sin(az), z = r sin(el)."""
    ranges = np.asarray(ranges, dtype=np.float64)
    azimuths = np.asarray(azimuths, dtype=np.float64)
    elevations = np.asarray(elevations, dtype=np.float64)
    cos_el = np.cos(elevations)
    return np.stack(
        [
            ranges * cos_el * np.cos(azimuths),
            ranges * cos_el * np.sin(azimuths),
            ranges * np.sin(elevations),
        ],
        axis=-1,
    )


def nearest_angle_index(angles, table):
    """Index of the closest table entry for each angle; ties pick the lower index.

    `table` must be non-empty and sorted ascending. Angles outside the table
    clamp to the nearest endpoint. Scalar in, scalar out.
    """
    table = np.asarray(table, dtype=np.float64).reshape(-1)
    if table.size == 0:
        raise EmptyTableError("angle table is empty")
    scalar = np.isscalar(angles) or np.ndim(angles) == 0
    angles = np.atleast_1d(np.asarray(angles, dtype=np.float64))
    hi = np.clip(np.searchsorted(table, angles), 0, table.size - 1)
    lo = np.maximum(hi - 1, 0)
    pick_lo = np.abs(angles - table[lo]) <= np.abs(angles - table[hi])
    idx = np.where(pick_lo, lo, hi)
    return int(idx[0]) if scalar else idx


def project_to_pgm(cloud: PointCloud, calib: SensorCalibration) -> PolarGridMap:
    """Bin a scan onto the calibrated beam grid (Polar Grid Map).

    Each point goes to the cell of its nearest elevation/azimuth pair; cell
    collisions keep the nearest-range point (first-return behavior). Cells
    without a point become unreturned: range r_max, intensity 0, coordinates
    on the beam axis at r_max (``beam_directions`` times r_max, as in ``raycast_scene``).
    """
    if calib.v == 0 or calib.h == 0:
        raise EmptyCalibrationError("calibration tables must be non-empty")
    v, h = calib.v, calib.h

    coords_g = np.zeros((v, h, 3))
    intensity_g = np.zeros((v, h))
    ranges_g = np.zeros((v, h))

    ranges, azimuths, elevations = to_polar(cloud.coords)
    ei = nearest_angle_index(elevations, calib.elevations)
    ai = nearest_angle_index(azimuths, calib.azimuths)
    flat = ei * h + ai
    # Write points in descending range order so the nearest return in a
    # cell is the one that survives.
    order = np.argsort(-ranges, kind="stable")
    coords_g.reshape(-1, 3)[flat[order]] = cloud.coords[order]
    intensity_g.reshape(-1)[flat[order]] = cloud.intensity[order]
    ranges_g.reshape(-1)[flat[order]] = ranges[order]

    unreturned = ranges_g == 0.0
    ranges_g[unreturned] = calib.r_max
    coords_g[unreturned] = beam_directions(calib)[unreturned] * calib.r_max
    return PolarGridMap(coords_g, intensity_g, ranges_g, unreturned)


def flatten(pgm: PolarGridMap) -> tuple[PointCloud, np.ndarray]:
    """Reshape a grid back to list form, row-major (elevation-major).

    Returns the V*H point cloud (which copies the grid's arrays) and the
    flattened unreturned mask in the same order.
    """
    cloud = PointCloud(pgm.coords.reshape(-1, 3), pgm.intensity.reshape(-1))
    return cloud, pgm.unreturned.reshape(-1).copy()


def beam_directions(calib: SensorCalibration) -> np.ndarray:
    """Unit direction of every beam as a (V, H, 3) array."""
    az_full, el_full = np.meshgrid(calib.azimuths, calib.elevations)
    return to_euclidean(np.ones_like(az_full), az_full, el_full)
