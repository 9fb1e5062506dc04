"""Bit-exact file formats.

.bin    little-endian float32 quadruplets (x, y, z, intensity), 16 B/point
.label  little-endian uint32 per point, low 16 bits class id, high 16 reserved
.mask   one byte per point, 1 = keep, 0 = removed; any other byte is an error
.json   scenes, calibrations, rain configs, filter params, filter lists
.csv    benchmark results, percent values at 2 decimals, integer ms

Readers map every malformed input to a typed error; they never crash on
arbitrary bytes.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np

from .core import NUM_CLASSES, LabelSet, PointCloud, SensorCalibration, validate_cloud
from .errors import (
    InvalidClassError,
    InvalidMaskByteError,
    SchemaError,
    TruncatedFileError,
)
from .evaluation import BenchmarkRow, MetricReport
from .filters import KINDS, FilterParams
from .rainsim import RainConfig
from .scene import OrientedBox, SceneSpec, validate_scene
from .annotate import AnnotationScene

RESULTS_COLUMNS = ("filter", "rain_density", "precision", "recall", "f1", "rain_iou", "time_ms")


# ---------------------------------------------------------------- binary

def write_cloud(cloud: PointCloud) -> bytes:
    quads = np.empty((cloud.count, 4), dtype="<f4")
    quads[:, :3] = cloud.coords
    quads[:, 3] = cloud.intensity
    return quads.tobytes()


def read_cloud(data: bytes) -> PointCloud:
    if len(data) % 16 != 0:
        raise TruncatedFileError(f"cloud file length {len(data)} is not a multiple of 16")
    quads = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    cloud = PointCloud(quads[:, :3], quads[:, 3])
    validate_cloud(cloud)
    return cloud


def write_labels(labels: LabelSet) -> bytes:
    return labels.labels.astype("<u4").tobytes()


def read_labels(data: bytes) -> LabelSet:
    if len(data) % 4 != 0:
        raise TruncatedFileError(f"label file length {len(data)} is not a multiple of 4")
    raw = np.frombuffer(data, dtype="<u4")
    valid = (raw >> 16 == 0) & (raw < NUM_CLASSES)
    if raw.size and not valid.all():
        raise InvalidClassError(int(np.argmin(valid)))
    return LabelSet(raw.astype(np.int32))


def write_mask(mask: np.ndarray) -> bytes:
    return np.asarray(mask, dtype=bool).astype("u1").tobytes()


def read_mask(data: bytes) -> np.ndarray:
    raw = np.frombuffer(data, dtype="u1")
    valid = raw <= 1
    if not valid.all():
        raise InvalidMaskByteError(int(np.argmin(valid)))
    return raw.astype(bool)


# ---------------------------------------------------------------- json helpers

def _get(obj, key, path, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{path}/{key}", "missing")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{path}/{key}", f"expected {getattr(kind, '__name__', kind)}")
    return value


def _number(obj, key, path) -> float:
    value = _get(obj, key, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}/{key}", "expected number")
    return float(value)


def _integer(obj, key, path) -> int:
    """An integral JSON number; 3.0 reads as 3, 2.7 is an error, never truncated."""
    value = _get(obj, key, path)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}/{key}", "expected integer")
    return value


def _vector(obj, key, path, length=None) -> list:
    """A list of JSON numbers, of the given length if one is given."""
    value = _get(obj, key, path, list)
    if ((length is not None and len(value) != length)
            or not all(isinstance(x, (int, float)) for x in value)):
        raise SchemaError(f"{path}/{key}", f"expected {length or 'a list of'} numbers")
    return [float(x) for x in value]


def _parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc.msg}") from exc


def _parse_box(obj, path) -> OrientedBox:
    return OrientedBox(
        center=_vector(obj, "center", path, 3),
        half_extents=_vector(obj, "half_extents", path, 3),
        yaw=_number(obj, "yaw", path),
        class_id=_integer(obj, "class_id", path),
        reflectance=_number(obj, "reflectance", path),
    )


def _parse_polygon(obj, key, path) -> list:
    poly = _get(obj, key, path, list)
    if len(poly) < 3:
        raise SchemaError(f"{path}/{key}", "need at least 3 vertices")
    out = []
    for i, vertex in enumerate(poly):
        if not (isinstance(vertex, list) and len(vertex) == 2
                and all(isinstance(x, (int, float)) for x in vertex)):
            raise SchemaError(f"{path}/{key}/{i}", "expected [x, y]")
        out.append([float(vertex[0]), float(vertex[1])])
    return out


def _box_to_json(box: OrientedBox) -> dict:
    return {
        "center": list(box.center),
        "half_extents": list(box.half_extents),
        "yaw": box.yaw,
        "class_id": box.class_id,
        "reflectance": box.reflectance,
    }


# ---------------------------------------------------------------- scenes

def write_scene_json(spec: SceneSpec) -> str:
    return json.dumps(
        {
            "ground_plane": {"normal": list(spec.ground_normal), "offset": spec.ground_offset},
            "boxes": [_box_to_json(b) for b in spec.boxes],
            "road_polygon": [list(v) for v in spec.road_polygon],
            "ground_reflectance": spec.ground_reflectance,
        },
        indent=2,
    )


def read_scene_json(text: str) -> SceneSpec:
    obj = _parse_json(text)
    plane = _get(obj, "ground_plane", "", dict)
    boxes = _get(obj, "boxes", "", list)
    spec = SceneSpec(
        ground_normal=_vector(plane, "normal", "/ground_plane", 3),
        ground_offset=_number(plane, "offset", "/ground_plane"),
        boxes=tuple(_parse_box(b, f"/boxes/{i}") for i, b in enumerate(boxes)),
        road_polygon=_parse_polygon(obj, "road_polygon", ""),
        ground_reflectance=_number(obj, "ground_reflectance", ""),
    )
    validate_scene(spec)
    return spec


def write_annotation_json(scene: AnnotationScene) -> str:
    return json.dumps(
        {
            "sprinkler_boxes": [_box_to_json(b) for b in scene.sprinkler_boxes],
            "object_boxes": [_box_to_json(b) for b in scene.object_boxes],
            "road_polygon": [list(v) for v in scene.road_polygon],
        },
        indent=2,
    )


def read_annotation_json(text: str) -> AnnotationScene:
    obj = _parse_json(text)
    return AnnotationScene(
        sprinkler_boxes=tuple(
            _parse_box(b, f"/sprinkler_boxes/{i}")
            for i, b in enumerate(_get(obj, "sprinkler_boxes", "", list))
        ),
        object_boxes=tuple(
            _parse_box(b, f"/object_boxes/{i}")
            for i, b in enumerate(_get(obj, "object_boxes", "", list))
        ),
        road_polygon=_parse_polygon(obj, "road_polygon", ""),
    )


# ---------------------------------------------------------------- calibration / configs

def write_calibration_json(calib: SensorCalibration) -> str:
    return json.dumps(
        {
            "elevations": list(calib.elevations),
            "azimuths": list(calib.azimuths),
            "r_max": calib.r_max,
            "r_min": calib.r_min,
            "sensor_height": calib.sensor_height,
        },
        indent=2,
    )


def read_calibration_json(text: str) -> SensorCalibration:
    obj = _parse_json(text)
    return SensorCalibration(
        elevations=np.asarray(_vector(obj, "elevations", ""), dtype=np.float64),
        azimuths=np.asarray(_vector(obj, "azimuths", ""), dtype=np.float64),
        r_max=_number(obj, "r_max", ""),
        r_min=_number(obj, "r_min", ""),
        sensor_height=_number(obj, "sensor_height", ""),
    )


def write_rain_config_json(config: RainConfig) -> str:
    return json.dumps(
        {
            "rate": config.rate,
            "d_min": config.d_min,
            "d_max": config.d_max,
            "n0": config.n0,
            "beam_divergence": config.beam_divergence,
            "rain_reflectance": config.rain_reflectance,
            "seed": config.seed,
        },
        indent=2,
    )


def read_rain_config_json(text: str) -> RainConfig:
    obj = _parse_json(text)
    return RainConfig(
        rate=_number(obj, "rate", ""),
        d_min=_number(obj, "d_min", ""),
        d_max=_number(obj, "d_max", ""),
        n0=_number(obj, "n0", ""),
        beam_divergence=_number(obj, "beam_divergence", ""),
        rain_reflectance=_number(obj, "rain_reflectance", ""),
        seed=_integer(obj, "seed", ""),
    )


# ---------------------------------------------------------------- filter params

def write_filter_params_json(params: FilterParams) -> str:
    fields = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}
    return json.dumps({"kind": type(params).__name__.lower(), **fields}, indent=2)


def _filter_params(obj, path) -> FilterParams:
    cls = KINDS.get(_get(obj, "kind", path, str))
    if cls is None:
        raise SchemaError(f"{path}/kind", f"unknown filter kind {obj['kind']!r}")
    return cls(**{f.name: (_integer if f.type == "int" else _number)(obj, f.name, path)
                  for f in dataclasses.fields(cls)})


def read_filter_params_json(text: str) -> FilterParams:
    return _filter_params(_parse_json(text), "")


def read_filter_list_json(text: str) -> list:
    """[{"name": non-empty string, "params": filter params object}] -> [(name, params)]."""
    entries = _parse_json(text)
    if not isinstance(entries, list):
        raise SchemaError("/", "expected a list of {name, params}")
    filters = []
    for i, entry in enumerate(entries):
        name = _get(entry, "name", f"/{i}", str)
        if not name:
            raise SchemaError(f"/{i}/name", "empty")
        filters.append((name, _filter_params(_get(entry, "params", f"/{i}", dict), f"/{i}/params")))
    return filters


# ---------------------------------------------------------------- results csv

def _csv_cell(value, path) -> str:
    """value as one cell read_results_csv splits back out: no comma, no line break."""
    text = str(value)
    if "," in text or len(f"{text}.".splitlines()) != 1:
        raise SchemaError(path, f"{text!r} contains a comma or a line break")
    return text


def write_results_csv(rows) -> str:
    lines = [",".join(RESULTS_COLUMNS)]
    for i, row in enumerate(rows):
        rep = row.report
        time_ms = 0 if rep.wall_time_ms is None else int(round(rep.wall_time_ms))
        lines.append(
            f"{_csv_cell(row.filter_name, f'/row/{i}/filter')},"
            f"{_csv_cell(row.rain_density, f'/row/{i}/rain_density')},"
            f"{rep.precision * 100:.2f},{rep.recall * 100:.2f},"
            f"{rep.f1 * 100:.2f},{rep.rain_iou * 100:.2f},{time_ms}"
        )
    return "\n".join(lines) + "\n"


def read_results_csv(text: str) -> list[BenchmarkRow]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or tuple(lines[0].split(",")) != RESULTS_COLUMNS:
        raise SchemaError("/header", "unexpected results header")
    rows = []
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != len(RESULTS_COLUMNS):
            raise SchemaError(f"/row/{i}", "wrong column count")
        try:
            report = MetricReport(
                precision=float(parts[2]) / 100.0,
                recall=float(parts[3]) / 100.0,
                f1=float(parts[4]) / 100.0,
                rain_iou=float(parts[5]) / 100.0,
                wall_time_ms=float(parts[6]),
            )
        except ValueError as exc:
            raise SchemaError(f"/row/{i}", "non-numeric metric") from exc
        rows.append(BenchmarkRow(parts[0], parts[1], report))
    return rows
