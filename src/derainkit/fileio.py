"""Bit-exact file formats.

.bin    little-endian float32 quadruplets (x, y, z, intensity), 16 B/point
.label  little-endian uint32 per point, low 16 bits class id, high 16 reserved
.mask   one byte per point, 1 = keep, 0 = removed; any other byte is an error
.json   scenes, annotation scenes, calibrations, rain configs, filter params, filter lists
.csv    benchmark results, percent values at 2 decimals, integer ms

A config JSON object lists its dataclass's fields in declaration order, written
by ``_encode`` and read by ``_decode`` from each field's declared type: float is
any JSON number but a boolean, int an integral number, an array nested lists of
numbers in the field's ``shape`` metadata, a tuple a list of ``item`` objects.
A scene nests its ground normal and offset under "ground_plane"; a filter
object leads with its "kind". JSON readers take bytes or a str, decoded only by
``_parse_json``. Readers check JSON types and byte layouts only:
each value is checked by the constructor it is handed to, e.g. ``PointCloud``.

Readers map every malformed input to a typed error; they never crash on
arbitrary bytes.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np

from .core import LabelSet, PointCloud, SensorCalibration
from .errors import (
    InvalidMaskByteError,
    NonFiniteCoordinateError,
    SchemaError,
    TruncatedFileError,
)
from .evaluation import BenchmarkRow, MetricReport
from .filters import KINDS, FilterParams
from .rainsim import RainConfig
from .scene import SceneSpec
from .annotate import AnnotationScene

RESULTS_COLUMNS = ("filter", "rain_density", "precision", "recall", "f1", "rain_iou", "time_ms")


# ---------------------------------------------------------------- binary

def write_cloud(cloud: PointCloud) -> bytes:
    """Raises NonFiniteCoordinateError for a coordinate float32 would hold as inf."""
    quads = np.empty((cloud.count, 4), dtype="<f4")
    with np.errstate(over="ignore"):
        quads[:, :3] = cloud.coords
    quads[:, 3] = cloud.intensity
    if not np.isfinite(quads).all():
        raise NonFiniteCoordinateError(int(np.argmin(np.isfinite(quads).all(axis=1))))
    return quads.tobytes()


def read_cloud(data: bytes) -> PointCloud:
    if len(data) % 16 != 0:
        raise TruncatedFileError(f"cloud file length {len(data)} is not a multiple of 16")
    quads = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    return PointCloud(quads[:, :3], quads[:, 3])


def write_labels(labels: LabelSet) -> bytes:
    return labels.labels.astype("<u4").tobytes()


def read_labels(data: bytes) -> LabelSet:
    if len(data) % 4 != 0:
        raise TruncatedFileError(f"label file length {len(data)} is not a multiple of 4")
    return LabelSet(np.frombuffer(data, dtype="<u4"))


def write_mask(mask: np.ndarray) -> bytes:
    return np.asarray(mask, dtype=bool).astype("u1").tobytes()


def read_mask(data: bytes) -> np.ndarray:
    raw = np.frombuffer(data, dtype="u1")
    valid = raw <= 1
    if not valid.all():
        raise InvalidMaskByteError(int(np.argmin(valid)))
    return raw.astype(bool)


# ---------------------------------------------------------------- json schema

def _get(obj, key, path, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{path}/{key}", "missing")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{path}/{key}", f"expected {getattr(kind, '__name__', kind)}")
    return value


def _number(value, path) -> float:
    """A JSON number as a float; booleans and integers too large for a float are errors."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise SchemaError(path, "expected number")


def _integer(value, path) -> int:
    """An integral JSON number; 3.0 reads as 3, 2.7 is an error, never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "expected integer")
    return value


def _vector(value, path, shape) -> list:
    """Nested lists of JSON numbers in the given shape; -1 is any length."""
    if not isinstance(value, list) or shape[0] not in (-1, len(value)):
        raise SchemaError(path, f"expected a {shape} array of numbers")
    if len(shape) > 1:
        return [_vector(row, f"{path}/{i}", shape[1:]) for i, row in enumerate(value)]
    return [_number(x, path) for x in value]


def _decode(cls, obj, path, **given):
    """cls from a JSON object holding its fields, each read by its declared type.

    Array fields take their shape from the field's ``shape`` metadata, tuple
    fields the class of their items from ``item``; fields in ``given`` are not read.
    """
    for f in (f for f in dataclasses.fields(cls) if f.name not in given):
        at = f"{path}/{f.name}"
        if f.type == "tuple":
            items = enumerate(_get(obj, f.name, path, list))
            given[f.name] = tuple(_decode(f.metadata["item"], x, f"{at}/{i}") for i, x in items)
        elif f.type == "np.ndarray":
            given[f.name] = _vector(_get(obj, f.name, path), at, f.metadata["shape"])
        else:
            given[f.name] = {"float": _number, "int": _integer}[f.type](_get(obj, f.name, path), at)
    return cls(**given)


def _encode(obj):
    """A dataclass as a dict of its fields in declaration order; tuples, arrays and numpy
    scalars as JSON lists and numbers."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [_encode(x) for x in obj]
    return obj.tolist() if isinstance(obj, (np.ndarray, np.generic)) else obj


def _dump(obj) -> str:
    return json.dumps(obj, indent=2)


def _parse_json(data: bytes | str):
    """The one place JSON is decoded: a file's bytes in UTF-8, UTF-16 or UTF-32 (as
    ``json.loads`` detects them, with or without a BOM), or a str."""
    try:
        return json.loads(data)
    except UnicodeDecodeError as exc:
        raise SchemaError("/", f"not UTF-8, UTF-16 or UTF-32 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError("/", "nested too deeply") from exc


# ---------------------------------------------------------------- config json

def write_scene_json(spec: SceneSpec) -> str:
    obj = _encode(spec)
    plane = {"normal": obj.pop("ground_normal"), "offset": obj.pop("ground_offset")}
    return _dump({"ground_plane": plane, **obj})


def read_scene_json(text: bytes | str) -> SceneSpec:
    obj = _parse_json(text)
    plane = _get(obj, "ground_plane", "", dict)
    return _decode(SceneSpec, obj, "",
                   ground_normal=_vector(_get(plane, "normal", "/ground_plane"),
                                         "/ground_plane/normal", (3,)),
                   ground_offset=_number(_get(plane, "offset", "/ground_plane"),
                                         "/ground_plane/offset"))


def write_annotation_json(scene: AnnotationScene) -> str:
    return _dump(_encode(scene))


def read_annotation_json(text: bytes | str) -> AnnotationScene:
    return _decode(AnnotationScene, _parse_json(text), "")


def write_calibration_json(calib: SensorCalibration) -> str:
    return _dump(_encode(calib))


def read_calibration_json(text: bytes | str) -> SensorCalibration:
    return _decode(SensorCalibration, _parse_json(text), "")


def write_rain_config_json(config: RainConfig) -> str:
    return _dump(_encode(config))


def read_rain_config_json(text: bytes | str) -> RainConfig:
    return _decode(RainConfig, _parse_json(text), "")


def write_filter_params_json(params: FilterParams) -> str:
    return _dump({"kind": type(params).__name__.lower(), **_encode(params)})


def _filter_params(obj, path) -> FilterParams:
    cls = KINDS.get(_get(obj, "kind", path, str))
    if cls is None:
        raise SchemaError(f"{path}/kind", f"unknown filter kind {obj['kind']!r}")
    return _decode(cls, obj, path)


def read_filter_params_json(text: bytes | str) -> FilterParams:
    return _filter_params(_parse_json(text), "")


def read_filter_list_json(text: bytes | str) -> list:
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
            report = MetricReport(*(float(p) / 100.0 for p in parts[2:6]), float(parts[6]))
        except ValueError as exc:  # a cell that is not a number, or a metric MetricReport rejects
            raise SchemaError(f"/row/{i}", str(exc)) from exc
        rows.append(BenchmarkRow(parts[0], parts[1], report))
    return rows
