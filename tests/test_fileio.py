import json

import numpy as np
import pytest

from derainkit import LabelSet, PointCloud, builtin_scene, grid_calibration
from derainkit import fileio
from derainkit.annotate import AnnotationScene, annotation_scene_from_spec
from derainkit.core import empty_cloud
from derainkit.errors import (
    DegeneratePolygonError,
    IntensityOutOfRangeError,
    InvalidClassError,
    InvalidInputError,
    InvalidMaskByteError,
    InvalidSpecError,
    NonFiniteCoordinateError,
    SchemaError,
    TruncatedFileError,
)
from derainkit.evaluation import BenchmarkRow, MetricReport
from derainkit.filters import DEFAULT_PARAMS, Dsor, Ror
from derainkit.rainsim import RainConfig
from derainkit.scene import OrientedBox, SceneSpec


def test_cloud_round_trip_empty():
    data = fileio.write_cloud(empty_cloud())
    assert data == b""
    assert fileio.read_cloud(data).count == 0


def test_cloud_round_trip_single_point():
    cloud = PointCloud([[1.0, 2.0, 3.0]], [0.5])
    data = fileio.write_cloud(cloud)
    assert len(data) == 16
    back = fileio.read_cloud(data)
    np.testing.assert_array_equal(back.coords, cloud.coords)
    np.testing.assert_array_equal(back.intensity, cloud.intensity)
    assert fileio.write_cloud(back) == data


def test_cloud_truncated():
    with pytest.raises(TruncatedFileError):
        fileio.read_cloud(b"\x00" * 17)


@pytest.mark.filterwarnings("error")
def test_cloud_nonfinite_rejected():
    bad = np.array([[np.nan, 0, 0, 0.5]], dtype="<f4").tobytes()
    with pytest.raises(NonFiniteCoordinateError):
        fileio.read_cloud(bad)
    # Widening a float32 signalling NaN sets the invalid flag; it is still a typed error.
    words = np.array([[0, 0, 0, 0x3F00_0000], [0x7F80_0001, 0, 0, 0x7FA0_0000]], dtype="<u4")
    with pytest.raises(NonFiniteCoordinateError) as err:
        fileio.read_cloud(words.tobytes())
    assert err.value.index == 1
    words[1, 0] = 0
    with pytest.raises(IntensityOutOfRangeError) as err:
        fileio.read_cloud(words.tobytes())
    assert err.value.index == 1


def test_cloud_intensity_out_of_range_rejected():
    for intensity, index in (([0.5, 5.0], 1), ([-0.1, 0.5], 0), ([1.0, np.nan], 1),
                             ([0.0, np.inf], 1)):
        quads = np.zeros((2, 4), dtype="<f4")
        quads[:, 3] = intensity
        with pytest.raises(IntensityOutOfRangeError) as err:
            fileio.read_cloud(quads.tobytes())
        assert err.value.index == index


def test_cloud_round_trip_random_bit_exact():
    rng = np.random.default_rng(0)
    coords = rng.normal(size=(200, 3)).astype(np.float32).astype(np.float64)
    cloud = PointCloud(coords, rng.uniform(0, 1, 200).astype(np.float32).astype(np.float64))
    data = fileio.write_cloud(cloud)
    assert fileio.write_cloud(fileio.read_cloud(data)) == data


@pytest.mark.filterwarnings("error")
def test_cloud_past_float32_range_is_not_written():
    """A coordinate that would be written as inf names its point instead."""
    with pytest.raises(NonFiniteCoordinateError) as err:
        fileio.write_cloud(PointCloud([[0, 0, 0], [0, 0, 0], [0, -1e39, 0]], [0.5] * 3))
    assert err.value.index == 2
    cloud = PointCloud([[3.4e38, -1e-50, 0]], [1.0])
    assert fileio.read_cloud(fileio.write_cloud(cloud)).coords[0, 1] == 0.0


def test_labels_round_trip():
    data = fileio.write_labels(LabelSet([2, 0, 7]))
    assert len(data) == 12
    np.testing.assert_array_equal(fileio.read_labels(data).labels, [2, 0, 7])
    assert fileio.read_labels(b"").count == 0


def test_labels_invalid_class():
    with pytest.raises(InvalidClassError) as err:
        fileio.read_labels(np.array([9], dtype="<u4").tobytes())
    assert err.value.index == 0


def test_labels_reserved_high_bits():
    with pytest.raises(InvalidClassError):
        fileio.read_labels(np.array([0x0001_0002], dtype="<u4").tobytes())
    # Ids of 2**31 and above read as negative int32: still the first bad index.
    for words, index in (([0, 2 ** 31], 1), ([3, 2 ** 32 - 1, 9], 1), ([7, 0x8001_0003], 1)):
        with pytest.raises(InvalidClassError) as err:
            fileio.read_labels(np.array(words, dtype="<u4").tobytes())
        assert err.value.index == index


def test_labels_truncated():
    with pytest.raises(TruncatedFileError):
        fileio.read_labels(b"\x00\x01\x02")


def test_mask_round_trip():
    for mask in (np.array([True, False, True]), np.zeros(0, dtype=bool)):
        data = fileio.write_mask(mask)
        assert len(data) == mask.size
        np.testing.assert_array_equal(fileio.read_mask(data), mask)


def test_mask_stray_byte_rejected():
    for data, index in ((bytes([1, 0, 7]), 2), (bytes([0xFF, 1]), 0), (b"\x01\x02", 1)):
        with pytest.raises(InvalidMaskByteError) as err:
            fileio.read_mask(data)
        assert err.value.index == index


def test_scene_json_round_trip():
    for name in ("minimal", "corridor", "rehearse-like"):
        spec = builtin_scene(name)
        back = fileio.read_scene_json(fileio.write_scene_json(spec))
        np.testing.assert_allclose(back.ground_normal, spec.ground_normal)
        np.testing.assert_allclose(back.road_polygon, spec.road_polygon)
        assert len(back.boxes) == len(spec.boxes)
        for a, b in zip(back.boxes, spec.boxes):
            np.testing.assert_allclose(a.center, b.center)
            assert a.class_id == b.class_id


def test_scene_json_missing_key_path():
    with pytest.raises(SchemaError) as err:
        fileio.read_scene_json("{}")
    assert "/ground_plane" in str(err.value)


def test_scene_json_bad_box_path():
    text = fileio.write_scene_json(builtin_scene("minimal"))
    broken = text.replace('"road_polygon"', '"not_polygon"', 1)
    with pytest.raises(SchemaError) as err:
        fileio.read_scene_json(broken)
    assert "road_polygon" in str(err.value)


@pytest.mark.parametrize("old, new", [
    ('"reflectance": 0.55', '"reflectance": NaN'), ('"reflectance": 0.55', '"reflectance": 5.0'),
    ('"ground_reflectance": 0.3', '"ground_reflectance": 7.0'), ('"yaw": 0.15', '"yaw": NaN'),
    ('"center": [\n        10.0', '"center": [\n        NaN'),
    ('"half_extents": [\n        2.2', '"half_extents": [\n        Infinity'),
    ('"offset": 0.0', '"offset": NaN'),
])
def test_scene_json_bad_values_rejected(old, new):
    text = fileio.write_scene_json(builtin_scene("rehearse-like"))
    assert old in text
    with pytest.raises(InvalidSpecError):
        fileio.read_scene_json(text.replace(old, new, 1))


def test_annotation_json_round_trip():
    ann = annotation_scene_from_spec(builtin_scene("rehearse-like"), margin=0.05,
                                     sensor_height=2.0)
    back = fileio.read_annotation_json(fileio.write_annotation_json(ann))
    assert len(back.sprinkler_boxes) == len(ann.sprinkler_boxes)
    np.testing.assert_allclose(back.road_polygon, ann.road_polygon)


def test_calibration_json_round_trip():
    calib = grid_calibration(8, 16, r_max=22.0)
    back = fileio.read_calibration_json(fileio.write_calibration_json(calib))
    np.testing.assert_array_equal(back.elevations, calib.elevations)
    np.testing.assert_array_equal(back.azimuths, calib.azimuths)
    assert back.r_max == calib.r_max and back.sensor_height == calib.sensor_height


def test_calibration_json_non_number_angle_is_schema_error():
    text = fileio.write_calibration_json(grid_calibration(2, 3))
    obj = json.loads(text)
    for key, bad in (("elevations", ["a"]), ("azimuths", [0.1, None]),
                     ("elevations", [[0.1], [0.2]]), ("azimuths", "0.1"),
                     ("elevations", [False, True])):
        with pytest.raises(SchemaError) as err:
            fileio.read_calibration_json(json.dumps({**obj, key: bad}))
        assert err.value.path == f"/{key}"


def test_calibration_json_non_finite_values_rejected():
    obj = json.loads(fileio.write_calibration_json(grid_calibration(2, 3)))
    for key, bad in (("elevations", [float("nan")]), ("azimuths", [0.0, float("nan")]),
                     ("r_min", float("nan")), ("r_max", float("inf")),
                     ("sensor_height", float("nan"))):
        with pytest.raises(InvalidInputError):
            fileio.read_calibration_json(json.dumps({**obj, key: bad}))


def test_rain_config_json_round_trip():
    config = RainConfig(rate=25.0, seed=7)
    back = fileio.read_rain_config_json(fileio.write_rain_config_json(config))
    assert back == config


def test_filter_params_json_round_trip():
    for params in (Ror(0.5, 3), Dsor(5, 0.2, 0.05), *DEFAULT_PARAMS.values()):
        back = fileio.read_filter_params_json(fileio.write_filter_params_json(params))
        assert back == params


def test_filter_params_json_layout():
    """Fields in declaration order, integer counts written as JSON integers."""
    expected = {
        "ror": '{\n  "kind": "ror",\n  "radius": 0.5,\n  "min_neighbors": 5\n}',
        "sor": '{\n  "kind": "sor",\n  "k": 5,\n  "s": 1.0\n}',
        "dror": ('{\n  "kind": "dror",\n  "alpha": 0.01,\n  "beta": 3.0,\n  "k_min": 3,\n'
                 '  "sr_min": 0.04\n}'),
        "dsor": '{\n  "kind": "dsor",\n  "k": 5,\n  "s": 1.0,\n  "r": 0.05\n}',
    }
    for kind, params in DEFAULT_PARAMS.items():
        assert fileio.write_filter_params_json(params) == expected[kind]


BOX_JSON = ('{"center": [1.0, 2.0, 0.5], "half_extents": [0.5, 0.25, 0.5], "yaw": 0.3, '
            '"class_id": 3, "reflectance": 0.1}')
POLYGON_JSON = "[[0.0, 0.0], [3.5, 0.0], [1.0, 2.0]]"


def test_config_json_layouts():
    """Each text is the indent-2 dump of an object whose compact form is pinned: fields
    in declaration order, integers as JSON integers, the scene's plane nested."""
    box = OrientedBox((1.0, 2.0, 0.5), (0.5, 0.25, 0.5), 0.3, 3, 0.1)
    polygon = [(0, 0), (3.5, 0), (1, 2)]
    expected = {
        fileio.write_scene_json(SceneSpec((0, 0, 1), -0.5, (box,), polygon, 0.3)):
            '{"ground_plane": {"normal": [0.0, 0.0, 1.0], "offset": -0.5}, '
            f'"boxes": [{BOX_JSON}], "road_polygon": {POLYGON_JSON}, "ground_reflectance": 0.3}}',
        fileio.write_annotation_json(AnnotationScene((), (box,), polygon)):
            f'{{"sprinkler_boxes": [], "object_boxes": [{BOX_JSON}], "road_polygon": {POLYGON_JSON}}}',
        fileio.write_calibration_json(grid_calibration(2, 2, r_max=10.0)):
            '{"elevations": [-0.45, 0.05], "azimuths": [-0.8, 0.8], "r_max": 10.0, '
            '"r_min": 0.5, "sensor_height": 2.0}',
        fileio.write_rain_config_json(RainConfig(25.0, seed=7)):
            '{"rate": 25.0, "d_min": 0.5, "d_max": 6.0, "n0": 8000.0, '
            '"beam_divergence": 0.001, "rain_reflectance": 0.05, "seed": 7}',
    }
    for text, compact in expected.items():
        assert json.dumps(json.loads(text)) == compact
        assert text == json.dumps(json.loads(text), indent=2)


def test_polygon_and_box_vectors_reject_booleans():
    text = fileio.write_scene_json(builtin_scene("minimal"))
    obj = json.loads(text)
    obj["road_polygon"][1] = [True, 0.0]
    with pytest.raises(SchemaError) as err:
        fileio.read_scene_json(json.dumps(obj))
    assert err.value.path == "/road_polygon/1"
    ann = json.loads(fileio.write_annotation_json(
        annotation_scene_from_spec(builtin_scene("corridor"))))
    ann["object_boxes"][0]["center"][2] = False
    with pytest.raises(SchemaError) as err:
        fileio.read_annotation_json(json.dumps(ann))
    assert err.value.path == "/object_boxes/0/center"


def test_annotation_json_rejects_what_its_constructors_reject():
    good = json.loads(fileio.write_annotation_json(
        annotation_scene_from_spec(builtin_scene("rehearse-like"))))
    for key, value in (("half_extents", [0.3, -0.7, 0.9]), ("class_id", 8)):
        obj = json.loads(json.dumps(good))
        obj["object_boxes"][1][key] = value
        with pytest.raises(InvalidSpecError):
            fileio.read_annotation_json(json.dumps(obj))
    with pytest.raises(DegeneratePolygonError):
        fileio.read_annotation_json(json.dumps({**good, "road_polygon": [[0, 0], [1, 1]]}))


def test_filter_list_json():
    entries = [{"name": kind, "params": json.loads(fileio.write_filter_params_json(p))}
               for kind, p in DEFAULT_PARAMS.items()]
    assert fileio.read_filter_list_json(json.dumps(entries)) == list(DEFAULT_PARAMS.items())
    assert fileio.read_filter_list_json("[]") == []
    good = entries[0]
    for bad, path in (({"a": good}, "/"), ([good, {"params": good["params"]}], "/1/name"),
                      ([{"name": 5, "params": good["params"]}], "/0/name"),
                      ([{"name": "", "params": good["params"]}], "/0/name"),
                      ([good, {"name": "x"}], "/1/params"), (["ror"], "/0/name"),
                      ([{"name": "x", "params": [1]}], "/0/params"),
                      ([{"name": "x", "params": {"kind": "ror", "radius": 0.5}}],
                       "/0/params/min_neighbors"),
                      ([{"name": "x", "params": {"kind": "magic"}}], "/0/params/kind")):
        with pytest.raises(SchemaError) as err:
            fileio.read_filter_list_json(json.dumps(bad))
        assert err.value.path == path
    with pytest.raises(InvalidInputError):
        fileio.read_filter_list_json(json.dumps(
            [{"name": "x", "params": {"kind": "sor", "k": 5, "s": -1.0}}]))


def test_filter_params_integer_fields_reject_fractions():
    for kind, extra, field in (("sor", '"s": 1.0', "k"), ("ror", '"radius": 0.5', "min_neighbors"),
                               ("dror", '"alpha": 0.01, "beta": 3.0, "sr_min": 0.04', "k_min")):
        head = f'{{"kind": "{kind}", {extra}, "{field}": '
        with pytest.raises(SchemaError) as err:
            fileio.read_filter_params_json(head + "2.7}")
        assert err.value.path == f"/{field}"
        for bad in ("true", '"3"', "NaN", "Infinity"):
            with pytest.raises(SchemaError):
                fileio.read_filter_params_json(head + bad + "}")
        value = getattr(fileio.read_filter_params_json(head + "3.0}"), field)
        assert value == 3 and isinstance(value, int)


def test_box_class_and_rain_seed_reject_fractions():
    text = fileio.write_scene_json(builtin_scene("corridor"))
    with pytest.raises(SchemaError) as err:
        fileio.read_scene_json(text.replace('"class_id": 7', '"class_id": 7.5', 1))
    assert err.value.path == "/boxes/0/class_id"
    rain = fileio.write_rain_config_json(RainConfig(rate=25.0, seed=7))
    with pytest.raises(SchemaError):
        fileio.read_rain_config_json(rain.replace('"seed": 7', '"seed": 7.5'))
    # integers are taken as written, not through a float
    big = fileio.read_rain_config_json(rain.replace('"seed": 7', f'"seed": {2 ** 63 + 1}'))
    assert big.seed == 2 ** 63 + 1


def test_filter_params_unknown_kind():
    with pytest.raises(SchemaError):
        fileio.read_filter_params_json('{"kind": "magic"}')


def test_results_csv_round_trip():
    rows = [
        BenchmarkRow("dsor", "heavy", MetricReport(0.786, 0.996, 0.879, 0.783, 12.7)),
        BenchmarkRow("dror", "light", MetricReport(0.058, 0.763, 0.109, 0.058, 199.2)),
    ]
    text = fileio.write_results_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "filter,rain_density,precision,recall,f1,rain_iou,time_ms"
    assert len(lines) == 3
    back = fileio.read_results_csv(text)
    assert fileio.write_results_csv(back) == text


def test_results_csv_rejects_cells_it_cannot_read_back():
    report = MetricReport(0.5, 0.5, 0.5, 1 / 3, 1.0)
    for name, density in (("a,b", "heavy"), ("x\ny", "heavy"), ("x\ry", "heavy"),
                          ("x\u2028y", "heavy"), ("dsor", "a,b"), ("dsor", "a\nb")):
        with pytest.raises(SchemaError):
            fileio.write_results_csv([BenchmarkRow(name, density, report)])
    text = fileio.write_results_csv([BenchmarkRow("d sor;1", "heavy rain", report)])
    assert [r.filter_name for r in fileio.read_results_csv(text)] == ["d sor;1"]


@pytest.mark.parametrize("cells", [
    "nan,50.00,50.00,50.00,1", "-5.00,50.00,50.00,50.00,1", "50.00,inf,50.00,50.00,1",
    "50.00,50.00,100.01,50.00,1", "50.00,50.00,-0.01,50.00,1", "50.00,50.00,50.00,900,1",
    "50.00,50.00,50.00,nan,1", "50.00,50.00,50.00,50.00,-1", "50.00,50.00,50.00,50.00,inf",
    "50.00,50.00,50.00,50.00,nan",
])
def test_results_csv_rejects_metrics_out_of_range(cells):
    """Fractions outside [0, 100] %, NaN, and a negative or non-finite time are schema errors
    at their row; the writer never writes them."""
    header = ",".join(fileio.RESULTS_COLUMNS)
    text = f"{header}\ndsor,heavy,50.00,50.00,50.00,33.33,1\ndsor,heavy,{cells}\n"
    with pytest.raises(SchemaError) as err:
        fileio.read_results_csv(text)
    assert err.value.path == "/row/1"
    *percents, time_ms = map(float, cells.split(","))
    with pytest.raises(InvalidInputError):
        MetricReport(*(p / 100 for p in percents), wall_time_ms=time_ms)


def test_results_csv_bad_header():
    with pytest.raises(SchemaError):
        fileio.read_results_csv("bogus,header\n")


def test_invalid_json_is_schema_error():
    for reader in (fileio.read_scene_json, fileio.read_annotation_json,
                   fileio.read_calibration_json, fileio.read_filter_params_json,
                   fileio.read_filter_list_json):
        with pytest.raises(SchemaError):
            reader("{not json")


def test_readers_survive_fuzzed_bytes():
    rng = np.random.default_rng(1)
    for _ in range(50):
        blob = rng.integers(0, 256, int(rng.integers(0, 200)), dtype=np.uint8).tobytes()
        for reader in (fileio.read_cloud, fileio.read_labels, fileio.read_mask):
            try:
                reader(blob)
            except (TruncatedFileError, InvalidClassError, NonFiniteCoordinateError,
                    IntensityOutOfRangeError, InvalidMaskByteError):
                pass


@pytest.mark.parametrize("read", [fileio.read_scene_json, fileio.read_annotation_json,
                                  fileio.read_calibration_json, fileio.read_rain_config_json,
                                  fileio.read_filter_params_json, fileio.read_filter_list_json])
def test_json_nested_past_the_recursion_limit_is_schema_error(read):
    for deep in ("[" * 200_000, "[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000):
        for data in (deep, deep.encode()):
            with pytest.raises(SchemaError) as err:
                read(data)
            assert err.value.path == "/"
