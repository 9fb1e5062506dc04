"""Property tests: the config JSON codec, the JSON readers' failure modes, and
the fast filters against their brute-force oracle on generated clouds."""
import dataclasses
import json

import numpy as np
from hypothesis import given, strategies as st

from derainkit import builtin_scene, fileio, grid_calibration
from derainkit.annotate import AnnotationScene, RansacConfig, annotation_scene_from_spec
from derainkit.core import NUM_CLASSES, PointCloud, SensorCalibration
from derainkit.errors import DerainKitError
from derainkit.fileio import _decode, _encode
from derainkit.filters import DEFAULT_PARAMS, Dror, Dsor, Ror, Sor, apply_filter, brute_force_mask
from derainkit.rainsim import RainConfig
from derainkit.scene import OrientedBox, SceneSpec


def floats(low, high):
    return st.floats(low, high, allow_nan=False)


def vectors(n, low, high):
    return st.tuples(*[floats(low, high)] * n)


def ascending(low, high):
    return st.lists(floats(low, high), unique=True, max_size=6).map(sorted)


boxes = st.builds(OrientedBox, vectors(3, -1e4, 1e4), vectors(3, 1e-3, 1e3), floats(-10, 10),
                  st.integers(0, NUM_CLASSES - 1), floats(0, 1))
triangles = st.lists(vectors(2, -1e4, 1e4), min_size=3, max_size=3)
CONFIGS = {
    SensorCalibration: st.builds(
        lambda elev, azim, r_max, frac, height: SensorCalibration(elev, azim, r_max,
                                                                  frac * r_max, height),
        ascending(-1.5, 1.5), ascending(-3.14, 3.14), floats(1e-3, 1e6), floats(0, 0.999),
        floats(-1e3, 1e3)),
    RainConfig: st.builds(
        lambda rate, d_min, span, n0, div, refl, seed: RainConfig(rate, d_min, d_min + span, n0,
                                                                  div, refl, seed),
        floats(1e-3, 1e3), floats(1e-3, 5), floats(1e-3, 5), floats(1e-3, 1e6), floats(0, 1.5),
        floats(0, 1), st.integers(0, 2 ** 128 - 1)),
    OrientedBox: boxes,
    SceneSpec: st.builds(SceneSpec, vectors(2, -10, 10).flatmap(
        lambda xy: floats(1e-2, 10).map(lambda z: (*xy, z))), floats(-100, 100),
        st.lists(boxes, max_size=3), triangles, floats(0, 1)),
    AnnotationScene: st.builds(AnnotationScene, st.lists(boxes, max_size=2),
                               st.lists(boxes, max_size=2), triangles),
    RansacConfig: st.builds(RansacConfig, st.integers(1, 1000), floats(1e-6, 10),
                            st.integers(0, 2 ** 64)),
    Ror: st.builds(Ror, floats(1e-6, 1e6), st.integers(0, 50)),
    Sor: st.builds(Sor, st.integers(1, 50), floats(0, 10)),
    Dror: st.builds(Dror, floats(1e-6, 1e3), floats(1e-6, 1e3), st.integers(0, 50), floats(0, 10)),
    Dsor: st.builds(Dsor, st.integers(1, 50), floats(0, 10), floats(1e-6, 1e3)),
}
WRITERS = {
    SensorCalibration: (fileio.write_calibration_json, fileio.read_calibration_json),
    RainConfig: (fileio.write_rain_config_json, fileio.read_rain_config_json),
    SceneSpec: (fileio.write_scene_json, fileio.read_scene_json),
    AnnotationScene: (fileio.write_annotation_json, fileio.read_annotation_json),
    **{cls: (fileio.write_filter_params_json, fileio.read_filter_params_json)
       for cls in (Ror, Sor, Dror, Dsor)},
}


def same(a, b) -> bool:
    """Equal field by field, arrays element by element, with equal types throughout."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    return a == b


@given(st.one_of(list(CONFIGS.values())))
def test_decode_inverts_encode(config):
    text = json.dumps(_encode(config))
    assert same(_decode(type(config), json.loads(text), ""), config)


@given(st.one_of([CONFIGS[cls] for cls in WRITERS]))
def test_config_json_round_trip_is_exact(config):
    write, read = WRITERS[type(config)]
    back = read(write(config))
    assert same(back, config)
    assert write(back) == write(config)


# ---------------------------------------------------------------- readers on bad input

# Numbers at the edges of what a float or a Philox key holds, beside arbitrary ones.
edge_numbers = st.sampled_from([0, -1, 2 ** 63 + 1, 2 ** 128, 10 ** 400, -(2 ** 1024), 0.5,
                                1e308, -0.0, float("nan"), float("inf")])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | edge_numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12,
)
VALID = {
    fileio.read_scene_json: fileio.write_scene_json(builtin_scene("rehearse-like")),
    fileio.read_annotation_json: fileio.write_annotation_json(
        annotation_scene_from_spec(builtin_scene("rehearse-like"), 0.05, 2.0)),
    fileio.read_calibration_json: fileio.write_calibration_json(grid_calibration(3, 4)),
    fileio.read_rain_config_json: fileio.write_rain_config_json(RainConfig(25.0, seed=7)),
    fileio.read_filter_params_json: fileio.write_filter_params_json(DEFAULT_PARAMS["dror"]),
    fileio.read_filter_list_json: json.dumps(
        [{"name": kind, "params": json.loads(fileio.write_filter_params_json(p))}
         for kind, p in DEFAULT_PARAMS.items()]),
}
DELETE = object()


def read_or_typed_error(reader, text: str) -> None:
    """reader returns or raises a DerainKitError; any other exception fails the test."""
    try:
        reader(text)
    except DerainKitError:
        pass


def node_paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from node_paths(value, (*path, key))


def replaced(obj, path, value):
    """A copy of obj with the node at path replaced by value, or removed for DELETE."""
    if not path:
        return None if value is DELETE else value
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    key, rest = path[0], path[1:]
    if rest or value is not DELETE:
        copy[key] = replaced(obj[key], rest, value)
    else:
        del copy[key]
    return copy


@given(json_values)
def test_readers_on_arbitrary_json(value):
    text = json.dumps(value)
    for reader in VALID:
        read_or_typed_error(reader, text)


@given(st.data())
def test_readers_on_mutated_documents(data):
    reader = data.draw(st.sampled_from(list(VALID)))
    doc = json.loads(VALID[reader])
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(node_paths(doc))))
        doc = replaced(doc, path, data.draw(edge_numbers | json_values | st.just(DELETE)))
    read_or_typed_error(reader, json.dumps(doc))


# ---------------------------------------------------------------- filters vs oracle

@st.composite
def clouds(draw):
    """Up to 30 points plus repeats of some of them, optionally snapped to a grid for ties."""
    points = draw(st.lists(vectors(3, -20, 20), max_size=30))
    repeats = draw(st.lists(st.integers(0, len(points) - 1), max_size=6)) if points else []
    coords = np.array(points + [points[i] for i in repeats]).reshape(-1, 3)
    step = draw(st.sampled_from([None, 0.5, 1.0]))
    if step:
        coords = np.round(coords / step) * step
    return PointCloud(coords, np.zeros(coords.shape[0]))


# Grid steps hit exact neighbour distances of snapped clouds, so boundaries are tested.
extreme = st.sampled_from([1e-300, 1e-12, 0.5, 1.0, 2.0, 1e12, 1e300]) | floats(1e-3, 50)
counts = st.integers(0, 40)
filter_params = st.one_of(
    st.builds(Ror, extreme, counts),
    st.builds(Sor, st.integers(1, 40), st.sampled_from([0.0, 1e300]) | floats(0, 5)),
    st.builds(Dror, extreme, extreme, counts, st.just(0.0) | extreme),
    st.builds(Dsor, st.integers(1, 40), st.sampled_from([0.0, 1e300]) | floats(0, 5), extreme),
)


def outcome(run, cloud, params):
    try:
        return run(cloud, params).tolist()
    except DerainKitError as exc:
        return type(exc)


@given(clouds(), filter_params)
def test_apply_filter_matches_oracle(cloud, params):
    assert outcome(apply_filter, cloud, params) == outcome(brute_force_mask, cloud, params)
