"""Each input rule has one home and one error, whichever function a value is handed to:
label counts, road polygons, filter counts, seeds, the scalars of raycasting and
annotation, and tuning's sample and trial counts."""
import numpy as np
import pytest

import derainkit as dk
from derainkit.annotate import AnnotationScene
from derainkit.core import empty_cloud, merge_clouds
from derainkit.errors import (
    DegeneratePolygonError,
    EmptySearchSpaceError,
    EmptySourceError,
    InvalidInputError,
    InvalidSpecError,
    LengthMismatchError,
)
from derainkit.evaluation import DEFAULT_PARAMS, benchmark_run, confusion, pooled_f1, tune_filter

RNG = np.random.default_rng(5)
CLOUD = dk.PointCloud(RNG.uniform(-3, 3, (50, 3)), RNG.uniform(0, 1, 50))
LABELS = dk.LabelSet(RNG.integers(0, 3, 50))
SHORT = dk.LabelSet(LABELS.labels[:-1])
CALIB = dk.grid_calibration(4, 8, r_max=10.0)
GRID, GRID_LABELS = dk.raycast_scene(dk.builtin_scene("minimal"), CALIB)
PAIRS = [(CLOUD, LABELS), (CLOUD, SHORT)]


# ---------------------------------------------------------------- label count

LABEL_COUNT_SITES = {
    "merge_clouds": lambda: merge_clouds(CLOUD, LABELS, CLOUD, SHORT),
    "confusion": lambda: confusion(np.zeros(50, bool), SHORT),
    "stack": lambda: pooled_f1(PAIRS, DEFAULT_PARAMS["ror"]),
    "tune_filter": lambda: tune_filter("sor", PAIRS, n_trials=2),
    "benchmark_run": lambda: benchmark_run([(c, l, "all") for c, l in PAIRS],
                                           list(DEFAULT_PARAMS.items())),
    "inject_rain": lambda: dk.inject_rain(GRID, SHORT, CALIB, dk.RainConfig(10.0)),
    "transfer_labels": lambda: dk.transfer_labels(CLOUD, SHORT, CLOUD),
    "brute_force_transfer": lambda: dk.brute_force_transfer(CLOUD, SHORT, CLOUD),
}


@pytest.mark.parametrize("site", LABEL_COUNT_SITES)
def test_label_count_mismatch_is_one_error(site):
    with pytest.raises(LengthMismatchError, match=r"^\d+ labels for \d+ "):
        LABEL_COUNT_SITES[site]()
    with pytest.raises(InvalidInputError):  # the error merge_clouds raised before
        LABEL_COUNT_SITES[site]()


# ---------------------------------------------------------------- road polygon

def test_bow_tie_raises_one_error_from_both_scene_types():
    bow_tie = [(0, 0), (1, 1), (1, 0), (0, 1)]
    errors = []
    for build in (lambda: dk.SceneSpec((0.0, 0.0, 1.0), 0.0, (), bow_tie),
                  lambda: AnnotationScene((), (), bow_tie)):
        with pytest.raises(DegeneratePolygonError) as err:
            build()
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1] == (DegeneratePolygonError, "road polygon is self-intersecting")
    assert issubclass(DegeneratePolygonError, InvalidSpecError)


# ---------------------------------------------------------------- filter counts

COUNTS = {"ror": 0, "sor": 1, "dror": 0, "dsor": 1}  # the least count of each kind


@pytest.mark.parametrize("kind", COUNTS)
def test_filter_count_must_be_an_integer(kind):
    default = DEFAULT_PARAMS[kind]
    field = default.count
    least = COUNTS[kind]
    for bad in (2.5, 3.0, np.float64(3.0), "3", None, least - 1, np.int64(least - 1)):
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer >= {least}"):
            type(default)(**{**vars(default), field: bad})
    for good in (least, 3, np.int64(3), np.int32(3)):
        params = type(default)(**{**vars(default), field: good})
        np.testing.assert_array_equal(dk.apply_filter(CLOUD, params),
                                      dk.brute_force_mask(CLOUD, params))


# ---------------------------------------------------------------- seeds

SEED_SITES = {
    "RainConfig": lambda seed: dk.RainConfig(10.0, seed=seed),
    "RansacConfig": lambda seed: dk.RansacConfig(seed=seed),
    "ransac_plane": lambda seed: dk.ransac_plane(CLOUD, 5, 0.05, seed),
    "raycast_scene": lambda seed: dk.raycast_scene(dk.builtin_scene("minimal"), CALIB,
                                                   noise_sigma=0.01, seed=seed),
    "tune_filter": lambda seed: tune_filter("ror", [(CLOUD, LABELS)], n_trials=2, seed=seed),
}


@pytest.mark.parametrize("site", SEED_SITES)
def test_seed_is_an_integer_below_2_to_the_128(site):
    rule = r"seed must be an integer in \[0, 2\*\*128\)"
    for bad in (-1, 2 ** 128, 2.5, np.float64(1.0), "1", None):
        with pytest.raises(InvalidInputError, match=rule):
            SEED_SITES[site](bad)
    for good in (0, np.uint64(7), 2 ** 128 - 1):
        SEED_SITES[site](good)


# ---------------------------------------------------------------- NaN and negative scalars

def test_raycast_noise_sigma_is_finite_and_non_negative():
    spec = dk.builtin_scene("minimal")
    for bad in (float("nan"), -1.0, float("inf")):
        with pytest.raises(InvalidSpecError, match="noise_sigma"):
            dk.raycast_scene(spec, CALIB, noise_sigma=bad)
    clean, _ = dk.raycast_scene(spec, CALIB, noise_sigma=0.0)
    np.testing.assert_array_equal(clean.ranges, GRID.ranges)


def test_plane_tolerance_is_finite_and_non_negative():
    scene = dk.annotation_scene_from_spec(dk.builtin_scene("rehearse-like"), 0.05, 2.0)
    for bad in (float("nan"), -1.0, float("inf")):
        with pytest.raises(InvalidInputError, match="plane_tolerance"):
            dk.auto_annotate(CLOUD, scene, plane_tolerance=bad)
    assert dk.auto_annotate(CLOUD, scene, plane_tolerance=0.0).count == CLOUD.count


# ---------------------------------------------------------------- tuning counts

@pytest.mark.parametrize("name", ["n_samples", "n_trials"])
def test_tune_sample_and_trial_counts_are_integers_of_at_least_one(name):
    for bad in (0, -1, 2.5, np.float64(2.0), None):
        with pytest.raises(EmptySearchSpaceError, match=f"{name} must be an integer >= 1"):
            tune_filter("ror", [(CLOUD, LABELS)], **{name: bad})
    params, _ = tune_filter("ror", [(CLOUD, LABELS)], **{name: np.int64(1)})
    assert isinstance(params, dk.Ror)


def test_an_empty_source_stays_its_own_error():
    """An empty source cloud is checked before its label count."""
    with pytest.raises(EmptySourceError):
        dk.transfer_labels(empty_cloud(), dk.LabelSet([1]), CLOUD)


# ---------------------------------------------------------------- booleans are not integers

@pytest.mark.parametrize("kind", COUNTS)
def test_filter_count_rejects_booleans(kind):
    default = DEFAULT_PARAMS[kind]
    for bad in (True, False):
        with pytest.raises(InvalidInputError, match=f"{default.count} must be an integer"):
            type(default)(**{**vars(default), default.count: bad})


@pytest.mark.parametrize("site", SEED_SITES)
def test_seed_rejects_booleans(site):
    for bad in (True, False):
        with pytest.raises(InvalidInputError, match="seed must be an integer"):
            SEED_SITES[site](bad)


def test_ransac_iterations_rejects_booleans():
    for bad in (True, False):
        with pytest.raises(InvalidInputError, match="iterations must be an integer >= 1"):
            dk.RansacConfig(iterations=bad)
        with pytest.raises(InvalidInputError, match="iterations must be an integer >= 1"):
            dk.ransac_plane(CLOUD, bad, 0.05)


@pytest.mark.parametrize("name", ["n_samples", "n_trials"])
def test_tune_sample_and_trial_counts_reject_booleans(name):
    for bad in (True, False):
        with pytest.raises(EmptySearchSpaceError, match=f"{name} must be an integer >= 1"):
            tune_filter("ror", [(CLOUD, LABELS)], **{name: bad})
