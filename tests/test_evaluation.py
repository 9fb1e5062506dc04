import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import cKDTree

from derainkit import (
    ConfusionCounts,
    Dror,
    Dsor,
    LabelSet,
    PointCloud,
    Ror,
    Sor,
    benchmark_run,
    confusion,
    derive_metrics,
    f1_from_precision_recall,
    iou_from_f1,
    tune_filter,
)
from derainkit.core import RAIN, empty_cloud
from derainkit.errors import (
    EmptyDatasetError,
    LengthMismatchError,
    TooFewPointsError,
)
from derainkit.evaluation import DEFAULT_PARAMS, DEFAULT_SEARCH_SPACES, _sample_params, pooled_f1
from derainkit import filters


def test_confusion_perfect_prediction():
    labels = LabelSet([2, 2, 0, 1, 2])
    counts = confusion(np.array([1, 1, 0, 0, 1], dtype=bool), labels)
    assert (counts.fp, counts.fn) == (0, 0)
    assert counts.tp == 3 and counts.tn == 2


def test_confusion_all_kept():
    labels = LabelSet([2] * 7 + [0] * 3)
    counts = confusion(np.zeros(10, dtype=bool), labels)
    assert (counts.tp, counts.fn) == (0, 7)


def test_confusion_hand_tally():
    labels = LabelSet([2, 0, 2, 1, 2, 0, 0, 2, 3, 2])
    pred = np.array([1, 1, 0, 0, 1, 0, 1, 1, 0, 0], dtype=bool)
    counts = confusion(pred, labels)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (3, 2, 2, 3)
    assert counts.total == 10


def test_confusion_length_mismatch():
    with pytest.raises(LengthMismatchError):
        confusion(np.zeros(3, dtype=bool), LabelSet([2, 0]))


def test_metrics_match_published_validation_row():
    f1 = f1_from_precision_recall(0.9635, 0.9848)
    assert f1 * 100 == pytest.approx(97.40, abs=0.01)
    assert iou_from_f1(f1) * 100 == pytest.approx(94.94, abs=0.02)


def test_metrics_zero_cases():
    report = derive_metrics(ConfusionCounts(0, 0, 0, 10))
    assert report.precision == report.recall == report.f1 == report.rain_iou == 0.0


def test_iou_identity_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        counts = ConfusionCounts(*map(int, rng.integers(0, 1000, 4)))
        report = derive_metrics(counts)
        if counts.tp + counts.fp + counts.fn > 0:
            assert abs(report.rain_iou - iou_from_f1(report.f1)) < 1e-12


def rain_dataset(n_clouds, seed=0, tag="heavy"):
    """Dense ground sheets with sparse floating rain points; easy to separate."""
    out = []
    rng = np.random.default_rng(seed)
    for _ in range(n_clouds):
        gx, gy = np.meshgrid(np.linspace(1, 8, 18), np.linspace(-4, 4, 18))
        ground = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        n_rain = int(rng.integers(15, 30))
        rain = np.column_stack([
            rng.uniform(1, 8, n_rain), rng.uniform(-4, 4, n_rain), rng.uniform(1, 4, n_rain),
        ])
        coords = np.vstack([ground, rain])
        labels = np.concatenate([np.full(gx.size, 1), np.full(n_rain, RAIN)])
        out.append((PointCloud(coords, np.full(len(coords), 0.5)), LabelSet(labels), tag))
    return out


def test_benchmark_perfect_filter_row():
    # a dataset where default DSOR separates rain perfectly
    data = rain_dataset(1, seed=1)
    rows = benchmark_run(data, [("dsor", DEFAULT_PARAMS["dsor"])])
    assert len(rows) == 1
    rep = rows[0].report
    if rep.f1 == 1.0:
        assert rep.precision == rep.recall == rep.rain_iou == 1.0
    assert rep.wall_time_ms is not None and rep.wall_time_ms >= 0


def test_benchmark_pools_micro_averaged():
    data = rain_dataset(2, seed=2)
    rows = benchmark_run(data, [("dsor", DEFAULT_PARAMS["dsor"])])
    pooled = ConfusionCounts(0, 0, 0, 0)
    from derainkit import apply_filter
    for cloud, labels, _ in data:
        pooled = pooled + confusion(~apply_filter(cloud, DEFAULT_PARAMS["dsor"]), labels)
    want = derive_metrics(pooled)
    assert rows[0].report.f1 == want.f1
    assert rows[0].report.precision == want.precision


def test_benchmark_row_count_by_density():
    data = (rain_dataset(1, 1, "heavy") + rain_dataset(1, 2, "medium")
            + rain_dataset(1, 3, "light"))
    rows = benchmark_run(data, [("a", DEFAULT_PARAMS["dsor"]), ("b", DEFAULT_PARAMS["sor"])])
    assert len(rows) == 6
    assert [r.rain_density for r in rows[:3]] == ["heavy", "medium", "light"]


def test_benchmark_empty_dataset():
    with pytest.raises(EmptyDatasetError):
        benchmark_run([], [("dsor", DEFAULT_PARAMS["dsor"])])


def test_benchmark_times_each_filter_from_scratch(monkeypatch):
    """A filter's timed run reuses no statistics that an earlier filter gathered."""
    cached = []
    keep = filters.CloudStack.keep

    def spying_keep(stack, params):
        cached.append(len(stack.stats))
        return keep(stack, params)

    monkeypatch.setattr(filters.CloudStack, "keep", spying_keep)
    benchmark_run(rain_dataset(2, seed=7), [
        ("ror", Ror(0.5, 5)), ("dror", Dror(0.01, 3.0, 5, 0.04)),
        ("sor", Sor(5, 1.0)), ("dsor", Dsor(5, 1.0, 0.05))])
    assert cached == [0] * 4


def test_counts_past_cloud_sizes(knn_widths):
    """Counts larger than a cloud keep none of it (ROR/DROR) or raise (SOR/DSOR), and no
    cloud's table is asked for as many columns as the cloud has points."""
    data = pairs(rain_dataset(2, seed=6))
    largest = max(cloud.count for cloud, _ in data)
    assert pooled_f1(data, Ror(0.5, 10**12)) == pooled_f1(data, Ror(0.5, largest))
    assert pooled_f1(data, Dror(0.01, 3.0, 10**12, 0.04)) == pooled_f1(data, Ror(0.5, largest))
    for params in (Sor(10**12, 1.0), Dsor(10**12, 1.0, 0.05)):
        with pytest.raises(TooFewPointsError):
            pooled_f1(data, params)
    # Clouds of mixed sizes: a count between them reads only the larger clouds' tables.
    rng = np.random.default_rng(6)
    clouds = [cloud for cloud, _ in data] + [
        PointCloud(rng.uniform(0, 2, (n, 3)), np.full(n, 0.5)) for n in (1, 4, 9)]
    for m in (0, 1, 3, 4, 8, 9, largest - 1, largest, 10**12):
        params = [Ror(0.6, m), Dror(0.01, 3.0, m, 0.04)]
        stack = filters.CloudStack(clouds, params)
        for p in params:
            np.testing.assert_array_equal(
                stack.keep(p), np.concatenate([filters.apply_filter(c, p) for c in clouds]))
    with pytest.raises(TooFewPointsError):
        filters.CloudStack(clouds, [Sor(4, 1.0)]).keep(Sor(4, 1.0))
    assert knn_widths and all(k < n for n, k in knn_widths)


def test_metrics_invariant_under_duplication():
    data = rain_dataset(2, seed=5)
    once = benchmark_run(data, [("dsor", DEFAULT_PARAMS["dsor"])])[0].report
    twice = benchmark_run(data + data, [("dsor", DEFAULT_PARAMS["dsor"])])[0].report
    assert once.f1 == pytest.approx(twice.f1, abs=1e-12)
    assert once.rain_iou == pytest.approx(twice.rain_iou, abs=1e-12)


def pairs(dataset):
    return [(c, l) for c, l, _ in dataset]


def test_one_tree_per_cloud_across_tuning_and_benchmark(monkeypatch):
    """tune_filter for every kind plus benchmark_run build each non-empty cloud's tree once."""
    built = []

    def counting_tree(coords):
        built.append(coords)
        return cKDTree(coords)

    monkeypatch.setattr(scipy.spatial, "cKDTree", counting_tree)
    dataset = rain_dataset(3, seed=4) + [(empty_cloud(), LabelSet([]), "heavy")]
    dataset += rain_dataset(2, seed=5, tag="light")
    for kind in DEFAULT_SEARCH_SPACES:
        tune_filter(kind, pairs(dataset), n_samples=4, n_trials=5, seed=3)
    benchmark_run(dataset, list(DEFAULT_PARAMS.items()))
    clouds = [cloud for cloud, _, _ in dataset if cloud.count]
    assert len(built) == len(clouds)
    assert sorted(map(id, built)) == sorted(id(cloud.coords) for cloud in clouds)


def test_defaults_and_search_spaces_pinned():
    """The tables derived from the params classes keep their values and key order."""
    spaces = {
        "ror": {"radius": ("log", 0.05, 2.0), "min_neighbors": ("int", 1, 20)},
        "sor": {"k": ("int", 2, 30), "s": ("lin", 0.0, 3.0)},
        "dror": {
            "alpha": ("log", 1e-3, 0.1),
            "beta": ("lin", 1.0, 5.0),
            "k_min": ("int", 1, 20),
            "sr_min": ("lin", 0.01, 0.5),
        },
        "dsor": {"k": ("int", 2, 30), "s": ("lin", 0.0, 2.0), "r": ("log", 0.01, 1.0)},
    }
    defaults = {
        "ror": Ror(radius=0.5, min_neighbors=5),
        "sor": Sor(k=5, s=1.0),
        "dror": Dror(alpha=0.01, beta=3.0, k_min=3, sr_min=0.04),
        "dsor": Dsor(k=5, s=1.0, r=0.05),
    }
    assert DEFAULT_SEARCH_SPACES == spaces and DEFAULT_PARAMS == defaults
    assert list(DEFAULT_SEARCH_SPACES) == list(spaces) == list(DEFAULT_PARAMS)
    for kind, space in spaces.items():
        assert list(DEFAULT_SEARCH_SPACES[kind]) == list(space)


def test_tune_single_trial_returns_candidate():
    data = pairs(rain_dataset(3, seed=6))
    params, f1 = tune_filter("dsor", data, n_samples=3, n_trials=1, seed=9)
    assert isinstance(params, Dsor)
    assert f1 == pooled_f1(data, params)


def test_tune_deterministic():
    data = pairs(rain_dataset(4, seed=7))
    a = tune_filter("dsor", data, n_samples=3, n_trials=10, seed=11)
    b = tune_filter("dsor", data, n_samples=3, n_trials=10, seed=11)
    assert a == b


def test_tune_monotone_in_trials():
    data = pairs(rain_dataset(3, seed=8))
    previous = -1.0
    for trials in (1, 3, 10, 25):
        _, f1 = tune_filter("dsor", data, n_samples=3, n_trials=trials, seed=13)
        assert f1 >= previous
        previous = f1


def test_tuned_beats_or_matches_default():
    data = pairs(rain_dataset(5, seed=9))
    _, tuned = tune_filter("dsor", data, n_samples=5, n_trials=30, seed=17)
    assert tuned >= pooled_f1(data, DEFAULT_PARAMS["dsor"])


def fan_dataset():
    """Three clouds: a ground fan thinning with range, scattered rain and a rain clump."""
    out = []
    for seed, tag in ((0, "heavy"), (1, "heavy"), (2, "light")):
        rng = np.random.default_rng(seed)
        r, az = np.meshgrid(np.geomspace(1.5, 8, 16), np.linspace(-0.7, 0.7, 40))
        ground = np.column_stack([r.ravel() * np.cos(az.ravel()), r.ravel() * np.sin(az.ravel()),
                                  rng.normal(-2.0, 0.02, r.size)])
        n_rain = 30 if tag == "heavy" else 10
        rain = rng.uniform([1, -3, -1.8], [8, 3, 1], (n_rain, 3))
        clump = rain[0] + rng.normal(0, 0.05, (6, 3))
        coords = np.vstack([ground, rain, clump])
        labels = np.r_[np.ones(len(ground)), np.full(n_rain + 6, RAIN)]
        out.append((PointCloud(coords, np.full(len(coords), 0.5)), LabelSet(labels), tag))
    return out


def test_tuning_and_benchmark_outputs_pinned():
    """tune_filter's best trial and benchmark_run's metrics keep their values, bit for bit."""
    data = fan_dataset()
    tuned = {
        "ror": (Ror(radius=1.2385227341089864, min_neighbors=14), 0.7415730337078651),
        "sor": (Sor(k=3, s=1.9571073347639631), 0.8),
        "dror": (Dror(alpha=0.0746249621194077, beta=3.2246391021355882, k_min=20,
                      sr_min=0.12766631086836017), 0.794871794871795),
        "dsor": (Dsor(k=6, s=0.2980771670671116, r=0.24947324759215783), 0.8266666666666667),
    }
    for kind, expected in tuned.items():
        assert tune_filter(kind, pairs(data), n_samples=3, n_trials=20, seed=5) == expected
    rows = [
        ("ror", "heavy", 0.12472647702407003, 0.7916666666666666, 0.21550094517958412,
         0.12076271186440678),
        ("ror", "light", 0.04265402843601896, 0.5625, 0.07929515418502203, 0.04128440366972477),
        ("sor", "heavy", 0.8, 0.7777777777777778, 0.7887323943661971, 0.6511627906976745),
        ("sor", "light", 0.15789473684210525, 0.5625, 0.2465753424657534, 0.140625),
        ("dror", "heavy", 0.043348281016442454, 0.8055555555555556, 0.0822695035460993,
         0.042899408284023666),
        ("dror", "light", 0.01386748844375963, 0.5625, 0.02706766917293233,
         0.013719512195121951),
        ("dsor", "heavy", 0.043348281016442454, 0.8055555555555556, 0.0822695035460993,
         0.042899408284023666),
        ("dsor", "light", 0.015384615384615385, 0.625, 0.030030030030030033,
         0.01524390243902439),
    ]
    got = [(row.filter_name, row.rain_density, row.report.precision, row.report.recall,
            row.report.f1, row.report.rain_iou)
           for row in benchmark_run(data, list(DEFAULT_PARAMS.items()))]
    assert got == rows


@pytest.mark.parametrize("kind", ["ror", "sor", "dror", "dsor"])
def test_shared_indexes_change_no_trial(kind):
    """Every trial tune_filter draws scores the same on its clouds' shared tables
    as on fresh copies of the clouds, whose tables are built at the trial's k."""
    data = pairs(rain_dataset(4, seed=10))
    seed, n_samples, n_trials = 21, 3, 40
    params, f1 = tune_filter(kind, data, n_samples=n_samples, n_trials=n_trials, seed=seed)

    rng = np.random.default_rng(seed)
    subset = [data[i] for i in rng.choice(len(data), size=n_samples, replace=False)]
    best = (None, -1.0)
    for _ in range(n_trials):
        trial = _sample_params(kind, DEFAULT_SEARCH_SPACES[kind], rng)
        score = pooled_f1(subset, trial)
        fresh = [(PointCloud(cloud.coords, cloud.intensity), labels) for cloud, labels in subset]
        assert pooled_f1(fresh, trial) == score
        if score > best[1]:
            best = (trial, score)
    assert (params, f1) == best
