"""Binary rain-detection metrics, benchmark orchestration, and parameter tuning.

Metrics treat rain (class 2) as the positive class: a filter's removed points
are its rain predictions. Reports pool confusion counts over all clouds in a
group before deriving percentages (micro-averaging), and the rain-class IoU
satisfies iou = f1 / (2 - f1) whenever tp + fp + fn > 0.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import RAIN, ConfusionCounts, LabelSet, check_seed, is_integer
from .errors import EmptyDatasetError, EmptySearchSpaceError, InvalidInputError
from .filters import DEFAULT_PARAMS, KINDS, CloudStack, FilterParams  # DEFAULT_PARAMS re-exported


@dataclass(frozen=True)
class MetricReport:
    """Fractions in [0, 1] plus optional mean wall time per cloud (ms)."""

    precision: float
    recall: float
    f1: float
    rain_iou: float
    wall_time_ms: float | None = None

    def __post_init__(self):
        # NaN fails every comparison, so it fails both checks.
        if not all(0 <= f <= 1 for f in (self.precision, self.recall, self.f1, self.rain_iou)):
            raise InvalidInputError("precision, recall, f1 and rain_iou must be in [0, 1]")
        if not (self.wall_time_ms is None or 0 <= self.wall_time_ms < np.inf):
            raise InvalidInputError("wall_time_ms must be None, or finite and >= 0")


@dataclass(frozen=True)
class BenchmarkRow:
    filter_name: str
    rain_density: str
    report: MetricReport


def confusion(pred_removed: np.ndarray, gt_labels: LabelSet) -> ConfusionCounts:
    """Tally the binary rain task; pred_removed[i] = True means "classified rain"."""
    pred_removed = np.asarray(pred_removed, dtype=bool).reshape(-1)
    gt_labels.check_count(pred_removed.shape[0], "predictions")
    return _tally(pred_removed, gt_labels.labels == RAIN)


def _tally(removed: np.ndarray, is_rain: np.ndarray) -> ConfusionCounts:
    tp = int(np.count_nonzero(removed & is_rain))
    fp = int(np.count_nonzero(removed)) - tp
    fn = int(np.count_nonzero(is_rain)) - tp
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=len(removed) - tp - fp - fn)


def _stack(pairs, params) -> tuple[CloudStack, np.ndarray]:
    """A CloudStack of the (cloud, labels) pairs' indexes for params, and their rain flags."""
    for cloud, labels in pairs:
        labels.check_count(cloud.count, "points")
    is_rain = np.concatenate([np.zeros(0, bool), *(labels.labels == RAIN for _, labels in pairs)])
    return CloudStack([cloud.index for cloud, _ in pairs], params), is_rain


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def f1_from_precision_recall(precision: float, recall: float) -> float:
    return _safe_div(2.0 * precision * recall, precision + recall)


def iou_from_f1(f1: float) -> float:
    """Rain-class IoU from F1 via the algebraic identity iou = f1 / (2 - f1)."""
    return _safe_div(f1, 2.0 - f1)


def derive_metrics(counts: ConfusionCounts, wall_time_ms: float | None = None) -> MetricReport:
    """Precision, recall, F1, and rain IoU from pooled counts; 0/0 cases yield 0."""
    precision = _safe_div(counts.tp, counts.tp + counts.fp)
    recall = _safe_div(counts.tp, counts.tp + counts.fn)
    return MetricReport(
        precision=precision,
        recall=recall,
        f1=f1_from_precision_recall(precision, recall),
        rain_iou=_safe_div(counts.tp, counts.tp + counts.fp + counts.fn),
        wall_time_ms=wall_time_ms,
    )


def benchmark_run(dataset, filters) -> list[BenchmarkRow]:
    """Evaluate (name, params) filters over (cloud, labels, density tag) triples.

    Counts pool per filter and density group. Each filter runs once per
    group over all its rows, on a ``CloudStack`` of its own built before the
    clock starts; wall_time_ms is that run's time divided by the group's cloud
    count, the mean filter time per cloud on a built table. The run includes
    gathering the statistic its rule reads, so a filter's time does not
    depend on the filters before it.
    Row order: filters in given order, densities in first-seen order.
    """
    dataset, filters = list(dataset), list(filters)
    if not dataset:
        raise EmptyDatasetError("benchmark dataset is empty")
    groups = {}
    for cloud, labels, tag in dataset:
        groups.setdefault(tag, []).append((cloud, labels))
    rows = []
    for name, params in filters:
        for density, pairs in groups.items():
            stack, is_rain = _stack(pairs, [params])
            start = time.perf_counter()
            keep = stack.keep(params)
            ms = (time.perf_counter() - start) * 1e3 / len(pairs)
            rows.append(BenchmarkRow(name, density, derive_metrics(_tally(~keep, is_rain), ms)))
    return rows


def _sample_params(kind: str, rng: np.random.Generator) -> FilterParams:
    """One params draw from ``KINDS[kind].space``, whose entries are name: (dist, low, high)
    with dist in {"lin", "log", "int"}; one rng call per entry, in key order."""
    values = {}
    for name, (dist, low, high) in KINDS[kind].space.items():
        if dist == "int":
            values[name] = int(rng.integers(low, high + 1))
        elif dist == "log":
            values[name] = float(np.exp(rng.uniform(np.log(low), np.log(high))))
        else:
            values[name] = float(rng.uniform(low, high))
    return KINDS[kind](**values)


def pooled_f1(dataset, params: FilterParams) -> float:
    """Pooled rain-class F1 of one filter over (cloud, labels) pairs."""
    stack, is_rain = _stack(list(dataset), [params])
    return derive_metrics(_tally(~stack.keep(params), is_rain)).f1


def tune_filter(
    kind: str,
    dataset,
    n_samples: int = 100,
    n_trials: int = 100,
    seed: int = 0,
) -> tuple[FilterParams, float]:
    """Random-search parameter tuning maximizing pooled rain-class F1.

    Draws up to n_samples (cloud, labels) pairs without replacement, then
    evaluates n_trials independently sampled parameter vectors; ties keep the
    earliest trial. n_samples and n_trials are integers >= 1; fully determined
    by seed, which ``check_seed`` checks. The sampled clouds' indexes are
    stacked once (``CloudStack``, which reads each kNN table in place and
    keeps, for this call, each (rule, count) statistic the trials read), so
    each trial is one comparison over all their points and one pooled count.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyDatasetError("tuning dataset is empty")
    if kind not in KINDS:
        raise EmptySearchSpaceError(f"unknown filter kind {kind!r}")
    for name, n in (("n_samples", n_samples), ("n_trials", n_trials)):
        if not (is_integer(n) and n >= 1):
            raise EmptySearchSpaceError(f"{name} must be an integer >= 1")
    check_seed(seed)

    rng = np.random.default_rng(seed)
    take = min(n_samples, len(dataset))
    subset_idx = rng.choice(len(dataset), size=take, replace=False)
    subset = [dataset[i] for i in subset_idx]
    trials = [_sample_params(kind, rng) for _ in range(n_trials)]
    stack, is_rain = _stack(subset, trials)

    best_params = None
    best_f1 = -1.0
    for params in trials:
        score = derive_metrics(_tally(~stack.keep(params), is_rain)).f1
        if score > best_f1:
            best_f1 = score
            best_params = params
    return best_params, best_f1
