"""Binary rain-detection metrics, benchmark orchestration, and parameter tuning.

Metrics treat rain (class 2) as the positive class: a filter's removed points
are its rain predictions. Reports pool confusion counts over all clouds in a
group before deriving percentages (micro-averaging), and the rain-class IoU
satisfies iou = f1 / (2 - f1) whenever tp + fp + fn > 0.
"""
from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import RAIN, ConfusionCounts, LabelSet
from .errors import EmptyDatasetError, EmptySearchSpaceError, LengthMismatchError
from .filters import DEFAULT_PARAMS, KINDS, FilterParams, apply_filter  # DEFAULT_PARAMS re-exported


@dataclass(frozen=True)
class MetricReport:
    """Fractions in [0, 1] plus optional mean wall time per cloud (ms)."""

    precision: float
    recall: float
    f1: float
    rain_iou: float
    wall_time_ms: float | None = None


@dataclass(frozen=True)
class BenchmarkRow:
    filter_name: str
    rain_density: str
    report: MetricReport


def confusion(pred_removed: np.ndarray, gt_labels: LabelSet) -> ConfusionCounts:
    """Tally the binary rain task; pred_removed[i] = True means "classified rain"."""
    pred_removed = np.asarray(pred_removed, dtype=bool).reshape(-1)
    if pred_removed.shape[0] != gt_labels.count:
        raise LengthMismatchError(
            f"prediction ({pred_removed.shape[0]}) does not match labels ({gt_labels.count})"
        )
    is_rain = gt_labels.labels == RAIN
    return ConfusionCounts(
        tp=int((pred_removed & is_rain).sum()),
        fp=int((pred_removed & ~is_rain).sum()),
        fn=int((~pred_removed & is_rain).sum()),
        tn=int((~pred_removed & ~is_rain).sum()),
    )


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

    Counts pool per filter and density group. wall_time_ms is the mean filter
    time per cloud on a built table: each cloud's is warmed before any timing.
    Row order: filters in given order, densities in first-seen order.
    """
    dataset, filters = list(dataset), list(filters)
    if not dataset:
        raise EmptyDatasetError("benchmark dataset is empty")
    counts = [getattr(p, p.count) for _, p in filters]
    _warm([cloud for cloud, _, _ in dataset], max(counts, default=0))
    densities = list(dict.fromkeys(tag for _, _, tag in dataset))
    rows = []
    for name, params in filters:
        for density in densities:
            pooled = ConfusionCounts(0, 0, 0, 0)
            times = []
            for cloud, labels, tag in dataset:
                if tag != density:
                    continue
                start = time.perf_counter()
                keep = apply_filter(cloud, params)
                times.append((time.perf_counter() - start) * 1e3)
                pooled = pooled + confusion(~keep, labels)
            rows.append(BenchmarkRow(name, density,
                                     derive_metrics(pooled, float(np.mean(times)))))
    return rows


# Search-space entries are (kind, low, high) with kind in {"lin", "log", "int"}.
DEFAULT_SEARCH_SPACES = {kind: cls.space for kind, cls in KINDS.items()}


def _check_space(kind: str, space: dict) -> None:
    """A space names exactly the kind's fields, each with finite low <= high, log ones > 0."""
    names = [f.name for f in dataclasses.fields(KINDS[kind])]
    if set(space) != set(names):
        raise EmptySearchSpaceError(f"search space must name exactly {names}, got {list(space)}")
    for name, (dist, low, high) in space.items():
        if (dist not in ("lin", "log", "int") or not (math.isfinite(low) and math.isfinite(high))
                or low > high or (dist == "log" and low <= 0)):
            raise EmptySearchSpaceError(f"bad search range for {name}: {(dist, low, high)}")


def _sample_params(kind: str, space: dict, rng: np.random.Generator) -> FilterParams:
    values = {}
    for name, (dist, low, high) in space.items():
        if dist == "int":
            values[name] = int(rng.integers(low, high + 1))
        elif dist == "log":
            values[name] = float(np.exp(rng.uniform(np.log(low), np.log(high))))
        else:
            values[name] = float(rng.uniform(low, high))
    return KINDS[kind](**values)


def _warm(clouds, k: int) -> None:
    """Build each non-empty cloud's kNN table at least k columns wide."""
    for cloud in (c for c in clouds if c.count):
        cloud.index.knn_dists(k)


def pooled_f1(dataset, params: FilterParams) -> float:
    """Pooled rain-class F1 of one filter over (cloud, labels) pairs."""
    pooled = ConfusionCounts(0, 0, 0, 0)
    for cloud, labels in dataset:
        pooled = pooled + confusion(~apply_filter(cloud, params), labels)
    return derive_metrics(pooled).f1


def tune_filter(
    kind: str,
    dataset,
    n_samples: int = 100,
    n_trials: int = 100,
    seed: int = 0,
    search_space: dict | None = None,
) -> tuple[FilterParams, float]:
    """Random-search parameter tuning maximizing pooled rain-class F1.

    Draws up to n_samples (cloud, labels) pairs without replacement, then
    evaluates n_trials independently sampled parameter vectors; ties keep the
    earliest trial. Fully determined by seed. Each sampled cloud's kNN table
    is warmed once at the space's largest neighbor count, so trials only read it.
    A custom search_space is checked before any draw (``EmptySearchSpaceError``).
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyDatasetError("tuning dataset is empty")
    if kind not in KINDS:
        raise EmptySearchSpaceError(f"unknown filter kind {kind!r}")
    space = DEFAULT_SEARCH_SPACES[kind] if search_space is None else search_space
    _check_space(kind, space)
    if n_trials < 1:
        raise EmptySearchSpaceError("n_trials must be >= 1")

    rng = np.random.default_rng(seed)
    take = min(n_samples, len(dataset))
    subset_idx = rng.choice(len(dataset), size=take, replace=False)
    subset = [dataset[i] for i in subset_idx]
    _warm([cloud for cloud, _ in subset], int(space[KINDS[kind].count][2]))

    best_params = None
    best_f1 = -1.0
    for _ in range(n_trials):
        params = _sample_params(kind, space, rng)
        score = pooled_f1(subset, params)
        if score > best_f1:
            best_f1 = score
            best_params = params
    return best_params, best_f1
