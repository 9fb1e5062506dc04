"""Workload-independent parts of the benchmark: spans, the closed loop, results.

A workload object supplies:

- ``name``; ``rate``, the name and unit of its native throughput, printed
  for reading only; and ``per_layer``, the per-layer metrics it records.
  Every other per-layer metric reads 0 on it: that layer is not on its path;
- ``setup(seed, tracer)``, which builds the inputs;
- ``round(inputs, index, tracer)``, the timed unit of work;
- ``finish(inputs, output)``, which checks a round's outputs outside the
  timed region and returns a :class:`RoundReport`;
- ``probe(inputs, output, tracer)``, which runs in traced rounds that passed
  their checks, outside the round's timed window. It calls layers directly
  for per-layer numbers and returns how many replays disagreed with the round;
- ``close()``, which removes what the workload wrote.
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is timed in batches that each repeat it for at least this long; one
# batch runs before the rounds and the others after them. A shared 2-vCPU
# virtual machine was measured switching between fast and slow phases lasting
# from a fraction of a second to minutes, so a set-up of 0.1 ms timed once
# reads one phase or the other; batches that span the run average over the
# short phases as the rounds do.
SETUP_BATCHES = 3
SETUP_BATCH_SECONDS = 0.5

M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
MMAP_THRESHOLD = 32 * 1024 * 1024  # the ceiling glibc's dynamic threshold rises to


def pin_process() -> None:
    """One BLAS/OpenMP thread and a fixed malloc mmap threshold.

    Must run before numpy is imported. glibc raises its mmap threshold as
    large blocks are freed, so where a later 16 MB temporary lands, and so
    the peak RSS, depended on the allocator's history: one dense_scan chain
    peaked at 178 or 205 MB depending on what ran before it. Starting at the
    threshold's ceiling keeps the speed of a warmed-up allocator (a low
    fixed threshold made rain_sim ~25% slower through page faults) and makes
    the peak repeat.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:  # glibc
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


@dataclass(frozen=True)
class RoundReport:
    ops: int  # operations attempted in the round
    failed: int  # operations whose output check failed
    points: int  # points through the round's timed path
    work: float  # the workload's native unit (scans, cloud trials)


@dataclass(frozen=True)
class Span:
    group: str
    name: str
    start: float
    end: float


class Tracer:
    """In-memory spans and counts, grouped by setup repetition or round.

    Inactive tracers record nothing, so untraced code pays one attribute
    test per span.
    """

    def __init__(self):
        self.active = False
        self.group = ""
        self.spans: list[Span] = []
        self.values: dict[str, dict[str, float]] = {}

    def begin(self, group: str, active: bool) -> None:
        self.group = group
        self.active = active

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(self.group, name, start, time.perf_counter()))

    def add(self, name: str, value: float) -> None:
        """Add to a count of the current group."""
        if self.active:
            group = self.values.setdefault(self.group, {})
            group[name] = group.get(name, 0) + value

    def summary(self) -> dict[str, float]:
        """Span time: median over groups of the per-group total, in seconds.

        Counts come from the first group that recorded them, so they repeat
        exactly for a given seed however many rounds the run fits in.
        """
        per_group: dict[str, dict[str, float]] = {}
        for sp in self.spans:
            totals = per_group.setdefault(sp.name, {})
            totals[sp.group] = totals.get(sp.group, 0.0) + (sp.end - sp.start)
        out = {name: statistics.median(totals.values()) for name, totals in per_group.items()}
        for group in self.values.values():
            for name, value in group.items():
                out.setdefault(name, value)
        return out


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(src_dir) -> dict:
    import numpy
    import scipy

    reads_threads_var = any("DERAINKIT_THREADS" in path.read_text()
                            for path in src_dir.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "DERAINKIT_THREADS": os.environ.get("DERAINKIT_THREADS"),
        "derainkit_reads_DERAINKIT_THREADS": reads_threads_var,
        "malloc_mmap_threshold": MMAP_THRESHOLD if hasattr(ctypes.CDLL(None), "mallopt") else None,
    }


def run(workload, seed: int, seconds: float, trace: bool):
    """Set up, then run whole rounds until ``seconds`` of timed work are done.

    With ``trace`` the rounds alternate untraced and traced, so the run
    reports the tracing overhead against untraced rounds of the same process.
    Returns (attempted, failed, end-to-end values, per-layer values, native rate).
    """
    try:
        return _run(workload, seed, seconds, trace)
    finally:
        workload.close()


def _setup_batch(workload, seed, tracer, group, trace):
    """Set up repeatedly for SETUP_BATCH_SECONDS; returns (inputs, mean seconds)."""
    reps = 0
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < SETUP_BATCH_SECONDS or not reps:
        tracer.begin(group, trace and not reps)  # spans: first set-up of a batch
        inputs = workload.setup(seed, tracer)
        reps += 1
        elapsed = time.perf_counter() - start
    return inputs, elapsed / reps


def _run(workload, seed, seconds, trace):
    tracer = Tracer()
    inputs, first_setup = _setup_batch(workload, seed, tracer, "setup0", trace)

    attempted = failed = 0
    rounds = {False: [], True: []}  # traced -> [(seconds, report)]
    measured = 0.0
    index = 0
    while measured < seconds or (trace and not (rounds[False] and rounds[True])):
        traced = trace and index % 2 == 1
        tracer.begin(f"round{index}", traced)
        start = time.perf_counter()
        output = workload.round(inputs, index, tracer)
        elapsed = time.perf_counter() - start
        report = workload.finish(inputs, output)
        if traced and not report.failed:
            failed += workload.probe(inputs, output, tracer)
        attempted += report.ops
        failed += report.failed
        rounds[traced].append((elapsed, report))
        measured += elapsed
        index += 1

    setup_times = [first_setup] + [_setup_batch(workload, seed, tracer, f"setup{i}", trace)[1]
                                   for i in range(1, SETUP_BATCHES)]
    untraced = rounds[False]
    end_to_end = {
        "points_per_s": statistics.median(r.points / dt for dt, r in untraced),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    rate = statistics.median(r.work / dt for dt, r in untraced)
    per_layer = tracer.summary()
    if trace:
        base = statistics.median(dt for dt, _ in untraced)
        with_spans = statistics.median(dt for dt, _ in rounds[True])
        per_layer["trace.overhead_pct"] = 100.0 * (with_spans - base) / base
    return attempted, failed, end_to_end, per_layer, rate


def select_metrics(spec: list[dict], values: dict, recorded_by_workload=None,
                   failed: int = 0) -> dict:
    """Metrics named in BENCHMARK.json, each with its unit.

    A metric the workload does not declare is outside its path and reads 0.
    One it declares must have been recorded, unless operations failed:
    probes skip failed rounds, and the result already says it is not correct.
    """
    out = {}
    for entry in spec:
        name = entry["name"]
        if name in values:
            value = values[name]
        elif recorded_by_workload is not None and (failed or name not in recorded_by_workload):
            value = 0
        else:
            raise RuntimeError(f"metric {name} was not recorded")
        out[name] = {"value": float(value), "unit": entry["unit"]}
    return out


def print_result(workload_name: str, result: dict, rate: tuple, env: dict) -> None:
    """Readable lines, the environment, then the result as the last line.

    ``rate`` is (name, unit, value) of the workload's native throughput.
    """
    print("# env " + json.dumps(env, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{workload_name:<11} {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{workload_name:<11} {rate[0]:<28} {rate[2]:>14.6g} {rate[1]}")
    print(f"{workload_name:<11} {'attempted/failed':<28} {result['attempted']:>8d} / {result['failed']}")
    print(json.dumps(result))
    sys.stdout.flush()
