"""Self-test of the benchmark harness on its smallest sizes.

    python3 bench/selftest.py

For every workload, at the SMOKE sizes, it checks:

- the result schema: exactly the keys correct, attempted, failed and metrics,
  and every metric of BENCHMARK.json present, numeric and with its unit;
- that the seed code passes every output check (no failed operations);
- that every count repeats exactly between two traced runs with one seed;
- that the counts match the outputs they describe, recounted here from the
  outputs themselves, e.g. rainsim.beams_rained == (labels == RAIN).sum().

It also checks that run_bench.py, run where src/ is missing, exits with a
non-zero code and prints no result. Exits 0 when everything holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import harness
import run_bench

SEED = 3
SECONDS = 0.5
FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_schema(name, result, spec_metrics):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{name}: {result['attempted']} attempted, {result['failed']} failed")
    json.loads(json.dumps(result))
    metrics = result["metrics"]
    expect(list(metrics) == [m["name"] for m in spec_metrics], f"{name}: metric names")
    for entry in spec_metrics:
        metric = metrics.get(entry["name"], {})
        expect(metric.get("unit") == entry["unit"] and isinstance(metric.get("value"), float),
               f"{name}: {entry['name']} = {metric.get('value')} {metric.get('unit')}")


def recount(name, workload, seed):
    """Counts of the first traced round (index 1), recounted from its outputs."""
    import numpy as np
    import derainkit as dk
    from derainkit import fileio
    from derainkit.core import RAIN
    from derainkit.rainsim import beam_field_bounds, sample_drop_field

    off = harness.Tracer()
    inputs = workload.setup(seed, off)
    try:
        out = workload.round(inputs, 1, off)
        if name == "rain_sim":
            return {
                "rainsim.drops": sum(len(sample_drop_field(s.config,
                                                           beam_field_bounds(inputs.calib)))
                                     for s in out),
                "rainsim.beams_rained": sum(int((s.rainy_labels.labels == RAIN).sum())
                                            for s in out),
                "rainsim.returns_occluded": sum(
                    int(((s.rainy_labels.labels == RAIN) & ~s.clean.unreturned.reshape(-1)).sum())
                    for s in out),
            }
        if name == "tune":
            dataset = inputs
            points = sum(cloud.count for cloud, _, _ in dataset)
            removed = sum(int((~dk.apply_filter(cloud, params)).sum())
                          for cloud, _, _ in dataset for params, _ in out.tuned.values())
            return {
                "filters.points": len(out.tuned) * points,
                "filters.points_removed": removed,
                "evaluation.cloud_trials": workload.cloud_trials(dataset),
                **{f"evaluation.best_f1.{k}": f1 for k, (_, f1) in out.tuned.items()},
            }
        work = inputs.work
        clean = fileio.read_cloud((work / "sim" / "clean.bin").read_bytes())
        rainy_labels = fileio.read_labels((work / "sim" / "rainy.label").read_bytes())
        filtered = fileio.read_cloud((work / "filtered.bin").read_bytes())
        keep = np.frombuffer((work / "keep.mask").read_bytes(), dtype="u1")
        rained = int((rainy_labels.labels == RAIN).sum())
        return {
            "rainsim.beams_rained": rained,
            # rain either replaced a clean return or filled an unreturned beam
            "rainsim.returns_occluded": rained - (rainy_labels.count - clean.count),
            "filters.points": rainy_labels.count,
            "filters.points_removed": int((keep == 0).sum()),
            "annotate.transfer_pairs": clean.count * filtered.count,
        }
    finally:
        workload.close()


def main() -> int:
    spec = run_bench.load_spec()
    workloads = run_bench.import_workloads()
    for name in run_bench.WORKLOADS:
        result, _, _ = run_bench.run_workload(name, SEED, SECONDS, False, workloads.SMOKE)
        check_schema(f"{name} --trace 0", result, spec["end_to_end"])
        expect(all(m["value"] > 0 for m in result["metrics"].values()),
               f"{name}: end-to-end metrics are non-zero")

        traced = [run_bench.run_workload(name, SEED, SECONDS, True, workloads.SMOKE)
                  for _ in range(2)]
        check_schema(f"{name} --trace 1", traced[0][0], spec["per_layer"])
        counts = [{k: m["value"] for k, m in t[0]["metrics"].items() if m["unit"] == "count"}
                  for t in traced]
        expect(counts[0] == counts[1], f"{name}: counts repeat exactly for one seed")
        workload = traced[0][2]
        for metric in workload.per_layer:
            expect(traced[0][0]["metrics"][metric]["value"] != 0 or metric.endswith("_occluded"),
                   f"{name}: {metric} recorded")

        expected = recount(name, workloads.make(name, run_bench.ROOT / ".bench_work",
                                                workloads.SMOKE), SEED)
        for metric, value in expected.items():
            got = traced[0][0]["metrics"][metric]["value"]
            expect(got == value, f"{name}: {metric} {got} matches outputs ({value})")

    (run_bench.ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run_bench.ROOT / ".bench_work") as bare:
        shutil.copytree(run_bench.BENCH_DIR, f"{bare}/bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run_bench.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run_bench.py", "--workload", "rain_sim",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"without src/ the benchmark exits {proc.returncode} and prints no result")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
