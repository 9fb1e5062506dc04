"""derainkit benchmark: three closed-loop workloads through the public API and CLI.

    python3 bench/run_bench.py --workload rain_sim --seed 1 --seconds 10 --trace 0
    python3 bench/run_bench.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: it imports derainkit from the checkout's
``src/`` and nothing else, and exits with code 2 if that is missing. Metric
names and units come from ``BENCHMARK.json``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run. Output: one line per metric, a ``# env`` line, and as the last line one
JSON object with the keys correct, attempted, failed and metrics.

``--workload all`` runs every workload in its own process, one after the
other, and merges their results under ``<workload>.<metric>``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("rain_sim", "tune", "dense_scan")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed work per run; whole rounds, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_workloads():
    """The workloads module, with derainkit imported from this checkout's sources."""
    if not (SRC / "derainkit" / "__init__.py").is_file():
        raise ImportError(f"no derainkit sources under {SRC}")
    harness.pin_process()
    sys.path.insert(0, str(SRC))
    import derainkit

    if not Path(derainkit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"derainkit was imported from {derainkit.__file__}, not {SRC}")
    import workloads

    return workloads


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None):
    """Run one workload in this process; returns (result, native rate, workload)."""
    workloads = import_workloads()
    spec = load_spec()
    workload = workloads.make(name, ROOT / ".bench_work", sizes or workloads.FULL)
    attempted, failed, end_to_end, per_layer, rate = harness.run(workload, seed, seconds, trace)
    if trace:
        metrics = harness.select_metrics(spec["per_layer"], per_layer,
                                         workload.per_layer | {"trace.overhead_pct"}, failed)
    else:
        metrics = harness.select_metrics(spec["end_to_end"], end_to_end)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, rate, workload


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, rate, workload = run_workload(args.workload, args.seed, args.seconds,
                                              bool(args.trace))
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    harness.print_result(args.workload, result, (*workload.rate, rate), harness.environment(SRC))
    return 0


if __name__ == "__main__":
    sys.exit(main())
