"""Command-line frontend composing the pipeline end to end.

Subcommands: scene, simulate, derain, annotate, transfer, eval, tune, bench.
All randomness flows from a single --seed flag; per-stage seeds are derived
by hashing (seed, stage name) so one knob reproduces everything. Exit codes:
0 success, 1 validated-input failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from pathlib import Path

from . import fileio
from .annotate import RansacConfig, auto_annotate, transfer_labels
from .core import LabelSet, grid_calibration
from .errors import DerainKitError
from .evaluation import ConfusionCounts, BenchmarkRow, benchmark_run, confusion, derive_metrics, tune_filter
from .filters import KINDS, apply_filter
from .pgm import flatten
from .rainsim import RainConfig, inject_rain
from .scene import BUILTIN_SCENE_NAMES, builtin_scene, raycast_scene

RATE_BY_DENSITY = {"light": 10.0, "medium": 25.0, "heavy": 50.0}

DEFAULT_CALIBRATION = dict(
    v=32, h=128, elevation_span=(-0.42, 0.03), azimuth_span=(-0.7, 0.7),
    r_max=15.0, r_min=0.5, sensor_height=2.0,
)


def stage_seed(seed: int, stage: str) -> int:
    digest = hashlib.sha256(f"{seed}/{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class CliError(DerainKitError):
    """Validated-input failure; maps to exit code 1."""


def _read_path(path: str) -> bytes:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"no such file: {path}")
    return p.read_bytes()


def _load_scene(arg: str):
    if arg in BUILTIN_SCENE_NAMES:
        return builtin_scene(arg)
    return fileio.read_scene_json(_read_path(arg))


def _load_calibration(path: str | None):
    if path is None:
        return grid_calibration(**DEFAULT_CALIBRATION)
    return fileio.read_calibration_json(_read_path(path))


def _emit(text: str, out: str | None) -> None:
    """A command's text: written to ``out`` as it is, else printed ending in one line break."""
    if out:
        Path(out).write_text(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


# ---------------------------------------------------------------- subcommands

def _cmd_scene(args) -> int:
    _emit(fileio.write_scene_json(builtin_scene(args.name)), args.out)
    return 0


def _cmd_simulate(args) -> int:
    spec = _load_scene(args.scene)
    calib = _load_calibration(args.calib)
    grid, labels = raycast_scene(
        spec, calib, noise_sigma=args.noise_sigma, seed=stage_seed(args.seed, "raycast")
    )
    config = RainConfig(rate=args.rate, seed=stage_seed(args.seed, "rain"))
    rainy_grid, rainy_labels = inject_rain(
        grid, labels, calib, config, occlude_returns=not args.no_occlusion
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for tag, g, l in (("clean", grid, labels), ("rainy", rainy_grid, rainy_labels)):
        cloud, unreturned = flatten(g)
        if args.returned_only:
            keep = ~unreturned
            cloud = type(cloud)(cloud.coords[keep], cloud.intensity[keep])
            l = LabelSet(l.labels[keep])
        (out / f"{args.prefix}{tag}.bin").write_bytes(fileio.write_cloud(cloud))
        (out / f"{args.prefix}{tag}.label").write_bytes(fileio.write_labels(l))
    return 0


def _cmd_derain(args) -> int:
    cloud = fileio.read_cloud(_read_path(args.infile))
    params = fileio.read_filter_params_json(_read_path(args.filter))
    keep = apply_filter(cloud, params)
    if args.mask:
        Path(args.mask).write_bytes(fileio.write_mask(keep))
    if args.out:
        filtered = type(cloud)(cloud.coords[keep], cloud.intensity[keep])
        Path(args.out).write_bytes(fileio.write_cloud(filtered))
    return 0


def _cmd_annotate(args) -> int:
    cloud = fileio.read_cloud(_read_path(args.infile))
    scene = fileio.read_annotation_json(_read_path(args.scene))
    cfg = RansacConfig(
        iterations=args.iterations,
        inlier_threshold=args.threshold,
        seed=stage_seed(args.seed, "ransac"),
    )
    labels = auto_annotate(cloud, scene, cfg, plane_tolerance=args.tolerance)
    Path(args.out).write_bytes(fileio.write_labels(labels))
    return 0


def _cmd_transfer(args) -> int:
    src_cloud = fileio.read_cloud(_read_path(args.src_cloud))
    src_labels = fileio.read_labels(_read_path(args.src_labels))
    dst_cloud = fileio.read_cloud(_read_path(args.dst))
    Path(args.out).write_bytes(fileio.write_labels(transfer_labels(src_cloud, src_labels, dst_cloud)))
    return 0


def _cmd_eval(args) -> int:
    if len(args.pred) != len(args.gt):
        raise CliError(f"{len(args.pred)} prediction masks vs {len(args.gt)} label files")
    pooled = ConfusionCounts(0, 0, 0, 0)
    for pred_path, gt_path in zip(args.pred, args.gt):
        keep = fileio.read_mask(_read_path(pred_path))
        labels = fileio.read_labels(_read_path(gt_path))
        pooled = pooled + confusion(~keep, labels)
    rows = [BenchmarkRow("pred", "all", derive_metrics(pooled))]
    _emit(fileio.write_results_csv(rows), args.out)
    return 0


def _scan_dataset(root: str):
    """(cloud, labels, density) triples; density = subdirectory name, or "all"."""
    base = Path(root)
    if not base.is_dir():
        raise CliError(f"no such dataset directory: {root}")
    triples = []
    for bin_path in sorted(base.rglob("*.bin")):
        label_path = bin_path.with_suffix(".label")
        if not label_path.is_file():
            continue
        density = bin_path.parent.name if bin_path.parent != base else "all"
        cloud = fileio.read_cloud(bin_path.read_bytes())
        labels = fileio.read_labels(label_path.read_bytes())
        triples.append((cloud, labels, density))
    if not triples:
        raise CliError(f"no .bin/.label pairs under {root}")
    return triples


def _cmd_tune(args) -> int:
    dataset = [(c, l) for c, l, _ in _scan_dataset(args.data)]
    params, best_f1 = tune_filter(
        args.kind,
        dataset,
        n_samples=args.samples,
        n_trials=args.trials,
        seed=stage_seed(args.seed, "tune"),
    )
    _emit(fileio.write_filter_params_json(params), args.out)
    print(f"best pooled F1: {best_f1 * 100:.2f}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    dataset = _scan_dataset(args.data)
    filters = fileio.read_filter_list_json(_read_path(args.filters))
    _emit(fileio.write_results_csv(benchmark_run(dataset, filters)), args.out)
    return 0


# ---------------------------------------------------------------- parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``run`` only parses, so a call pays no set-up."""
    parser = argparse.ArgumentParser(prog="derainkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scene", help="emit a builtin scene as JSON")
    p.add_argument("--name", required=True, choices=BUILTIN_SCENE_NAMES)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scene)

    p = sub.add_parser("simulate", help="raycast a scene and inject rain")
    p.add_argument("--scene", required=True,
                   help="builtin scene name or scene JSON path")
    p.add_argument("--calib", help="calibration JSON path (default: built-in desk-scale grid)")
    p.add_argument("--rate", type=float, required=True, help="rain rate in mm/h")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=0.01)
    p.add_argument("--no-occlusion", action="store_true",
                   help="rain may only fill unreturned beams")
    p.add_argument("--returned-only", action="store_true",
                   help="drop unreturned beams from the output clouds")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--prefix", default="")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("derain", help="apply a statistical filter to a cloud")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--filter", required=True, help="filter params JSON path")
    p.add_argument("--out", help="filtered cloud output (.bin)")
    p.add_argument("--mask", help="keep-mask output (.mask, 1 byte per point)")
    p.set_defaults(func=_cmd_derain)

    p = sub.add_parser("annotate", help="auto-annotate a cloud against scene geometry")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--scene", required=True, help="annotation scene JSON path")
    p.add_argument("--out", required=True)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--tolerance", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("transfer", help="copy labels to a sparse cloud by nearest neighbor")
    p.add_argument("--src-cloud", required=True)
    p.add_argument("--src-labels", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("eval", help="score keep-masks against ground-truth labels")
    p.add_argument("--pred", action="append", required=True, help="keep-mask file (repeatable)")
    p.add_argument("--gt", action="append", required=True, help="label file (repeatable)")
    p.add_argument("--out", help="metrics CSV output")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("tune", help="random-search filter parameters on a dataset")
    p.add_argument("--data", required=True, help="directory of .bin/.label pairs")
    p.add_argument("--kind", required=True, choices=tuple(KINDS))
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="best-params JSON output")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("bench", help="benchmark filters over a dataset")
    p.add_argument("--data", required=True, help="directory of .bin/.label pairs; "
                   "subdirectory names become rain-density tags")
    p.add_argument("--filters", required=True, help="JSON array of {name, params}")
    p.add_argument("--out", help="results CSV output")
    p.set_defaults(func=_cmd_bench)
    return parser


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DerainKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
