"""The three benchmark workloads.

All use the ``rehearse-like`` scene, range noise 0.01 m, elevation
-0.42..0.03 rad and azimuth +-0.7 rad. Every scan's seeds are derived from
the harness's ``--seed`` with ``derainkit.cli.stage_seed``, so one seed fixes
every input. One caller, closed loop: a round starts when the previous one
and its checks are done.

- ``rain_sim``: raycast -> inject_rain -> flatten on the CLI's default
  32x128 / 15 m calibration at 10, 25 and 50 mm/h. Rain injection is over
  99% of the time; its drop field grows with r_max^3.
- ``tune``: tune_filter for all four kinds over 24 returned-only clouds on
  the 16x64 / 8 m grid, then benchmark_run with the default filters. Filters
  and evaluation do the work; rain simulation happens only in setup.
- ``dense_scan``: the CLI chain simulate -> derain -> annotate -> transfer ->
  eval on 64x512 / 6 m at 25 mm/h: many beams, few drops, the largest clouds
  and brute-force label transfer. The only workload using fileio and cli.
"""
from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

import derainkit as dk
from derainkit import cli, fileio
from derainkit.core import RAIN
from derainkit.evaluation import DEFAULT_PARAMS, pooled_f1
from derainkit.filters import brute_force_mask
from derainkit.rainsim import beam_field_bounds, sample_drop_field

from harness import RoundReport

SCENE = "rehearse-like"
NOISE_SIGMA = 0.01
DESK = dict(elevation_span=(-0.42, 0.03), azimuth_span=(-0.7, 0.7), r_min=0.5, sensor_height=2.0)
KINDS = ("ror", "sor", "dror", "dsor")
RATES = cli.RATE_BY_DENSITY  # light 10, medium 25, heavy 50 mm/h
RANSAC = dk.RansacConfig()  # the CLI's defaults: 200 iterations, 0.05 m
CHECK_FAILURES = (ValueError, OSError)  # DerainKitError is a ValueError


@dataclass(frozen=True)
class Sizes:
    """Grid (v, h, r_max) and amounts of work per workload."""

    rain_grid: tuple = (cli.DEFAULT_CALIBRATION["v"], cli.DEFAULT_CALIBRATION["h"],
                        cli.DEFAULT_CALIBRATION["r_max"])
    tune_grid: tuple = (16, 64, 8.0)
    tune_clouds_per_density: int = 8
    tune_trials: int = 10
    dense_grid: tuple = (64, 512, 6.0)
    dense_rate: float = 25.0


FULL = Sizes()
SMOKE = Sizes(rain_grid=(8, 32, 4.0), tune_grid=(16, 64, 5.0), tune_clouds_per_density=1,
              tune_trials=2, dense_grid=(16, 128, 6.0))


def calibration(grid) -> dk.SensorCalibration:
    v, h, r_max = grid
    return dk.grid_calibration(v, h, r_max=r_max, **DESK)


# ---------------------------------------------------------------- rain scans

@dataclass
class Scan:
    config: dk.RainConfig
    clean: dk.PolarGridMap
    clean_labels: dk.LabelSet
    rainy: dk.PolarGridMap
    rainy_labels: dk.LabelSet
    cloud: dk.PointCloud
    unreturned: np.ndarray


def simulate_scan(spec, calib, rate, seed, tracer) -> Scan:
    """raycast -> inject_rain -> flatten, each call in its own span."""
    with tracer.span("scene.raycast_s"):
        grid, labels = dk.raycast_scene(spec, calib, noise_sigma=NOISE_SIGMA,
                                        seed=cli.stage_seed(seed, "raycast"))
    config = dk.RainConfig(rate=rate, seed=cli.stage_seed(seed, "rain"))
    with tracer.span("rainsim.inject_s"):
        rainy, rainy_labels = dk.inject_rain(grid, labels, calib, config)
    with tracer.span("pgm.flatten_s"):
        cloud, unreturned = dk.flatten(rainy)
    return Scan(config, grid, labels, rainy, rainy_labels, cloud, unreturned)


def rained_cells(scan: Scan) -> np.ndarray:
    """Cells the injector changed, found from the geometry alone."""
    return ((scan.rainy.ranges != scan.clean.ranges)
            | (scan.rainy.unreturned != scan.clean.unreturned)).reshape(-1)


def count_rain(scan: Scan, calib, tracer) -> None:
    """Rain counts of one scan; the drop count needs a second drop-field draw."""
    if not tracer.active:
        return
    rained = rained_cells(scan)
    tracer.add("rainsim.drops", len(sample_drop_field(scan.config, beam_field_bounds(calib))))
    tracer.add("rainsim.beams_rained", int(rained.sum()))
    tracer.add("rainsim.returns_occluded",
               int((rained & ~scan.clean.unreturned.reshape(-1)).sum()))


def scan_ok(scan: Scan, calib) -> bool:
    """Rain cells are valid rain returns; every other cell is the clean cell."""
    rain = scan.rainy_labels.labels == RAIN
    clean_r = scan.clean.ranges.reshape(-1)
    limit = np.where(scan.clean.unreturned.reshape(-1), calib.r_max, clean_r)
    r = scan.rainy.ranges.reshape(-1)
    rain_ok = (
        not (scan.clean_labels.labels == RAIN).any()
        and (scan.rainy.intensity.reshape(-1)[rain] == scan.config.rain_reflectance).all()
        and ((r[rain] >= calib.r_min) & (r[rain] < limit[rain])).all()
        and not scan.rainy.unreturned.reshape(-1)[rain].any()
    )
    keep = ~rain
    other_ok = all(
        np.array_equal(new.reshape(len(rain), -1)[keep], old.reshape(len(rain), -1)[keep])
        for new, old in ((scan.rainy.coords, scan.clean.coords),
                         (scan.rainy.intensity, scan.clean.intensity),
                         (scan.rainy.ranges, scan.clean.ranges),
                         (scan.rainy.unreturned, scan.clean.unreturned),
                         (scan.rainy_labels.labels, scan.clean_labels.labels))
    )
    flat_ok = (np.array_equal(scan.cloud.coords, scan.rainy.coords.reshape(-1, 3))
               and np.array_equal(scan.unreturned, scan.rainy.unreturned.reshape(-1)))
    return bool(rain_ok and other_ok and flat_ok)


class Workload:
    """Defaults shared by the workloads; see harness.py for the interface."""

    def probe(self, inputs, output, tracer) -> int:
        return 0

    def close(self) -> None:
        pass


class RainInputs(NamedTuple):
    seed: int
    spec: dk.SceneSpec
    calib: dk.SensorCalibration


class RainSim(Workload):
    name = "rain_sim"
    rate = ("scans_per_s", "scans/s")
    per_layer = {"scene.raycast_s", "rainsim.inject_s", "pgm.flatten_s", "rainsim.drops",
                 "rainsim.beams_rained", "rainsim.returns_occluded"}

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def setup(self, seed, tracer):
        return RainInputs(seed, dk.builtin_scene(SCENE), calibration(self.sizes.rain_grid))

    def round(self, inputs, index, tracer):
        return [simulate_scan(inputs.spec, inputs.calib, rate,
                              cli.stage_seed(inputs.seed, f"rain_sim/{index}/{name}"), tracer)
                for name, rate in RATES.items()]

    def finish(self, inputs, scans):
        failed = sum(not scan_ok(scan, inputs.calib) for scan in scans)
        return RoundReport(ops=len(scans), failed=failed,
                           points=sum(s.cloud.count for s in scans), work=len(scans))

    def probe(self, inputs, scans, tracer):
        for scan in scans:
            count_rain(scan, inputs.calib, tracer)
        return 0


# ---------------------------------------------------------------- tuning

@dataclass
class TuneOutput:
    tuned: dict  # kind -> (params, best F1)
    rows: list  # benchmark_run rows


def _row_key(row):
    rep = row.report
    return row.filter_name, row.rain_density, rep.precision, rep.recall, rep.f1, rep.rain_iou


class Tune(Workload):
    name = "tune"
    rate = ("cloud_trials_per_s", "(trial*cloud)/s")
    per_layer = {"scene.raycast_s", "rainsim.inject_s", "pgm.flatten_s", "rainsim.drops",
                 "rainsim.beams_rained", "rainsim.returns_occluded",
                 "filters.index_build_s", "filters.points", "filters.points_removed",
                 "evaluation.trial_ms", "evaluation.cloud_trials", "evaluation.benchmark_run_s",
                 *(f"filters.query_s.{k}" for k in KINDS),
                 *(f"evaluation.tune_s.{k}" for k in KINDS),
                 *(f"evaluation.best_f1.{k}" for k in KINDS)}

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes
        self.reference = None  # round 0's checked output

    def setup(self, seed, tracer):
        """24 returned-only rainy clouds, 8 per density, tagged by density."""
        spec = dk.builtin_scene(SCENE)
        calib = calibration(self.sizes.tune_grid)
        dataset = []
        for density, rate in RATES.items():
            for j in range(self.sizes.tune_clouds_per_density):
                scan = simulate_scan(spec, calib, rate,
                                     cli.stage_seed(seed, f"tune/{density}/{j}"), tracer)
                count_rain(scan, calib, tracer)
                keep = ~scan.unreturned
                cloud = dk.PointCloud(scan.cloud.coords[keep], scan.cloud.intensity[keep])
                dataset.append((cloud, dk.LabelSet(scan.rainy_labels.labels[keep]), density))
        return dataset

    def cloud_trials(self, dataset) -> int:
        """Filter runs over one cloud per round: tuning trials plus benchmark_run."""
        return (len(KINDS) * self.sizes.tune_trials + len(DEFAULT_PARAMS)) * len(dataset)

    def round(self, dataset, index, tracer):
        """Tune every kind, then benchmark the defaults.

        The search draws the same trial parameters whatever the seed: a
        trial's cost depends on its k and radii, so a seeded search would make
        the round's cost depend on the draw more than on the code.
        """
        pairs = [(cloud, labels) for cloud, labels, _ in dataset]
        tuned = {}
        for kind in KINDS:
            with tracer.span(f"evaluation.tune_s.{kind}"):
                tuned[kind] = dk.tune_filter(kind, pairs, n_samples=len(pairs),
                                             n_trials=self.sizes.tune_trials,
                                             seed=cli.stage_seed(0, f"tune/search/{kind}"))
        with tracer.span("evaluation.benchmark_run_s"):
            rows = dk.benchmark_run(dataset, list(DEFAULT_PARAMS.items()))
        return TuneOutput(tuned, rows)

    def finish(self, dataset, out):
        """Round 0 is checked against the oracles; later rounds must equal it."""
        if self.reference is None:
            failed = sum(not self._tuned_ok(dataset, *out.tuned[kind]) for kind in KINDS)
            failed += not self._rows_ok(dataset, out.rows)
            self.reference = out
        else:
            failed = sum(out.tuned[kind] != self.reference.tuned[kind] for kind in KINDS)
            failed += [_row_key(r) for r in out.rows] != [_row_key(r) for r in self.reference.rows]
        points = sum(cloud.count for cloud, _, _ in dataset)
        work = self.cloud_trials(dataset)
        return RoundReport(ops=len(KINDS) + 1, failed=int(failed),
                           points=work // len(dataset) * points, work=work)

    @staticmethod
    def _tuned_ok(dataset, params, best_f1) -> bool:
        pairs = [(cloud, labels) for cloud, labels, _ in dataset]
        if best_f1 != pooled_f1(pairs, params):
            return False
        return all(np.array_equal(dk.apply_filter(cloud, params), brute_force_mask(cloud, params))
                   for cloud, _ in pairs)

    @staticmethod
    def _rows_ok(dataset, rows) -> bool:
        expected = []
        for name, params in DEFAULT_PARAMS.items():
            for density in RATES:
                pooled = dk.ConfusionCounts(0, 0, 0, 0)
                for cloud, labels, tag in dataset:
                    if tag == density:
                        pooled = pooled + dk.confusion(~dk.apply_filter(cloud, params), labels)
                rep = dk.derive_metrics(pooled)
                expected.append((name, density, rep.precision, rep.recall, rep.f1, rep.rain_iou))
        return [_row_key(r) for r in rows] == expected

    def probe(self, dataset, out, tracer):
        """Filter queries on the tuned parameters, reusing one index per cloud."""
        for cloud, _, _ in dataset:
            with tracer.span("filters.index_build_s"):
                index = dk.build_index(cloud)
            for kind, (params, _) in out.tuned.items():
                with tracer.span(f"filters.query_s.{kind}"):
                    keep = dk.apply_filter(cloud, params, index)
                tracer.add("filters.points", cloud.count)
                tracer.add("filters.points_removed", int((~keep).sum()))
        for kind, (_, best_f1) in out.tuned.items():
            tracer.add(f"evaluation.best_f1.{kind}", best_f1)
        trials = len(KINDS) * self.sizes.tune_trials
        tracer.add("evaluation.cloud_trials", self.cloud_trials(dataset))
        tune_s = sum(sp.end - sp.start for sp in tracer.spans
                     if sp.group == tracer.group and sp.name.startswith("evaluation.tune_s."))
        tracer.add("evaluation.trial_ms", 1e3 * tune_s / trials)
        return 0


# ---------------------------------------------------------------- CLI chain

@dataclass
class DenseInputs:
    seed: int
    work: Path
    calib: dk.SensorCalibration


class DenseScan(Workload):
    name = "dense_scan"
    rate = ("scans_per_s", "scans/s")
    per_layer = {"scene.raycast_s", "rainsim.inject_s", "pgm.flatten_s", "rainsim.drops",
                 "rainsim.beams_rained", "rainsim.returns_occluded",
                 "filters.index_build_s", "filters.query_s.dsor", "filters.points",
                 "filters.points_removed", "annotate.ransac_s", "annotate.ransac_inliers",
                 "annotate.transfer_s", "annotate.transfer_pairs",
                 "fileio.read_s", "fileio.write_s", "fileio.bytes",
                 *(f"cli.{step}_s" for step in ("simulate", "derain", "annotate", "transfer",
                                                "eval"))}

    def __init__(self, work_root: Path, sizes: Sizes = FULL):
        self.work = work_root / f"dense_scan-{os.getpid()}"
        self.sizes = sizes

    def setup(self, seed, tracer):
        """Work directory plus the calibration, filter and annotation JSON."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        calib = calibration(self.sizes.dense_grid)
        ann = dk.annotation_scene_from_spec(dk.builtin_scene(SCENE), margin=0.05,
                                            sensor_height=calib.sensor_height)
        (self.work / "calib.json").write_text(fileio.write_calibration_json(calib))
        (self.work / "dsor.json").write_text(fileio.write_filter_params_json(DEFAULT_PARAMS["dsor"]))
        (self.work / "ann.json").write_text(fileio.write_annotation_json(ann))
        return DenseInputs(seed, self.work, calib)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still in it

    @staticmethod
    def chain_seed(inputs) -> int:
        """One chain per run, repeated every round.

        Rounds with one seed do the same work, and the allocator then reaches
        the same peak whatever the number of rounds; a new seed per round
        let peak RSS depend on how many rounds fitted in the run.
        """
        return cli.stage_seed(inputs.seed, "dense_scan") % 2 ** 31

    def round(self, inputs, index, tracer):
        w = inputs.work
        seed = str(self.chain_seed(inputs))
        steps = (
            ("simulate", ["--scene", SCENE, "--calib", str(w / "calib.json"),
                          "--rate", str(self.sizes.dense_rate), "--seed", seed,
                          "--returned-only", "--out", str(w / "sim")]),
            ("derain", ["--in", str(w / "sim" / "rainy.bin"), "--filter", str(w / "dsor.json"),
                        "--mask", str(w / "keep.mask"), "--out", str(w / "filtered.bin")]),
            ("annotate", ["--in", str(w / "sim" / "clean.bin"), "--scene", str(w / "ann.json"),
                          "--out", str(w / "auto.label"), "--seed", seed]),
            ("transfer", ["--src-cloud", str(w / "sim" / "clean.bin"),
                          "--src-labels", str(w / "auto.label"), "--dst", str(w / "filtered.bin"),
                          "--out", str(w / "transferred.label")]),
            ("eval", ["--pred", str(w / "keep.mask"), "--gt", str(w / "sim" / "rainy.label"),
                      "--out", str(w / "metrics.csv")]),
        )
        codes = []
        for step, argv in steps:
            with tracer.span(f"cli.{step}_s"):
                codes.append(cli.run([step, *argv]))
        return codes

    def _read(self, inputs):
        w = inputs.work
        names = ("sim/clean.bin", "sim/rainy.bin", "sim/rainy.label", "keep.mask",
                 "filtered.bin", "auto.label", "transferred.label", "metrics.csv")
        return {name: (w / name).read_bytes() for name in names}

    def finish(self, inputs, codes):
        points = 0
        try:
            blobs = self._read(inputs)
            points = fileio.read_cloud(blobs["sim/rainy.bin"]).count
            ok = all(code == 0 for code in codes) and self._chain_ok(inputs, blobs)
        except CHECK_FAILURES:
            ok = False
        return RoundReport(ops=1, failed=int(not ok), points=points, work=1)

    def _chain_ok(self, inputs, blobs) -> bool:
        clean = fileio.read_cloud(blobs["sim/clean.bin"])
        rainy = fileio.read_cloud(blobs["sim/rainy.bin"])
        rainy_labels = fileio.read_labels(blobs["sim/rainy.label"])
        keep_bytes = np.frombuffer(blobs["keep.mask"], dtype="u1")
        keep = keep_bytes.astype(bool)
        filtered = fileio.read_cloud(blobs["filtered.bin"])
        auto = fileio.read_labels(blobs["auto.label"])
        transferred = fileio.read_labels(blobs["transferred.label"])
        if not (keep.size == rainy.count == rainy_labels.count and (keep_bytes <= 1).all()
                and np.array_equal(filtered.coords, rainy.coords[keep])
                and auto.count == clean.count and transferred.count == filtered.count):
            return False

        # RANSAC with the CLI's own configuration finds the ground plane
        # z = -sensor_height.
        plane = dk.ransac_plane(clean, RANSAC.iterations, RANSAC.inlier_threshold,
                                cli.stage_seed(self.chain_seed(inputs), "ransac"))
        h = inputs.calib.sensor_height
        if not (plane.normal[2] >= np.cos(0.02) and abs(plane.offset - h) <= 0.05):
            return False

        # Transfer agrees with an independent k-d tree wherever the nearest
        # source point is unique.
        dist, idx = cKDTree(clean.coords).query(filtered.coords, k=2)
        unique = dist[:, 1] - dist[:, 0] > 1e-9
        if not np.array_equal(transferred.labels[unique], auto.labels[idx[unique, 0]]):
            return False

        # metrics.csv holds percentages; the counts behind them must cover
        # every point, and the CSV must round them correctly.
        counts = dk.confusion(~keep, rainy_labels)
        if counts.total != rainy.count:
            return False
        (row,) = fileio.read_results_csv(blobs["metrics.csv"].decode())
        want = dk.derive_metrics(counts)
        got = row.report
        return all(abs(a - b) <= 0.5e-4 + 1e-12 for a, b in (
            (got.precision, want.precision), (got.recall, want.recall),
            (got.f1, want.f1), (got.rain_iou, want.rain_iou)))

    def probe(self, inputs, codes, tracer):
        """Replay the chain's layer calls through the public API.

        Returns 1 if the replay disagrees with what the CLI wrote.
        """
        seed = self.chain_seed(inputs)
        calib = inputs.calib
        blobs = self._read(inputs)

        scan = simulate_scan(dk.builtin_scene(SCENE), calib, self.sizes.dense_rate, seed, tracer)
        count_rain(scan, calib, tracer)
        keep_ret = ~scan.unreturned
        rainy = dk.PointCloud(scan.cloud.coords[keep_ret], scan.cloud.intensity[keep_ret])
        with tracer.span("fileio.write_s"):
            rainy_blob = fileio.write_cloud(rainy)
        with tracer.span("fileio.read_s"):
            rainy = fileio.read_cloud(rainy_blob)
            clean = fileio.read_cloud(blobs["sim/clean.bin"])
            auto = fileio.read_labels(blobs["auto.label"])
            filtered = fileio.read_cloud(blobs["filtered.bin"])
        tracer.add("fileio.bytes", len(rainy_blob) * 2 + len(blobs["sim/clean.bin"])
                   + len(blobs["auto.label"]) + len(blobs["filtered.bin"]))

        with tracer.span("filters.index_build_s"):
            spatial = dk.build_index(rainy)
        with tracer.span("filters.query_s.dsor"):
            keep = dk.apply_filter(rainy, DEFAULT_PARAMS["dsor"], spatial)
        tracer.add("filters.points", rainy.count)
        tracer.add("filters.points_removed", int((~keep).sum()))

        with tracer.span("annotate.ransac_s"):
            plane = dk.ransac_plane(clean, RANSAC.iterations, RANSAC.inlier_threshold,
                                    cli.stage_seed(seed, "ransac"))
        tracer.add("annotate.ransac_inliers", plane.inlier_count)
        with tracer.span("annotate.transfer_s"):
            transferred = dk.transfer_labels(clean, auto, filtered)
        tracer.add("annotate.transfer_pairs", clean.count * filtered.count)

        same = (rainy_blob == blobs["sim/rainy.bin"]
                and keep.astype("u1").tobytes() == blobs["keep.mask"]
                and fileio.write_labels(transferred) == blobs["transferred.label"])
        return int(not same)


def make(name: str, work_root: Path, sizes: Sizes = FULL):
    if name == "rain_sim":
        return RainSim(sizes)
    if name == "tune":
        return Tune(sizes)
    if name == "dense_scan":
        return DenseScan(work_root, sizes)
    raise ValueError(f"unknown workload {name!r}")
