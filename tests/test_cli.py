import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from derainkit import annotation_scene_from_spec, builtin_scene, cli, fileio, grid_calibration
from derainkit.cli import CliError, run, stage_seed
from derainkit.core import RAIN, LabelSet
from derainkit.errors import DerainKitError
from derainkit.evaluation import DEFAULT_PARAMS, BenchmarkRow, confusion, derive_metrics


def file_hashes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_cli_import_leaves_scipy_spatial_unloaded():
    """scipy.spatial takes most of the CLI's start-up; only building a kd-tree imports it."""
    code = "import sys, derainkit.cli; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_help_exits_zero(capsys):
    assert run(["bench", "--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_usage_error_exits_two(capsys):
    assert run(["simulate"]) == 2  # missing required flags
    assert run(["frobnicate"]) == 2


def test_missing_input_exits_one(capsys):
    code = run(["derain", "--in", "definitely-missing.bin", "--filter", "also-missing.json"])
    assert code == 1
    assert capsys.readouterr().err == "error: no such file: definitely-missing.bin\n"
    assert issubclass(CliError, DerainKitError)


def test_simulate_bad_calibration_exits_one(tmp_path, capsys):
    calib = tmp_path / "bad.json"
    calib.write_text(json.dumps({"elevations": ["a"], "azimuths": [0.0], "r_max": 10.0,
                                 "r_min": 0.5, "sensor_height": 2.0}))
    code = run(["simulate", "--scene", "minimal", "--calib", str(calib), "--rate", "10",
                "--out", str(tmp_path / "sim")])
    assert code == 1
    assert "/elevations" in capsys.readouterr().err


def test_simulate_nan_calibration_exits_one(tmp_path, capsys):
    calib = tmp_path / "nan.json"
    calib.write_text(json.dumps({"elevations": [float("nan")], "azimuths": [0.0, float("nan")],
                                 "r_max": 10.0, "r_min": 0.5, "sensor_height": 2.0}))
    code = run(["simulate", "--scene", "minimal", "--calib", str(calib), "--rate", "10",
                "--out", str(tmp_path / "sim")])
    assert code == 1
    assert "elevations" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_simulate_bad_scene_exits_one(tmp_path, capsys):
    scene = tmp_path / "bad.json"
    text = fileio.write_scene_json(builtin_scene("corridor"))
    scene.write_text(text.replace('"reflectance": 0.5', '"reflectance": 5.0', 1))
    code = run(["simulate", "--scene", str(scene), "--rate", "10",
                "--out", str(tmp_path / "sim")])
    assert code == 1
    assert "reflectance" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_simulate_scene_box_class_out_of_range_exits_one(tmp_path, capsys):
    """A box class that no label file can hold is refused before anything is written."""
    scene = tmp_path / "class99.json"
    text = fileio.write_scene_json(builtin_scene("corridor"))
    scene.write_text(text.replace('"class_id": 7', '"class_id": 99', 1))
    code = run(["simulate", "--scene", str(scene), "--rate", "10",
                "--out", str(tmp_path / "sim")])
    assert code == 1
    assert "class_id" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_scene_command_round_trips(tmp_path, capsys):
    out = tmp_path / "scene.json"
    assert run(["scene", "--name", "minimal", "--out", str(out)]) == 0
    spec = fileio.read_scene_json(out.read_text())
    assert len(spec.boxes) == 0


def test_stage_seed_distinct():
    assert stage_seed(7, "rain") != stage_seed(7, "raycast")
    assert stage_seed(7, "rain") != stage_seed(8, "rain")
    assert stage_seed(7, "rain") == stage_seed(7, "rain")


def simulate(tmp_path, name, seed="7", extra=()):
    out = tmp_path / name
    args = ["simulate", "--scene", "minimal", "--rate", "10", "--seed", seed,
            "--out", str(out), *extra]
    assert run(args) == 0
    return out


def test_simulate_deterministic(tmp_path):
    a = simulate(tmp_path, "a")
    b = simulate(tmp_path, "b")
    assert file_hashes(a) == file_hashes(b)
    c = simulate(tmp_path, "c", seed="8")
    assert file_hashes(a) != file_hashes(c)


def test_simulate_outputs_parse(tmp_path):
    out = simulate(tmp_path, "sim")
    for tag in ("clean", "rainy"):
        cloud = fileio.read_cloud((out / f"{tag}.bin").read_bytes())
        labels = fileio.read_labels((out / f"{tag}.label").read_bytes())
        assert cloud.count == labels.count == 32 * 128
    clean = fileio.read_labels((out / "clean.label").read_bytes())
    rainy = fileio.read_labels((out / "rainy.label").read_bytes())
    assert not (clean.labels == 2).any()
    assert (rainy.labels == 2).sum() > 0


def test_full_pipeline_through_cli(tmp_path, capsys):
    out = simulate(tmp_path, "sim", extra=("--returned-only",))
    params = tmp_path / "dsor.json"
    params.write_text(json.dumps({"kind": "dsor", "k": 5, "s": 1.0, "r": 0.05}))
    mask = tmp_path / "keep.mask"
    filtered = tmp_path / "filtered.bin"
    assert run(["derain", "--in", str(out / "rainy.bin"), "--filter", str(params),
                "--mask", str(mask), "--out", str(filtered)]) == 0
    keep = fileio.read_mask(mask.read_bytes())
    cloud = fileio.read_cloud((out / "rainy.bin").read_bytes())
    assert keep.shape[0] == cloud.count
    assert fileio.read_cloud(filtered.read_bytes()).count == int(keep.sum())

    metrics = tmp_path / "metrics.csv"
    assert run(["eval", "--pred", str(mask), "--gt", str(out / "rainy.label"),
                "--out", str(metrics)]) == 0
    rows = fileio.read_results_csv(metrics.read_text())
    assert len(rows) == 1 and rows[0].filter_name == "pred"


def test_annotate_and_transfer_cli(tmp_path):
    from derainkit import annotation_scene_from_spec, builtin_scene
    out = simulate(tmp_path, "sim", extra=("--returned-only",))
    ann = annotation_scene_from_spec(builtin_scene("minimal"), sensor_height=2.0)
    scene_path = tmp_path / "ann.json"
    scene_path.write_text(fileio.write_annotation_json(ann))
    labels_out = tmp_path / "auto.label"
    assert run(["annotate", "--in", str(out / "clean.bin"), "--scene", str(scene_path),
                "--out", str(labels_out), "--seed", "3"]) == 0
    auto = fileio.read_labels(labels_out.read_bytes())
    gt = fileio.read_labels((out / "clean.label").read_bytes())
    assert auto.count == gt.count
    assert (auto.labels == gt.labels).mean() > 0.95

    dst = tmp_path / "radar.bin"
    cloud = fileio.read_cloud((out / "clean.bin").read_bytes())
    pick = np.arange(0, cloud.count, 37)
    dst.write_bytes(fileio.write_cloud(type(cloud)(cloud.coords[pick], cloud.intensity[pick])))
    transferred = tmp_path / "radar.label"
    assert run(["transfer", "--src-cloud", str(out / "clean.bin"),
                "--src-labels", labels_out.as_posix(),
                "--dst", str(dst), "--out", str(transferred)]) == 0
    got = fileio.read_labels(transferred.read_bytes())
    np.testing.assert_array_equal(got.labels, auto.labels[pick])


def bench_dataset(tmp_path):
    data = tmp_path / "data"
    for density, rate in (("heavy", "50"), ("light", "10")):
        sub = data / density
        for seed in ("1", "2"):
            out = tmp_path / f"sim-{density}-{seed}"
            args = ["simulate", "--scene", "minimal", "--rate", rate, "--seed", seed,
                    "--returned-only", "--out", str(out)]
            assert run(args) == 0
            sub.mkdir(parents=True, exist_ok=True)
            (sub / f"{seed}.bin").write_bytes((out / "rainy.bin").read_bytes())
            (sub / f"{seed}.label").write_bytes((out / "rainy.label").read_bytes())
    return data


def test_bench_and_tune_cli(tmp_path, capsys):
    data = bench_dataset(tmp_path)
    filters = tmp_path / "filters.json"
    filters.write_text(json.dumps([
        {"name": "dsor", "params": {"kind": "dsor", "k": 5, "s": 1.0, "r": 0.05}},
        {"name": "ror", "params": {"kind": "ror", "radius": 0.5, "min_neighbors": 4}},
    ]))
    results = tmp_path / "results.csv"
    assert run(["bench", "--data", str(data), "--filters", str(filters),
                "--out", str(results)]) == 0
    rows = fileio.read_results_csv(results.read_text())
    assert len(rows) == 4  # 2 filters x 2 densities
    assert {r.rain_density for r in rows} == {"heavy", "light"}

    best = tmp_path / "best.json"
    assert run(["tune", "--data", str(data), "--kind", "dsor", "--samples", "4",
                "--trials", "5", "--seed", "1", "--out", str(best)]) == 0
    params = fileio.read_filter_params_json(best.read_text())
    assert type(params).__name__ == "Dsor"


def test_bench_rejects_names_its_csv_cannot_hold(tmp_path, capsys):
    data = bench_dataset(tmp_path)
    params = {"kind": "ror", "radius": 0.5, "min_neighbors": 4}
    filters = tmp_path / "filters.json"
    results = tmp_path / "results.csv"
    for name in ("a,b", "x\ny", 5, None):
        filters.write_text(json.dumps([{"name": name, "params": params}]))
        assert run(["bench", "--data", str(data), "--filters", str(filters),
                    "--out", str(results)]) == 1
        assert "error" in capsys.readouterr().err
        assert not results.exists()
    filters.write_text(json.dumps([{"name": "ror", "params": params}]))
    (data / "heavy").rename(data / "heavy,wet")
    assert run(["bench", "--data", str(data), "--filters", str(filters),
                "--out", str(results)]) == 1
    assert "heavy,wet" in capsys.readouterr().err
    assert not results.exists()


# ---------------------------------------------------------------- one parser per process

def eval_text(*pairs):
    """The CSV that ``eval`` writes for (keep mask, labels) pairs, pooled."""
    counts = [confusion(~keep, LabelSet(labels)) for keep, labels in pairs]
    pooled = sum(counts[1:], counts[0])
    return fileio.write_results_csv([BenchmarkRow("pred", "all", derive_metrics(pooled))])


def test_parser_reuse_keeps_appended_flags_apart(tmp_path, capsys):
    """Each call starts from the parser's defaults: --pred/--gt lists never carry over."""
    a = (np.array([False, True, True, True]), [RAIN, 0, RAIN, 0])
    b = (np.array([False, False, True]), [RAIN, RAIN, 0])
    paths = []
    for name, (keep, labels) in (("a", a), ("b", b)):
        (tmp_path / f"{name}.mask").write_bytes(fileio.write_mask(keep))
        (tmp_path / f"{name}.label").write_bytes(fileio.write_labels(LabelSet(labels)))
        paths.append(["--pred", str(tmp_path / f"{name}.mask"),
                      "--gt", str(tmp_path / f"{name}.label")])
    assert eval_text(a) != eval_text(a, b)
    for argv, want in ((paths[0], eval_text(a)), (paths[0] + paths[1], eval_text(a, b)),
                       (paths[1], eval_text(b)), (paths[0], eval_text(a))):
        assert run(["eval", *argv]) == 0
        assert capsys.readouterr().out == want


def test_parser_reuse_forgets_store_true_flags(tmp_path):
    calib = tmp_path / "calib.json"
    calib.write_text(fileio.write_calibration_json(grid_calibration(8, 32, r_max=6.0)))
    base = ["simulate", "--scene", "minimal", "--calib", str(calib), "--rate", "10"]
    assert run([*base, "--returned-only", "--out", str(tmp_path / "returned")]) == 0
    assert run([*base, "--out", str(tmp_path / "full")]) == 0
    returned = fileio.read_cloud((tmp_path / "returned" / "clean.bin").read_bytes())
    full = fileio.read_cloud((tmp_path / "full" / "clean.bin").read_bytes())
    assert returned.count < full.count == 8 * 32


def test_parser_reuse_after_a_usage_error(tmp_path):
    assert run(["simulate", "--rate", "ten"]) == 2
    assert run(["scene", "--name", "minimal", "--out", str(tmp_path / "scene.json")]) == 0
    assert len(fileio.read_scene_json((tmp_path / "scene.json").read_text()).boxes) == 0


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(parser, **kwargs):
        builds.append(parser.prog)
        return add_subparsers(parser, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    cli._build_parser.cache_clear()
    try:
        assert run(["scene", "--name", "minimal"]) == 0
        assert run(["frobnicate"]) == 2
        assert run(["scene", "--name", "corridor", "--out", str(tmp_path / "s.json")]) == 0
        assert builds == ["derainkit"]
    finally:
        cli._build_parser.cache_clear()


# ---------------------------------------------------------------- pinned chain

PINNED_CHAIN = {
    "5": {
        "auto.label":
            "c9dceb49afa91a962c7ca264cea381144c07e52167f461c9eefd6063a0f07fd1",
        "filtered.bin":
            "ebfa4fe1d256afa4a949948a52d54517bddaa00de8dc5851fbb36b47d25370c0",
        "keep.mask":
            "6af3b78a271f40d1028cb61ae99f30c7eac0abb75b8fe3f12ba9a4aab985cc40",
        "metrics.csv":
            "7ef1590a8e92430a72a1684c4842100fa8097d4d634907fef8a10075ccf45f13",
        "sim/clean.bin":
            "b9414a76427cccad2de25912f3376c8a1ac5eaaff0bd5d1c2fe24505478d1cc4",
        "sim/clean.label":
            "c9dceb49afa91a962c7ca264cea381144c07e52167f461c9eefd6063a0f07fd1",
        "sim/rainy.bin":
            "5d3973db13638cc9f23fbf1547c5755db80710218ffa8443fe2106ea8e7e1445",
        "sim/rainy.label":
            "23d3e9084810bed94a154de3714045b40abcd66b9373bd5978a51ed27c09a43d",
        "transferred.label":
            "23ca23574f182ee70dd8d2dda5756d3378b30b200426a065420dded7a3638b54",
    },
    "6": {
        "auto.label":
            "c9dceb49afa91a962c7ca264cea381144c07e52167f461c9eefd6063a0f07fd1",
        "filtered.bin":
            "3db89b0203a95da8472b7e7a2412baf97b1e5caa80db10a95face4786ada23da",
        "keep.mask":
            "f4453a9825a9a4642b8d6ecc79b86fd1b3e452350e3ecc1412d270c10aba9757",
        "metrics.csv":
            "306561f56fe4746ffb267f937fac1348993def5685065bc581028bdbeb09215e",
        "sim/clean.bin":
            "c4c838faa99289a48f2a179a03727ec34f9bc81a4828aace15e5a33b8e7881c2",
        "sim/clean.label":
            "c9dceb49afa91a962c7ca264cea381144c07e52167f461c9eefd6063a0f07fd1",
        "sim/rainy.bin":
            "4631f654e0d5af303d9bc132434ebd23be7559faad284e945ba7efe2dbe129d8",
        "sim/rainy.label":
            "97661ba26d0dd6d73424e4b481fd4d0d1c2dc5b6e78b3ab95972221b459a262b",
        "transferred.label":
            "9a2d2b2bad105b26ec05be160e0732fe68ebab1a3c73e1bce0f6e6f695aeb22c",
    },
}


def test_cli_chain_outputs_are_pinned(tmp_path):
    """simulate -> derain -> annotate -> transfer -> eval, as the dense_scan benchmark runs it
    on a 16 x 128 / 6 m grid: every output file keeps the SHA-256 it had when pinned."""
    calib = grid_calibration(16, 128, elevation_span=(-0.42, 0.03), azimuth_span=(-0.7, 0.7),
                             r_max=6.0, r_min=0.5, sensor_height=2.0)
    ann = annotation_scene_from_spec(builtin_scene("rehearse-like"), margin=0.05,
                                     sensor_height=calib.sensor_height)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "calib.json").write_text(fileio.write_calibration_json(calib))
    (inputs / "dsor.json").write_text(fileio.write_filter_params_json(DEFAULT_PARAMS["dsor"]))
    (inputs / "ann.json").write_text(fileio.write_annotation_json(ann))
    for seed, want in PINNED_CHAIN.items():
        w = tmp_path / seed
        for argv in (
            ["simulate", "--scene", "rehearse-like", "--calib", str(inputs / "calib.json"),
             "--rate", "25", "--seed", seed, "--returned-only", "--out", str(w / "sim")],
            ["derain", "--in", str(w / "sim" / "rainy.bin"), "--filter", str(inputs / "dsor.json"),
             "--mask", str(w / "keep.mask"), "--out", str(w / "filtered.bin")],
            ["annotate", "--in", str(w / "sim" / "clean.bin"), "--scene", str(inputs / "ann.json"),
             "--out", str(w / "auto.label"), "--seed", seed],
            ["transfer", "--src-cloud", str(w / "sim" / "clean.bin"),
             "--src-labels", str(w / "auto.label"), "--dst", str(w / "filtered.bin"),
             "--out", str(w / "transferred.label")],
            ["eval", "--pred", str(w / "keep.mask"), "--gt", str(w / "sim" / "rainy.label"),
             "--out", str(w / "metrics.csv")],
        ):
            assert run(argv) == 0, argv
        assert file_hashes(w) == want


# ---------------------------------------------------------------- one rule per input

def json_inputs(tmp_path):
    """{name: (argv with a JSON path in the slot "{json}", valid JSON text)} for every
    subcommand flag that reads JSON; each argv's other inputs are valid."""
    from derainkit.core import PointCloud
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.uniform(-5, 5, (60, 3)), rng.uniform(0, 1, 60))
    labels = LabelSet(rng.integers(0, 3, 60))
    (tmp_path / "data").mkdir()
    for path in (tmp_path / "in.bin", tmp_path / "data" / "a.bin"):
        path.write_bytes(fileio.write_cloud(cloud))
        path.with_suffix(".label").write_bytes(fileio.write_labels(labels))
    params = json.loads(fileio.write_filter_params_json(DEFAULT_PARAMS["ror"]))
    sim = ["--rate", "10", "--out", str(tmp_path / "sim")]
    return {
        "derain --filter": (["derain", "--in", str(tmp_path / "in.bin"), "--filter", "{json}",
                             "--mask", str(tmp_path / "keep.mask")], json.dumps(params)),
        "simulate --scene": (["simulate", "--scene", "{json}", *sim],
                             fileio.write_scene_json(builtin_scene("minimal"))),
        "simulate --calib": (["simulate", "--scene", "minimal", "--calib", "{json}", *sim],
                             fileio.write_calibration_json(grid_calibration(4, 8, r_max=10.0))),
        "annotate --scene": (["annotate", "--in", str(tmp_path / "in.bin"), "--scene", "{json}",
                              "--out", str(tmp_path / "auto.label")],
                             fileio.write_annotation_json(
                                 annotation_scene_from_spec(builtin_scene("minimal")))),
        "bench --filters": (["bench", "--data", str(tmp_path / "data"), "--filters", "{json}",
                             "--out", str(tmp_path / "results.csv")],
                            json.dumps([{"name": "ror", "params": params}])),
    }


def test_json_inputs_read_utf16_and_bom_and_refuse_other_bytes(tmp_path, capsys):
    """JSON is decoded in one place: UTF-8, UTF-16 and UTF-8 with a BOM read alike, and bytes
    that are none of UTF-8, -16 or -32 exit 1 with an error, not a traceback."""
    path = tmp_path / "input.json"
    for name, (argv, text) in json_inputs(tmp_path).items():
        argv = [str(path) if arg == "{json}" else arg for arg in argv]
        for encoding in ("utf-8", "utf-16", "utf-8-sig", "utf-32"):
            path.write_bytes(text.encode(encoding))
            assert run(argv) == 0, (name, encoding, capsys.readouterr().err)
        path.write_bytes(b"\xff" + text.encode())
        assert run(argv) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("error: schema error at /: not UTF-8, UTF-16 or UTF-32"), (name, err)
        assert "Traceback" not in err


def test_json_readers_take_bytes_or_str():
    text = fileio.write_filter_params_json(DEFAULT_PARAMS["dsor"])
    for data in (text, text.encode(), text.encode("utf-16")):
        assert fileio.read_filter_params_json(data) == DEFAULT_PARAMS["dsor"]


def test_non_utf8_json_exits_one_in_a_fresh_process(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"kind": "ror", "radius": "\xe9"}')
    cloud = tmp_path / "in.bin"
    cloud.write_bytes(np.array([1.0, 0.0, 0.0, 0.5], "<f4").tobytes())
    proc = subprocess.run([sys.executable, "-m", "derainkit.cli", "derain", "--in", str(cloud),
                           "--filter", str(bad)], capture_output=True, text=True, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: schema error at /") and "Traceback" not in proc.stderr


def test_eval_mask_and_labels_of_different_lengths_exit_one(tmp_path, capsys):
    mask, labels = tmp_path / "keep.mask", tmp_path / "gt.label"
    mask.write_bytes(fileio.write_mask(np.ones(3, bool)))
    labels.write_bytes(fileio.write_labels(LabelSet([2, 0])))
    assert run(["eval", "--pred", str(mask), "--gt", str(labels)]) == 1
    assert capsys.readouterr().err == "error: 2 labels for 3 predictions\n"


def test_simulate_nan_noise_sigma_exits_one(tmp_path, capsys):
    for sigma in ("nan", "-1", "inf"):
        assert run(["simulate", "--scene", "minimal", "--rate", "10", "--noise-sigma", sigma,
                    "--out", str(tmp_path / "sim")]) == 1
        assert capsys.readouterr().err.startswith("error: noise_sigma")
    assert not (tmp_path / "sim").exists()


def test_annotate_bad_tolerance_exits_one(tmp_path, capsys):
    argv, text = json_inputs(tmp_path)["annotate --scene"]
    (tmp_path / "ann.json").write_text(text)
    argv = [str(tmp_path / "ann.json") if arg == "{json}" else arg for arg in argv]
    for tolerance in ("-1", "nan"):
        assert run([*argv, "--tolerance", tolerance]) == 1
        assert capsys.readouterr().err.startswith("error: plane_tolerance")
    assert not (tmp_path / "auto.label").exists()


def test_tune_samples_below_one_exit_one(tmp_path, capsys):
    json_inputs(tmp_path)
    for flag, value in (("--samples", "-1"), ("--samples", "0"), ("--trials", "0")):
        assert run(["tune", "--data", str(tmp_path / "data"), "--kind", "ror", flag, value,
                    "--out", str(tmp_path / "best.json")]) == 1
        assert capsys.readouterr().err.startswith(f"error: n_{flag[2:]} must be an integer >= 1")
    assert not (tmp_path / "best.json").exists()


def test_commands_print_what_they_write(tmp_path, capsys):
    """Without --out a command prints its text, ending in one line break; with it, the file
    holds the text as it is."""
    json_inputs(tmp_path)
    filters = tmp_path / "filters.json"
    filters.write_text(json.dumps([{"name": "ror", "params": json.loads(
        fileio.write_filter_params_json(DEFAULT_PARAMS["ror"]))}]))
    (tmp_path / "keep.mask").write_bytes(fileio.write_mask(np.arange(60) % 2 == 0))
    for argv in (["scene", "--name", "corridor"],
                 ["tune", "--data", str(tmp_path / "data"), "--kind", "sor", "--trials", "3"],
                 ["bench", "--data", str(tmp_path / "data"), "--filters", str(filters)],
                 ["eval", "--pred", str(tmp_path / "keep.mask"),
                  "--gt", str(tmp_path / "in.label")]):
        assert run(argv) == 0
        printed = capsys.readouterr().out
        assert run([*argv, "--out", str(tmp_path / "out.txt")]) == 0
        written = (tmp_path / "out.txt").read_text()
        assert printed == (written if written.endswith("\n") else written + "\n"), argv[0]
        assert printed.endswith("\n") and not printed.endswith("\n\n")


def test_deeply_nested_filter_json_exits_one(tmp_path, capsys):
    cloud = tmp_path / "one.bin"
    cloud.write_bytes(np.zeros(4, "<f4").tobytes())  # one point at the origin
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code = run(["derain", "--in", str(cloud), "--filter", str(deep),
                "--out", str(tmp_path / "keep.mask")])
    assert code == 1
    assert capsys.readouterr().err == "error: schema error at /: nested too deeply\n"
    assert not (tmp_path / "keep.mask").exists()


# ---------------------------------------------------------------- flags and inputs no other test sets

def test_eval_needs_one_label_file_per_mask(tmp_path, capsys):
    mask, labels = tmp_path / "keep.mask", tmp_path / "gt.label"
    mask.write_bytes(fileio.write_mask(np.ones(3, bool)))
    labels.write_bytes(fileio.write_labels(LabelSet([2, 0, 1])))
    assert run(["eval", "--pred", str(mask), "--pred", str(mask), "--gt", str(labels)]) == 1
    assert capsys.readouterr().err == "error: 2 prediction masks vs 1 label files\n"


def test_tune_and_bench_skip_unpaired_clouds_and_need_one_pair(tmp_path, capsys):
    """A .bin without its .label is skipped; a missing directory, or one with no pair, exits 1."""
    json_inputs(tmp_path)
    filters = tmp_path / "filters.json"
    filters.write_text(json.dumps([{"name": "ror", "params": json.loads(
        fileio.write_filter_params_json(DEFAULT_PARAMS["ror"]))}]))

    def outputs(data):
        """tune's params JSON and bench's rows without the time column, or exit codes."""
        got = []
        for argv in (["tune", "--data", str(data), "--kind", "sor", "--trials", "3"],
                     ["bench", "--data", str(data), "--filters", str(filters)]):
            code = run(argv)
            out, err = capsys.readouterr()
            got.append([line.rsplit(",", 1)[0] for line in out.splitlines()] if code == 0
                       else (code, err))
        return got

    paired = outputs(tmp_path / "data")
    (tmp_path / "data" / "b.bin").write_bytes((tmp_path / "in.bin").read_bytes())
    assert outputs(tmp_path / "data") == paired
    lone = tmp_path / "lone"
    lone.mkdir()
    (lone / "b.bin").write_bytes((tmp_path / "in.bin").read_bytes())
    missing = tmp_path / "missing"
    assert outputs(missing) == [(1, f"error: no such dataset directory: {missing}\n")] * 2
    assert outputs(lone) == [(1, f"error: no .bin/.label pairs under {lone}\n")] * 2


def test_simulate_prefix_names_the_files_only(tmp_path):
    plain = file_hashes(simulate(tmp_path, "plain"))
    prefixed = file_hashes(simulate(tmp_path, "prefixed", extra=("--prefix", "run7_")))
    assert prefixed == {f"run7_{name}": digest for name, digest in plain.items()}


def test_simulate_no_occlusion_is_the_library_chain(tmp_path):
    out = simulate(tmp_path, "sim", extra=("--no-occlusion",))
    calib = grid_calibration(**cli.DEFAULT_CALIBRATION)
    grid, labels = cli.raycast_scene(builtin_scene("minimal"), calib, noise_sigma=0.01,
                                     seed=stage_seed(7, "raycast"))
    rainy, rainy_labels = cli.inject_rain(grid, labels, calib,
                                          cli.RainConfig(rate=10.0, seed=stage_seed(7, "rain")),
                                          occlude_returns=False)
    assert (out / "rainy.bin").read_bytes() == fileio.write_cloud(cli.flatten(rainy)[0])
    assert (out / "rainy.label").read_bytes() == fileio.write_labels(rainy_labels)
    occluded = simulate(tmp_path, "occluded")
    assert (out / "rainy.label").read_bytes() != (occluded / "rainy.label").read_bytes()


def test_annotate_ransac_flags_are_the_library_config(tmp_path):
    """On this rainy cloud either flag alone, set back to its default, changes the labels."""
    out = simulate(tmp_path, "sim", extra=("--returned-only",))
    ann = annotation_scene_from_spec(builtin_scene("minimal"), sensor_height=2.0)
    (tmp_path / "ann.json").write_text(fileio.write_annotation_json(ann))
    assert run(["annotate", "--in", str(out / "rainy.bin"), "--scene", str(tmp_path / "ann.json"),
                "--seed", "3", "--iterations", "2", "--threshold", "0.001",
                "--out", str(tmp_path / "auto.label")]) == 0
    cloud = fileio.read_cloud((out / "rainy.bin").read_bytes())

    def labels(iterations, threshold):
        config = cli.RansacConfig(iterations, threshold, seed=stage_seed(3, "ransac"))
        return fileio.write_labels(cli.auto_annotate(cloud, ann, config))

    want = labels(2, 0.001)
    assert (tmp_path / "auto.label").read_bytes() == want
    assert labels(200, 0.001) != want and labels(2, 0.05) != want
