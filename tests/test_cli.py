import hashlib
import json
from pathlib import Path

import numpy as np

from derainkit import builtin_scene, fileio
from derainkit.cli import run, stage_seed


def file_hashes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_help_exits_zero(capsys):
    assert run(["bench", "--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_usage_error_exits_two(capsys):
    assert run(["simulate"]) == 2  # missing required flags
    assert run(["frobnicate"]) == 2


def test_missing_input_exits_one(capsys):
    code = run(["derain", "--in", "definitely-missing.bin", "--filter", "also-missing.json"])
    assert code == 1
    assert "definitely-missing.bin" in capsys.readouterr().err


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
