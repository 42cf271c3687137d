import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from sparseval import (
    EvalConfig,
    ScenarioSpec,
    TensorContainer,
    io,
    read_manifest,
    write_tensor,
)
from sparseval.cli import main


def run_cli(*argv):
    return main(list(argv))


def write_spec(tmp_path, **overrides):
    spec = {
        "n": 2000,
        "class_frequencies": [0.6, 0.3, 0.1],
        "per_class_accuracy": [0.8, 0.75, 0.7],
        "seed": 5,
        "confidence_spread": 0.2,
        "class_names": ["road", "person", "pole"],
    }
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def make_dataset(tmp_path, **overrides):
    spec_path = write_spec(tmp_path, **overrides)
    data_dir = tmp_path / "data"
    assert run_cli("synth", "--spec", str(spec_path), "--out-dir", str(data_dir)) == 0
    return data_dir / "manifest.txt"


def test_synth_is_deterministic(tmp_path):
    spec_path = write_spec(tmp_path)
    run_cli("synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "a"))
    run_cli("synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "b"))
    for name in ("frame_0000.probs.spt", "frame_0000.labels.spt", "manifest.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


@pytest.mark.parametrize(
    "spec_frames, argv, frames",
    [(3, [], 3), (3, ["--frames", "1"], 1), (1, ["--frames", "2"], 2), (None, [], 1)],
)
def test_synth_frames_flag_overrides_the_spec(tmp_path, spec_frames, argv, frames):
    overrides = {} if spec_frames is None else {"frames": spec_frames}
    spec_path = write_spec(tmp_path, **overrides)
    out = tmp_path / "data"
    assert run_cli("synth", "--spec", str(spec_path), "--out-dir", str(out), *argv) == 0
    assert len(read_manifest(out / "manifest.txt").frames) == frames


@pytest.mark.parametrize("source", [["--preset", "degenerate-class"], ["--spec"]])
def test_synth_frames_zero_is_input_error(tmp_path, capsys, source):
    if source == ["--spec"]:
        source = ["--spec", str(write_spec(tmp_path, frames=3))]
    out = tmp_path / "x"
    assert run_cli("synth", *source, "--out-dir", str(out), "--frames", "0") == 2
    assert "SpecInvalid: frames must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_synth_rejects_empty_scenario(tmp_path):
    spec_path = write_spec(tmp_path, n=0)
    code = run_cli("synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "x"))
    assert code == 2
    assert not (tmp_path / "x" / "manifest.txt").exists()


def test_evaluate_defaults_record_threshold(tmp_path, capsys):
    manifest = make_dataset(tmp_path)
    out = tmp_path / "out"
    code = run_cli("evaluate", "--manifest", str(manifest), "--out-dir", str(out))
    assert code == 0
    capsys.readouterr()
    payload = json.loads((out / "report.json").read_text())
    assert payload["aggregates"]["filter_threshold"] == 0.03
    assert payload["provenance"]["config"]["iou_filter_threshold"] == 0.03
    assert (out / "report.csv").exists()
    assert (out / "scatter.csv").exists()


def test_evaluate_measure_column_selection(tmp_path):
    manifest = make_dataset(tmp_path)
    both = tmp_path / "both"
    one = tmp_path / "one"
    assert run_cli("evaluate", "--manifest", str(manifest), "--out-dir", str(both)) == 0
    assert (
        run_cli(
            "evaluate",
            "--manifest",
            str(manifest),
            "--out-dir",
            str(one),
            "--measure",
            "softmax",
        )
        == 0
    )
    header_both = (both / "report.csv").read_text().splitlines()[0]
    header_one = (one / "report.csv").read_text().splitlines()[0]
    assert "ause_max_softmax" in header_both and "ause_neg_entropy" in header_both
    assert "ause_max_softmax" in header_one and "ause_neg_entropy" not in header_one


def test_evaluate_missing_manifest_is_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("evaluate", "--manifest", str(tmp_path / "nope.txt"), "--out-dir", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("sparseval: error:")
    assert "\n" not in err.strip()
    assert not out.exists()


def test_evaluate_is_reproducible_bit_for_bit(tmp_path):
    manifest = make_dataset(tmp_path)
    a, b = tmp_path / "ra", tmp_path / "rb"
    run_cli("evaluate", "--manifest", str(manifest), "--out-dir", str(a))
    run_cli("evaluate", "--manifest", str(manifest), "--out-dir", str(b))
    for name in ("report.json", "report.csv", "scatter.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_thread_flag_never_changes_outputs(tmp_path):
    spec_path = write_spec(tmp_path)
    data_dir = tmp_path / "data"
    run_cli(
        "synth", "--spec", str(spec_path), "--out-dir", str(data_dir), "--frames", "5"
    )
    manifest = data_dir / "manifest.txt"
    serial, threaded = tmp_path / "t1", tmp_path / "t4"
    run_cli("evaluate", "--manifest", str(manifest), "--out-dir", str(serial))
    run_cli(
        "evaluate",
        "--manifest",
        str(manifest),
        "--out-dir",
        str(threaded),
        "--threads",
        "4",
    )
    for name in ("report.json", "report.csv", "scatter.csv"):
        assert (serial / name).read_bytes() == (threaded / name).read_bytes()


def test_evaluate_per_frame_diagnostics(tmp_path, monkeypatch):
    spec_path = write_spec(tmp_path)
    data_dir = tmp_path / "data"
    run_cli(
        "synth", "--spec", str(spec_path), "--out-dir", str(data_dir), "--frames", "3"
    )
    loads = []
    original = io.load_frame

    def counting_load(entry, buffers=None, **kwargs):
        loads.append(entry.name)
        return original(entry, **kwargs)

    monkeypatch.setattr(io, "load_frame", counting_load)
    out = tmp_path / "out"
    code = run_cli(
        "evaluate",
        "--manifest",
        str(data_dir / "manifest.txt"),
        "--out-dir",
        str(out),
        "--per-frame",
        "--threads",
        "2",
    )
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert len(payload["provenance"]["per_frame_ause"]) == 3
    assert sorted(loads) == [f"frame_{i:04d}.probs.spt" for i in range(3)]


def hand_instance_manifest(tmp_path):
    rows = np.array(
        [[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.4, 0.6]], dtype=np.float32
    )
    write_tensor(TensorContainer.from_array(rows[None]), tmp_path / "f.probs.spt")
    write_tensor(
        TensorContainer.from_array(np.zeros(4, dtype=np.uint8)),
        tmp_path / "f.labels.spt",
    )
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "sparseval-manifest v1\n"
        "classes zero,one\n"
        "ignore_index 255\n"
        "frame probs=f.probs.spt labels=f.labels.spt\n"
    )
    return manifest


def test_curves_hand_instance(tmp_path, capsys):
    manifest = hand_instance_manifest(tmp_path)
    code = run_cli(
        "curves",
        "--manifest",
        str(manifest),
        "--class",
        "zero",
        "--grid-steps",
        "4",
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "fraction,sparsification_error,oracle_error,difference"
    parsed = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    assert parsed[0] == (0.0, 0.5, 0.5, 0.0)
    assert parsed[1] == (0.25, 1.0 / 3.0, 1.0 / 3.0, 0.0)
    assert parsed[2] == (0.5, 0.5, 0.0, 0.5)
    assert parsed[3] == (0.75, 0.0, 0.0, 0.0)


def test_curves_to_file_and_perfect_difference(tmp_path):
    manifest = make_dataset(tmp_path, per_class_accuracy=[1.0, 1.0, 1.0])
    out = tmp_path / "curvedir"
    code = run_cli(
        "curves",
        "--manifest",
        str(manifest),
        "--class",
        "road",
        "--out-dir",
        str(out),
    )
    assert code == 0
    csv_path = out / "curves_road_max_softmax.csv"
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert all(float(ln.split(",")[3]) == 0.0 for ln in rows)


def test_curves_unknown_class(tmp_path, capsys):
    manifest = make_dataset(tmp_path)
    code = run_cli("curves", "--manifest", str(manifest), "--class", "boat")
    assert code == 2
    assert "UnknownClass" in capsys.readouterr().err


def test_quantized_zero_row_is_input_error_naming_its_sample(tmp_path, capsys):
    # a 4-sample uint16 stack whose sample 3 holds an all-zero row
    rng = np.random.default_rng(21)
    raw = rng.integers(1, 65536, size=(4, 300, 3)).astype(np.uint16)
    raw[3, 123] = 0
    frame = tmp_path / "data"
    frame.mkdir()
    write_tensor(TensorContainer.from_array(raw), frame / "f.probs.spt")
    labels = rng.integers(0, 3, 300).astype(np.uint8)
    write_tensor(TensorContainer.from_array(labels), frame / "f.labels.spt")
    manifest = frame / "manifest.txt"
    manifest.write_text(
        "sparseval-manifest v1\nclasses a,b,c\n"
        "frame probs=f.probs.spt labels=f.labels.spt samples=4\n"
    )
    out = tmp_path / "out"
    assert run_cli("evaluate", "--manifest", str(manifest), "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert "NotADistribution: frame 0 (f.probs.spt): row sum nan at sample 3, point 123" in err
    assert not out.exists()


def test_degenerate_preset_reports_zero_ause_and_filter(tmp_path):
    data_dir = tmp_path / "degen"
    assert (
        run_cli("synth", "--preset", "degenerate-class", "--out-dir", str(data_dir))
        == 0
    )
    out = tmp_path / "out"
    assert (
        run_cli(
            "evaluate",
            "--manifest",
            str(data_dir / "manifest.txt"),
            "--out-dir",
            str(out),
        )
        == 0
    )
    payload = json.loads((out / "report.json").read_text())
    degenerate = payload["classes"][2]
    assert degenerate["iou"] == 0.0
    assert degenerate["ause"]["max_softmax"] == 0.0
    assert degenerate["filtered"] is True


def test_ece_subcommand_prints_value(tmp_path, capsys):
    manifest = make_dataset(tmp_path, n=20000)
    capsys.readouterr()
    code = run_cli("ece", "--manifest", str(manifest), "--bins", "15")
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.0 <= value < 0.05


def test_inspect_tensor_and_manifest(tmp_path, capsys):
    manifest = make_dataset(tmp_path)
    assert run_cli("inspect", "--path", str(manifest)) == 0
    out = capsys.readouterr().out
    assert "classes: 3" in out
    assert "frames: 1" in out
    tensor = manifest.parent / "frame_0000.probs.spt"
    assert run_cli("inspect", "--path", str(tensor)) == 0
    out = capsys.readouterr().out
    assert "dtype: float32" in out
    assert "checksum: ok" in out


def test_usage_error_exits_one():
    assert run_cli("evaluate", "--no-such-flag") == 1
    assert run_cli() == 1


@pytest.mark.parametrize("command", ["evaluate", "curves", "ece"])
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_thread_count_below_one_is_usage_error(tmp_path, capsys, command, threads):
    extra = ["--class", "road"] if command == "curves" else []
    argv = [command, "--manifest", str(tmp_path / "m.txt"), "--threads", threads]
    assert run_cli(*argv, *extra) == 1
    assert "usage error: argument --threads: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "curves", "ece"])
def test_all_ignored_split_is_input_error(tmp_path, capsys, command):
    manifest = hand_instance_manifest(tmp_path)
    write_tensor(
        TensorContainer.from_array(np.full(4, 255, dtype=np.uint8)),
        tmp_path / "f.labels.spt",
    )
    extra = {
        "evaluate": ["--out-dir", str(tmp_path / "out")],
        "curves": ["--class", "zero"],
        "ece": [],
    }[command]
    assert run_cli(command, "--manifest", str(manifest), *extra) == 2
    assert "EmptySplit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_corrupt_tensor_is_input_error(tmp_path, capsys):
    manifest = make_dataset(tmp_path)
    tensor = manifest.parent / "frame_0000.probs.spt"
    blob = bytearray(tensor.read_bytes())
    blob[40] ^= 0xFF
    tensor.write_bytes(bytes(blob))
    out = tmp_path / "out"
    code = run_cli("evaluate", "--manifest", str(manifest), "--out-dir", str(out))
    assert code == 2
    assert "ChecksumMismatch" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    manifest = make_dataset(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "sparseval", "inspect", "--path", str(manifest)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "manifest:" in proc.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evaluate", "--grid-steps", "1"], "argument --grid-steps: grid_steps must be"),
        (["ece", "--bins", "0"], "argument --bins: ece_bins must be"),
        (
            ["evaluate", "--filter-threshold", "2"],
            "argument --filter-threshold: iou_filter_threshold must",
        ),
        (["curves", "--class", "a", "--grid-steps", "ten"], "invalid int value: 'ten'"),
    ],
)
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, argv, message):
    # the manifest does not exist: the flag is rejected before any file is read
    command = argv[0]
    assert run_cli(*argv, "--manifest", str(tmp_path / "m.txt")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"sparseval {command}: usage error: ")
    assert message in err


@pytest.mark.parametrize(
    "line, key",
    [
        ("grid_steps ten", "grid_steps"),
        ("grid_steps 1", "grid_steps"),
        ("tie_break sideways", "tie_break"),
        ("ignore_index x", "ignore_index"),
    ],
)
def test_bad_manifest_value_is_input_error(tmp_path, capsys, line, key):
    manifest = hand_instance_manifest(tmp_path)
    manifest.write_text(manifest.read_text().replace("ignore_index 255", line))
    out = tmp_path / "out"
    assert run_cli("evaluate", "--manifest", str(manifest), "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("sparseval: error: ManifestError: ")
    assert str(manifest) in err and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n": 20.5}, "n must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"frames": 2.5}, "frames must be an integer"),
    ],
)
def test_non_integer_spec_field_is_input_error(tmp_path, capsys, overrides, message):
    spec_path = write_spec(tmp_path, **overrides)
    code = run_cli("synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "x"))
    assert code == 2
    assert f"SpecInvalid: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# a value other than the default for every EvalConfig field: the evaluate flag
# that sets it, and its text as a flag argument and as a manifest value
CONFIG_SETTINGS = {
    "grid_steps": ("--grid-steps", "17"),
    "iou_filter_threshold": ("--filter-threshold", "0.5"),
    "ece_bins": ("--ece-bins", "7"),
    "tie_break": ("--tie-break", "seeded_random"),
    "rng_seed": ("--seed", "11"),
    "ranking_domain": ("--ranking-domain", "global"),
}


def test_config_settings_name_every_field():
    assert set(CONFIG_SETTINGS) == {f.name for f in dataclasses.fields(EvalConfig)}


@pytest.mark.parametrize("name", sorted(CONFIG_SETTINGS))
def test_every_config_field_is_a_manifest_key_and_an_evaluate_flag(tmp_path, name):
    flag, text = CONFIG_SETTINGS[name]
    expected = EvalConfig.parse_field(name, text)
    assert expected != getattr(EvalConfig(), name)
    manifest = hand_instance_manifest(tmp_path)

    def evaluated_config(out, *flags):
        argv = ["evaluate", "--manifest", str(manifest), "--out-dir", str(out), *flags]
        assert run_cli(*argv) == 0
        return json.loads((out / "report.json").read_text())["provenance"]["config"]

    assert evaluated_config(tmp_path / "by_flag", flag, text)[name] == expected
    manifest.write_text(manifest.read_text() + f"{name} {text}\n")
    assert read_manifest(manifest).overrides == {name: expected}
    assert evaluated_config(tmp_path / "by_manifest")[name] == expected


def test_spec_file_accepts_exactly_the_scenario_fields(tmp_path):
    spec = {
        "n": 400,
        "class_frequencies": [0.6, 0.4],
        "per_class_accuracy": [0.8, 0.7],
        "calibration_mode": "overconfident",
        "gamma": 2,
        "confusion_profile": [[0.0, 1.0], [1.0, 0.0]],
        "seed": 3,
        "confidence_spread": 0.1,
        "class_names": ["road", "pole"],
        "frames": 2,
    }
    assert set(spec) == {f.name for f in dataclasses.fields(ScenarioSpec)} | {"frames"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run_cli("synth", "--spec", str(path), "--out-dir", str(tmp_path / "a")) == 0
    assert len(read_manifest(tmp_path / "a" / "manifest.txt").frames) == 2
    path.write_text(json.dumps({**spec, "ignore_index": 0}))
    assert run_cli("synth", "--spec", str(path), "--out-dir", str(tmp_path / "b")) == 2
