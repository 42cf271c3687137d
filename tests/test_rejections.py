"""Rejections of malformed input that no other test reaches. Each case
asserts the error's type and its whole message."""
import json
import re
import struct

import numpy as np
import pytest

from sparseval import (
    ArrayFrame,
    ClassCatalog,
    ConfidenceVector,
    ConfusionMatrix,
    CurvePair,
    FractionGrid,
    FrameEntry,
    LabelArray,
    LogitTensor,
    ProbabilityStack,
    ScenarioSpec,
    TensorContainer,
    brute_force_ause,
    entropy_confidence,
    evaluate_split,
    generate,
    load_frame,
    pool_split,
    read_manifest,
    read_report,
    read_tensor,
    sample_probabilistic_logits,
    write_dataset,
    write_report,
    write_tensor,
)
from sparseval.cli import main
from sparseval.errors import (
    BadHeader,
    DimensionMismatch,
    EmptySplit,
    ManifestError,
    NonFiniteInput,
    ShapeMismatch,
    SpecInvalid,
)
from sparseval.pipeline import binned_ece

CAT2 = ClassCatalog(("a", "b"))


def raises(error, message):
    """``pytest.raises`` of ``error`` whose message is exactly ``message``."""
    return pytest.raises(error, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize(
    "tag, data, message",
    [
        (9, np.zeros(2, np.uint8), "unknown dtype tag 9"),
        (2, np.zeros((1,) * 9, np.uint8), "rank 9 outside 1..8"),
        (2, np.zeros((2, 0), np.uint8), "every dimension must be at least 1"),
    ],
)
def test_tensor_container_rejects(tag, data, message):
    with raises(ValueError, message):
        TensorContainer(tag, data)


def test_read_tensor_rejects_an_implausible_element_count(tmp_path):
    path = tmp_path / "huge.spt"
    path.write_bytes(b"SPARSEV1" + struct.pack("<4I", 2, 2, 1 << 21, 1 << 20))
    with raises(BadHeader, "element count 2199023255552 is implausibly large"):
        read_tensor(path)


@pytest.mark.parametrize(
    "counts, message",
    [
        (np.zeros((2, 3), np.int64), "a confusion matrix must be square"),
        (np.zeros((2, 2)), "confusion counts must be integers"),
        (np.array([[1, -1], [0, 0]]), "confusion counts must be non-negative"),
    ],
)
def test_confusion_matrix_rejects(counts, message):
    with raises(ValueError, message):
        ConfusionMatrix(counts)


def test_confidence_vector_rejects_two_dimensional_scores():
    with raises(ValueError, "confidence scores must be one-dimensional"):
        ConfidenceVector("max_softmax", np.full((2, 2), 0.5))


def test_curve_pair_rejects_curves_off_the_grid():
    with raises(ValueError, "curve arrays must match the fraction grid"):
        CurvePair(0, FractionGrid(4), np.zeros(3), np.zeros(3), 1)


def test_curve_pair_rejects_nan_curve_entries():
    with raises(ValueError, "curve errors must lie in [0, 1]"):
        CurvePair(0, FractionGrid(2), [np.nan, np.nan], [np.nan, np.nan], 1)
    with raises(ValueError, "curve errors must lie in [0, 1]"):
        CurvePair(0, FractionGrid(2), [0.5, 0.5], [0.5, np.nan], 1)


def test_curve_pair_rejects_a_relevant_count_below_one():
    with raises(ValueError, "relevant_count must be at least 1"):
        CurvePair(0, FractionGrid(2), np.zeros(2), np.zeros(2), -5)


@pytest.mark.parametrize(
    "fields, message",
    [
        (
            {"class_frequencies": (0.0, 0.0)},
            "class frequencies must be non-negative with positive sum",
        ),
        (
            {"confusion_profile": [[0.0, 1.0], [-1.0, 0.0]]},
            "confusion_profile entries must be non-negative",
        ),
        ({"confusion_profile": [[0.0, 0.5], [1.0, 0.0]]}, "confusion_profile rows must sum to 1"),
    ],
)
def test_scenario_spec_rejects(fields, message):
    spec = {"n": 10, "class_frequencies": (0.5, 0.5), "per_class_accuracy": (0.8, 0.8), **fields}
    with raises(SpecInvalid, message):
        ScenarioSpec(**spec)


@pytest.mark.parametrize(
    "line, message",
    [
        ("frame labels", "malformed frame token 'labels' in {path}"),
        ("frame labels=l.spt bogus=x", "unknown frame keys ['bogus'] in {path}"),
        ("frame probs=p.spt", "frame without labels in {path}"),
        (
            "frame probs=p.spt logits=x.spt labels=l.spt",
            "{path}: a frame needs exactly one of probs or logits",
        ),
        ("frame labels=l.spt", "{path}: a frame needs exactly one of probs or logits"),
        ("frame probs=p.spt stddev=s.spt labels=l.spt", "{path}: stddev only accompanies logits"),
    ],
)
def test_manifest_frame_line_rejects(tmp_path, line, message):
    path = tmp_path / "m.txt"
    path.write_text(f"sparseval-manifest v1\nclasses a,b\n{line}\n")
    with raises(ManifestError, message.format(path=path)):
        read_manifest(path)


@pytest.mark.parametrize(
    "lines, message",
    [
        ("classes a,a", "{path}: class names must be unique"),
        ("classes a", "{path}: a catalog needs at least two classes"),
        (
            "classes a,b\nignore_index 0",
            "{path}: ignore_index 0 collides with an evaluated class",
        ),
    ],
)
def test_manifest_catalog_rejects(tmp_path, lines, message):
    path = tmp_path / "m.txt"
    path.write_text(f"sparseval-manifest v1\n{lines}\n")
    with raises(ManifestError, message.format(path=path)):
        read_manifest(path)


def _logits_entry(tmp_path, logits, stddev=None):
    entry = FrameEntry(
        labels_path=tmp_path / "l.spt",
        logits_path=tmp_path / "x.spt",
        stddev_path=None if stddev is None else tmp_path / "s.spt",
    )
    write_tensor(TensorContainer.from_array(np.zeros(4, np.uint8)), entry.labels_path)
    write_tensor(TensorContainer.from_array(logits), entry.logits_path)
    if stddev is not None:
        write_tensor(TensorContainer.from_array(stddev), entry.stddev_path)
    return entry


@pytest.mark.parametrize(
    "logits, stddev, message",
    [
        (np.zeros((4, 2), np.uint8), None, "{x} must hold a rank-2 float32 tensor"),
        (np.zeros((1, 4, 2), np.float32), None, "{x} must hold a rank-2 float32 tensor"),
        (
            np.zeros((4, 2), np.float32),
            np.ones((4, 3), np.float32),
            "{s} must match the logits shape (4, 2) as float32",
        ),
    ],
    ids=["uint8", "rank 3", "stddev shape"],
)
def test_load_frame_rejects_logit_files(tmp_path, logits, stddev, message):
    entry = _logits_entry(tmp_path, logits, stddev)
    with raises(ShapeMismatch, message.format(x=entry.logits_path, s=entry.stddev_path)):
        load_frame(entry)


def _frame():
    probs = np.array([[[0.9, 0.1], [0.3, 0.7]]])
    return ArrayFrame(LabelArray(np.array([0, 1])), ProbabilityStack(probs))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: pool_split([_frame()], CAT2, measures=("bogus",)),
            "unknown confidence measure 'bogus'",
        ),
        (
            lambda: pool_split(pool_split([_frame()], CAT2, measures=("max_softmax",))),
            "the pooled split lacks measures ['neg_entropy']",
        ),
        (lambda: pool_split([_frame()]), "a class catalog is required"),
    ],
    ids=["unknown measure", "pooled without a measure", "no catalog"],
)
def test_pool_split_rejects(call, message):
    with raises(ValueError, message):
        call()


@pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
def test_array_frame_rejects_other_than_one_payload(both):
    frame = _frame()
    payloads = {"probs": frame.probs, "logits": LogitTensor(np.zeros((2, 2)))} if both else {}
    with raises(ValueError, "provide exactly one of probs or logits"):
        ArrayFrame(frame.labels, **payloads)


def test_write_report_rejects_an_unknown_format(tmp_path):
    report = evaluate_split([_frame()], CAT2)
    with raises(ValueError, "unknown report format 'xml'"):
        write_report(report, tmp_path / "out", ("xml",))
    assert not (tmp_path / "out").exists()


def test_read_report_rejects_a_foreign_json(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("{}")
    with raises(ValueError, f"{path} is not a sparseval report"):
        read_report(path)


def _row_without_index(tmp_path):
    written = write_report(evaluate_split([_frame()], CAT2), tmp_path)["json"]
    payload = json.loads(written.read_text())
    del payload["classes"][0]["index"]
    return payload


@pytest.mark.parametrize(
    "payload",
    [lambda _: {"format": "sparseval-report-v1"}, lambda _: [], _row_without_index],
    ids=["format-alone", "array", "row-without-index"],
)
def test_read_report_rejects_a_json_that_is_not_a_report(tmp_path, payload):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload(tmp_path)))
    with raises(ValueError, f"{path} is not a sparseval report"):
        read_report(path)


def test_brute_force_ause_rejects_short_scores():
    labels = LabelArray(np.array([0, 1, 1]))
    scores = ConfidenceVector("max_softmax", np.array([0.5, 0.5]))
    with raises(DimensionMismatch, "labels, predictions, and confidence must align"):
        brute_force_ause(labels, labels, scores, CAT2, 0)


def test_write_dataset_rejects_more_frames_than_points(tmp_path):
    probs = ProbabilityStack(np.array([[[0.9, 0.1], [0.3, 0.7], [0.5, 0.5]]]))
    with raises(SpecInvalid, "cannot split fewer points than frames"):
        write_dataset(LabelArray(np.array([0, 1, 1])), probs, CAT2, tmp_path / "out", frames=5)
    assert not (tmp_path / "out").exists()


def test_binned_ece_rejects_no_points():
    with raises(EmptySplit, "no evaluable points for the calibration error"):
        binned_ece(np.zeros(0), np.zeros(0, dtype=bool), 10)


def test_entropy_confidence_rejects_one_class():
    with raises(ValueError, "entropy confidence needs at least two classes"):
        entropy_confidence(ProbabilityStack(np.ones((1, 3, 1))))


def test_sampling_rejects_a_nan_stddev():
    logits = LogitTensor(np.zeros((3, 2)), np.full((3, 2), np.nan))
    with raises(NonFiniteInput, "logit mean or stddev contains NaN or infinite entries"):
        sample_probabilistic_logits(logits, 4)


SPEC = {"n": 300, "class_frequencies": [0.6, 0.4], "per_class_accuracy": [0.8, 0.7], "seed": 5}


@pytest.mark.parametrize(
    "text, detail",
    [
        (json.dumps([SPEC]), "a scenario spec file must hold one JSON object"),
        (
            json.dumps({k: v for k, v in SPEC.items() if k != "n"}),
            "scenario spec is missing or mistypes a field: ",
        ),
    ],
    ids=["not an object", "missing field"],
)
def test_synth_spec_rejects(tmp_path, capsys, text, detail):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["synth", "--spec", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sparseval: error: SpecInvalid: {detail}")
    assert not (tmp_path / "out").exists()
    if detail.endswith(": "):
        assert "'n'" in err


def test_synth_seed_flag_overrides_the_spec_seed(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    out = tmp_path / "out"
    assert main(["synth", "--spec", str(path), "--out-dir", str(out), "--seed", "9"]) == 0
    stored = read_tensor(out / "frame_0000.labels.spt").data
    for seed, same in ((9, True), (5, False)):
        gt, _ = generate(ScenarioSpec(**{**SPEC, "seed": seed}))
        assert np.array_equal(stored, gt.values) == same
