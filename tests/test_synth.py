import math

import numpy as np
import pytest

from sparseval import (
    ArrayFrame,
    ClassCatalog,
    LabelArray,
    ScenarioSpec,
    confusion,
    degenerate_class_scenario,
    ece,
    evaluate_split,
    generate,
    iou,
    max_softmax_confidence,
    per_class_ause,
    read_manifest,
    validate_inputs,
    write_dataset,
)
from sparseval.errors import LabelOutOfRange, SpecInvalid


def small_spec(**overrides):
    base = dict(
        n=4000,
        class_frequencies=(0.6, 0.3, 0.1),
        per_class_accuracy=(0.8, 0.75, 0.7),
        seed=5,
        confidence_spread=0.2,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_perfect_accuracy_gives_perfect_scores():
    spec = small_spec(per_class_accuracy=(1.0, 1.0, 1.0))
    gt, probs = generate(spec)
    catalog = spec.catalog()
    conf, pred = max_softmax_confidence(probs)
    vec = iou(confusion(pred, gt, catalog))
    assert np.array_equal(vec.values, np.ones(3))
    for row in per_class_ause(probs, gt, catalog, "max_softmax"):
        assert row.ause == 0.0


def test_generated_rows_always_validate():
    for seed in range(6):
        for mode, gamma in (
            ("calibrated", 1.0),
            ("overconfident", 3.0),
            ("underconfident", 0.5),
            ("anticorrelated", 1.0),
        ):
            spec = small_spec(seed=seed, calibration_mode=mode, gamma=gamma)
            gt, probs = generate(spec)
            validate_inputs(probs, gt, spec.catalog())


def test_minority_share_within_binomial_bound():
    spec = ScenarioSpec(
        n=100_000,
        class_frequencies=(0.99, 0.01),
        per_class_accuracy=(0.8, 0.8),
        seed=17,
    )
    gt, _ = generate(spec)
    minority = int((gt.values == 1).sum())
    sigma = np.sqrt(100_000 * 0.01 * 0.99)
    assert abs(minority - 1000) <= 3 * sigma


def test_empirical_accuracy_matches_spec():
    spec = small_spec(n=60_000, seed=2)
    gt, probs = generate(spec)
    _, pred = max_softmax_confidence(probs)
    for c, target in enumerate(spec.per_class_accuracy):
        mask = gt.values == c
        n_c = int(mask.sum())
        hit = float((pred.values[mask] == c).mean())
        sigma = np.sqrt(target * (1 - target) / n_c)
        assert abs(hit - target) <= 3 * sigma + 1e-9


def test_calibrated_mode_is_actually_calibrated():
    spec = small_spec(n=100_000, seed=3)
    gt, probs = generate(spec)
    assert ece(probs, gt, 15) < 0.01


def test_anticorrelated_never_beats_calibrated():
    worse = 0
    for seed in range(20):
        values = {}
        for mode in ("calibrated", "anticorrelated"):
            spec = small_spec(n=20_000, seed=seed, calibration_mode=mode)
            gt, probs = generate(spec)
            rows = per_class_ause(probs, gt, spec.catalog(), "max_softmax")
            values[mode] = [r.ause for r in rows]
        for cal, anti in zip(values["calibrated"], values["anticorrelated"]):
            assert anti >= cal - 1e-12
            worse += anti > cal
    assert worse > 0


def test_determinism_per_seed():
    spec = small_spec(seed=31)
    gt_a, probs_a = generate(spec)
    gt_b, probs_b = generate(spec)
    assert np.array_equal(gt_a.values, gt_b.values)
    assert np.array_equal(probs_a.data, probs_b.data)


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        small_spec(n=0)
    with pytest.raises(SpecInvalid):
        small_spec(class_frequencies=(1.0,), per_class_accuracy=(0.9,))
    with pytest.raises(SpecInvalid):
        small_spec(per_class_accuracy=(0.8, 0.75))
    with pytest.raises(SpecInvalid):
        small_spec(per_class_accuracy=(0.8, 0.75, 1.2))
    with pytest.raises(SpecInvalid):
        small_spec(per_class_accuracy=(0.8, 0.75, 0.1))  # below 1/k
    with pytest.raises(SpecInvalid):
        small_spec(calibration_mode="sharpened")
    with pytest.raises(SpecInvalid):
        small_spec(calibration_mode="overconfident", gamma=1.0)
    with pytest.raises(SpecInvalid):
        small_spec(calibration_mode="underconfident", gamma=2.0)
    with pytest.raises(SpecInvalid):
        small_spec(confidence_spread=0.6)
    with pytest.raises(SpecInvalid):
        small_spec(confusion_profile=np.eye(3))
    with pytest.raises(SpecInvalid):
        small_spec(class_names=("a", "b"))
    # integers are never truncated from a float
    with pytest.raises(SpecInvalid):
        small_spec(n=20.5)
    with pytest.raises(SpecInvalid):
        small_spec(seed=1.5)
    with pytest.raises(SpecInvalid):
        small_spec(seed=-1)
    # sequences are taken entry by entry, never from a scalar or a string
    with pytest.raises(SpecInvalid, match="^class_frequencies must be a sequence"):
        small_spec(class_frequencies=0.5)
    with pytest.raises(SpecInvalid, match="^per_class_accuracy must be a sequence"):
        small_spec(per_class_accuracy=0.8)
    with pytest.raises(SpecInvalid, match="^confusion_profile must be k x k"):
        small_spec(confusion_profile=[[0, 0.5, 0.5], [1, 0], [1, 0, 0]])
    with pytest.raises(SpecInvalid, match="^confusion_profile must be a sequence"):
        small_spec(confusion_profile=[[0, 0.5, 0.5], [1, 0, 0], 1.0])
    with pytest.raises(SpecInvalid, match="^confusion_profile must be a finite number"):
        small_spec(confusion_profile=[[0, 0.5, 0.5], [1, 0, 0], [1, 0, [0]]])
    with pytest.raises(SpecInvalid, match="^class_names must be a sequence"):
        small_spec(class_frequencies=(0.5, 0.5), per_class_accuracy=(0.8, 0.8), class_names="ab")


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"gamma": "4", "calibration_mode": "overconfident"}, "gamma"),
        ({"gamma": math.inf, "calibration_mode": "overconfident"}, "gamma"),
        ({"gamma": math.nan, "calibration_mode": "underconfident"}, "gamma"),
        ({"confidence_spread": "0.1"}, "confidence_spread"),
        ({"confidence_spread": math.nan}, "confidence_spread"),
        ({"class_frequencies": ("a", 0.3, 0.1)}, "class_frequencies"),
        ({"class_frequencies": (0.6, math.nan, 0.1)}, "class_frequencies"),
        ({"class_frequencies": (0.6, math.inf, 0.1)}, "class_frequencies"),
        ({"per_class_accuracy": (0.8, None, 0.7)}, "per_class_accuracy"),
        ({"per_class_accuracy": (0.8, 0.75, math.nan)}, "per_class_accuracy"),
        ({"confusion_profile": [[0, 1, 0], [1, 0, 0], ["1", 0, 0]]}, "confusion_profile"),
        ({"confusion_profile": np.full((3, 3), np.nan)}, "confusion_profile"),
    ],
)
def test_real_fields_must_be_finite_numbers(overrides, field):
    with pytest.raises(SpecInvalid, match=f"^{field} must be a finite number"):
        small_spec(**overrides)


def test_confusion_profile_routes_errors():
    profile = np.array(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    )
    spec = small_spec(n=20_000, confusion_profile=profile, seed=8)
    gt, probs = generate(spec)
    _, pred = max_softmax_confidence(probs)
    wrong = pred.values != gt.values
    assert (pred.values[wrong & (gt.values == 0)] == 1).all()
    assert (pred.values[wrong & (gt.values == 1)] == 0).all()
    assert (pred.values[wrong & (gt.values == 2)] == 0).all()


def test_degenerate_class_scenario():
    gt, probs = degenerate_class_scenario(seed=4)
    catalog = ClassCatalog(("a", "b", "c"))
    conf, pred = max_softmax_confidence(probs)
    vec = iou(confusion(pred, gt, catalog))
    assert vec.values[2] == 0.0
    rows = per_class_ause(probs, gt, catalog, "max_softmax")
    assert rows[2].ause == 0.0
    assert rows[2].relevant_count > 0
    report = evaluate_split([ArrayFrame(gt, probs)], catalog)
    assert report.rows[2].filtered is True
    assert report.rows[0].filtered is False


def test_accuracy_at_uniform_floor_is_allowed():
    spec = ScenarioSpec(
        n=500,
        class_frequencies=(0.5, 0.5),
        per_class_accuracy=(0.5, 0.5),
        seed=1,
    )
    gt, probs = generate(spec)
    validate_inputs(probs, gt, spec.catalog())


@pytest.mark.parametrize(
    "label, ignore_index, error",
    [
        (257, 255, LabelOutOfRange),
        (-1, -1, SpecInvalid),
        (None, -1, None),
    ],
    ids=["label-257", "ignore-minus-1-present", "ignore-minus-1-absent"],
)
def test_write_dataset_stores_only_labels_it_can_read_back(tmp_path, label, ignore_index, error):
    gt, probs = generate(small_spec(n=300))
    labels = gt.values.copy()
    if label is not None:
        labels[17] = label
    catalog = ClassCatalog(("a", "b", "c"), ignore_index)
    gt = LabelArray(labels)
    if error is not None:
        # nothing is written: the label would come back as another value
        with pytest.raises(error, match=f"label {label} "):
            write_dataset(gt, probs, catalog, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        return
    manifest = read_manifest(write_dataset(gt, probs, catalog, tmp_path, frames=2))
    assert manifest.catalog == catalog
    stored, direct = evaluate_split(manifest), evaluate_split([ArrayFrame(gt, probs)], catalog)
    stored.provenance = direct.provenance = {}
    assert stored == direct
