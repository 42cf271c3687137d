import hashlib
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
from sparseval import synth
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


def test_anticorrelated_with_every_point_correct_is_calibrated():
    # no wrong point to swap with: the calibrated rows, bit for bit
    (gt_c, probs_c), (gt_a, probs_a) = (
        generate(small_spec(per_class_accuracy=(1.0, 1.0, 1.0), calibration_mode=mode))
        for mode in ("calibrated", "anticorrelated")
    )
    assert np.array_equal(gt_c.values, gt_a.values)
    assert np.array_equal(probs_c.data, probs_a.data)


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


# the bytes write_dataset wrote for this spec before its writer was last
# rewritten: the three frames' containers and the manifest
WRITTEN_DATASET = {
    "frame_0000.labels.spt": "5059f6c0f00fdab132f8911cc21451ae052e329820843e4ae9a84c4af8db2bb5",
    "frame_0000.probs.spt": "79ec6fd33f11759188dc28355f57f0433818a9f82cdc47345bd53b4652f8b9f5",
    "frame_0001.labels.spt": "e826008e620da6913da32182b73ba8eb0edf043e407426d35c59106173986717",
    "frame_0001.probs.spt": "510a832995c33588e1ce2d2e18c3071d16e19e7f3aa1ae52ffd3e680ce1206d7",
    "frame_0002.labels.spt": "11994343352294cd5bea2fad728cb43144203a1ca0be26d3059150bd4f66c26a",
    "frame_0002.probs.spt": "553dab461bbd96c6db53739ea321b54b615122c9fbf6c2d8ba9689188b21a46d",
    "manifest.txt": "6c0b12df57255bb8250689ce6d4ca4ac9a3f7b1d5ef4996ce7bc15dff1f3489a",
}
WRITTEN_MANIFEST = (
    "sparseval-manifest v1\n"
    "classes class_00,class_01,class_02\n"
    "ignore_index 255\n"
    "frame probs=frame_0000.probs.spt labels=frame_0000.labels.spt\n"
    "frame probs=frame_0001.probs.spt labels=frame_0001.labels.spt\n"
    "frame probs=frame_0002.probs.spt labels=frame_0002.labels.spt\n"
)


def test_write_dataset_writes_pinned_bytes(tmp_path):
    spec = small_spec(n=3001)
    manifest = write_dataset(*generate(spec), spec.catalog(), tmp_path, frames=3)
    assert manifest == tmp_path / "manifest.txt"
    assert manifest.read_text(encoding="utf-8") == WRITTEN_MANIFEST
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())
    }
    assert written == WRITTEN_DATASET


def output_digest(gt, probs):
    h = hashlib.sha256()
    for arr in (gt.values, probs.data):
        h.update(f"{arr.dtype.str} {arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def reference_generate(spec):
    """generate in whole-array steps: each wrong prediction is the argmax of
    its draw against a gathered row of cumulative shares, and the rows are
    filled at once."""
    rng = np.random.default_rng(spec.seed)
    k = spec.k
    freq = np.asarray(spec.class_frequencies, dtype=np.float64)
    acc = np.asarray(spec.per_class_accuracy, dtype=np.float64)
    gt = rng.choice(k, size=spec.n, p=freq / freq.sum()).astype(np.int64)
    halfwidth = np.minimum(np.minimum(acc - 1.0 / k, 1.0 - acc), spec.confidence_spread)
    halfwidth = np.maximum(halfwidth, 0.0)
    q = acc[gt] + halfwidth[gt] * (2.0 * rng.random(spec.n) - 1.0)
    correct = rng.random(spec.n) < q
    profile = spec.confusion_profile
    if profile is None:
        profile = np.full((k, k), 1.0 / (k - 1))
        np.fill_diagonal(profile, 0.0)
    pred, wrong = gt.copy(), np.flatnonzero(~correct)
    draws = rng.random(wrong.size)
    pred[wrong] = (draws[:, None] < np.cumsum(profile, axis=1)[gt[wrong]]).argmax(axis=1)
    conf = q
    if spec.calibration_mode in ("overconfident", "underconfident"):
        conf = synth._power_sharpen(q, spec.gamma, k)
        if spec.calibration_mode == "overconfident":
            conf = np.maximum(conf, float(np.quantile(conf, 1.0 - 1.0 / spec.gamma)))
    elif spec.calibration_mode == "anticorrelated":
        conf = synth._swap_extremes(conf, correct)
    top = np.maximum(conf.astype(np.float32), np.nextafter(np.float32(1.0 / k), np.float32(1.0)))
    rows = np.empty((spec.n, k), dtype=np.float32)
    rows[:] = ((1.0 - top.astype(np.float64)) / (k - 1)).astype(np.float32)[:, None]
    rows[np.arange(spec.n), pred] = top
    return gt, rows


PROFILE_SPEC = dict(
    n=70_000,
    class_frequencies=(0.4, 0.3, 0.2, 0.1),
    per_class_accuracy=(0.9, 0.5, 0.6, 0.25),
    seed=9,
    confidence_spread=0.15,
    # a class whose only confusion is one column, and one with accuracy 1/k
    confusion_profile=[[0, 0.5, 0.5, 0], [1, 0, 0, 0], [0.25, 0.25, 0, 0.5], [0, 0, 1, 0]],
)


# 70 000 points: past one SCAN_POINTS piece of the row fill and of the
# wrong-prediction draws
@pytest.mark.parametrize(
    "overrides",
    [
        dict(calibration_mode="calibrated"),
        dict(calibration_mode="overconfident", gamma=3.0),
        dict(calibration_mode="underconfident", gamma=0.5),
        dict(calibration_mode="anticorrelated"),
        dict(calibration_mode="calibrated", class_frequencies=(0.5, 0.5), per_class_accuracy=(0.9, 0.6)),
        PROFILE_SPEC,
    ],
    ids=["calibrated", "overconfident", "underconfident", "anticorrelated", "two-classes", "profile"],
)
def test_generate_equals_the_whole_array_reference(overrides):
    spec = small_spec(**{"n": 70_000, **overrides})
    gt, probs = generate(spec)
    ref_gt, ref_rows = reference_generate(spec)
    assert gt.values.dtype == ref_gt.dtype and gt.values.tobytes() == ref_gt.tobytes()
    assert probs.data.shape == (1, *ref_rows.shape)
    assert probs.data[0].tobytes() == ref_rows.tobytes()


# generate's bytes, on which the benchmark inputs and every recorded report
# digest rest; only for modes of exact arithmetic, since the power transform
# of the over- and underconfident modes rounds by the CPU's SIMD path
@pytest.mark.parametrize(
    "overrides, digest",
    [
        (
            dict(calibration_mode="calibrated"),
            "147a145be2ea36d3f11472d0a58caef1c47da606797ac7fd37588e2aa282e323",
        ),
        (
            dict(calibration_mode="anticorrelated"),
            "9c3dfcad9dfcc7827855ba7f4c94f4837dc8c9729276e771b27ea49d03d30bb2",
        ),
        (PROFILE_SPEC, "899fd34e829506bd6d80e6c91ec7d7a769183132530179ea485a109433de7e03"),
    ],
    ids=["calibrated", "anticorrelated", "profile"],
)
def test_generate_output_is_pinned(overrides, digest):
    spec = small_spec(**{"n": 70_000, **overrides})
    assert output_digest(*generate(spec)) == digest
