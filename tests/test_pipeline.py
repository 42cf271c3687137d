import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from sparseval import (
    ArrayFrame,
    ClassCatalog,
    EvalConfig,
    LabelArray,
    LogitTensor,
    ProbabilityStack,
    ScenarioSpec,
    aggregate_samples,
    ece,
    evaluate_split,
    filter_and_aggregate,
    generate,
    per_class_ause,
    per_frame_class_ause,
    pool_split,
    scatter_export,
    validate_inputs,
)
from sparseval.core import BLOCK_POINTS, MEASURES, RANKING_DOMAINS, TIE_BREAKS
from sparseval.errors import (
    AllClassesFiltered,
    EmptySplit,
    LabelOutOfRange,
    NotADistribution,
)
from sparseval.pipeline import binned_ece
from sparseval.segmetrics import confusion


def scenario_frames(seed=11, n=5000, parts=1):
    spec = ScenarioSpec(
        n=n,
        class_frequencies=(0.7, 0.2, 0.1),
        per_class_accuracy=(0.8, 0.75, 0.7),
        seed=seed,
        confidence_spread=0.2,
    )
    gt, probs = generate(spec)
    catalog = spec.catalog()
    bounds = [(n * i) // parts for i in range(parts + 1)]
    frames = [
        ArrayFrame(
            LabelArray(gt.values[lo:hi]),
            ProbabilityStack(probs.data[:, lo:hi, :]),
            name=f"part{i}",
        )
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    return frames, catalog, gt, probs


def strip_provenance(report):
    clone = copy.deepcopy(report)
    clone.provenance = {}
    return clone


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("ranking_domain", RANKING_DOMAINS)
def test_single_frame_report_matches_per_class_chain(measure, tie_break, ranking_domain):
    _, catalog, gt, probs = scenario_frames()
    labels = gt.values.copy()
    labels[::7] = catalog.ignore_index
    gt = LabelArray(labels)
    config = EvalConfig(tie_break=tie_break, ranking_domain=ranking_domain, rng_seed=3)
    report = evaluate_split([ArrayFrame(gt, probs)], catalog, config)
    direct = per_class_ause(probs, gt, catalog, measure, config)
    for row, ref in zip(report.rows, direct, strict=True):
        assert row.ause[measure] == ref.ause
        assert row.relevant_count == ref.relevant_count
    assert report.provenance["config"]["iou_filter_threshold"] == 0.03
    expected_ece = ece(probs, gt, 15, ignore_index=catalog.ignore_index)
    assert report.ece == pytest.approx(expected_ece, abs=1e-15)


def test_duplicated_frame_keeps_iou_and_ause():
    # both class subsets have 120 points, divisible by the 60-step grid, and
    # confidences are unique inside the frame: under stable ties, duplicating
    # the frame removes whole duplicate pairs, so both metrics are unchanged
    rng = np.random.default_rng(23)
    gt = np.repeat([0, 1], 100)
    pred = gt.copy()
    pred[80:100] = 1
    pred[180:200] = 0
    conf = 0.5 + 0.5 * (rng.permutation(200) + 1.0) / 201.0
    rows = np.zeros((200, 2))
    rows[np.arange(200), pred] = conf
    rows[np.arange(200), 1 - pred] = 1.0 - conf
    frame = ArrayFrame(LabelArray(gt), ProbabilityStack(rows[None]))
    catalog = ClassCatalog(("a", "b"))
    config = EvalConfig(grid_steps=60)
    once = evaluate_split([frame], catalog, config)
    twice = evaluate_split([frame, frame], catalog, config)
    for a, b in zip(once.rows, twice.rows):
        assert a.iou == b.iou
        assert a.ause == b.ause
        assert b.relevant_count == 2 * a.relevant_count
    assert np.array_equal(
        np.array(twice.confusion_counts), 2 * np.array(once.confusion_counts)
    )


def test_split_invariance_over_frame_partitions():
    one, catalog, _, _ = scenario_frames(parts=1)
    ten, _, _, _ = scenario_frames(parts=10)
    a = evaluate_split(one, catalog)
    b = evaluate_split(ten, catalog)
    assert a.confusion_counts == b.confusion_counts
    assert a.rows == b.rows
    assert a.overall_ause == b.overall_ause
    assert a.filtered_ause == b.filtered_ause
    assert a.ece == b.ece
    assert a.miou_present == b.miou_present


def logit_frames(parts=5, n=1500, samples=4):
    rng = np.random.default_rng(4)
    gt = rng.integers(0, 3, size=n)
    values = rng.normal(size=(n, 3)) + 2.0 * np.eye(3)[gt]
    stddev = rng.uniform(0.1, 1.0, size=(n, 3))
    bounds = [(n * i) // parts for i in range(parts + 1)]
    frames = [
        ArrayFrame(
            LabelArray(gt[lo:hi]),
            logits=LogitTensor(values[lo:hi], stddev[lo:hi]),
            samples=samples,
            name=f"part{i}",
        )
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    return frames, ClassCatalog(("a", "b", "c"))


@pytest.mark.parametrize(
    "make_frames", [lambda: scenario_frames(parts=7)[:2], logit_frames], ids=["probs", "logits"]
)
def test_thread_count_does_not_change_results(make_frames):
    frames, catalog = make_frames()
    serial = evaluate_split(frames, catalog, threads=1)
    threaded = evaluate_split(frames, catalog, threads=4)
    assert strip_provenance(serial) == strip_provenance(threaded)
    assert serial.provenance == threaded.provenance


def test_report_is_deterministic():
    frames, catalog, _, _ = scenario_frames(parts=3)
    a = evaluate_split(frames, catalog)
    b = evaluate_split(frames, catalog)
    assert a == b


def test_seeded_random_tie_break_reaches_the_report():
    # the top probability takes three values, so nearly every point ties
    rng = np.random.default_rng(4)
    n, k = 3000, 3
    gt = rng.integers(0, k, size=n)
    pred = np.where(rng.random(n) < 0.7, gt, rng.integers(0, k, size=n))
    top = rng.choice([0.5, 0.7, 0.9], size=n)
    rows = np.repeat(((1.0 - top) / (k - 1))[:, None], k, axis=1)
    rows[np.arange(n), pred] = top
    frames = [ArrayFrame(LabelArray(gt), ProbabilityStack(rows[None]))]
    catalog = ClassCatalog(("a", "b", "c"))

    def ause_rows(**config):
        report = evaluate_split(frames, catalog, EvalConfig(**config))
        return [row.ause for row in report.rows]

    seeded = ause_rows(tie_break="seeded_random", rng_seed=5)
    assert seeded == ause_rows(tie_break="seeded_random", rng_seed=5)
    assert seeded != ause_rows(tie_break="stable_index")


def test_probability_stack_frames_are_aggregated():
    rng = np.random.default_rng(0)
    raw = rng.random((30, 400, 3)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    stack = ProbabilityStack(raw)
    gt = LabelArray(rng.integers(0, 3, size=400))
    catalog = ClassCatalog(("a", "b", "c"))
    report = evaluate_split([ArrayFrame(gt, stack)], catalog)
    flat = evaluate_split([ArrayFrame(gt, aggregate_samples(stack))], catalog)
    assert strip_provenance(report) == strip_provenance(flat)


def test_logit_frames_with_and_without_stddev():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(300, 3))
    gt = LabelArray(rng.integers(0, 3, size=300))
    catalog = ClassCatalog(("a", "b", "c"))
    plain = evaluate_split([ArrayFrame(gt, logits=LogitTensor(values))], catalog)
    assert plain.rows

    noisy = LogitTensor(values, np.full((300, 3), 0.5))
    config = EvalConfig(rng_seed=77)
    report = evaluate_split([ArrayFrame(gt, logits=noisy, samples=5)], catalog, config)
    again = evaluate_split([ArrayFrame(gt, logits=noisy, samples=5)], catalog, config)
    assert report == again
    other_seed = evaluate_split(
        [ArrayFrame(gt, logits=noisy, samples=5)], catalog, EvalConfig(rng_seed=78)
    )
    assert strip_provenance(report) != strip_provenance(other_seed)


def test_frame_errors_carry_frame_identity():
    bad = ProbabilityStack(np.array([[[0.9, 0.9]]]))
    frames = [
        ArrayFrame(LabelArray(np.array([0, 1])), ProbabilityStack(np.full((1, 2, 2), 0.5))),
        ArrayFrame(LabelArray(np.array([0])), bad, name="broken"),
    ]
    with pytest.raises(NotADistribution, match="frame 1 \\(broken\\)"):
        evaluate_split(frames, ClassCatalog(("a", "b")))


def test_empty_split_errors():
    with pytest.raises(EmptySplit):
        evaluate_split([], ClassCatalog(("a", "b")))
    all_ignored = ArrayFrame(
        LabelArray(np.array([255, 255])), ProbabilityStack(np.full((1, 2, 2), 0.5))
    )
    with pytest.raises(EmptySplit):
        evaluate_split([all_ignored], ClassCatalog(("a", "b")))
    with pytest.raises(EmptySplit):
        per_frame_class_ause([all_ignored], ClassCatalog(("a", "b")))



class UnreadFrame:
    """A frame source that fails the test if the split reads it."""

    name = "unread"
    samples = 1

    def load(self):
        raise AssertionError("the frame was read")

    def digest(self):
        raise AssertionError("the frame was digested")


@pytest.mark.parametrize("measures", [(), ("max_softmax", "max_softmax")])
def test_measures_must_be_distinct_and_non_empty(measures):
    with pytest.raises(ValueError, match="each once"):
        evaluate_split([UnreadFrame()], ClassCatalog(("a", "b")), measures=measures)
    with pytest.raises(ValueError, match="each once"):
        pool_split([UnreadFrame()], ClassCatalog(("a", "b")), measures=measures)


@pytest.mark.parametrize("samples", [1.5, 2.0, "3", None])
def test_array_frame_samples_must_be_an_integer(samples):
    gt = LabelArray(np.array([0, 1]))
    noisy = LogitTensor(np.zeros((2, 2)), np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="samples must be an integer"):
        ArrayFrame(gt, logits=noisy, samples=samples)
    assert ArrayFrame(gt, logits=noisy, samples=np.int64(3)).samples == 3

def test_filter_marks_and_aggregates():
    frames, catalog, _, _ = scenario_frames()
    report = evaluate_split(frames, catalog)
    report.rows[0].iou = 0.02
    filter_and_aggregate(report)
    assert report.rows[0].filtered is True
    report.rows[0].iou = 0.03
    filter_and_aggregate(report)
    assert report.rows[0].filtered is False  # strict inequality

    kept = [r for r in report.rows if not r.filtered]
    assert len(kept) == len(report.rows)
    assert report.filtered_ause == report.overall_ause


def test_filter_all_classes_raises():
    frames, catalog, _, _ = scenario_frames()
    report = evaluate_split(frames, catalog)
    with pytest.raises(AllClassesFiltered):
        filter_and_aggregate(report, threshold=0.999)
    assert report.filtered_ause == {m: None for m in report.measures}


def test_ece_trivial_cases():
    catalog_k = 2
    ones = np.zeros((1, 50, catalog_k))
    ones[0, :, 0] = 1.0
    assert ece(ProbabilityStack(ones), LabelArray(np.zeros(50, dtype=np.int64)), 15) == 0.0

    rows = np.tile([0.7, 0.3], (1, 10, 1))
    gt = np.zeros(10, dtype=np.int64)
    gt[7:] = 1  # 70 percent correct
    assert ece(ProbabilityStack(rows), LabelArray(gt), 1) == pytest.approx(0.0, abs=1e-12)

    rows = np.tile([0.9, 0.1], (1, 10, 1))
    gt = np.zeros(10, dtype=np.int64)
    gt[5:] = 1  # 50 percent correct
    assert ece(ProbabilityStack(rows), LabelArray(gt), 15) == pytest.approx(0.4, abs=1e-12)


def test_ece_ignores_ignore_label():
    rows = np.tile([0.8, 0.2], (1, 4, 1))
    gt = LabelArray(np.array([0, 0, 255, 255]))
    value = ece(ProbabilityStack(rows), gt, 10, ignore_index=255)
    assert value == pytest.approx(0.2, abs=1e-12)


def test_ece_converges_for_calibrated_data():
    spec = ScenarioSpec(
        n=100_000,
        class_frequencies=(0.5, 0.3, 0.2),
        per_class_accuracy=(0.85, 0.7, 0.6),
        seed=13,
        confidence_spread=0.2,
    )
    gt, probs = generate(spec)
    assert ece(probs, gt, 15, ignore_index=255) < 0.01


def test_scatter_export_contents():
    frames, catalog, _, _ = scenario_frames()
    report = evaluate_split(frames, catalog)
    scatter = scatter_export(report)
    assert scatter.threshold == 0.03
    assert set(scatter.points) == {"max_softmax", "neg_entropy"}
    for pairs in scatter.points.values():
        assert len(pairs) == 3
        for name, iou_val, ause_val in pairs:
            assert name in catalog.names
            assert 0.0 <= iou_val <= 1.0
            assert 0.0 <= ause_val <= 1.0


def test_scatter_excludes_undefined_rows():
    rng = np.random.default_rng(2)
    raw = rng.random((1, 100, 3)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    raw[0, :, 2] = 0.0
    raw /= raw.sum(axis=2, keepdims=True)
    gt = LabelArray(rng.integers(0, 2, size=100))
    catalog = ClassCatalog(("a", "b", "never"))
    report = evaluate_split([ArrayFrame(gt, ProbabilityStack(raw))], catalog)
    scatter = scatter_export(report)
    for pairs in scatter.points.values():
        assert all(name != "never" for name, _, _ in pairs)


def test_single_measure_report():
    frames, catalog, _, _ = scenario_frames()
    report = evaluate_split(frames, catalog, measures=("neg_entropy",))
    assert report.measures == ("neg_entropy",)
    assert set(report.rows[0].ause) == {"neg_entropy"}
    assert report.ece is not None  # baseline still uses max softmax


def test_per_frame_diagnostics():
    frames, catalog, _, _ = scenario_frames(parts=4)
    diag = per_frame_class_ause(frames, catalog)
    assert len(diag) == 4
    for frame, entry in zip(frames, diag):
        assert set(entry["ause"]) == {"max_softmax", "neg_entropy"}
        alone = evaluate_split([frame], catalog)
        for m, by_class in entry["ause"].items():
            assert by_class == {row.name: row.ause[m] for row in alone.rows}


@pytest.mark.parametrize("ignored", [False, True], ids=["nothing-ignored", "some-ignored"])
def test_pooled_columns_are_copies_of_the_kept_points(ignored):
    frames, catalog, gt, probs = scenario_frames(parts=2)
    # uint8 labels already have the pooled type, so a frame with nothing
    # ignored hands its own label array on to the pooling
    labels = [LabelArray(f.labels.values.astype(np.uint8)) for f in frames]
    if ignored:
        labels[0].values[::5] = catalog.ignore_index
    frames = [dataclasses.replace(f, labels=lab) for f, lab in zip(frames, labels)]
    split = pool_split(frames, catalog)
    values = np.concatenate([lab.values for lab in labels])
    keep = values != catalog.ignore_index
    assert np.array_equal(split.gt.values, values[keep])
    assert np.array_equal(split.pred.values, probs.data[0].argmax(axis=1)[keep])
    top = probs.data[0].max(axis=1)[keep]
    assert np.array_equal(split.confidences["max_softmax"].scores, top)
    # int64 labels are copied by the narrowing whether or not a point is ignored
    whole = ArrayFrame(LabelArray(values.astype(np.int64)), probs)
    assert strip_provenance(evaluate_split(split)) == strip_provenance(
        evaluate_split([whole], catalog)
    )
    for lab in labels:
        assert not np.shares_memory(split.gt.values, lab.values)


def test_pooled_labels_use_the_narrowest_type():
    for k, dtype in ((19, np.uint8), (256, np.uint8), (300, np.uint16)):
        rng = np.random.default_rng(k)
        n = 2 * BLOCK_POINTS + 3
        catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)), ignore_index=1000)
        labels = rng.integers(0, k, size=n)
        labels[::7] = 1000
        rows = rng.dirichlet(np.full(k, 0.1), size=n)
        frames = [
            ArrayFrame(LabelArray(labels[:BLOCK_POINTS]), ProbabilityStack(rows[None, :BLOCK_POINTS])),
            ArrayFrame(LabelArray(labels[BLOCK_POINTS:]), ProbabilityStack(rows[None, BLOCK_POINTS:])),
        ]
        split = pool_split(frames, catalog)
        assert split.gt.values.dtype == dtype and split.pred.values.dtype == dtype
        wide = dataclasses.replace(
            split,
            gt=LabelArray(split.gt.values.astype(np.int64)),
            pred=LabelArray(split.pred.values.astype(np.int64)),
        )
        assert np.array_equal(wide.gt.values, labels[labels != 1000])
        assert np.array_equal(
            confusion(split.pred, split.gt, catalog).counts, split.counts.counts
        )
        correct = wide.pred.values == wide.gt.values
        scores = split.confidences["max_softmax"].scores
        assert split.ece(15) == binned_ece(scores, correct, 15)
        assert evaluate_split(split) == evaluate_split(wide)
        assert per_frame_class_ause(split) == per_frame_class_ause(wide)


# frame 1 of three carries the fault at a point past its first block
FAULT_AT = BLOCK_POINTS + 37


def _faulty_frames(fault):
    rng = np.random.default_rng(8)
    frames = []
    for i in range(3):
        rows = rng.dirichlet(np.ones(6), size=3 * BLOCK_POINTS).astype(np.float32)
        labels = rng.integers(0, 6, size=3 * BLOCK_POINTS)
        if i == 1:
            fault(rows, labels)
        frames.append(ArrayFrame(LabelArray(labels), ProbabilityStack(rows[None]), name=f"f{i}"))
    return frames


def _nan(rows, labels):
    rows[FAULT_AT, 2] = np.nan


def _negative(rows, labels):
    rows[FAULT_AT, 2] = -0.25


def _above_one(rows, labels):
    rows[FAULT_AT, 2] = 1.5


def _off_sum(rows, labels):
    rows[FAULT_AT] *= np.float32(0.9)


def _bad_label(rows, labels):
    labels[FAULT_AT] = 9


@pytest.mark.parametrize(
    "fault, error, message",
    [
        (_nan, NotADistribution, f"row sum .*nan.* at sample 0, point {FAULT_AT}$"),
        (_negative, NotADistribution, f"value -0.25 outside .* point {FAULT_AT}, class 2$"),
        (_above_one, NotADistribution, f"value 1.5 outside .* point {FAULT_AT}, class 2$"),
        (_off_sum, NotADistribution, f"row sum .*0.8999.* at sample 0, point {FAULT_AT}$"),
        (_bad_label, LabelOutOfRange, f"label 9 at point {FAULT_AT} is neither"),
    ],
)
def test_block_validation_reports_the_fault_like_validate_inputs(fault, error, message):
    frames = _faulty_frames(fault)
    catalog = ClassCatalog(tuple("abcdef"))
    with pytest.raises(error, match=f"^frame 1 \\(f1\\): {message}") as raised:
        evaluate_split(frames, catalog)
    with pytest.raises(error) as direct:
        validate_inputs(frames[1].probs, frames[1].labels, catalog)
    assert str(raised.value) == f"frame 1 (f1): {direct.value}"


def test_earliest_faulty_block_is_reported_first():
    catalog = ClassCatalog(tuple("abcdef"))

    def sum_then_range(rows, labels):
        rows[BLOCK_POINTS + 5] *= np.float32(0.9)
        rows[2 * BLOCK_POINTS + 9, 0] = 1.5

    def label_then_range(rows, labels):
        labels[5] = 9
        rows[FAULT_AT, 1] = 2.0

    # a row-sum fault in an earlier block wins over a range fault in a later one
    with pytest.raises(NotADistribution, match=f"row sum .* point {BLOCK_POINTS + 5}$"):
        evaluate_split(_faulty_frames(sum_then_range), catalog)
    # labels are checked after every probability row, as before
    with pytest.raises(NotADistribution, match=f"value 2.0 outside .* point {FAULT_AT}, class 1$"):
        evaluate_split(_faulty_frames(label_then_range), catalog)


def _reference_digest(frame):
    # the digest as it was defined, with each array copied into bytes
    h = hashlib.sha256()
    arrays = [frame.labels.values]
    if frame.probs is not None:
        arrays.append(frame.probs.data)
    else:
        arrays.append(frame.logits.values)
        if frame.logits.stddev is not None:
            arrays.append(frame.logits.stddev)
    for arr in arrays:
        h.update(str(arr.shape).encode())
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_array_frame_digest_of_strided_views():
    _, _, gt, probs = scenario_frames(n=600)
    rng = np.random.default_rng(16)
    logits = rng.normal(size=(600, 6)).astype(np.float32)
    frames = [
        ArrayFrame(gt, probs),
        # every other point, and classes in reverse: views that are not contiguous
        ArrayFrame(
            LabelArray(gt.values[::2]), ProbabilityStack(probs.data[:, ::2, ::-1])
        ),
        ArrayFrame(
            LabelArray(gt.values[:300]),
            logits=LogitTensor(logits[::2, :3], np.abs(logits[1::2, 3:])),
        ),
    ]
    assert not frames[1].probs.data.flags.c_contiguous
    for frame in frames:
        assert frame.digest() == _reference_digest(frame)
    contiguous = ArrayFrame(
        LabelArray(gt.values[::2].copy()), ProbabilityStack(probs.data[:, ::2, ::-1].copy())
    )
    assert contiguous.digest() == frames[1].digest()
