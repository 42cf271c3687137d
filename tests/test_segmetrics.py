import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseval import (
    ClassCatalog,
    ConfusionMatrix,
    LabelArray,
    confusion,
    iou,
    merge,
    miou,
    miou_with_absent_as_zero,
)
from sparseval.errors import DimensionMismatch, LabelOutOfRange, NoPresentClasses

CAT2 = ClassCatalog(("a", "b"))


def test_confusion_all_correct():
    m = confusion(LabelArray(np.array([0, 1])), LabelArray(np.array([0, 1])), CAT2)
    assert np.array_equal(m.counts, [[1, 0], [0, 1]])
    assert m.total == 2


def test_confusion_single_error():
    m = confusion(LabelArray(np.array([1])), LabelArray(np.array([0])), CAT2)
    assert m.counts[0, 1] == 1
    assert m.total == 1


def test_confusion_excludes_ignored():
    m = confusion(
        LabelArray(np.array([1, 0])), LabelArray(np.array([255, 0])), CAT2
    )
    assert m.counts[0, 0] == 1
    assert m.total == 1


def test_confusion_length_mismatch():
    with pytest.raises(DimensionMismatch):
        confusion(LabelArray(np.array([0])), LabelArray(np.array([0, 1])), CAT2)


def test_confusion_rejects_out_of_range_prediction():
    with pytest.raises(LabelOutOfRange):
        confusion(LabelArray(np.array([5])), LabelArray(np.array([0])), CAT2)



@pytest.mark.parametrize("ignored", [0.0, 0.1])
def test_confusion_allocates_at_most_11_bytes_per_point(ignored):
    # one-byte labels are neither widened nor copied when nothing is
    # ignored: the only full-length temporaries are the ignore mask, the
    # kept labels, and the 8-byte index g * k + p
    n = 1_000_000
    rng = np.random.default_rng(0)
    gt = rng.integers(0, 4, size=n, dtype=np.uint8)
    gt[rng.random(n) < ignored] = 255
    pred = LabelArray(rng.integers(0, 4, size=n, dtype=np.uint8))
    gt = LabelArray(gt)
    catalog = ClassCatalog(("a", "b", "c", "d"))
    tracemalloc.start()
    try:
        m = confusion(pred, gt, catalog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.total == int((gt.values != 255).sum())
    assert peak <= 11 * n

def test_confusion_total_plus_ignored_is_n():
    rng = np.random.default_rng(3)
    n = 500
    gt = rng.integers(0, 2, size=n)
    gt[rng.random(n) < 0.3] = 255
    pred = rng.integers(0, 2, size=n)
    m = confusion(LabelArray(pred), LabelArray(gt), CAT2)
    assert m.total + int((gt == 255).sum()) == n


def test_merge_identity_and_commutativity():
    a = ConfusionMatrix(np.array([[3, 1], [0, 2]]))
    zero = ConfusionMatrix(np.zeros((2, 2), dtype=np.int64))
    assert np.array_equal(merge(a, zero).counts, a.counts)
    b = ConfusionMatrix(np.array([[1, 0], [4, 1]]))
    assert np.array_equal(merge(a, b).counts, merge(b, a).counts)


def test_merge_elementwise_sum():
    frame = ConfusionMatrix(np.eye(2, dtype=np.int64))
    assert np.array_equal(merge(frame, frame).counts, 2 * np.eye(2, dtype=np.int64))


def test_merge_size_mismatch():
    with pytest.raises(DimensionMismatch):
        merge(
            ConfusionMatrix(np.zeros((2, 2), dtype=np.int64)),
            ConfusionMatrix(np.zeros((3, 3), dtype=np.int64)),
        )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5))
def test_merge_associativity(seed, k):
    rng = np.random.default_rng(seed)
    mats = [ConfusionMatrix(rng.integers(0, 50, size=(k, k))) for _ in range(3)]
    left = merge(merge(mats[0], mats[1]), mats[2])
    right = merge(mats[0], merge(mats[1], mats[2]))
    assert np.array_equal(left.counts, right.counts)


def test_iou_perfect():
    v = iou(ConfusionMatrix(np.diag([5, 5])))
    assert np.array_equal(v.values, [1.0, 1.0])
    assert v.present.all()


def test_iou_half():
    counts = np.array([[2, 1], [1, 10]])  # class 0: TP=2, FN=1, FP=1
    v = iou(ConfusionMatrix(counts))
    assert v.values[0] == 0.5


def test_iou_absent_class_undefined():
    counts = np.array([[4, 0, 0], [1, 3, 0], [0, 0, 0]])
    v = iou(ConfusionMatrix(counts))
    assert not v.present[2]
    assert np.isnan(v.values[2])


def test_iou_is_one_iff_no_fp_and_no_fn():
    rng = np.random.default_rng(11)
    for _ in range(200):
        counts = rng.integers(0, 6, size=(3, 3))
        v = iou(ConfusionMatrix(counts))
        for c in range(3):
            if not v.present[c]:
                continue
            fp = counts[:, c].sum() - counts[c, c]
            fn = counts[c, :].sum() - counts[c, c]
            assert 0.0 <= v.values[c] <= 1.0
            assert (v.values[c] == 1.0) == (fp == 0 and fn == 0)


def test_miou_mean_and_absent_handling():
    v = iou(ConfusionMatrix(np.array([[1, 0], [1, 0]])))
    # class 0: TP=1, FP=1 -> 0.5; class 1: FN=1 -> 0.0
    assert miou(v) == pytest.approx(0.25)
    absent = iou(ConfusionMatrix(np.array([[4, 1, 0], [1, 3, 0], [0, 0, 0]])))
    assert miou(absent) == pytest.approx(absent.values[:2].mean())
    assert miou_with_absent_as_zero(absent) == pytest.approx(
        absent.values[:2].sum() / 3.0
    )


def test_miou_no_present_classes():
    with pytest.raises(NoPresentClasses):
        miou(iou(ConfusionMatrix(np.zeros((2, 2), dtype=np.int64))))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), parts=st.integers(1, 6))
def test_partition_merge_equals_whole(seed, parts):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(parts, 200))
    k = 4
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    gt = rng.integers(0, k, size=n)
    gt[rng.random(n) < 0.1] = 255
    pred = rng.integers(0, k, size=n)
    whole = confusion(LabelArray(pred), LabelArray(gt), catalog)
    cuts = sorted(rng.integers(0, n + 1, size=parts - 1).tolist()) if parts > 1 else []
    bounds = [0] + cuts + [n]
    merged = None
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo:
            continue
        part = confusion(
            LabelArray(pred[lo:hi]), LabelArray(gt[lo:hi]), catalog
        )
        merged = part if merged is None else merge(merged, part)
    assert merged is not None
    assert np.array_equal(merged.counts, whole.counts)
