"""Confusion-matrix accumulation and intersection-over-union metrics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SCAN_POINTS, ClassCatalog, LabelArray, check_labels
from .errors import DimensionMismatch, LabelOutOfRange, NoPresentClasses


@dataclass(frozen=True)
class ConfusionMatrix:
    """k x k counts, rows ground truth, columns prediction.

    A mergeable accumulator: parallel workers build partial matrices and
    combine them with merge(). Counts are 64-bit so full-split accumulation
    over billions of points cannot overflow.
    """

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("a confusion matrix must be square")
        if arr.dtype.kind not in "iu":
            raise ValueError("confusion counts must be integers")
        arr = arr.astype(np.int64)
        if arr.size and int(arr.min()) < 0:
            raise ValueError("confusion counts must be non-negative")
        object.__setattr__(self, "counts", arr)

    @property
    def k(self) -> int:
        return int(self.counts.shape[0])

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class IoUVector:
    """Per-class IoU; NaN with present=False marks classes without any points."""

    values: np.ndarray
    present: np.ndarray


def confusion(pred: LabelArray, gt: LabelArray, catalog: ClassCatalog) -> ConfusionMatrix:
    """Accumulate counts[gt][pred] over points whose ground truth is not ignored.

    The ground truth is checked first (``check_labels``), then points are
    counted ``SCAN_POINTS`` at a time, so the keep mask, the kept labels
    and the bin index ``g * k + p`` are the size of a chunk.
    """
    if len(pred) != len(gt):
        raise DimensionMismatch(
            f"predictions cover {len(pred)} points but labels cover {len(gt)}"
        )
    k = catalog.k
    check_labels(gt, k, catalog.ignore_index)
    counts = np.zeros(k * k, dtype=np.int64)
    for lo in range(0, len(gt), SCAN_POINTS):
        g, p = gt.values[lo : lo + SCAN_POINTS], pred.values[lo : lo + SCAN_POINTS]
        keep = g != catalog.ignore_index
        if not keep.all():
            g, p = g[keep], p[keep]
        if p.size and (int(p.min()) < 0 or int(p.max()) >= k):
            i = int(np.flatnonzero((p < 0) | (p >= k))[0])
            raise LabelOutOfRange(f"prediction label {int(p[i])} is outside 0..{k - 1}")
        index = np.multiply(g, k, dtype=np.intp)
        index += p
        counts += np.bincount(index, minlength=k * k)
        del index
    return ConfusionMatrix(counts.reshape(k, k))


def merge(a: ConfusionMatrix, b: ConfusionMatrix) -> ConfusionMatrix:
    """Elementwise sum; associative and commutative."""
    if a.k != b.k:
        raise DimensionMismatch(f"cannot merge {a.k}-class with {b.k}-class counts")
    return ConfusionMatrix(a.counts + b.counts)


def iou(m: ConfusionMatrix) -> IoUVector:
    """Per-class TP / (TP + FP + FN); classes with no points stay undefined."""
    tp = np.diag(m.counts).astype(np.float64)
    denom = (m.counts.sum(axis=0) + m.counts.sum(axis=1)).astype(np.float64) - tp
    present = denom > 0
    values = np.full(m.k, np.nan)
    values[present] = tp[present] / denom[present]
    return IoUVector(values, present)


def miou(v: IoUVector) -> float:
    """Mean IoU over the classes that are present."""
    if not v.present.any():
        raise NoPresentClasses("no class has any ground-truth or predicted points")
    return float(v.values[v.present].mean())


def miou_with_absent_as_zero(v: IoUVector) -> float:
    """Mean IoU over all catalog classes, counting absent ones as 0."""
    return float(np.where(v.present, v.values, 0.0).mean())
