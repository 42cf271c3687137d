"""Dataset-level orchestration: pooled evaluation, filtering, ECE, scatter.

Frames are pooled into one logical point set before any per-class ranking, so
rare classes are judged on every point they have in the split rather than on
frame-sized fragments. Confusion counts are accumulated per frame and merged.
For probability stacks and plain logits the result does not depend on how
the split is partitioned. Logits with a stddev are the exception: their
noise is seeded by frame index and addressed by position within the frame,
so other cut points draw other samples (ROADMAP.md item 3 keys the noise by
split position instead).
"""
from __future__ import annotations

import functools
import hashlib
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .confidence import (
    LogitTensor,
    derive_stream_seed,
    max_softmax_confidence,
    predictive_blocks,
    reduce_blocks,
)
from .core import (
    ClassCatalog,
    ConfidenceVector,
    EvalConfig,
    LabelArray,
    MEASURES,
    ProbabilityStack,
    checked_blocks,
)
from .errors import AllClassesFiltered, EmptySplit, SparsevalError
from .segmetrics import (
    ConfusionMatrix,
    confusion,
    iou,
    merge,
    miou,
    miou_with_absent_as_zero,
)
from .sparsification import ause, class_curves_by_measure


@dataclass(frozen=True)
class ArrayFrame:
    """An in-memory dataset frame; file-backed frames come from the io module."""

    labels: LabelArray
    probs: ProbabilityStack | None = None
    logits: LogitTensor | None = None
    samples: int = 1
    name: str = "frame"

    def __post_init__(self):
        if (self.probs is None) == (self.logits is None):
            raise ValueError("provide exactly one of probs or logits")
        try:
            samples = operator.index(self.samples)
        except TypeError:
            raise ValueError(f"samples must be an integer, got {self.samples!r}") from None
        if samples < 1:
            raise ValueError("samples must be at least 1")
        object.__setattr__(self, "samples", samples)

    def load(self) -> tuple[ProbabilityStack | LogitTensor, LabelArray]:
        payload = self.probs if self.probs is not None else self.logits
        return payload, self.labels

    def digest(self) -> str:
        h = hashlib.sha256()
        arrays = [self.labels.values]
        if self.probs is not None:
            arrays.append(self.probs.data)
        else:
            arrays.append(self.logits.values)
            if self.logits.stddev is not None:
                arrays.append(self.logits.stddev)
        for arr in arrays:
            h.update(str(arr.shape).encode())
            h.update(str(arr.dtype).encode())
            h.update(np.ascontiguousarray(arr))
        return h.hexdigest()


@dataclass
class ClassRow:
    """One report row; ause maps measure name to a value or None when undefined."""

    name: str
    index: int
    iou: float | None
    ause: dict[str, float | None]
    relevant_count: int
    filtered: bool = False


@dataclass
class EvalReport:
    """Everything the split evaluation produces, serializable without arrays."""

    class_names: tuple[str, ...]
    ignore_index: int
    measures: tuple[str, ...]
    rows: list[ClassRow]
    overall_ause: dict[str, float | None]
    filtered_ause: dict[str, float | None]
    miou_present: float | None
    miou_all_classes: float | None
    ece: float | None
    filter_threshold: float
    confusion_counts: list[list[int]]
    provenance: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScatterExport:
    """(IoU, AUSE) pairs per defined class, plus the outlier threshold."""

    threshold: float
    points: dict[str, list[tuple[str, float, float]]]


@dataclass(frozen=True)
class PooledSplit:
    """Every frame of a split reduced once into one point set, ignored points
    dropped; built by ``pool_split``. Frame ``i`` owns the points
    ``offsets[i]:offsets[i + 1]``. ``confidences`` has one vector per requested
    measure and always max-softmax, which the ECE baseline bins."""

    catalog: ClassCatalog
    gt: LabelArray
    pred: LabelArray
    confidences: dict[str, ConfidenceVector]
    counts: ConfusionMatrix
    frames: tuple[dict, ...]
    offsets: tuple[int, ...]

    def ece(self, bins: int) -> float:
        """Binned calibration error of the pooled max-softmax confidence."""
        correct = self.pred.values == self.gt.values
        return binned_ece(self.confidences["max_softmax"].scores, correct, bins)


def _reduce_frame(source, index, catalog, config, measures):
    """Load one frame; return its confusion, non-ignored columns and provenance.

    The frame is reduced block by block (``core.BLOCK_POINTS`` points): each
    block of the predictive distribution is drawn, checked as
    ``validate_inputs`` checks it, and reduced to predictions and scores
    while it is in cache. Checking, reducing and sampling logits build no
    full-frame temporary besides the output columns. Labels are kept in the
    smallest unsigned type that holds a class index.
    """
    name = source.name or f"frame_{index:04d}"
    label_dtype = np.min_scalar_type(catalog.k - 1)
    try:
        payload, labels = source.load()
        seed = derive_stream_seed(config.rng_seed, index)
        blocks = predictive_blocks(payload, source.samples, seed)
        blocks = checked_blocks(blocks, payload.points, payload.classes, labels, catalog)
        pred, scores = reduce_blocks(blocks, payload.points, measures, label_dtype)
        counts = confusion(LabelArray(pred), labels, catalog)
    except SparsevalError as exc:
        raise type(exc)(f"frame {index} ({name}): {exc}") from exc
    # copied only to drop ignored points: pool_split's concatenation copies
    # anyway, so the pooled split never aliases a caller's array
    columns = {"gt": labels.values, "pred": pred, **scores}
    keep = labels.values != catalog.ignore_index
    if not keep.all():
        columns = {key: col[keep] for key, col in columns.items()}
    columns["gt"] = columns["gt"].astype(label_dtype, copy=False)
    return counts, columns, {"name": name, "digest": source.digest()}


def pool_split(
    dataset,
    catalog: ClassCatalog | None = None,
    config: EvalConfig | None = None,
    *,
    measures: tuple[str, ...] = MEASURES,
    threads: int = 1,
) -> PooledSplit:
    """Reduce every frame of a split and pool the results into one point set.

    ``dataset`` is a manifest, any iterable of frame sources (objects with
    ``load()``, ``digest()``, ``samples`` and ``name``, as ``ArrayFrame``
    and ``io.FrameEntry`` have), or an already pooled split, which is
    returned unchanged. Frames are reduced on ``threads`` workers; the
    result does not depend on the count. ``config`` supplies the seed of
    logit sampling.

    Each frame is checked and reduced block by block, ``core.BLOCK_POINTS``
    points at a time, into its kept points' columns; the columns are then
    concatenated. The pooled split holds about 18 bytes per kept point:
    ``gt`` and ``pred`` in the smallest unsigned type that holds a class
    index (one byte each up to 256 classes), and a float64 score per
    measure.
    """
    for m in measures:
        if m not in MEASURES:
            raise ValueError(f"unknown confidence measure {m!r}")
    if not measures or len(set(measures)) != len(measures):
        raise ValueError(f"measures must name at least one measure, each once: {measures!r}")
    if isinstance(dataset, PooledSplit):
        missing = set(measures) - set(dataset.confidences)
        if missing:
            raise ValueError(f"the pooled split lacks measures {sorted(missing)}")
        return dataset
    sources = list(getattr(dataset, "frames", dataset))
    if not sources:
        raise EmptySplit("the dataset references no frames")
    catalog = catalog or getattr(dataset, "catalog", None)
    if catalog is None:
        raise ValueError("a class catalog is required")
    config = config or EvalConfig()

    def reduce_one(index):
        return _reduce_frame(sources[index], index, catalog, config, measures)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reduced = list(pool.map(reduce_one, range(len(sources))))
    else:
        reduced = [reduce_one(i) for i in range(len(sources))]

    counts, columns, infos = zip(*reduced)
    sizes = [frame["gt"].size for frame in columns]
    if sum(sizes) == 0:
        raise EmptySplit("all points in the split carry the ignore label")
    # each frame's column is dropped as soon as it is pooled, so the split
    # owns the only copy of the points before the curves run
    pooled = {
        key: np.concatenate([frame.pop(key) for frame in columns])
        for key in list(columns[0])
    }
    return PooledSplit(
        catalog=catalog,
        gt=LabelArray(pooled.pop("gt")),
        pred=LabelArray(pooled.pop("pred")),
        confidences={m: ConfidenceVector(m, scores) for m, scores in pooled.items()},
        counts=functools.reduce(merge, counts),
        frames=infos,
        offsets=tuple(np.cumsum([0] + sizes).tolist()),
    )


def binned_ece(scores: np.ndarray, correct: np.ndarray, bins: int) -> float:
    """Occupancy-weighted mean |accuracy - confidence| over equal-width bins."""
    if bins < 1:
        raise ValueError("bins must be at least 1")
    if scores.size == 0:
        raise EmptySplit("no evaluable points for the calibration error")
    idx = np.minimum((scores * bins).astype(np.int64), bins - 1)
    count = np.bincount(idx, minlength=bins).astype(np.float64)
    conf_sum = np.bincount(idx, weights=scores, minlength=bins)
    acc_sum = np.bincount(idx, weights=correct.astype(np.float64), minlength=bins)
    occupied = count > 0
    gaps = np.abs(
        acc_sum[occupied] / count[occupied] - conf_sum[occupied] / count[occupied]
    )
    return float((count[occupied] * gaps).sum() / scores.size)


def ece(
    probs: ProbabilityStack,
    gt: LabelArray,
    bins: int,
    *,
    ignore_index: int | None = None,
) -> float:
    """Expected calibration error of the max-softmax confidence.

    Equal-width bins over [0, 1]; empty bins contribute nothing.
    """
    conf, pred = max_softmax_confidence(probs)
    scores = conf.scores
    correct = pred.values == gt.values
    if ignore_index is not None:
        keep = gt.values != ignore_index
        scores = scores[keep]
        correct = correct[keep]
    return binned_ece(scores, correct, bins)


def filter_and_aggregate(report: EvalReport, threshold: float | None = None) -> EvalReport:
    """Mark outlier rows (IoU strictly below the threshold, or undefined) and
    recompute the filtered mean AUSE over the remaining rows.

    The unfiltered aggregates are kept untouched so both views stay available.
    """
    thr = report.filter_threshold if threshold is None else float(threshold)
    for row in report.rows:
        row.filtered = row.iou is None or row.iou < thr
    kept = [row for row in report.rows if not row.filtered]
    report.filter_threshold = thr
    if not kept:
        report.filtered_ause = {m: None for m in report.measures}
        raise AllClassesFiltered(
            f"every class falls below the IoU threshold {thr}"
        )
    filtered: dict[str, float | None] = {}
    for m in report.measures:
        vals = [row.ause[m] for row in kept if row.ause[m] is not None]
        filtered[m] = float(np.mean(vals)) if vals else None
    report.filtered_ause = filtered
    return report


def scatter_export(report: EvalReport) -> ScatterExport:
    """Plot-ready (IoU, AUSE) pairs; rows without a defined AUSE are dropped."""
    points: dict[str, list[tuple[str, float, float]]] = {}
    for m in report.measures:
        pairs = []
        for row in report.rows:
            if row.ause[m] is None or row.iou is None:
                continue
            pairs.append((row.name, row.iou, row.ause[m]))
        points[m] = pairs
    return ScatterExport(report.filter_threshold, points)


def evaluate_split(
    dataset,
    catalog: ClassCatalog | None = None,
    config: EvalConfig | None = None,
    *,
    measures: tuple[str, ...] = MEASURES,
    threads: int = 1,
) -> EvalReport:
    """Evaluate a whole validation split into one report.

    ``dataset`` is anything ``pool_split`` accepts. All frames are pooled,
    ignored points are dropped, and IoU, per-class AUSE under each measure,
    both mIoU conventions, the ECE baseline, and the outlier filter are
    computed. Deterministic for a given frame order and config, whatever
    ``threads`` is. A pooled split is used as built, so pass the config it
    was pooled with.
    """
    split = pool_split(dataset, catalog, config, measures=measures, threads=threads)
    catalog = split.catalog
    config = config or EvalConfig()
    confs = {m: split.confidences[m] for m in measures}
    iou_vec = iou(split.counts)
    curve_sets = class_curves_by_measure(split.pred, split.gt, confs, catalog, config)

    rows: list[ClassRow] = []
    for class_index, name in enumerate(catalog.names):
        iou_val = (
            float(iou_vec.values[class_index]) if iou_vec.present[class_index] else None
        )
        pairs = curve_sets[class_index]
        if pairs is None:
            row_ause: dict[str, float | None] = {m: None for m in measures}
            rel = 0
        else:
            row_ause = {m: ause(pairs[m]) for m in measures}
            rel = next(iter(pairs.values())).relevant_count
        rows.append(ClassRow(name, class_index, iou_val, row_ause, rel))

    overall: dict[str, float | None] = {}
    for m in measures:
        vals = [row.ause[m] for row in rows if row.ause[m] is not None]
        overall[m] = float(np.mean(vals)) if vals else None

    try:
        miou_present = miou(iou_vec)
    except SparsevalError:
        miou_present = None

    report = EvalReport(
        class_names=catalog.names,
        ignore_index=catalog.ignore_index,
        measures=tuple(measures),
        rows=rows,
        overall_ause=overall,
        filtered_ause={m: None for m in measures},
        miou_present=miou_present,
        miou_all_classes=miou_with_absent_as_zero(iou_vec),
        ece=split.ece(config.ece_bins),
        filter_threshold=config.iou_filter_threshold,
        confusion_counts=[[int(v) for v in row] for row in split.counts.counts],
        provenance={
            "config": asdict(config),
            "catalog": {"names": list(catalog.names), "ignore_index": catalog.ignore_index},
            "frames": list(split.frames),
            "points_evaluated": len(split.gt),
        },
    )
    try:
        filter_and_aggregate(report, config.iou_filter_threshold)
    except AllClassesFiltered:
        # the strict operation raises; the pipeline keeps the report usable
        pass
    return report


def per_frame_class_ause(
    dataset,
    catalog: ClassCatalog | None = None,
    config: EvalConfig | None = None,
    *,
    measures: tuple[str, ...] = MEASURES,
) -> list[dict]:
    """Diagnostic per-frame AUSE values, each frame ranked on its own slice of
    the pooled split; not part of the headline numbers."""
    split = pool_split(dataset, catalog, config, measures=measures)
    config = config or EvalConfig()
    out = []
    for info, lo, hi in zip(split.frames, split.offsets, split.offsets[1:]):
        per_measure: dict[str, dict[str, float | None]] = {m: {} for m in measures}
        if hi > lo:
            confs = {
                m: ConfidenceVector(m, split.confidences[m].scores[lo:hi])
                for m in measures
            }
            gt = LabelArray(split.gt.values[lo:hi])
            pred = LabelArray(split.pred.values[lo:hi])
            curve_sets = class_curves_by_measure(pred, gt, confs, split.catalog, config)
            for name, pairs in zip(split.catalog.names, curve_sets):
                for m in measures:
                    per_measure[m][name] = None if pairs is None else ause(pairs[m])
        out.append({"frame": info["name"], "ause": per_measure})
    return out
