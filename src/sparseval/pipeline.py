"""Dataset-level orchestration: pooled evaluation, filtering, ECE, scatter.

Frames are pooled into one logical point set before any per-class ranking, so
rare classes are judged on every point they have in the split rather than on
frame-sized fragments. For probability stacks and plain logits the result
does not depend on how the split is partitioned. Logits with a stddev are
the exception: their noise is seeded by frame index and addressed by
position within the frame, so other cut points draw other samples (an open
item of ROADMAP.md keys the noise by split position instead).
"""
from __future__ import annotations

import functools
import hashlib
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from .confidence import (
    LogitTensor,
    derive_stream_seed,
    max_softmax_confidence,
    predictive_blocks,
    reduce_blocks,
    score_columns,
)
from .core import (
    ClassCatalog,
    ConfidenceVector,
    EvalConfig,
    LabelArray,
    MEASURES,
    ProbabilityStack,
    QuantizedStack,
    SCAN_POINTS,
    as_integer,
    as_real,
    check_labels,
    check_measure,
    check_shapes,
)
from .errors import (
    AllClassesFiltered,
    EmptySplit,
    ShapeMismatch,
    SparsevalError,
)
from .segmetrics import (
    ConfusionMatrix,
    confusion,
    iou,
    merge,
    miou,
    miou_with_absent_as_zero,
)
from .sparsification import CurvePair, ause, class_curves_by_measure


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
        samples = as_integer("samples", self.samples, 1)
        if self.probs is not None and samples not in (1, self.probs.samples):
            raise ValueError(f"samples is {samples} but the stack holds {self.probs.samples}")
        object.__setattr__(self, "samples", samples)

    @property
    def points(self) -> int:
        return len(self.labels)

    # whether every predictive block is float32, as the stack's type says
    float32_blocks = property(lambda self: self.probs is not None and self.probs.float32_blocks)

    def load(
        self, buffers: dict | None = None
    ) -> tuple[ProbabilityStack | LogitTensor, LabelArray]:
        """The frame's payload and labels; ``buffers`` is not used, since
        nothing is read."""
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
class ClassAuse:
    """Per-class outcome: area value, subset size, and the underlying curves."""

    class_index: int
    name: str
    ause: float | None
    relevant_count: int
    curves: CurvePair | None


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


def _reduce(payload, labels, catalog, pred, scores, samples=1, seed=0, buffers=None):
    """Check a frame and reduce its payload into the columns ``pred`` and
    ``scores`` (``score_columns``) a block of ``core.BLOCK_POINTS`` points
    at a time, each in cache; return the frame's confusion. Stack samples
    are checked and summed in sample order by ``confidence.StreamedMean``,
    a fault raising the error of ``validate_inputs``; logits with a stddev
    are sampled ``samples`` times with ``seed``. Temporaries are ``buffers``'.
    """
    blocks = predictive_blocks(payload, samples, seed, buffers)
    check_shapes(payload.points, payload.classes, labels, catalog.k)
    reduce_blocks(blocks, pred, scores, buffers)
    # confusion checks the labels (check_labels), after every row
    return confusion(LabelArray(pred), labels, catalog)


def _reduce_frame(source, index, catalog, config, columns, lo, hi, buffers):
    """Load one frame and reduce it (``_reduce``) into the rows ``lo:hi`` of
    the pooled columns; return its confusion, kept point count and
    provenance. Files are read and blocks reduced in the worker's
    ``buffers``, so nothing of the frame outlives this call but its counts
    and digest. The kept labels go to the frame's rows of ``gt`` (``_keep_rows``).
    """
    try:
        payload, labels = source.load(buffers)
        if len(labels) != hi - lo:
            raise ShapeMismatch(f"loaded {len(labels)} points but declared {hi - lo}")
        seed = derive_stream_seed(config.rng_seed, index)
        pred = columns["pred"][lo:hi]
        scores = {m: columns[m][lo:hi] for m in MEASURES if m in columns}
        counts = _reduce(payload, labels, catalog, pred, scores, source.samples, seed, buffers)
    except SparsevalError as exc:
        raise _in_frame(exc, index, source) from exc
    kept = _keep_rows(columns, lo, labels.values, catalog.ignore_index)
    return counts, kept, {"name": _frame_name(source, index), "digest": source.digest()}


def _run(work, count: int, threads: int) -> list:
    """``[work(i, buffers) for i in range(count)]`` on the calling thread
    and ``threads - 1`` helpers, each taking the next index under one lock
    and keeping its own ``buffers``. Once a failure is recorded no thread
    takes another index, and the lowest index's failure is raised: the
    first in order, as every lower index was taken before it. An interrupt
    of the calling thread propagates once the helpers are joined.
    """
    lock, results, failures = threading.Lock(), [None] * count, {}
    todo = list(range(count - 1, -1, -1))

    def pull():
        buffers = {}
        while True:
            with lock:
                if failures or not todo:
                    return
                index = todo.pop()
            try:
                results[index] = work(index, buffers)
            except Exception as exc:
                failures[index] = exc

    helpers = [threading.Thread(target=pull) for _ in range(min(threads, count) - 1)]
    for helper in helpers:
        helper.start()
    try:
        pull()
    finally:
        with lock:
            todo.clear()
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def _frame_name(source, index: int) -> str:
    return source.name or f"frame_{index:04d}"


def _in_frame(exc: SparsevalError, index: int, source) -> SparsevalError:
    """``exc`` again, its message prefixed with the frame it concerns."""
    return type(exc)(f"frame {index} ({_frame_name(source, index)}): {exc}")


def _keep_rows(columns, lo, labels, ignore_index):
    """Write a frame's kept labels into ``gt`` from row ``lo`` on, move its
    kept points to the front of its rows in the other columns, and return
    how many it keeps; ``SCAN_POINTS`` points at a time, in place."""
    end = lo
    for start in range(0, labels.size, SCAN_POINTS):
        chunk = labels[start : start + SCAN_POINTS]
        keep = chunk != ignore_index
        n = int(np.count_nonzero(keep))
        whole = n == chunk.size
        columns["gt"][end : end + n] = chunk if whole else chunk[keep]
        if not whole or end < lo + start:
            for key, col in columns.items():
                if key != "gt":
                    rows = col[lo + start : lo + start + chunk.size]
                    col[end : end + n] = rows if whole else rows[keep]
        end += n
    return end - lo


def _close_up(column, starts, offsets, kept):
    """Move frame i's ``kept[i]`` rows down from ``starts[i]`` to
    ``offsets[i]``, frames in order and ``SCAN_POINTS`` rows at a time, so
    that no copy overwrites rows still to be moved."""
    for lo, dst, n in zip(starts, offsets, kept):
        if dst == lo:
            continue
        for s in range(0, n, SCAN_POINTS):
            step = min(SCAN_POINTS, n - s)
            column[dst + s : dst + s + step] = column[lo + s : lo + s + step]


def pool_split(
    dataset,
    catalog: ClassCatalog | None = None,
    config: EvalConfig = EvalConfig(),
    *,
    measures: tuple[str, ...] = MEASURES,
    threads: int = 1,
) -> PooledSplit:
    """Reduce every frame of a split and pool the results into one point set.

    ``dataset`` is a manifest, any iterable of frame sources, or an already
    pooled split, which is returned unchanged. A frame source has
    ``points``, ``samples`` and ``name``, ``load(buffers)`` and
    ``digest()``, as ``ArrayFrame`` and ``io.FrameEntry`` have; ``buffers``
    is a dict that a file-backed source may read its files into, reused by
    the worker for its next frame, and a source loaded into it may return
    a stack already summed, as a ``confidence.StreamedMean``. A source
    whose ``float32_blocks`` is true yields only float32 blocks. Frames are
    reduced on ``threads`` workers, the calling thread one of them
    (``_run``); the result, errors included, does not depend on the count.
    ``config`` supplies the seed of logit sampling.

    Every frame's ``points`` is read first (a file header, for a manifest
    frame), and the pooled columns are allocated once, as ``score_columns``
    lays them out, and each frame is reduced straight into its rows
    (``_reduce_frame``); if points were ignored, the frames' kept rows are
    then closed up (``_close_up``) and the columns shrunk to them. Nothing
    is concatenated.
    """
    threads = as_integer("threads", threads, 1)
    for m in measures:
        check_measure(m)
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

    starts = [0]
    for index, source in enumerate(sources):
        try:
            starts.append(starts[-1] + source.points)
        except SparsevalError as exc:
            raise _in_frame(exc, index, source) from exc
    float32 = all(getattr(s, "float32_blocks", False) for s in sources)
    # max-softmax always, which the ECE bins
    pred, scores = score_columns(starts[-1], ("max_softmax", *measures), catalog.k, float32)
    columns = {"gt": np.empty_like(pred), "pred": pred, **scores}
    # the dict holds the only references, so the columns can shrink in place
    del pred, scores

    def reduce_one(index, buffers):
        return _reduce_frame(
            sources[index], index, catalog, config, columns,
            starts[index], starts[index + 1], buffers,
        )

    counts, kept, infos = zip(*_run(reduce_one, len(sources), threads))
    offsets = np.cumsum((0,) + kept).tolist()
    if offsets[-1] == 0:
        raise EmptySplit("all points in the split carry the ignore label")
    if offsets[-1] < starts[-1]:
        for key in columns:
            _close_up(columns[key], starts, offsets, kept)
            try:
                # the workers' views are gone: resize's reference check passes
                columns[key].resize(offsets[-1])
            except ValueError:
                # under a trace or profile function (a debugger's, cProfile's)
                # resize is called through a bound method, which holds one
                # reference more than the check allows
                columns[key] = columns[key][: offsets[-1]].copy()
    return PooledSplit(
        catalog=catalog,
        gt=LabelArray(columns.pop("gt")),
        pred=LabelArray(columns.pop("pred")),
        confidences={m: ConfidenceVector(m, col) for m, col in columns.items()},
        counts=functools.reduce(merge, counts),
        frames=infos,
        offsets=tuple(offsets),
    )


def binned_ece(scores: np.ndarray, correct: np.ndarray, bins: int) -> float:
    """Occupancy-weighted mean |accuracy - confidence| over equal-width bins.

    ``correct`` flags the points whose prediction is right. Points are
    binned ``SCAN_POINTS`` at a time, each chunk's weighted ``bincount``
    starting from the running per-bin sums, so every bin's float sum is
    added in point order, as in one pass over all points; the integer
    counts of ``2 * bin + correct`` give each bin's occupancy and correct
    points exactly. Temporaries take about 17 bytes per point of a chunk.
    """
    bins = as_integer("bins", bins, 1)
    if scores.size == 0:
        raise EmptySplit("no evaluable points for the calibration error")
    correct = np.asarray(correct, dtype=bool)
    conf_sum, split_counts = np.zeros(bins), np.zeros(2 * bins, dtype=np.int64)
    step = min(SCAN_POINTS, scores.size)
    index, weights = np.empty(bins + step, dtype=np.intp), np.empty(bins + step)
    index[:bins] = np.arange(bins)
    for lo in range(0, scores.size, step):
        chunk = scores[lo : lo + step]
        end = bins + chunk.size
        block = index[bins:end]
        # in float64, so that float32 scores meet the edges of their float64
        # casts; the cast to intp truncates, as astype does
        np.multiply(chunk, bins, out=block, casting="unsafe", dtype=np.float64)
        np.minimum(block, bins - 1, out=block)
        # the running sums go ahead of the chunk's scores
        weights[:bins], weights[bins:end] = conf_sum, chunk
        conf_sum = np.bincount(index[:end], weights[:end], bins)
        block <<= 1
        block |= correct[lo : lo + step]
        split_counts += np.bincount(block, minlength=2 * bins)
    split_counts = split_counts.astype(np.float64)
    acc_sum = split_counts[1::2]
    count = split_counts[0::2] + acc_sum
    occupied = count > 0
    gaps = np.abs(
        acc_sum[occupied] / count[occupied] - conf_sum[occupied] / count[occupied]
    )
    return float((count[occupied] * gaps).sum() / scores.size)


def ece(
    probs: ProbabilityStack | QuantizedStack,
    gt: LabelArray,
    bins: int,
    *,
    ignore_index: int | None = None,
) -> float:
    """Expected calibration error of the max-softmax confidence.

    Equal-width bins over [0, 1]; empty bins contribute nothing. The inputs
    are checked as ``evaluate_split`` checks a frame: the labels must
    cover the stack's points, every row must be a distribution (checked by
    ``max_softmax_confidence``), and every label must be a class index of
    the stack or ``ignore_index``.
    """
    # the stack's classes are the catalog's
    check_shapes(probs.points, probs.classes, gt, probs.classes)
    conf, pred = max_softmax_confidence(probs)
    check_labels(gt, probs.classes, ignore_index)
    keep = slice(None) if ignore_index is None else gt.values != ignore_index
    return binned_ece(conf.scores[keep], (pred.values == gt.values)[keep], bins)


def _mean_ause(rows: list[ClassRow], measures: tuple[str, ...]) -> dict[str, float | None]:
    """Per measure, the mean of the rows' defined AUSE values; None if none is."""
    defined = {m: [row.ause[m] for row in rows if row.ause[m] is not None] for m in measures}
    return {m: float(np.mean(vals)) if vals else None for m, vals in defined.items()}


def filter_and_aggregate(report: EvalReport, threshold: float | None = None) -> EvalReport:
    """Mark outlier rows (IoU strictly below the threshold, or undefined) and
    recompute the filtered mean AUSE over the remaining rows.

    The unfiltered aggregates are kept untouched so both views stay available.
    The threshold, the report's own by default, must lie in [0, 1).
    """
    thr = report.filter_threshold if threshold is None else as_real("threshold", threshold)
    if not 0.0 <= thr < 1.0:
        raise ValueError(f"threshold must lie in [0, 1), got {thr}")
    for row in report.rows:
        row.filtered = row.iou is None or row.iou < thr
    kept = [row for row in report.rows if not row.filtered]
    report.filter_threshold = thr
    report.filtered_ause = _mean_ause(kept, report.measures)
    if not kept:
        raise AllClassesFiltered(
            f"every class falls below the IoU threshold {thr}"
        )
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
    config: EvalConfig = EvalConfig(),
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
    confs = {m: split.confidences[m] for m in measures}
    iou_vec = iou(split.counts)
    # the split's counts spare the engine a second count of every point
    curve_sets = class_curves_by_measure(
        split.pred, split.gt, confs, catalog, config, _counts=split.counts
    )

    rows: list[ClassRow] = []
    for class_index, name in enumerate(catalog.names):
        iou_val = (
            float(iou_vec.values[class_index]) if iou_vec.present[class_index] else None
        )
        pairs = curve_sets[class_index] or {}
        row_ause = {m: ause(pairs[m]) if pairs else None for m in measures}
        rel = pairs[measures[0]].relevant_count if pairs else 0
        rows.append(ClassRow(name, class_index, iou_val, row_ause, rel))

    report = EvalReport(
        class_names=catalog.names,
        ignore_index=catalog.ignore_index,
        measures=tuple(measures),
        rows=rows,
        overall_ause=_mean_ause(rows, measures),
        filtered_ause={m: None for m in measures},
        # pool_split keeps at least one point, so some class is present
        miou_present=miou(iou_vec),
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
        filter_and_aggregate(report)
    except AllClassesFiltered:
        # the strict operation raises; the pipeline keeps the report usable
        pass
    return report


def per_class_ause(
    probs: ProbabilityStack,
    gt: LabelArray,
    catalog: ClassCatalog,
    measure: str,
    config: EvalConfig = EvalConfig(),
) -> list[ClassAuse]:
    """Per-class AUSE of one aggregated stack under one confidence measure.

    The stack is checked and reduced block by block, as each frame of a
    split is (``_reduce``), into the pooled split's layout (``pool_split``)
    but for the one measure's column; every class is then read from the one
    curve engine, with the counts of that reduction.
    """
    check_measure(measure)
    if probs.samples != 1:
        raise ValueError("per_class_ause expects an aggregated stack (samples == 1)")
    pred, scores = score_columns(probs.points, (measure,), catalog.k, probs.float32_blocks)
    counts = _reduce(probs, gt, catalog, pred, scores)
    conf = {measure: ConfidenceVector(measure, scores[measure])}
    curves = class_curves_by_measure(LabelArray(pred), gt, conf, catalog, config, _counts=counts)
    pairs = [None if found is None else found[measure] for found in curves]
    return [
        ClassAuse(c, name, None, 0, None) if pair is None
        else ClassAuse(c, name, ause(pair), pair.relevant_count, pair)
        for c, (name, pair) in enumerate(zip(catalog.names, pairs))
    ]


def per_frame_class_ause(
    dataset,
    catalog: ClassCatalog | None = None,
    config: EvalConfig = EvalConfig(),
    *,
    measures: tuple[str, ...] = MEASURES,
) -> list[dict]:
    """Diagnostic per-frame AUSE values, each frame ranked on its own slice of
    the pooled split; not part of the headline numbers."""
    split = pool_split(dataset, catalog, config, measures=measures)
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
