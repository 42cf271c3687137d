"""Dataset-level orchestration: pooled evaluation, filtering, ECE, scatter.

Frames are pooled into one logical point set before any per-class ranking, so
rare classes are judged on every point they have in the split rather than on
frame-sized fragments. The pooled columns are allocated once, sized from
every frame's point count, and each frame is reduced straight into its rows,
so nothing is concatenated and the split holds about 18 bytes per kept point
(``pool_split``). A manifest frame whose stack has many samples is read one
sample at a time into a float64 sum (``_reduce_frame``), so a worker never
holds its whole file. Confusion counts are accumulated per frame and merged.
For probability stacks and plain logits the result does not depend on how
the split is partitioned. Logits with a stddev are the exception: their
noise is seeded by frame index and addressed by position within the frame,
so other cut points draw other samples (ROADMAP.md item 4 keys the noise by
split position instead).
"""
from __future__ import annotations

import functools
import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .confidence import (
    LogitTensor,
    StreamedMean,
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
    SCAN_POINTS,
    as_integer,
    as_real,
    check_distribution,
    check_labels,
    check_shapes,
    sample_ranges,
)
from .errors import (
    AllClassesFiltered,
    DimensionMismatch,
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
        samples = as_integer("samples", self.samples, 1)
        if self.probs is not None and samples not in (1, self.probs.samples):
            raise ValueError(f"samples is {samples} but the stack holds {self.probs.samples}")
        object.__setattr__(self, "samples", samples)

    @property
    def points(self) -> int:
        return len(self.labels)

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


def _reduce_frame(source, index, catalog, config, columns, lo, hi, buffers):
    """Load one frame and reduce it into the rows ``lo:hi`` of the pooled
    columns; return its confusion, its kept point count and provenance.

    The frame is reduced block by block (``core.BLOCK_POINTS`` points): each
    block of the predictive distribution is drawn and reduced to
    predictions and scores while it is in cache. Every sample of a stack is
    checked as ``validate_inputs`` checks it before the samples are
    averaged, so errors name the sample and point at fault. Frame files
    are read into ``buffers``, which the worker reuses from frame to frame,
    so nothing of the frame outlives this call but its counts and its
    digest. The labels are copied into the frame's rows of ``gt``
    (``_keep_rows``), whose type holds a class index.

    A manifest frame (``io.FrameEntry``) whose file header shows a stack
    of many samples is read one sample at a time into a ``StreamedMean``
    (``io.load_frame`` with ``add``), so the worker holds one sample of the
    file and a float64 sum of the frame instead of the whole file. Every
    other frame is loaded whole, and its stack is averaged over the ranges
    of ``core.sample_ranges`` (``predictive_blocks``), a uint16 one
    dequantised a range at a time; both ways give the same bits. A
    streamed stack with a fault is loaded whole once its file has
    verified, and ``predictive_blocks`` raises the fault as
    ``validate_inputs`` names it.
    """
    try:
        stream = getattr(source, "_stream", None)
        mean = StreamedMean(buffers)
        payload, labels = source.load(buffers) if stream is None else stream(buffers, mean.add)
        if payload is None and not mean.clean:
            payload, labels = source.load(buffers)
        if len(labels) != hi - lo:
            raise ShapeMismatch(f"loaded {len(labels)} points but declared {hi - lo}")
        if payload is None:
            blocks, shape = mean.blocks(), mean.total.shape
        else:
            seed = derive_stream_seed(config.rng_seed, index)
            blocks = predictive_blocks(payload, source.samples, seed, checked=True)
            shape = payload.points, payload.classes
        check_shapes(*shape, labels, catalog)
        pred = columns["pred"][lo:hi]
        reduce_blocks(blocks, pred, {m: columns[m][lo:hi] for m in MEASURES if m in columns})
        check_labels(labels, catalog.k, catalog.ignore_index)
        counts = confusion(LabelArray(pred), labels, catalog)
    except SparsevalError as exc:
        raise _in_frame(exc, index, source) from exc
    kept = _keep_rows(columns, lo, labels.values, catalog.ignore_index)
    return counts, kept, {"name": _frame_name(source, index), "digest": source.digest()}


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
    config: EvalConfig | None = None,
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
    the worker for its next frame. Frames are reduced on ``threads``
    workers; the result does not depend on the count. ``config`` supplies
    the seed of logit sampling.

    Every frame's ``points`` is read first (a file header, for a manifest
    frame), and the pooled columns are allocated once: ``gt`` and ``pred``
    in the smallest unsigned type that holds a class index (one byte each
    up to 256 classes), and a float64 score per measure, about 18 bytes
    per point. Each frame is then checked and reduced block by block,
    ``core.BLOCK_POINTS`` points at a time, straight into its rows, and
    moves its kept points to the front of them; nothing is concatenated.
    If points were ignored, the frames' kept rows are closed up once all
    frames are in, by a forward copy ``SCAN_POINTS`` rows at a time, and
    the columns are shrunk to the kept points.
    """
    threads = as_integer("threads", threads, 1)
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

    starts = [0]
    for index, source in enumerate(sources):
        try:
            starts.append(starts[-1] + source.points)
        except SparsevalError as exc:
            raise _in_frame(exc, index, source) from exc
    label_dtype = np.min_scalar_type(catalog.k - 1)
    pred, scores = score_columns(starts[-1], measures, label_dtype)
    columns = {"gt": np.empty(starts[-1], dtype=label_dtype), "pred": pred, **scores}
    # the dict holds the only references, so the columns can shrink in place
    del pred, scores
    local = threading.local()

    def reduce_one(index):
        if not hasattr(local, "buffers"):
            local.buffers = {}
        return _reduce_frame(
            sources[index], index, catalog, config, columns,
            starts[index], starts[index + 1], local.buffers,
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reduced = list(pool.map(reduce_one, range(len(sources))))
    else:
        reduced = [reduce_one(i) for i in range(len(sources))]

    counts, kept, infos = zip(*reduced)
    offsets = np.cumsum((0,) + kept).tolist()
    if offsets[-1] == 0:
        raise EmptySplit("all points in the split carry the ignore label")
    if offsets[-1] < starts[-1]:
        for key in columns:
            _close_up(columns[key], starts, offsets, kept)
            # the workers' views are gone: resize's reference check passes
            columns[key].resize(offsets[-1])
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

    ``correct`` flags the points whose prediction is right. The bin index is
    filled ``SCAN_POINTS`` points at a time, and then turned in place into
    ``2 * bin + correct``, whose integer counts give each bin's occupancy
    and correct points exactly. The index (8 B/pt) is the only full-length
    temporary.
    """
    bins = as_integer("bins", bins, 1)
    if scores.size == 0:
        raise EmptySplit("no evaluable points for the calibration error")
    idx = np.empty(scores.size, dtype=np.intp)
    for lo in range(0, scores.size, SCAN_POINTS):
        block = idx[lo : lo + SCAN_POINTS]
        # the cast to intp truncates, as astype does
        np.multiply(scores[lo : lo + SCAN_POINTS], bins, out=block, casting="unsafe")
        np.minimum(block, bins - 1, out=block)
    # one pass over all points, so the float sums keep their order
    conf_sum = np.bincount(idx, weights=scores, minlength=bins)
    idx <<= 1
    idx |= np.asarray(correct, dtype=bool)
    split_counts = np.bincount(idx, minlength=2 * bins).astype(np.float64)
    acc_sum = split_counts[1::2]
    count = split_counts[0::2] + acc_sum
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

    Equal-width bins over [0, 1]; empty bins contribute nothing. The inputs
    are checked as ``evaluate_split`` checks a frame: the labels must
    cover the stack's points, every row must be a distribution, and every
    label must be a class index of the stack or ``ignore_index``.
    """
    if len(gt) != probs.points:
        raise DimensionMismatch(
            f"probabilities cover {probs.points} points but labels cover {len(gt)}"
        )
    for lo, hi in sample_ranges(probs.points, probs.samples):
        check_distribution(lo, probs.data[:, lo:hi])
    check_labels(gt, probs.classes, ignore_index)
    conf, pred = max_softmax_confidence(probs)
    scores = conf.scores
    correct = pred.values == gt.values
    if ignore_index is not None:
        keep = gt.values != ignore_index
        scores = scores[keep]
        correct = correct[keep]
    return binned_ece(scores, correct, bins)


def _mean_ause(rows: list[ClassRow], measures: tuple[str, ...]) -> dict[str, float | None]:
    """Per measure, the mean of the rows' defined AUSE values; None if none is."""
    defined = {m: [row.ause[m] for row in rows if row.ause[m] is not None] for m in measures}
    return {m: float(np.mean(vals)) if vals else None for m, vals in defined.items()}


def filter_and_aggregate(report: EvalReport, threshold: float | None = None) -> EvalReport:
    """Mark outlier rows (IoU strictly below the threshold, or undefined) and
    recompute the filtered mean AUSE over the remaining rows.

    The unfiltered aggregates are kept untouched so both views stay available.
    """
    thr = report.filter_threshold if threshold is None else as_real("threshold", threshold)
    for row in report.rows:
        row.filtered = row.iou is None or row.iou < thr
    kept = [row for row in report.rows if not row.filtered]
    report.filter_threshold = thr
    if not kept:
        report.filtered_ause = {m: None for m in report.measures}
        raise AllClassesFiltered(
            f"every class falls below the IoU threshold {thr}"
        )
    report.filtered_ause = _mean_ause(kept, report.measures)
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
    # the split's counts spare the engine a second count of every point
    curve_sets = class_curves_by_measure(
        split.pred, split.gt, confs, catalog, config, _counts=split.counts
    )

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
