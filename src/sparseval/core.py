"""Domain types, input validation, and the shared evaluation configuration."""
from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionMismatch,
    LabelOutOfRange,
    NonFiniteInput,
    NotADistribution,
    UnknownClass,
)

ROW_SUM_TOL = 1e-5
DEFAULT_IGNORE_INDEX = 255

MEASURES = ("max_softmax", "neg_entropy")
TIE_BREAKS = ("stable_index", "seeded_random")
RANKING_DOMAINS = ("subset", "global")

SEED_MASK = 0xFFFF_FFFF_FFFF_FFFF

# points per block wherever a stack is scanned or reduced: 2^11 points of 19
# float64 classes take about 300 KiB, so one block's temporaries stay in cache
BLOCK_POINTS = 1 << 11

# points per block wherever a full-length array of per-point scalars (sort
# keys, scores, bin indices) is filled or compared piecewise: 2^16 8-byte
# entries take 512 KiB, so each piece's temporaries stay small
SCAN_POINTS = 1 << 16


def scratch(buffers: dict | None, key: str, shape, dtype=np.uint8) -> np.ndarray:
    """An uninitialised array of ``shape`` and ``dtype``, kept in ``buffers``.

    The array is a view of the byte buffer ``buffers[key]``, which the next
    call with the same dict and key reuses, and which is replaced by a
    larger one when it is too small; so a dict reused from call to call
    holds one buffer per key, the size of the largest array asked for under
    it, and an array stays valid only until that next call. Without
    ``buffers``, every call returns a new array.
    """
    dtype = np.dtype(dtype)
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    if buffers is None:
        return np.empty(shape, dtype)
    size = math.prod(shape) * dtype.itemsize
    if key not in buffers or buffers[key].size < size:
        # the outgrown buffer is freed before a larger one is made
        buffers.pop(key, None)
        buffers[key] = np.empty(size, dtype=np.uint8)
    return buffers[key][:size].view(dtype).reshape(shape)


def as_integer(name: str, value, minimum: int | None = None, error=ValueError) -> int:
    """``value`` as an int of at least ``minimum``, else ``error`` naming the
    setting; an integer is taken as it is, never truncated from a float."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise error(f"{name} must be at least {minimum}")
    return value


def as_real(name: str, value, error=ValueError) -> float:
    """``value`` as a finite float, else ``error``; never parsed from a string."""
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise error(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ClassCatalog:
    """Ordered class names plus the label value excluded from all metrics.

    The evaluated class count k is always taken from here, never inferred
    from data, so classes absent from a frame still get report rows.
    """

    names: tuple[str, ...]
    ignore_index: int = DEFAULT_IGNORE_INDEX

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        if len(self.names) < 2:
            raise ValueError("a catalog needs at least two classes")
        if len(set(self.names)) != len(self.names):
            raise ValueError("class names must be unique")
        object.__setattr__(self, "ignore_index", as_integer("ignore_index", self.ignore_index))
        if 0 <= self.ignore_index < len(self.names):
            raise ValueError(
                f"ignore_index {self.ignore_index} collides with an evaluated class"
            )

    @property
    def k(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownClass(f"class {name!r} is not in the catalog") from None


@dataclass(frozen=True)
class LabelArray:
    """Per-point integer class labels, ground truth or predictions."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.dtype.kind not in "iu":
            raise ValueError("labels must be integers")
        if arr.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if arr.shape[0] < 1:
            raise ValueError("labels must cover at least one point")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.shape[0])


class _Stack:
    """The sizes of a stack's ``data``, a (samples, points, classes) array."""

    @property
    def samples(self) -> int:
        return int(self.data.shape[0])

    @property
    def points(self) -> int:
        return int(self.data.shape[1])

    @property
    def classes(self) -> int:
        return int(self.data.shape[2])


@dataclass(frozen=True)
class ProbabilityStack(_Stack):
    """Per-sample class probabilities with shape (samples, points, classes)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        if arr.ndim != 3:
            raise ValueError("a probability stack is samples x points x classes")
        if min(arr.shape) < 1:
            raise ValueError(f"degenerate stack shape {arr.shape}")
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class QuantizedStack(_Stack):
    """Per-sample class probabilities stored as 16-bit fixed point (value /
    65535), shape (samples, points, classes), as a tag-3 tensor file holds
    them. Each row is renormalised when it is dequantised, a block at a time
    (``confidence.dequantize`` converts the whole stack)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.dtype.kind != "u" or arr.dtype.itemsize != 2:
            raise ValueError(f"a quantised stack holds uint16 values, not {arr.dtype}")
        if arr.ndim != 3:
            raise ValueError("a quantised stack is samples x points x classes")
        if min(arr.shape) < 1:
            raise ValueError(f"degenerate stack shape {arr.shape}")
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class ConfidenceVector:
    """Per-point scores in [0, 1] under one measure; higher means more trusted."""

    measure: str
    scores: np.ndarray

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown confidence measure {self.measure!r}")
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("confidence scores must be one-dimensional")
        if arr.size:
            # min and max propagate NaN, so one pair of scans covers both checks
            lo, hi = arr.min(), arr.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise NonFiniteInput("confidence scores contain NaN or infinite entries")
            if lo < 0.0 or hi > 1.0:
                raise ValueError("confidence scores must stay within [0, 1]")
        object.__setattr__(self, "scores", arr)

    def __len__(self) -> int:
        return int(self.scores.shape[0])


@dataclass(frozen=True)
class EvalConfig:
    """Knobs shared by the whole evaluation chain.

    grid_steps removal fractions j/grid_steps, j = 0..grid_steps-1, sample the
    sparsification curves; iou_filter_threshold marks outlier classes
    (strictly below); tie_break decides how equal confidences are ordered.
    """

    grid_steps: int = 100
    iou_filter_threshold: float = 0.03
    ece_bins: int = 15
    tie_break: str = "stable_index"
    rng_seed: int = 0
    ranking_domain: str = "subset"

    def __post_init__(self):
        object.__setattr__(self, "grid_steps", as_integer("grid_steps", self.grid_steps, 2))
        threshold = as_real("iou_filter_threshold", self.iou_filter_threshold)
        if not 0.0 <= threshold < 1.0:
            raise ValueError("iou_filter_threshold must lie in [0, 1)")
        object.__setattr__(self, "iou_filter_threshold", threshold)
        object.__setattr__(self, "ece_bins", as_integer("ece_bins", self.ece_bins, 1))
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
        if self.ranking_domain not in RANKING_DOMAINS:
            raise ValueError(f"ranking_domain must be one of {RANKING_DOMAINS}")
        object.__setattr__(self, "rng_seed", as_integer("rng_seed", self.rng_seed) & SEED_MASK)

    @classmethod
    def parse_field(cls, name: str, text: str):
        """``text`` read as the type of field ``name``'s default and checked
        as the constructor checks it; raises ValueError saying what is wrong."""
        parse = type({f.name: f.default for f in fields(cls)}[name])
        try:
            value = parse(text)
        except ValueError:
            raise ValueError(f"invalid {parse.__name__} value: {text!r}") from None
        cls(**{name: value})
        return value


def sample_ranges(points: int, samples: int) -> Iterator[tuple[int, int]]:
    """The point ranges ``(lo, hi)``, in point order, over which a stack of
    ``samples`` samples is checked, dequantised and averaged.

    Each ``BLOCK_POINTS``-point block is cut into ranges of
    ``BLOCK_POINTS // samples`` points (at least one, the last one of a
    block shorter), so a range holds about ``BLOCK_POINTS`` rows over all
    its samples and never straddles a block boundary. A single-sample
    stack gets one range per block.
    """
    step = max(1, BLOCK_POINTS // samples)
    for block in range(0, points, BLOCK_POINTS):
        end = min(block + BLOCK_POINTS, points)
        for lo in range(block, end, step):
            yield lo, min(lo + step, end)


def validate_inputs(probs: ProbabilityStack, gt: LabelArray, catalog: ClassCatalog) -> None:
    """Check shapes, probability rows, and label ranges; raise on the first fault.

    Pure and deterministic. The first offending index is reported in the
    error message. Points labeled with the ignore index are accepted here
    and dropped later by the metric stages. Every sample is checked, over
    the ranges of ``sample_ranges``, so the pipeline, which checks each
    range before it averages the samples, raises the same error.
    """
    data = probs.data
    check_shapes(data.shape[1], data.shape[2], gt, catalog)
    for lo, hi in sample_ranges(data.shape[1], data.shape[0]):
        check_distribution(lo, data[:, lo:hi])
    check_labels(gt, catalog.k, catalog.ignore_index)


def check_shapes(points: int, classes: int, gt: LabelArray, catalog: ClassCatalog) -> None:
    """The shape checks of ``validate_inputs``, for a stack of ``points`` x ``classes``."""
    if len(gt) != points:
        raise DimensionMismatch(
            f"probabilities cover {points} points but labels cover {len(gt)}"
        )
    if classes != catalog.k:
        raise DimensionMismatch(
            f"probabilities have {classes} classes but the catalog has {catalog.k}"
        )


def check_distribution(start: int, block: np.ndarray) -> None:
    """The row checks of ``validate_inputs`` on one (samples, r, classes)
    block holding points ``start .. start + r - 1``: the first value outside
    [0, 1] is reported, else the first row whose sum is off 1 or not finite."""
    lo, hi = float(block.min()), float(block.max())
    if lo < 0.0 or hi > 1.0:
        bad = np.argwhere((block < 0.0) | (block > 1.0))[0]
        s, i, c = int(bad[0]), int(bad[1]) + start, int(bad[2])
        raise NotADistribution(
            f"value {block[bad[0], bad[1], bad[2]]} outside [0, 1] at "
            f"sample {s}, point {i}, class {c}"
        )
    if block.dtype in (np.float32, np.float64):
        # A screen that passes the block only if the exact rule below does.
        # The values are non-negative, so a sum of them in any order lies
        # within (classes - 1) * u * S of the true sum S, u being half the
        # type's eps: this fast sum and the float64 one below each stay
        # within classes * eps of S, and a margin of 2 * classes * eps
        # covers both. NaN fails the screen and takes the exact rule. einsum
        # sums in the block's type without BLAS, whose matmul raises a fresh
        # process's peak memory.
        fast = np.einsum("sij->si", block)
        margin = ROW_SUM_TOL - 2 * block.shape[2] * float(np.finfo(block.dtype).eps)
        if (np.abs(fast - 1.0) <= margin).all():
            return
    sums = block.sum(axis=2, dtype=np.float64)
    off = np.abs(sums - 1.0) > ROW_SUM_TOL
    # NaN payloads compare False above, so test them explicitly
    off |= ~np.isfinite(sums)
    if off.any():
        s, i = (int(v) for v in np.argwhere(off)[0])
        raise NotADistribution(f"row sum {float(sums[s, i])} at sample {s}, point {i + start}")


def check_labels(gt: LabelArray, classes: int, ignore_index: int | None) -> None:
    """The label check of ``validate_inputs``, which runs after every row is
    checked: each label is a class index below ``classes`` or, if one is
    given, ``ignore_index``."""
    vals = gt.values
    bad = (vals < 0) | (vals >= classes)
    if ignore_index is not None:
        bad &= vals != ignore_index
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        index = f"a class index below {classes}"
        what = (
            f"not {index}" if ignore_index is None
            else f"neither {index} nor the ignore index {ignore_index}"
        )
        raise LabelOutOfRange(f"label {int(vals[i])} at point {i} is {what}")
