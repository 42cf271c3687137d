"""Predictive distributions and per-point confidence scores.

Confidence is always computed on an aggregated stack (samples == 1): multi
sample stacks are averaged into one predictive distribution first, matching
how ensembles of stochastic forward passes are consumed. Every score is
computed ``core.BLOCK_POINTS`` points at a time (``predictive_blocks``,
``reduce_blocks``), so no float samples x points x classes stack of a frame
is ever built.

scipy supplies only ``ndtri``, the inverse normal CDF behind the noise of
Gaussian logits, and is imported when the first ``LogitTensor`` with a
``stddev`` is built: a run over probabilities or plain logits never loads
it.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .core import (
    BLOCK_POINTS,
    MEASURES,
    SEED_MASK,
    ConfidenceVector,
    LabelArray,
    ProbabilityStack,
    QuantizedStack,
    as_float,
    as_integer,
    check_distribution,
    check_ranges,
    label_dtype,
    sample_ranges,
    scratch,
)
from .errors import MissingStddev, NonFiniteInput, NotADistribution, ShapeMismatch

# SplitMix64 finalizer constants plus one odd multiplier per index axis;
# the noise value at (sample, point, class) depends only on the seed and
# those three indices, so generation may be partitioned along any axis.
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_AX_SAMPLE = np.uint64(0xA0761D6478BD642F)
_AX_POINT = np.uint64(0xE7037ED1A0B428DB)
_AX_CLASS = np.uint64(0x8EBC6AF09C88C6E3)


@dataclass(frozen=True)
class LogitTensor:
    """Raw network outputs, optionally with a per-logit Gaussian scale."""

    values: np.ndarray
    stddev: np.ndarray | None = None

    def __post_init__(self):
        arr = as_float(self.values)
        if arr.ndim != 2:
            raise ValueError("logits are points x classes")
        object.__setattr__(self, "values", arr)
        if self.stddev is not None:
            sd = as_float(self.stddev)
            if sd.shape != arr.shape:
                raise ValueError("stddev must match the logit shape")
            if sd.size and float(sd.min()) < 0.0:
                raise ValueError("stddev entries must be non-negative")
            object.__setattr__(self, "stddev", sd)
            # import scipy now, so that sampling, often timed, does not pay it
            _ndtri()

    @property
    def points(self) -> int:
        return int(self.values.shape[0])

    @property
    def classes(self) -> int:
        return int(self.values.shape[1])


def _mix64(z: np.uint64 | np.ndarray) -> np.uint64 | np.ndarray:
    """The SplitMix64 finalizer; an array argument is mixed in place."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def derive_stream_seed(seed: int, stream: int) -> int:
    """A decorrelated 64-bit seed for a numbered substream."""
    with np.errstate(over="ignore"):
        z = _mix64(np.uint64(seed & SEED_MASK) + _GAMMA)
        z = _mix64(z ^ (np.uint64(stream & SEED_MASK) * _AX_SAMPLE + _GAMMA))
    return int(z)


@functools.cache
def _ndtri():
    """scipy's ``ndtri``, imported on first use."""
    from scipy.special import ndtri

    return ndtri


def _normal_field(
    seed: int, samples: int, points: int, classes: int, start: int = 0
) -> np.ndarray:
    """Standard-normal noise addressable by (seed, sample, point, class),
    for the points ``start .. start + points - 1``."""
    with np.errstate(over="ignore"):
        z = _mix64(np.uint64(seed & SEED_MASK) + _GAMMA)
        si = np.arange(samples, dtype=np.uint64).reshape(samples, 1, 1)
        pi = np.arange(start, start + points, dtype=np.uint64).reshape(1, points, 1)
        ci = np.arange(classes, dtype=np.uint64).reshape(1, 1, classes)
        z = _mix64(z ^ (si * _AX_SAMPLE + _GAMMA))
        z = _mix64(z ^ (pi * _AX_POINT + _GAMMA))
        z = _mix64(z ^ (ci * _AX_CLASS + _GAMMA))
    # top 53 bits give a uniform draw strictly inside (0, 1)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    u += 2.0**-54
    return _ndtri()(u, out=u)


def _stabilized_softmax(values: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a float64 array, computed in place."""
    values -= values.max(axis=-1, keepdims=True)
    np.exp(values, out=values)
    values /= values.sum(axis=-1, keepdims=True)
    return values


def _softmax_blocks(logits: LogitTensor) -> Iterator[tuple[int, np.ndarray]]:
    """Row-wise float64 softmax of plain logits, ``BLOCK_POINTS`` points at a time.

    Yields ``(start, block)`` in point order, each block (1, r, classes).
    The shape and every value are checked when this is called, before any
    block is drawn.
    """
    values = logits.values
    if min(values.shape) < 1:
        raise ValueError(f"degenerate stack shape {(1, *values.shape)}")
    for lo in range(0, logits.points, BLOCK_POINTS):
        if not np.isfinite(values[lo : lo + BLOCK_POINTS]).all():
            raise NonFiniteInput("logits contain NaN or infinite entries")
    return (
        (lo, _stabilized_softmax(values[lo : lo + BLOCK_POINTS].astype(np.float64))[None])
        for lo in range(0, logits.points, BLOCK_POINTS)
    )


def softmax(logits: LogitTensor) -> ProbabilityStack:
    """Row-wise softmax as a single-sample stack.

    Stabilized by max subtraction, so adding a constant to a logit row does
    not change the output and large magnitudes cannot overflow.
    """
    blocks = _softmax_blocks(logits)
    out = np.empty((1, logits.points, logits.classes))
    for lo, block in blocks:
        out[:, lo : lo + block.shape[1]] = block
    return ProbabilityStack(out)


def _gaussian_logits(logits: LogitTensor, samples: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The checked mean, stddev and sample count of logits that are to be sampled."""
    if logits.stddev is None:
        raise MissingStddev(f"sampling logits needs a stddev tensor (samples={samples!r})")
    samples = as_integer("samples", samples, 1)
    mean, scale = logits.values, logits.stddev
    if not (np.isfinite(mean).all() and np.isfinite(scale).all()):
        raise NonFiniteInput("logit mean or stddev contains NaN or infinite entries")
    return mean, scale, samples


def _sampled_rows(
    mean: np.ndarray, scale: np.ndarray, samples: int, seed: int, lo: int, hi: int
) -> np.ndarray:
    """softmax(mean + stddev * noise) of the points ``lo .. hi - 1``, as a
    (samples, hi - lo, classes) float64 array."""
    noise = _normal_field(seed, samples, hi - lo, mean.shape[1], lo)
    noise *= scale[lo:hi]
    noise += mean[lo:hi]
    return _stabilized_softmax(noise)


def sample_probabilistic_logits(
    logits: LogitTensor, samples: int, seed: int = 0
) -> ProbabilityStack:
    """Draw softmax samples from Gaussian logits: softmax(mean + stddev * noise).

    Deterministic for a given seed; sample s of point i and class c sees a
    noise value that depends only on (seed, s, i, c).
    """
    mean, scale, samples = _gaussian_logits(logits, samples)
    out = np.empty((samples, logits.points, logits.classes))
    for lo, hi in sample_ranges(logits.points, samples):
        out[:, lo:hi] = _sampled_rows(mean, scale, samples, seed, lo, hi)
    return ProbabilityStack(out)


def _dequantized(raw: np.ndarray, buffers: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A (samples, r, classes) block of 16-bit fixed point as float32
    probabilities, with the float64 row sums they were renormalised by.

    The one dequantisation rule: each value is divided by 65535 in float32,
    and each row is then divided in float64 by its float64 sum and rounded
    to float32 once. Each of the 65536 scaled values is a multiple of 2^-32
    in [0, 1], so a row of k of them sums to at most k in steps of 2^-32:
    up to 2^21 classes every partial sum is exact in float64, and the sum
    does not depend on the order of its terms, so ``einsum`` takes it from
    the float32 values, cast as it reads them. An all-zero row sums to 0
    and comes out NaN. The results, 4 B a value, are ``core.scratch``
    arrays of ``buffers``, valid until its next use; else they are new
    arrays.
    """
    probs = scratch(buffers, "dequantized", raw.shape, np.float32)
    np.copyto(probs, raw)
    probs /= np.float32(65535.0)
    sums = scratch(buffers, "dequantized_sums", raw.shape[:2], np.float64)
    np.einsum("sij->si", probs, out=sums, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(probs, sums[..., None], out=probs, dtype=np.float64, casting="same_kind")
    return probs, sums


def dequantize(stack: QuantizedStack) -> ProbabilityStack:
    """The float32 probabilities of a quantised stack, rows renormalised.

    An all-zero row becomes NaN, which ``validate_inputs`` rejects. The
    stack is converted over the ranges of ``core.sample_ranges`` into the
    one result, so the conversion holds little more than the result.
    """
    out = np.empty(stack.data.shape, dtype=np.float32)
    for lo, hi in sample_ranges(stack.points, stack.samples):
        out[:, lo:hi] = _dequantized(stack.data[:, lo:hi])[0]
    return ProbabilityStack(out)


def aggregate_samples(stack: ProbabilityStack | QuantizedStack) -> ProbabilityStack:
    """Mean over the sample axis; the single-sample predictive distribution.

    A quantised stack is dequantised first.
    """
    if isinstance(stack, QuantizedStack):
        stack = dequantize(stack)
    if stack.samples == 1:
        return stack
    mean = stack.data.mean(axis=0, dtype=np.float64)
    return ProbabilityStack(mean.astype(stack.data.dtype, copy=False)[None])


def _mean_blocks(
    mean: np.ndarray, scale: np.ndarray, samples: int, seed: int
) -> Iterator[tuple[int, np.ndarray]]:
    """The sample mean of sampled logits, ``BLOCK_POINTS`` points at a time.

    The samples of each range of ``core.sample_ranges`` are drawn together
    (``_sampled_rows``), summed in float64 in sample order and divided by
    ``samples`` into their block: the bits of ``aggregate_samples``. Yields
    ``(start, block)`` in point order, each block (1, r, classes).
    """
    points, classes = mean.shape
    for lo, hi in sample_ranges(points, samples):
        if lo % BLOCK_POINTS == 0:
            start, out = lo, np.empty((1, min(BLOCK_POINTS, points - lo), classes))
        total = np.add.reduce(_sampled_rows(mean, scale, samples, seed, lo, hi), axis=0)
        total /= samples
        out[0, lo - start : hi - start] = total
        if hi - start == out.shape[1]:
            yield start, out


def _checked_blocks(
    blocks: Iterable[tuple[int, np.ndarray]],
) -> Iterator[tuple[int, np.ndarray]]:
    """``blocks``, each checked by ``core.check_distribution`` as it is drawn."""
    for lo, block in blocks:
        check_distribution(lo, block)
        yield lo, block


# rows of a slab that ``StreamedMean.add`` checks and sums at a time: few
# numpy calls per slab, so pooling workers seldom wait on each other for the
# GIL, while the dequantised float32 rows (4 B a value) take 12 B a value
# of one block, within two float64 blocks for any class count
_CHUNK_ROWS = 3 * BLOCK_POINTS


class StreamedMean:
    """The sample mean of a probability stack that is fed one sample at a time.

    The one accumulator of every stack of several samples or of uint16
    ones: ``predictive_blocks`` feeds it one block of each sample, and
    ``io.load_frame`` one sample of a file. ``add`` takes (points, classes)
    slabs, float or uint16, in sample order, checks them ``_CHUNK_ROWS``
    rows at a time (uint16 ones dequantised by ``_dequantized``) and adds
    them into a float64 sum, ``total``. Summed in sample order, it has the
    bits of ``aggregate_samples``: ``blocks`` yields it divided by the
    sample count and cast to the stack's type (float32 for uint16).

    A slab with a fault sets ``clean`` to False, and ``blocks`` then raises
    ``NotADistribution``; ``core.check_ranges`` over the whole stack finds
    a fault exactly when some slab has one, and names it. The sum and the
    blocks are ``core.scratch`` arrays of ``buffers``; else each is new.
    """

    def __init__(self, buffers: dict | None = None):
        self.buffers = buffers
        self.samples = 0
        self.clean = True
        self.total: np.ndarray | None = None

    points = property(lambda self: self._filled().shape[0])
    classes = property(lambda self: self._filled().shape[1])

    def _filled(self) -> np.ndarray:
        if self.total is None:
            raise ShapeMismatch("no sample was added to the mean")
        return self.total

    def add(self, slab: np.ndarray) -> None:
        """Check the next sample's slab, (points, classes) as the first one,
        and add it into ``total``."""
        if self.total is None:
            if slab.ndim != 2:
                raise ShapeMismatch(f"a slab of {slab.shape} is not (points, classes)")
            self.total = scratch(self.buffers, "sum", slab.shape, np.float64)
            self.dtype = np.float32 if slab.dtype.kind == "u" else slab.dtype
        elif slab.shape != self.total.shape:
            raise ShapeMismatch(f"a slab of {slab.shape} added to a sum of {self.total.shape}")
        for lo in range(0, slab.shape[0], _CHUNK_ROWS):
            rows = slab[None, lo : lo + _CHUNK_ROWS]
            if rows.dtype.kind == "u":
                rows, sums = _dequantized(rows, self.buffers)
                # a renormalised value lies in [0, 1], and a row sums to 1
                # within a few float32 roundings unless all its integers are
                # 0: then it sums to 0 and comes out NaN. So the zero-row
                # test on the sums at hand is the whole check
                self.clean = self.clean and bool(sums.all())
            elif self.clean:
                try:
                    check_distribution(lo, rows)
                except NotADistribution:
                    self.clean = False
            part = self.total[lo : lo + rows.shape[1]]
            if self.samples:
                np.add(part, rows[0], out=part)
            else:
                np.copyto(part, rows[0])
        self.samples += 1

    def blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """The mean, ``(start, block)`` in point order as ``predictive_blocks``
        yields it, as often as it is read; with ``buffers`` each block is
        overwritten by the next. Not ``clean``, it raises."""
        if not self.clean:
            raise NotADistribution(f"a row of {self.samples} summed samples is no distribution")
        for lo in range(0, self.points, BLOCK_POINTS):
            part = self.total[lo : lo + BLOCK_POINTS]
            # the dequantised rows' buffer, free once every slab is in
            block = scratch(self.buffers, "dequantized", (1, *part.shape), self.dtype)
            # divided in float64 and rounded to the block's type once
            np.divide(part, self.samples, out=block[0], casting="same_kind")
            yield lo, block


def _stack_blocks(
    stack: ProbabilityStack | QuantizedStack, buffers: dict | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """``predictive_blocks`` of a stack, summed over ``buffers``. A range
    never straddles a block, so ``core.check_ranges`` on the first block
    with a fault raises the error of ``validate_inputs``."""
    for lo in range(0, stack.points, BLOCK_POINTS):
        rows = stack.data[:, lo : lo + BLOCK_POINTS]
        if rows.shape[0] == 1 and rows.dtype.kind == "f":
            check_ranges(lo, rows)
            yield lo, rows
            continue
        mean = StreamedMean(buffers)
        for slab in rows:
            mean.add(slab)
        if not mean.clean:
            check_ranges(lo, _dequantized(rows)[0] if rows.dtype.kind == "u" else rows)
        for _, block in mean.blocks():
            yield lo, block


def predictive_blocks(
    payload: ProbabilityStack | QuantizedStack | LogitTensor | StreamedMean,
    samples: int = 1,
    seed: int = 0,
    buffers: dict | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """A frame's predictive distribution, checked, ``BLOCK_POINTS`` points
    at a time.

    Yields ``(start, block)`` in point order, each block a (1, r, classes)
    array: of a stack (``_stack_blocks``), or of a filled ``StreamedMean``,
    as ``io.load_frame`` returns it, checked as it was filled; of plain
    logits softmaxed as ``softmax`` does; of logits with a stddev sampled
    ``samples`` times with ``seed`` and averaged (``_mean_blocks``). Plain
    logits admit only ``samples`` 1, since they have no noise to sample
    (``MissingStddev``). Logit errors raise when this is called, before any
    block is drawn, and the blocks drawn from logits are checked as they
    are yielded. A stack's blocks are summed over ``buffers``.
    """
    if isinstance(payload, StreamedMean):
        return payload.blocks()
    if isinstance(payload, LogitTensor):
        if payload.stddev is None and samples == 1:
            return _checked_blocks(_softmax_blocks(payload))
        return _checked_blocks(_mean_blocks(*_gaussian_logits(payload, samples), seed))
    return _stack_blocks(payload, buffers)


def _reduce_block(rows: np.ndarray, pred: np.ndarray, scores: dict, buffers=None) -> None:
    """Write one block's argmax into ``pred`` and its confidences into ``scores``.

    The kernel of every confidence score. The argmax takes the first
    maximum, so ties break to the lowest class index, and max-softmax is
    read at it. Entropy treats 0 * log 0 as 0 by taking the log of 1 there,
    which is exactly 0. Temporaries are ``core.scratch`` arrays of ``buffers``.
    """
    top = np.argmax(rows, axis=1, out=scratch(buffers, "argmax", len(rows), np.intp))
    pred[:] = top
    if "max_softmax" in scores:
        scores["max_softmax"][:] = rows[np.arange(rows.shape[0]), top]
    if "neg_entropy" in scores:
        empty = np.less_equal(rows, 0.0, out=scratch(buffers, "empty", rows.shape, np.bool_))
        logs = scratch(buffers, "logs", rows.shape, np.float64)
        # the log of 1 where a value is not above 0, without a branch: a log
        # masked by where= is three times slower when zeros are scattered;
        # float32 rows are cast as they are read, here and in the sum
        np.log(np.maximum(rows, empty, out=logs, dtype=np.float64), out=logs)
        out = np.einsum("ij,ij->i", rows, logs, out=scores["neg_entropy"], dtype=np.float64)
        # 1 - entropy / log(k), the entropy being the negated sum
        out *= -1.0 / math.log(rows.shape[1])
        np.subtract(1.0, out, out=out)
        np.clip(out, 0.0, 1.0, out=out)


def score_columns(
    points: int, measures: tuple[str, ...] = ("max_softmax",), classes=None, float32=False
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Empty columns for ``reduce_blocks``: ``points`` predictions as
    ``core.label_dtype(classes)``, or intp without ``classes``, and a score
    column per measure, in ``MEASURES`` order: float64, but max-softmax as
    float32 if ``float32``, exact only if every block is float32."""
    pred = np.empty(points, dtype=np.intp if classes is None else label_dtype(classes))
    dtypes = {"max_softmax": np.float32 if float32 else np.float64, "neg_entropy": np.float64}
    return pred, {m: np.empty(points, dtypes[m]) for m in MEASURES if m in measures}


def reduce_blocks(
    blocks: Iterable[tuple[int, np.ndarray]],
    pred: np.ndarray,
    scores: dict[str, np.ndarray],
    buffers: dict | None = None,
) -> None:
    """Write the argmax predictions and confidences of a blocked stack into
    the columns ``pred`` and ``scores`` (as ``score_columns`` makes them).

    ``blocks`` yields ``(start, block)`` as ``predictive_blocks`` does, for
    a stack of ``len(pred)`` points; the block at ``start`` is written to
    the columns' entries from ``start`` on, with ``buffers``' temporaries.
    """
    for lo, block in blocks:
        hi = lo + block.shape[1]
        _reduce_block(block[0], pred[lo:hi], {m: c[lo:hi] for m, c in scores.items()}, buffers)


def _aggregated(probs: ProbabilityStack | QuantizedStack, measure: str):
    """The confidence under ``measure`` and the argmax predictions of an
    aggregated stack, as float64 scores and intp predictions; the rows are
    checked as ``validate_inputs`` checks them (``predictive_blocks``)."""
    if probs.samples != 1:
        raise ValueError("confidence expects an aggregated stack (samples == 1)")
    if measure == "neg_entropy" and probs.classes < 2:
        raise ValueError("entropy confidence needs at least two classes")
    preds, columns = score_columns(probs.points, (measure,))
    reduce_blocks(predictive_blocks(probs), preds, columns)
    return ConfidenceVector(measure, columns[measure]), LabelArray(preds)


def max_softmax_confidence(
    probs: ProbabilityStack | QuantizedStack,
) -> tuple[ConfidenceVector, LabelArray]:
    """Highest class probability per point, plus the argmax predictions.

    Ties break to the lowest class index so reports are reproducible.
    """
    return _aggregated(probs, "max_softmax")


def entropy_confidence(probs: ProbabilityStack | QuantizedStack) -> ConfidenceVector:
    """1 - H(p) / log(k): normalized Shannon entropy flipped into a confidence.

    The normalization by the maximum entropy makes the logarithm base cancel;
    0 * log 0 counts as 0.
    """
    return _aggregated(probs, "neg_entropy")[0]
