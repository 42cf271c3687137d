"""Predictive distributions and per-point confidence scores.

Confidence is always computed on an aggregated stack (samples == 1): multi
sample stacks are averaged into one predictive distribution first, matching
how ensembles of stochastic forward passes are consumed.

Every score is computed block by block, ``core.BLOCK_POINTS`` points at a
time: ``predictive_blocks`` yields a frame's predictive distribution in
blocks, and one block kernel, behind ``reduce_blocks``, writes each
block's argmax, max-softmax and entropy into given columns while the block
is in cache.
``max_softmax_confidence`` and ``entropy_confidence`` are thin wrappers
over it. Multi-sample stacks, 16-bit quantised stacks and sampled logits
are dequantised, drawn and averaged over the ranges of
``core.sample_ranges``, about ``BLOCK_POINTS`` rows at a time, so no float
samples x points x classes stack of a frame is ever built. A stack read one
sample at a time is summed into a float64 sum of the frame by
``StreamedMean``, which gives the same bits. Plain logits are softmaxed a
block at a time as well.

scipy supplies only ``ndtri``, the inverse normal CDF behind the noise of
Gaussian logits, and is imported when the first ``LogitTensor`` with a
``stddev`` is built: a run over probabilities or plain logits never loads
it.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Iterator
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
    as_integer,
    check_distribution,
    sample_ranges,
    scratch,
)
from .errors import MissingStddev, NonFiniteInput, NotADistribution

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
        arr = np.asarray(self.values)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        if arr.ndim != 2:
            raise ValueError("logits are points x classes")
        object.__setattr__(self, "values", arr)
        if self.stddev is not None:
            sd = np.asarray(self.stddev)
            if sd.dtype.kind != "f":
                sd = sd.astype(np.float64)
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
    up to 2^21 classes every partial sum is exact in float64, the sum does
    not depend on the order of its terms, and one matrix product takes all
    of them. An all-zero row sums to 0 and comes out NaN. The results and
    the float64 temporary are ``core.scratch`` arrays of ``buffers``, valid
    until its next use; without ``buffers`` they are new arrays.
    """
    probs = scratch(buffers, "dequantized", raw.shape, np.float32)
    np.copyto(probs, raw)
    probs /= np.float32(65535.0)
    wide = scratch(buffers, "dequantized_wide", raw.shape, np.float64)
    np.copyto(wide, probs)
    sums = scratch(buffers, "dequantized_sums", raw.shape[:2], np.float64)
    np.matmul(wide, np.ones(raw.shape[2]), out=sums)
    with np.errstate(invalid="ignore", divide="ignore"):
        wide /= sums[..., None]
    np.copyto(probs, wide)
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
    rows: Callable[[int, int], np.ndarray], points: int, classes: int, samples: int, dtype
) -> Iterator[tuple[int, np.ndarray]]:
    """The sample mean of a stack, ``BLOCK_POINTS`` points at a time.

    ``rows(lo, hi)`` gives the stack's (samples, hi - lo, classes) rows of
    the points ``lo .. hi - 1``, and is called over the ranges of
    ``core.sample_ranges``, so it is never asked for much more than
    ``BLOCK_POINTS`` rows. Each range is summed over its samples in float64,
    in sample order, divided by ``samples`` and cast to ``dtype`` into its
    block: the bits of ``aggregate_samples``. Yields ``(start, block)`` in
    point order, each block (1, r, classes); a single-sample stack's rows
    are yielded as they come.
    """
    for lo, hi in sample_ranges(points, samples):
        block = rows(lo, hi)
        if samples == 1:
            yield lo, block
            continue
        if lo % BLOCK_POINTS == 0:
            start, out = lo, np.empty((1, min(BLOCK_POINTS, points - lo), classes), dtype)
        total = np.add.reduce(block, axis=0, dtype=np.float64)
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


def predictive_blocks(
    payload: ProbabilityStack | QuantizedStack | LogitTensor,
    samples: int = 1,
    seed: int = 0,
    *,
    checked: bool = False,
) -> Iterator[tuple[int, np.ndarray]]:
    """A frame's predictive distribution, ``BLOCK_POINTS`` points at a time.

    Yields ``(start, block)`` in point order, each block a (1, r, classes)
    array. A stack's samples are averaged over the ranges of
    ``core.sample_ranges`` (``_mean_blocks``), which gives the bits of
    ``aggregate_samples`` without a full-frame temporary; a single-sample
    float stack is yielded as views. A quantised stack is dequantised a
    range at a time, by the rule of ``dequantize``. Plain logits are
    softmaxed a block at a time, as ``softmax`` does. Logits with a stddev
    are sampled ``samples`` times with ``seed`` and averaged a range at a
    time, which gives the bits of
    ``aggregate_samples(sample_probabilistic_logits(...))``. Plain logits
    admit only ``samples`` 1, since they have no noise to sample
    (``MissingStddev``). Logit errors raise when this is called, before any
    block is drawn.

    With ``checked``, every sample of a stack is checked as
    ``validate_inputs`` checks it, before the samples are averaged, so an
    error names the sample and point at fault; the blocks drawn from logits
    are checked as they are yielded.
    """
    if isinstance(payload, LogitTensor):
        if payload.stddev is None and samples == 1:
            blocks = _softmax_blocks(payload)
        else:
            mean, scale, samples = _gaussian_logits(payload, samples)
            rows = functools.partial(_sampled_rows, mean, scale, samples, seed)
            blocks = _mean_blocks(rows, payload.points, payload.classes, samples, np.float64)
        return _checked_blocks(blocks) if checked else blocks

    data = payload.data
    if isinstance(payload, QuantizedStack):

        def rows(lo, hi):
            probs, sums = _dequantized(data[:, lo:hi])
            # a renormalised value lies in [0, 1], and a row sums to 1 within
            # a few float32 roundings unless all its integers are 0: then it
            # sums to 0 and comes out NaN. So the zero-row test on the sums
            # at hand is the whole check, with no second pass over the values
            if checked and not sums.all():
                s, i = (int(v) for v in np.argwhere(sums == 0)[0])
                raise NotADistribution(f"row sum nan at sample {s}, point {lo + i}")
            return probs

        dtype = np.float32
    else:

        def rows(lo, hi):
            if checked:
                check_distribution(lo, data[:, lo:hi])
            return data[:, lo:hi]

        dtype = data.dtype
    return _mean_blocks(rows, payload.points, payload.classes, payload.samples, dtype)


class StreamedMean:
    """The sample mean of a probability stack that is fed one sample at a time.

    ``add`` takes the stack's (points, classes) slabs, float32 or uint16,
    in sample order. Each slab is checked ``BLOCK_POINTS`` rows at a time
    (a uint16 one dequantised first, by the rule of ``dequantize``) and
    added into one float64 sum of the frame, ``total``. A float64 sum taken
    in sample order has the bits of the sum that ``aggregate_samples`` and
    ``predictive_blocks`` take, so ``blocks`` yields what
    ``predictive_blocks`` yields for the whole stack: the sum divided by
    the sample count and cast to float32, a block at a time.

    A slab with a fault sets ``clean`` to False, and the slabs after it are
    not looked at. Its error is not raised here: which one
    ``validate_inputs`` reports depends on every sample of the range at
    fault, so ``predictive_blocks(stack, checked=True)`` over the whole
    stack raises it. The check is that of ``predictive_blocks`` on one
    sample: a fault is found in some slab exactly when that check finds
    one in the stack.

    The sum, the dequantised rows and the blocks are ``core.scratch``
    arrays of ``buffers``, so a worker that passes the same dict for every
    frame allocates them once.
    """

    def __init__(self, buffers: dict | None = None):
        self.buffers = buffers
        self.samples = 0
        self.clean = True
        self.total: np.ndarray | None = None

    def add(self, slab: np.ndarray) -> None:
        """Check the next sample's slab and add it into ``total``."""
        if not self.clean:
            return
        if self.total is None:
            self.total = scratch(self.buffers, "sum", slab.shape, np.float64)
        for lo in range(0, slab.shape[0], BLOCK_POINTS):
            rows = slab[None, lo : lo + BLOCK_POINTS]
            if rows.dtype.kind == "u":
                rows, sums = _dequantized(rows, self.buffers)
                self.clean = bool(sums.all())
            else:
                try:
                    check_distribution(lo, rows)
                except NotADistribution:
                    self.clean = False
            if not self.clean:
                return
            part = self.total[lo : lo + rows.shape[1]]
            if self.samples:
                np.add(part, rows[0], out=part)
            else:
                np.copyto(part, rows[0])
        self.samples += 1

    def blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """The mean, ``(start, block)`` in point order as ``predictive_blocks``
        yields it; each block is overwritten by the next, and ``total`` is
        divided in place."""
        for lo in range(0, self.total.shape[0], BLOCK_POINTS):
            part = self.total[lo : lo + BLOCK_POINTS]
            part /= self.samples
            # the dequantised rows' buffer, free once every slab is in
            block = scratch(self.buffers, "dequantized", (1, *part.shape), np.float32)
            np.copyto(block[0], part)
            yield lo, block


def _reduce_block(rows: np.ndarray, pred: np.ndarray, scores: dict[str, np.ndarray]) -> None:
    """Write one block's argmax into ``pred`` and its confidences into ``scores``.

    The kernel of every confidence score. The argmax takes the first
    maximum, so ties break to the lowest class index, and max-softmax is
    read at it. Entropy treats 0 * log 0 as 0 by taking the log of 1 there,
    which is exactly 0.
    """
    top = rows.argmax(axis=1)
    pred[:] = top
    scores["max_softmax"][:] = rows[np.arange(rows.shape[0]), top]
    if "neg_entropy" in scores:
        p = rows.astype(np.float64, copy=False)  # only read
        logs = np.where(p > 0.0, p, 1.0)
        np.log(logs, out=logs)
        entropy = -np.einsum("ij,ij->i", p, logs)
        out = scores["neg_entropy"]
        np.subtract(1.0, entropy * (1.0 / math.log(rows.shape[1])), out=out)
        np.clip(out, 0.0, 1.0, out=out)


def score_columns(
    points: int, measures: tuple[str, ...] = ("max_softmax",), label_dtype=np.intp
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Empty columns for ``reduce_blocks``: ``points`` predictions as
    ``label_dtype`` and a float64 score column per measure, max-softmax
    always, which the predictions come with, then the other ``measures``."""
    pred = np.empty(points, dtype=label_dtype)
    return pred, {m: np.empty(points) for m in MEASURES if m == "max_softmax" or m in measures}


def reduce_blocks(
    blocks: Iterable[tuple[int, np.ndarray]],
    pred: np.ndarray,
    scores: dict[str, np.ndarray],
) -> None:
    """Write the argmax predictions and confidences of a blocked stack into
    the columns ``pred`` and ``scores`` (as ``score_columns`` makes them).

    ``blocks`` yields ``(start, block)`` as ``predictive_blocks`` does, for
    a stack of ``len(pred)`` points; the block at ``start`` is written to
    the columns' entries from ``start`` on.
    """
    for lo, block in blocks:
        hi = lo + block.shape[1]
        _reduce_block(block[0], pred[lo:hi], {m: col[lo:hi] for m, col in scores.items()})


def _require_aggregated(probs: ProbabilityStack) -> None:
    if probs.samples != 1:
        raise ValueError("confidence expects an aggregated stack (samples == 1)")


def max_softmax_confidence(
    probs: ProbabilityStack,
) -> tuple[ConfidenceVector, LabelArray]:
    """Highest class probability per point, plus the argmax predictions.

    Ties break to the lowest class index so reports are reproducible.
    """
    _require_aggregated(probs)
    preds, columns = score_columns(probs.points)
    reduce_blocks(predictive_blocks(probs), preds, columns)
    return ConfidenceVector("max_softmax", columns["max_softmax"]), LabelArray(preds)


def entropy_confidence(probs: ProbabilityStack) -> ConfidenceVector:
    """1 - H(p) / log(k): normalized Shannon entropy flipped into a confidence.

    The normalization by the maximum entropy makes the logarithm base cancel;
    0 * log 0 counts as 0.
    """
    _require_aggregated(probs)
    if probs.classes < 2:
        raise ValueError("entropy confidence needs at least two classes")
    preds, columns = score_columns(probs.points, ("neg_entropy",))
    reduce_blocks(predictive_blocks(probs), preds, columns)
    return ConfidenceVector("neg_entropy", columns["neg_entropy"])

