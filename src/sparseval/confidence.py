"""Predictive distributions and per-point confidence scores.

Confidence is always computed on an aggregated stack (samples == 1): multi
sample stacks are averaged into one predictive distribution first, matching
how ensembles of stochastic forward passes are consumed.

Every score is computed block by block, ``core.BLOCK_POINTS`` points at a
time: ``predictive_blocks`` yields a frame's predictive distribution in
blocks (sampled logits are averaged per block, so the full samples x points
x classes stack is never built), and one block kernel, behind
``reduce_blocks``, takes each block's argmax, max-softmax and entropy while
the block is in cache. ``max_softmax_confidence`` and
``entropy_confidence`` are thin wrappers over it. Plain logits are
softmaxed a block at a time as well.

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
    BLOCK_POINTS, MEASURES, SEED_MASK, ConfidenceVector, LabelArray, ProbabilityStack, as_integer
)
from .errors import MissingStddev, NonFiniteInput

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


def _sampled_blocks(
    mean: np.ndarray, scale: np.ndarray, samples: int, seed: int
) -> Iterator[tuple[int, np.ndarray]]:
    """softmax(mean + stddev * noise) a block of points at a time.

    Yields ``(start, block)`` in point order, each block a (samples, r,
    classes) array of about ``BLOCK_POINTS`` rows over all its samples, so
    that the noise and its temporaries stay in cache.
    """
    step = max(1, BLOCK_POINTS // samples)
    for lo in range(0, mean.shape[0], step):
        block_mean = mean[lo : lo + step]
        noise = _normal_field(seed, samples, block_mean.shape[0], mean.shape[1], lo)
        noise *= scale[lo : lo + step]
        noise += block_mean
        yield lo, _stabilized_softmax(noise)


def sample_probabilistic_logits(
    logits: LogitTensor, samples: int, seed: int = 0
) -> ProbabilityStack:
    """Draw softmax samples from Gaussian logits: softmax(mean + stddev * noise).

    Deterministic for a given seed; sample s of point i and class c sees a
    noise value that depends only on (seed, s, i, c).
    """
    mean, scale, samples = _gaussian_logits(logits, samples)
    out = np.empty((samples, logits.points, logits.classes))
    for lo, block in _sampled_blocks(mean, scale, samples, seed):
        out[:, lo : lo + block.shape[1]] = block
    return ProbabilityStack(out)


def aggregate_samples(stack: ProbabilityStack) -> ProbabilityStack:
    """Mean over the sample axis; the single-sample predictive distribution."""
    if stack.samples == 1:
        return stack
    mean = stack.data.mean(axis=0, dtype=np.float64)
    return ProbabilityStack(mean.astype(stack.data.dtype, copy=False)[None])


def predictive_blocks(
    payload: ProbabilityStack | LogitTensor, samples: int = 1, seed: int = 0
) -> Iterator[tuple[int, np.ndarray]]:
    """A frame's predictive distribution, ``BLOCK_POINTS`` points at a time.

    Yields ``(start, block)`` in point order, each block a (1, r, classes)
    array. A stack's samples are averaged (``aggregate_samples``), and
    plain logits are softmaxed a block at a time, as ``softmax`` does.
    Logits with a stddev are sampled ``samples`` times with ``seed``: each
    block's samples are drawn and averaged in sample order before the next
    block is drawn, which gives the bits of
    ``aggregate_samples(sample_probabilistic_logits(...))`` without building
    the full stack. Plain logits admit only ``samples`` 1, since they have
    no noise to sample (``MissingStddev``). Input errors raise when this is
    called, before any block is drawn.
    """
    if isinstance(payload, LogitTensor):
        if payload.stddev is None and samples == 1:
            return _softmax_blocks(payload)
        mean, scale, samples = _gaussian_logits(payload, samples)
        # each block's samples are summed in sample order, as mean(axis=0) sums
        return (
            (lo, np.add.reduce(block, axis=0, keepdims=True) / samples)
            for lo, block in _sampled_blocks(mean, scale, samples, seed)
        )
    data = aggregate_samples(payload).data
    return ((lo, data[:, lo : lo + BLOCK_POINTS]) for lo in range(0, data.shape[1], BLOCK_POINTS))


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


def reduce_blocks(
    blocks: Iterable[tuple[int, np.ndarray]],
    points: int,
    measures: tuple[str, ...] = ("max_softmax",),
    label_dtype=np.intp,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Argmax predictions and confidence columns of a blocked stack.

    ``blocks`` yields ``(start, block)`` as ``predictive_blocks`` does, for
    a stack of ``points`` points. Returns the predictions as ``label_dtype``
    and a float64 score column per measure: max-softmax always, which the
    predictions come with, then the other ``measures``.
    """
    pred = np.empty(points, dtype=label_dtype)
    columns = {m: np.empty(points) for m in MEASURES if m == "max_softmax" or m in measures}
    for lo, block in blocks:
        hi = lo + block.shape[1]
        _reduce_block(block[0], pred[lo:hi], {m: col[lo:hi] for m, col in columns.items()})
    return pred, columns


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
    preds, columns = reduce_blocks(predictive_blocks(probs), probs.points)
    return ConfidenceVector("max_softmax", columns["max_softmax"]), LabelArray(preds)


def entropy_confidence(probs: ProbabilityStack) -> ConfidenceVector:
    """1 - H(p) / log(k): normalized Shannon entropy flipped into a confidence.

    The normalization by the maximum entropy makes the logarithm base cancel;
    0 * log 0 counts as 0.
    """
    _require_aggregated(probs)
    if probs.classes < 2:
        raise ValueError("entropy confidence needs at least two classes")
    _, columns = reduce_blocks(predictive_blocks(probs), probs.points, ("neg_entropy",))
    return ConfidenceVector("neg_entropy", columns["neg_entropy"])

