import math
import tracemalloc

import numpy as np
import pytest
from conftest import NO_SHRINK
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from sparseval import (
    ArrayFrame,
    ClassCatalog,
    EvalConfig,
    LabelArray,
    LogitTensor,
    ProbabilityStack,
    QuantizedStack,
    aggregate_samples,
    ause,
    dequantize,
    ece,
    entropy_confidence,
    max_softmax_confidence,
    per_class_ause,
    sample_probabilistic_logits,
    pool_split,
    softmax,
    validate_inputs,
)
from sparseval.confidence import (
    _dequantized,
    _normal_field,
    _reduce_block,
    predictive_blocks,
    score_columns,
)
from sparseval.core import BLOCK_POINTS, MEASURES
from sparseval.errors import MissingStddev, NonFiniteInput, NotADistribution
from sparseval.sparsification import class_curves_by_measure


def test_softmax_symmetry():
    p = softmax(LogitTensor(np.array([[0.0, 0.0]])))
    assert np.allclose(p.data[0, 0], [0.5, 0.5], atol=1e-15)


def test_softmax_log_two():
    p = softmax(LogitTensor(np.array([[math.log(2.0), 0.0]])))
    assert np.allclose(p.data[0, 0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_softmax_large_logits_stay_finite():
    with np.errstate(over="raise"):
        p = softmax(LogitTensor(np.array([[1000.0, 0.0]])))
    assert abs(p.data[0, 0, 0] - 1.0) < 1e-12
    assert abs(p.data[0, 0, 1]) < 1e-12


def test_softmax_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        softmax(LogitTensor(np.array([[np.nan, 0.0]])))
    with pytest.raises(NonFiniteInput):
        softmax(LogitTensor(np.array([[np.inf, 0.0]])))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-50.0, 50.0),
    n=st.integers(1, 20),
    k=st.integers(2, 6),
)
def test_softmax_shift_invariance_and_argmax(seed, shift, n, k):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, k)) * 5.0
    base = softmax(LogitTensor(logits))
    shifted = softmax(LogitTensor(logits + shift))
    assert np.allclose(base.data, shifted.data, atol=1e-12)
    assert np.array_equal(base.data[0].argmax(axis=1), logits.argmax(axis=1))


def test_sampling_requires_stddev():
    with pytest.raises(MissingStddev):
        sample_probabilistic_logits(LogitTensor(np.zeros((1, 2))), 5)


def test_sampling_zero_stddev_reduces_to_softmax():
    logits = LogitTensor(np.array([[1.0, -1.0], [0.5, 0.25]]), np.zeros((2, 2)))
    stack = sample_probabilistic_logits(logits, 5, seed=9)
    reference = softmax(LogitTensor(logits.values))
    assert stack.samples == 5
    for s in range(5):
        assert np.array_equal(stack.data[s], reference.data[0])


def test_sampling_is_deterministic_per_seed():
    logits = LogitTensor(np.zeros((3, 4)), np.full((3, 4), 0.7))
    a = sample_probabilistic_logits(logits, 7, seed=123)
    b = sample_probabilistic_logits(logits, 7, seed=123)
    c = sample_probabilistic_logits(logits, 7, seed=124)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_sampling_symmetric_logits_monte_carlo_mean():
    # with equal means and scales, symmetry forces E[p(class 0)] = 1/2
    logits = LogitTensor(np.zeros((1, 2)), np.full((1, 2), 1.5))
    stack = sample_probabilistic_logits(logits, 100_000, seed=2024)
    draws = stack.data[:, 0, 0]
    stderr = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.5) < 3.0 * stderr


def test_noise_addressable_by_indices():
    # values must not depend on the field extent along any axis
    full = _normal_field(5, 4, 6, 5)
    assert np.array_equal(full[:2, :3, :2], _normal_field(5, 2, 3, 2))
    assert np.array_equal(full, _normal_field(5, 4, 6, 5))
    assert np.array_equal(full[:, 2:5], _normal_field(5, 4, 3, 5, start=2))


def test_aggregate_two_point_mean():
    stack = ProbabilityStack(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
    merged = aggregate_samples(stack)
    assert merged.samples == 1
    assert np.array_equal(merged.data[0, 0], [0.5, 0.5])


def test_aggregate_single_sample_is_identity():
    stack = ProbabilityStack(np.array([[[0.25, 0.75]]]))
    assert aggregate_samples(stack) is stack


def test_aggregate_constant_samples():
    row = np.array([0.1, 0.2, 0.7])
    stack = ProbabilityStack(np.tile(row, (30, 2, 1)))
    merged = aggregate_samples(stack)
    assert np.allclose(merged.data[0], np.tile(row, (2, 1)), atol=1e-12)
    assert np.allclose(merged.data.sum(axis=2), 1.0, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.integers(2, 8))
def test_aggregate_commutes_with_sample_permutation(seed, s):
    rng = np.random.default_rng(seed)
    raw = rng.random((s, 5, 3)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    stack = ProbabilityStack(raw)
    shuffled = ProbabilityStack(raw[rng.permutation(s)])
    assert np.allclose(
        aggregate_samples(stack).data, aggregate_samples(shuffled).data, atol=1e-12
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("samples", [2, 3, 20, 30])
def test_stack_block_means_match_aggregate_samples(dtype, samples):
    # averaged over ranges of BLOCK_POINTS // samples points, whole blocks out
    n = 2 * BLOCK_POINTS + 77
    rng = np.random.default_rng(samples)
    raw = rng.random((samples, n, 5)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    stack = ProbabilityStack(raw.astype(dtype))
    blocks = list(predictive_blocks(stack))
    assert [lo for lo, _ in blocks] == [0, BLOCK_POINTS, 2 * BLOCK_POINTS]
    streamed = np.concatenate([b for _, b in blocks], axis=1)
    expected = aggregate_samples(stack).data
    assert streamed.dtype == expected.dtype == dtype
    assert streamed.tobytes() == expected.tobytes()


def test_single_sample_stack_blocks_are_views():
    stack = ProbabilityStack(np.full((1, BLOCK_POINTS + 3, 2), 0.5, dtype=np.float32))
    for _, block in predictive_blocks(stack):
        assert np.shares_memory(block, stack.data)


@pytest.mark.parametrize("case", ["off-sum", "quantized-zero-row"])
def test_confidences_and_ece_check_rows_as_validate_inputs_does(case):
    rng = np.random.default_rng(19)
    points, bad = BLOCK_POINTS + 40, BLOCK_POINTS + 9
    raw = rng.random((1, points, 4)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    gt = LabelArray(rng.integers(0, 4, points))
    if case == "off-sum":
        raw[0, bad] *= 0.9
        stack = whole = ProbabilityStack(raw)
    else:
        quantized = np.rint(raw * 65535).astype(np.uint16)
        clean = QuantizedStack(quantized.copy())
        # a one-sample quantised stack without a fault is evaluated as its
        # dequantised rows are
        assert ece(clean, gt, 15) == ece(dequantize(clean), gt, 15)
        quantized[0, bad] = 0
        stack = QuantizedStack(quantized)
        whole = dequantize(stack)
    with pytest.raises(NotADistribution) as expected:
        validate_inputs(whole, gt, ClassCatalog(("a", "b", "c", "d")))
    assert str(expected.value).endswith(f"at sample 0, point {bad}")
    for score in (max_softmax_confidence, entropy_confidence, lambda s: ece(s, gt, 15)):
        with pytest.raises(NotADistribution) as raised:
            score(stack)
        assert str(raised.value) == str(expected.value)


def test_max_softmax_readoff_and_ties():
    probs = ProbabilityStack(
        np.array([[[0.1, 0.7, 0.2], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]]])
    )
    conf, pred = max_softmax_confidence(probs)
    assert conf.scores[0] == 0.7 and pred.values[0] == 1
    assert conf.scores[1] == 0.5 and pred.values[1] == 0  # tie breaks low
    assert conf.scores[2] == 0.5 and pred.values[2] == 2


def test_max_softmax_uniform_row():
    probs = ProbabilityStack(np.full((1, 1, 4), 0.25))
    conf, pred = max_softmax_confidence(probs)
    assert conf.scores[0] == 0.25
    assert pred.values[0] == 0


def test_entropy_extremes():
    probs = ProbabilityStack(
        np.array([[[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]]])
    )
    conf = entropy_confidence(probs)
    assert conf.scores[0] == pytest.approx(0.0, abs=1e-12)
    assert conf.scores[1] == pytest.approx(1.0, abs=1e-12)
    assert conf.scores[2] == pytest.approx(0.5, abs=1e-12)


def test_entropy_requires_aggregated_stack():
    stack = ProbabilityStack(np.full((2, 1, 2), 0.5))
    with pytest.raises(ValueError):
        entropy_confidence(stack)
    with pytest.raises(ValueError):
        max_softmax_confidence(stack)


def test_binary_rankings_agree():
    rng = np.random.default_rng(42)
    m = 0.5 + 0.5 * rng.random(500)
    rows = np.stack([m, 1.0 - m], axis=1)
    probs = ProbabilityStack(rows[None])
    sm, _ = max_softmax_confidence(probs)
    ent = entropy_confidence(probs)
    assert np.array_equal(
        np.argsort(sm.scores, kind="stable"), np.argsort(ent.scores, kind="stable")
    )


def test_scores_stay_in_unit_interval():
    rng = np.random.default_rng(7)
    raw = rng.random((1, 200, 5)) + 1e-6
    probs = ProbabilityStack(raw / raw.sum(axis=2, keepdims=True))
    sm, _ = max_softmax_confidence(probs)
    ent = entropy_confidence(probs)
    for scores in (sm.scores, ent.scores):
        assert scores.min() >= 0.0 and scores.max() <= 1.0


def test_measure_dispatch():
    # per_class_ause ranks by the named measure's confidence function, with
    # the max-softmax argmax as the predictions of either measure
    probs = ProbabilityStack(np.array([[[0.7, 0.3], [0.4, 0.6], [0.9, 0.1], [0.45, 0.55]]]))
    gt = LabelArray(np.array([0, 0, 1, 1]))
    catalog = ClassCatalog(("a", "b"))
    sm, pred = max_softmax_confidence(probs)
    ent = entropy_confidence(probs)
    assert sm.measure == "max_softmax" and ent.measure == "neg_entropy"
    for conf in (sm, ent):
        rows = per_class_ause(probs, gt, catalog, conf.measure)
        expected = class_curves_by_measure(pred, gt, {conf.measure: conf}, catalog, EvalConfig())
        for row, pairs in zip(rows, expected, strict=True):
            pair = pairs[conf.measure]
            assert row.ause == ause(pair) and row.relevant_count == pair.relevant_count
            assert np.array_equal(row.curves.sparsification_error, pair.sparsification_error)
    with pytest.raises(ValueError, match="unknown confidence measure 'brier'"):
        per_class_ause(probs, gt, catalog, "brier")
    # a stack of several samples is refused before any of its rows is checked
    with pytest.raises(ValueError, match="samples == 1"):
        per_class_ause(ProbabilityStack(np.full((2, 4, 2), 0.9)), gt, catalog, "max_softmax")


def test_logit_tensor_invariants():
    with pytest.raises(ValueError):
        LogitTensor(np.zeros(3))
    with pytest.raises(ValueError):
        LogitTensor(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        LogitTensor(np.zeros((2, 2)), -np.ones((2, 2)))


# Reference copies of the whole-frame computations that the block kernel
# replaced; the kernel must reproduce them bit for bit.


def reference_max_softmax(rows):
    return rows.max(axis=1).astype(np.float64), rows.argmax(axis=1)


def reference_entropy(rows):
    inv_log_k = 1.0 / math.log(rows.shape[1])
    block = rows.astype(np.float64, copy=True)
    logs = np.zeros_like(block)
    np.log(block, out=logs, where=block > 0.0)
    entropy = -np.einsum("ij,ij->i", block, logs)
    return np.clip(1.0 - entropy * inv_log_k, 0.0, 1.0)


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_AXES = (
    np.uint64(0xA0761D6478BD642F),
    np.uint64(0xE7037ED1A0B428DB),
    np.uint64(0x8EBC6AF09C88C6E3),
)


def reference_samples(logits, samples, seed):
    """The full samples x points x classes stack, built in one piece."""

    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    n, k = logits.values.shape
    with np.errstate(over="ignore"):
        z = mix(np.uint64(seed) + _GAMMA)
        for axis, (size, mult) in enumerate(zip((samples, n, k), _AXES)):
            shape = [1, 1, 1]
            shape[axis] = size
            z = mix(z ^ (np.arange(size, dtype=np.uint64).reshape(shape) * mult + _GAMMA))
    noise = ndtri((z >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54)
    noise *= logits.stddev.astype(np.float64)[None]
    noise += logits.values.astype(np.float64)[None]
    shifted = noise - noise.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


def leveled_rows(rng, n, k, dtype, levels, zero_share):
    """Rows of a few probability levels: tied maxima, zeros and -0.0."""
    raw = rng.integers(1, levels + 1, size=(n, k)).astype(np.float64)
    raw[rng.random((n, k)) < zero_share] = 0.0
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0
    rows = (raw / raw.sum(axis=1, keepdims=True)).astype(dtype)
    rows[(rows == 0.0) & (rng.random((n, k)) < 0.5)] = -0.0
    return rows


BLOCK_EDGES = [1, BLOCK_POINTS - 1, BLOCK_POINTS, BLOCK_POINTS + 1, 3 * BLOCK_POINTS + 7]


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from(BLOCK_EDGES),
    k=st.sampled_from([2, 19]),
    dtype=st.sampled_from([np.float32, np.float64]),
    levels=st.integers(1, 4),
    zero_share=st.sampled_from([0.0, 0.3, 0.7]),
)
def test_block_kernel_matches_whole_frame_reference(seed, n, k, dtype, levels, zero_share):
    rng = np.random.default_rng(seed)
    rows = leveled_rows(rng, n, k, dtype, levels, zero_share)
    probs = ProbabilityStack(rows[None])
    ref_scores, ref_pred = reference_max_softmax(rows)
    ref_entropy = reference_entropy(rows)

    conf, pred = max_softmax_confidence(probs)
    assert conf.scores.tobytes() == ref_scores.tobytes()
    assert pred.values.dtype == ref_pred.dtype
    assert np.array_equal(pred.values, ref_pred)
    assert entropy_confidence(probs).scores.tobytes() == ref_entropy.tobytes()

    # the pipeline's pooled columns are the same bits, minus ignored points
    labels = rng.integers(0, k, size=n)
    labels[rng.random(n) < 0.2] = 255
    keep = labels != 255
    if not keep.any():
        return
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    split = pool_split([ArrayFrame(LabelArray(labels), probs)], catalog)
    # max-softmax is pooled as float32 when the blocks are, as the same values
    top = split.confidences["max_softmax"].scores
    assert top.dtype == dtype
    assert top.astype(np.float64).tobytes() == ref_scores[keep].tobytes()
    assert split.confidences["neg_entropy"].scores.tobytes() == ref_entropy[keep].tobytes()
    assert np.array_equal(split.pred.values, ref_pred[keep])


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(
    seed=st.integers(0, 2**63 - 1),
    samples=st.sampled_from([1, 2, 30]),
    edge=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)]),
    k=st.sampled_from([2, 19]),
)
def test_streamed_sampler_matches_whole_stack_reference(seed, samples, edge, k):
    # sampled logits are drawn in blocks of BLOCK_POINTS // samples points;
    # n sits on, next to or well past a block edge
    step = BLOCK_POINTS // samples
    n = edge[0] * step + edge[1]
    rng = np.random.default_rng(seed % 2**32)
    logits = LogitTensor(
        (rng.normal(size=(n, k)) * 4.0).astype(np.float32),
        rng.uniform(0.0, 2.0, size=(n, k)).astype(np.float32),
    )
    reference = reference_samples(logits, samples, seed)

    stack = sample_probabilistic_logits(logits, samples, seed=seed)
    assert stack.data.tobytes() == reference.tobytes()
    mean = reference.mean(axis=0, dtype=np.float64)[None]
    assert aggregate_samples(stack).data.tobytes() == mean.tobytes()
    streamed = np.concatenate([b for _, b in predictive_blocks(logits, samples, seed)], axis=1)
    assert streamed.tobytes() == mean.tobytes()


def whole_frame_softmax(values):
    """The one-pass float64 softmax of a whole frame, which blocks must match."""
    p = values.astype(np.float64)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p[None]


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_plain_logit_blocks_match_whole_frame_softmax(dtype, n):
    # plain logits are softmaxed a block at a time, with a whole frame's bits
    rng = np.random.default_rng(n)
    values = (rng.normal(size=(n, 5)) * 6.0).astype(dtype)
    values[::3, 2] = values[::3, 0]  # tied maxima
    logits = LogitTensor(values)
    before = values.copy()
    whole = whole_frame_softmax(values)
    streamed = np.concatenate([b for _, b in predictive_blocks(logits)], axis=1)
    assert streamed.dtype == whole.dtype and streamed.tobytes() == whole.tobytes()
    assert softmax(logits).data.tobytes() == whole.tobytes()
    assert values.tobytes() == before.tobytes()

    labels = LabelArray(np.where(rng.random(n) < 0.2, 255, rng.integers(0, 5, n)))
    catalog = ClassCatalog(tuple("abcde"))
    if not (labels.values != 255).any():
        return
    split = pool_split([ArrayFrame(labels, logits=logits)], catalog)
    reference = pool_split([ArrayFrame(labels, ProbabilityStack(whole))], catalog)
    assert np.array_equal(split.pred.values, reference.pred.values)
    for m in split.confidences:
        assert split.confidences[m].scores.tobytes() == reference.confidences[m].scores.tobytes()


def test_plain_logits_with_a_late_nan_raise_before_any_block_is_drawn():
    values = np.zeros((3 * BLOCK_POINTS, 4), dtype=np.float32)
    values[2 * BLOCK_POINTS + 5, 1] = np.nan
    with pytest.raises(NonFiniteInput, match="logits contain NaN or infinite entries"):
        predictive_blocks(LogitTensor(values))
    values[2 * BLOCK_POINTS + 5, 1] = -np.inf
    with pytest.raises(NonFiniteInput):
        predictive_blocks(LogitTensor(values))


@pytest.mark.parametrize("shape", [(0, 3), (4, 0)])
def test_plain_logits_of_a_degenerate_shape_raise_when_called(shape):
    with pytest.raises(ValueError, match="degenerate stack shape"):
        predictive_blocks(LogitTensor(np.zeros(shape)))
    with pytest.raises(ValueError, match="degenerate stack shape"):
        softmax(LogitTensor(np.zeros(shape)))


def test_plain_logit_pooling_builds_no_full_frame_copy():
    # a float64 copy of the frame alone would be 152 B/pt at 19 classes
    n = 1 << 18
    rng = np.random.default_rng(9)
    frame = ArrayFrame(
        LabelArray(rng.integers(0, 19, n).astype(np.uint8)),
        logits=LogitTensor(rng.normal(size=(n, 19)).astype(np.float32)),
    )
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(19)))
    tracemalloc.start()
    try:
        pool_split([frame], catalog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 30


# The block kernel and the dequantisation once copied each float32 block to
# float64, and the dequantisation summed its rows by a matrix product; they
# now work in a worker's buffers. The copying formulas are kept here as the
# oracles the buffered ones must match bit for bit, with NaN where they have
# NaN.


def same_bits(a, b):
    """Equal dtypes, NaN at the same positions, and equal bits elsewhere."""
    nan = np.isnan(a)
    return a.dtype == b.dtype and np.array_equal(nan, np.isnan(b)) and (
        a[~nan].tobytes() == b[~nan].tobytes()
    )


def copying_reduce_block(rows):
    """The argmax, max-softmax and entropy confidence of a block, from a
    float64 copy of it and a fresh array of logarithms."""
    top = rows.argmax(axis=1)
    p = rows.astype(np.float64, copy=False)
    logs = np.where(p > 0.0, p, 1.0)
    np.log(logs, out=logs)
    entropy = -np.einsum("ij,ij->i", p, logs)
    confidence = np.clip(1.0 - entropy * (1.0 / math.log(rows.shape[1])), 0.0, 1.0)
    return top, rows[np.arange(rows.shape[0]), top], confidence


def copying_dequantized(raw):
    """Dequantised rows and their sums, through float64 rows and a matrix
    product."""
    probs = raw.astype(np.float32)
    probs /= np.float32(65535.0)
    wide = probs.astype(np.float64)
    sums = np.matmul(wide, np.ones(raw.shape[2]))
    with np.errstate(invalid="ignore", divide="ignore"):
        wide /= sums[..., None]
    return wide.astype(np.float32), sums


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 3, 19, 64, 300])
@pytest.mark.parametrize("n", [1, BLOCK_POINTS])
def test_buffered_block_kernel_keeps_the_bits_of_the_copying_one(dtype, k, n):
    rng = np.random.default_rng(k * n)
    # two levels and many zeros: exact ties, zeros and -0.0 in most rows
    rows = leveled_rows(rng, n, k, dtype, 2, 0.5)
    rows[n // 2, k // 2] = np.nan
    top, top_values, confidence = copying_reduce_block(rows)
    # the buffers first hold a whole block of other values, none of them 0,
    # so a logarithm left over from it would change the entropy
    buffers = {}
    for block in (leveled_rows(rng, BLOCK_POINTS, k, dtype, 4, 0.0), rows):
        pred, scores = score_columns(len(block), MEASURES, k, dtype == np.float32)
        _reduce_block(block, pred, scores, buffers)
    assert np.array_equal(pred, top)
    assert same_bits(scores["max_softmax"], top_values)
    assert same_bits(scores["neg_entropy"], confidence)
    assert np.isnan(scores["neg_entropy"][n // 2])
    # and without buffers, on new arrays
    pred, scores = score_columns(n, MEASURES, k, dtype == np.float32)
    _reduce_block(rows, pred, scores)
    assert same_bits(scores["neg_entropy"], confidence)


@pytest.mark.parametrize("k", [2, 3, 19, 300])
@pytest.mark.parametrize("shape", [(1, 1), (1, 3 * BLOCK_POINTS), (3, 700)])
def test_buffered_dequantisation_keeps_the_bits_of_the_copying_one(k, shape):
    rng = np.random.default_rng(k)
    raw = rng.integers(0, 65536, size=(*shape, k)).astype(np.uint16)
    raw[0, -1, : k // 2 + 1] = 65535  # a row of ties at the top code
    raw[-1, shape[1] // 2] = 0  # an all-zero row: 0 / 0 gives NaN
    probs, sums = copying_dequantized(raw)
    buffers = {}
    _dequantized(rng.integers(1, 65536, (3, BLOCK_POINTS, k)).astype(np.uint16), buffers)
    for got in (_dequantized(raw, buffers), _dequantized(raw)):
        assert same_bits(got[0], probs) and same_bits(got[1], sums)
    assert np.isnan(probs[-1, shape[1] // 2]).all() and sums[-1, shape[1] // 2] == 0.0
