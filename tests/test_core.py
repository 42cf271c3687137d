import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseval import (
    ClassCatalog,
    ConfidenceVector,
    EvalConfig,
    FractionGrid,
    LabelArray,
    ProbabilityStack,
    QuantizedStack,
    pool_split,
    validate_inputs,
)
from sparseval.core import ROW_SUM_TOL, check_distribution
from sparseval.errors import (
    DimensionMismatch,
    LabelOutOfRange,
    NonFiniteInput,
    NotADistribution,
    UnknownClass,
)


def test_valid_minimal_bundle():
    probs = ProbabilityStack(np.tile([0.2, 0.3, 0.5], (1, 4, 1)))
    gt = LabelArray(np.array([1, 0, 2, 255]))
    catalog = ClassCatalog(("a", "b", "c"))
    assert validate_inputs(probs, gt, catalog) is None


def test_row_sum_violation_reports_first_point():
    probs = ProbabilityStack(np.array([[[0.5, 0.5, 0.5], [0.2, 0.3, 0.5]]]))
    gt = LabelArray(np.array([0, 1]))
    with pytest.raises(NotADistribution, match="point 0"):
        validate_inputs(probs, gt, ClassCatalog(("a", "b", "c")))


def test_label_out_of_range():
    probs = ProbabilityStack(np.tile([0.2, 0.3, 0.5], (1, 1, 1)))
    gt = LabelArray(np.array([7]))
    with pytest.raises(LabelOutOfRange):
        validate_inputs(probs, gt, ClassCatalog(("a", "b", "c")))


def test_negative_label_rejected():
    probs = ProbabilityStack(np.tile([0.5, 0.5], (1, 2, 1)))
    with pytest.raises(LabelOutOfRange):
        validate_inputs(
            probs, LabelArray(np.array([0, -1])), ClassCatalog(("a", "b"))
        )


def test_point_count_mismatch():
    probs = ProbabilityStack(np.tile([0.5, 0.5], (1, 3, 1)))
    gt = LabelArray(np.array([0, 1]))
    with pytest.raises(DimensionMismatch):
        validate_inputs(probs, gt, ClassCatalog(("a", "b")))


def test_class_count_mismatch():
    probs = ProbabilityStack(np.tile([0.5, 0.5], (1, 2, 1)))
    gt = LabelArray(np.array([0, 1]))
    with pytest.raises(DimensionMismatch):
        validate_inputs(probs, gt, ClassCatalog(("a", "b", "c")))


def test_value_outside_unit_interval():
    probs = ProbabilityStack(np.array([[[1.2, -0.2]]]))
    with pytest.raises(NotADistribution, match="outside"):
        validate_inputs(probs, LabelArray(np.array([0])), ClassCatalog(("a", "b")))


def test_row_sum_tolerance_accepts_float32_roundoff():
    rows = np.full((1, 5, 4), 0.25, dtype=np.float32)
    rows[0, 0] = np.array([0.1, 0.2, 0.3, 0.4], dtype=np.float32)
    probs = ProbabilityStack(rows)
    gt = LabelArray(np.zeros(5, dtype=np.int64))
    validate_inputs(probs, gt, ClassCatalog(("a", "b", "c", "d")))


def exact_row_rule(start, block):
    """``check_distribution``'s message for a block, by its float64 rule
    alone; None if the block passes."""
    lo, hi = float(block.min()), float(block.max())
    if lo < 0.0 or hi > 1.0:
        s, i, c = (int(v) for v in np.argwhere((block < 0.0) | (block > 1.0))[0])
        return f"value {block[s, i, c]} outside [0, 1] at sample {s}, point {i + start}, class {c}"
    sums = block.sum(axis=2, dtype=np.float64)
    off = (np.abs(sums - 1.0) > ROW_SUM_TOL) | ~np.isfinite(sums)
    if off.any():
        s, i = (int(v) for v in np.argwhere(off)[0])
        return f"row sum {float(sums[s, i])} at sample {s}, point {i + start}"
    return None


def row_check_outcome(start, block):
    try:
        check_distribution(start, block)
    except NotADistribution as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("classes", [1, 2, 19])
def test_row_sum_screen_decides_as_the_exact_rule(dtype, classes):
    # rows scaled to sums spread across both edges of the tolerance band:
    # 1 +- (tol +- 1e-7), 1 +- the screen's margin, and random sums within
    # 2 tol of 1, each checked alone and among valid rows
    rng = np.random.default_rng(classes)
    margin = ROW_SUM_TOL - 2 * classes * float(np.finfo(dtype).eps)
    offsets = [ROW_SUM_TOL + d for d in (-1e-7, 0.0, 1e-7)] + [margin, 0.0]
    offsets += [s * o for s in (1, -1) for o in offsets]
    offsets += list(rng.uniform(-2 * ROW_SUM_TOL, 2 * ROW_SUM_TOL, 400))
    rows = rng.random((len(offsets), classes)) + 0.05
    rows *= (1.0 + np.array(offsets))[:, None] / rows.sum(axis=1, keepdims=True)
    rows = rows.astype(dtype)
    rows[-1, 0] = np.nan
    outcomes = []
    for i, row in enumerate(rows):
        block = np.full((2, 3, classes), 1.0 / classes, dtype=dtype)
        block[1, 2] = row
        for start, b in ((i, block[1:, 2:]), (7, block)):
            want = exact_row_rule(start, b)
            assert row_check_outcome(start, b) == want
            outcomes.append(want)
    # both verdicts occur, NaN and the 1-class rows included
    assert None in outcomes
    assert any(o and o.startswith("row sum") for o in outcomes)
    assert any(o and o.startswith("row sum nan") for o in outcomes)


def test_catalog_invariants():
    with pytest.raises(ValueError):
        ClassCatalog(("only",))
    with pytest.raises(ValueError):
        ClassCatalog(("dup", "dup"))
    with pytest.raises(ValueError):
        ClassCatalog(("a", "b"), ignore_index=1)
    for bad in (2.5, math.nan):
        with pytest.raises(ValueError, match="^ignore_index must be an integer"):
            ClassCatalog(("a", "b"), ignore_index=bad)
    cat = ClassCatalog(("a", "b"), ignore_index=255)
    assert cat.k == 2
    assert cat.index_of("b") == 1
    with pytest.raises(UnknownClass):
        cat.index_of("missing")


def test_label_array_invariants():
    with pytest.raises(ValueError):
        LabelArray(np.array([0.5]))
    with pytest.raises(ValueError):
        LabelArray(np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        LabelArray(np.zeros((2, 2), dtype=np.int64))


def test_probability_stack_shape():
    with pytest.raises(ValueError):
        ProbabilityStack(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "array, message",
    [
        (np.zeros((1, 2, 3), dtype=np.float32), "holds uint16 values, not float32"),
        (np.zeros((1, 2, 3), dtype=np.int16), "holds uint16 values, not int16"),
        (np.zeros((2, 3), dtype=np.uint16), "samples x points x classes"),
        (np.zeros((1, 0, 3), dtype=np.uint16), "degenerate stack shape"),
    ],
)
def test_quantized_stack_holds_a_uint16_stack(array, message):
    with pytest.raises(ValueError, match=message):
        QuantizedStack(array)
    stack = QuantizedStack(np.zeros((4, 5, 3), dtype=np.uint16))
    assert (stack.samples, stack.points, stack.classes) == (4, 5, 3)


def test_confidence_vector_range():
    with pytest.raises(ValueError):
        ConfidenceVector("max_softmax", np.array([1.2]))
    with pytest.raises(ValueError):
        ConfidenceVector("nonsense", np.array([0.5]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteInput):
            ConfidenceVector("max_softmax", np.array([0.5, bad, 0.2]))


def test_config_invariants():
    cfg = EvalConfig()
    assert cfg.grid_steps == 100
    assert cfg.iou_filter_threshold == 0.03
    assert cfg.ece_bins == 15
    assert cfg.tie_break == "stable_index"
    assert cfg.ranking_domain == "subset"
    for bad in (
        dict(grid_steps=1),
        dict(iou_filter_threshold=1.0),
        dict(iou_filter_threshold=-0.1),
        dict(ece_bins=0),
        dict(tie_break="alphabetical"),
        dict(ranking_domain="frame"),
    ):
        with pytest.raises(ValueError):
            EvalConfig(**bad)
    # an integer is never truncated from a float or parsed from a string,
    # a real must be a finite number, and a bool is neither
    for name, bad in (
        ("grid_steps", 2.5),
        ("grid_steps", math.nan),
        ("ece_bins", 2.5),
        ("ece_bins", True),
        ("iou_filter_threshold", False),
        ("rng_seed", 1.7),
        ("rng_seed", "5"),
        ("iou_filter_threshold", "0.5"),
        ("iou_filter_threshold", math.nan),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an? (integer|finite number), got"):
            EvalConfig(**{name: bad})


def test_a_bool_is_no_integer_setting():
    # True would pass operator.index as 1
    with pytest.raises(ValueError, match="^grid_steps must be an integer, got True$"):
        FractionGrid(True)
    with pytest.raises(ValueError, match="^threads must be an integer, got True$"):
        pool_split([], ClassCatalog(("a", "b")), threads=True)


def test_config_seed_masked_to_64_bits():
    cfg = EvalConfig(rng_seed=-1)
    assert cfg.rng_seed == (1 << 64) - 1


def _valid_bundle(rng, n, k):
    raw = rng.random((1, n, k)) + 1e-3
    probs = ProbabilityStack(raw / raw.sum(axis=2, keepdims=True))
    labels = rng.integers(0, k, size=n)
    labels[rng.random(n) < 0.1] = 255
    return probs, LabelArray(labels), ClassCatalog(tuple(f"c{i}" for i in range(k)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    k=st.integers(2, 6),
    corruption=st.sampled_from(["row_sum", "negative", "label_high", "label_low"]),
)
def test_single_invariant_corruption_is_always_caught(seed, n, k, corruption):
    rng = np.random.default_rng(seed)
    probs, gt, catalog = _valid_bundle(rng, n, k)
    validate_inputs(probs, gt, catalog)

    data = probs.data.copy()
    labels = gt.values.copy()
    point = int(rng.integers(0, n))
    if corruption == "row_sum":
        data[0, point, 0] += 0.5
        expected = NotADistribution
    elif corruption == "negative":
        shift = data[0, point, 0] + 0.25
        data[0, point, 0] = -0.25
        data[0, point, 1] += shift  # keeps the row sum, breaks the range
        expected = NotADistribution
    elif corruption == "label_high":
        labels[point] = k
        expected = LabelOutOfRange
    else:
        labels[point] = -3
        expected = LabelOutOfRange
    with pytest.raises(expected):
        validate_inputs(ProbabilityStack(data), LabelArray(labels), catalog)


def test_validation_is_side_effect_free():
    rng = np.random.default_rng(0)
    probs, gt, catalog = _valid_bundle(rng, 17, 3)
    before_probs = probs.data.copy()
    before_gt = gt.values.copy()
    validate_inputs(probs, gt, catalog)
    validate_inputs(probs, gt, catalog)
    assert np.array_equal(probs.data, before_probs)
    assert np.array_equal(gt.values, before_gt)
