import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_error_curve, pattern_instance, random_instance
from sparseval import (
    ClassCatalog,
    ConfidenceVector,
    CurvePair,
    EvalConfig,
    FractionGrid,
    LabelArray,
    ProbabilityStack,
    QuantizedStack,
    ScenarioSpec,
    ause,
    brute_force_ause,
    curve_pair,
    entropy_confidence,
    generate,
    max_softmax_confidence,
    oracle_curve,
    per_class_ause,
    relevant_subset,
    sparsification_curve,
)
from sparseval import sparsification
from sparseval.core import RANKING_DOMAINS, TIE_BREAKS
from sparseval.errors import DimensionMismatch, EmptySubset, LabelOutOfRange, SubsetTooLarge
from sparseval.pipeline import binned_ece
from sparseval.segmetrics import confusion
from sparseval.sparsification import CHUNK_POINTS, _buckets, class_curves_by_measure

CAT2 = ClassCatalog(("zero", "one"))
GRID4 = FractionGrid(4)


def hand_instance():
    # four relevant points for class 0: (TP, error, TP, error) at
    # confidences (0.9, 0.8, 0.7, 0.6)
    return pattern_instance("TETE", [0.9, 0.8, 0.7, 0.6])


def test_relevant_subset_union():
    gt = LabelArray(np.array([0, 1, 1]))
    pred = LabelArray(np.array([0, 0, 1]))
    assert relevant_subset(pred, gt, CAT2, 1).tolist() == [1, 2]
    assert relevant_subset(pred, gt, CAT2, 0).tolist() == [0, 1]


def test_relevant_subset_rejects_labels_outside_the_catalog():
    catalog = ClassCatalog(("a", "b"))
    with pytest.raises(LabelOutOfRange):
        relevant_subset(LabelArray([7, 0]), LabelArray([1, 9]), catalog, 7)
    with pytest.raises(LabelOutOfRange, match="prediction label 7 is outside 0..1"):
        relevant_subset(LabelArray([7, 0]), LabelArray([1, 255]), catalog, 0)


def test_relevant_subset_excludes_ignored_and_can_be_empty():
    gt = LabelArray(np.array([255, 0]))
    pred = LabelArray(np.array([1, 0]))
    assert relevant_subset(pred, gt, CAT2, 1).tolist() == []
    assert relevant_subset(pred, gt, CAT2, 0).tolist() == [1]


def test_fraction_grid():
    grid = FractionGrid(4)
    assert np.array_equal(grid.steps, [0.0, 0.25, 0.5, 0.75])
    assert np.array_equal(grid.removal_counts(4), [0, 1, 2, 3])
    # exact integer arithmetic, immune to binary rounding of j/G
    big = FractionGrid(100)
    assert np.array_equal(big.removal_counts(100), np.arange(100))
    with pytest.raises(ValueError, match="^grid_steps must be an integer, got 2.5"):
        FractionGrid(2.5)
    with pytest.raises(ValueError, match="^grid_steps must be at least 1"):
        FractionGrid(0)
    assert type(FractionGrid(np.int64(3)).grid_steps) is int


def test_hand_instance_curves_and_area():
    pred, gt, conf, catalog = hand_instance()
    spars = sparsification_curve(pred, gt, conf, catalog, 0, GRID4)
    orac = oracle_curve(pred, gt, catalog, 0, GRID4)
    assert spars.tolist() == [0.5, 1.0 / 3.0, 0.5, 0.0]
    assert orac.tolist() == [0.5, 1.0 / 3.0, 0.0, 0.0]
    pair = curve_pair(pred, gt, conf, catalog, 0, GRID4)
    assert ause(pair) == 0.125
    assert brute_force_ause(pred, gt, conf, catalog, 0) == pytest.approx(
        0.125, abs=1e-15
    )


def test_perfect_ranking_matches_oracle():
    # confidence 1 for true positives, 0 for errors
    pred, gt, conf, catalog = pattern_instance("TETE", [1.0, 0.0, 1.0, 0.0])
    pair = curve_pair(pred, gt, conf, catalog, 0, GRID4)
    assert np.array_equal(pair.sparsification_error, pair.oracle_error)
    assert ause(pair) == 0.0


def test_all_true_positives_flat_zero():
    pred, gt, conf, catalog = pattern_instance("TTTT", [0.9, 0.8, 0.7, 0.6])
    pair = curve_pair(pred, gt, conf, catalog, 0, GRID4)
    assert not pair.sparsification_error.any()
    assert not pair.oracle_error.any()


def test_all_incorrect_flat_curves_area_zero():
    pred, gt, conf, catalog = pattern_instance("EEEE", [0.9, 0.8, 0.7, 0.6])
    pair = curve_pair(pred, gt, conf, catalog, 0, GRID4)
    assert np.array_equal(pair.sparsification_error, np.ones(4))
    assert np.array_equal(pair.oracle_error, np.ones(4))
    assert ause(pair) == 0.0


def test_empty_subset_raises():
    gt = LabelArray(np.array([1, 1]))
    pred = LabelArray(np.array([1, 1]))
    conf = ConfidenceVector("max_softmax", np.array([0.5, 0.5]))
    with pytest.raises(EmptySubset):
        sparsification_curve(pred, gt, conf, CAT2, 0, GRID4)
    with pytest.raises(EmptySubset):
        oracle_curve(pred, gt, CAT2, 0, GRID4)
    with pytest.raises(EmptySubset):
        curve_pair(pred, gt, conf, CAT2, 0, GRID4)
    with pytest.raises(EmptySubset):
        brute_force_ause(pred, gt, conf, CAT2, 0)
    # a class index outside the catalog has no points either; -1 must not
    # wrap round to the last class, which has points
    for outside in (2, -1):
        with pytest.raises(EmptySubset):
            curve_pair(pred, gt, conf, CAT2, outside, GRID4)
        with pytest.raises(EmptySubset):
            oracle_curve(pred, gt, CAT2, outside, GRID4)
        with pytest.raises(EmptySubset):
            sparsification_curve(pred, gt, conf, CAT2, outside, GRID4)
    # the whole-catalog entry point reports the empty class as None instead
    pairs = class_curves_by_measure(pred, gt, {"max_softmax": conf}, CAT2, EvalConfig())
    assert pairs[0] is None
    assert pairs[1]["max_softmax"].relevant_count == 2


def test_brute_force_size_cap():
    pattern = "T" * 21
    pred, gt, conf, catalog = pattern_instance(pattern, np.linspace(0.1, 0.9, 21))
    with pytest.raises(SubsetTooLarge):
        brute_force_ause(pred, gt, conf, catalog, 0)


def test_brute_force_perfect_ranking_is_zero():
    pred, gt, conf, catalog = pattern_instance("TETE", [1.0, 0.0, 1.0, 0.0])
    assert brute_force_ause(pred, gt, conf, catalog, 0) == 0.0


def test_oracle_minimal_against_sampled_orders_n8():
    # every correctness pattern at n=8, each probed with sampled removal orders
    rng = np.random.default_rng(808)
    confidences = np.linspace(0.95, 0.25, 8)
    for bits in itertools.product("TE", repeat=8):
        pred, gt, conf, catalog = pattern_instance("".join(bits), confidences)
        orac = oracle_curve(pred, gt, catalog, 0, FractionGrid(8))
        gt_v = gt.values.tolist()
        pred_v = pred.values.tolist()
        for _ in range(12):
            order = rng.permutation(8).tolist()
            candidate = naive_error_curve(gt_v, pred_v, 0, order)
            assert (orac <= np.array(candidate) + 1e-12).all()


def test_fast_path_equals_brute_force_at_full_resolution():
    rng = np.random.default_rng(99)
    for _ in range(120):
        n = int(rng.integers(2, 13))
        pattern = "".join(rng.choice(["T", "E"], size=n))
        conf_values = rng.permutation(np.linspace(0.05, 0.95, n))  # tie free
        pred, gt, conf, catalog = pattern_instance(pattern, conf_values)
        pair = curve_pair(pred, gt, conf, catalog, 0, FractionGrid(n))
        assert ause(pair) == pytest.approx(
            brute_force_ause(pred, gt, conf, catalog, 0), abs=1e-12
        )


def test_oracle_dominance_and_monotonicity_random_instances():
    rng = np.random.default_rng(12345)
    for _ in range(300):
        pred, gt, conf, catalog, c = random_instance(rng)
        grid = FractionGrid(int(rng.integers(2, 50)))
        domain = "subset" if rng.random() < 0.7 else "global"
        spars = sparsification_curve(
            pred, gt, conf, catalog, c, grid, ranking_domain=domain
        )
        orac = oracle_curve(pred, gt, catalog, c, grid, ranking_domain=domain)
        assert (orac <= spars).all()
        assert (np.diff(orac) <= 0).all()


def test_rank_invariance_under_strictly_increasing_transform():
    rng = np.random.default_rng(5)
    pred, gt, conf, catalog, c = random_instance(rng, max_points=200)
    grid = FractionGrid(25)
    base = sparsification_curve(pred, gt, conf, catalog, c, grid)
    cubed = ConfidenceVector(conf.measure, conf.scores**3)
    affine = ConfidenceVector(conf.measure, 0.25 + conf.scores / 2.0)
    assert np.array_equal(
        base, sparsification_curve(pred, gt, cubed, catalog, c, grid)
    )
    assert np.array_equal(
        base, sparsification_curve(pred, gt, affine, catalog, c, grid)
    )


def test_stable_tie_break_uses_point_order():
    # all confidences equal: removal follows point index order
    pred, gt, conf, catalog = pattern_instance("ETTT", [0.5, 0.5, 0.5, 0.5])
    spars = sparsification_curve(pred, gt, conf, catalog, 0, GRID4)
    # the error point is removed first, so the curve equals the oracle
    assert np.array_equal(spars, oracle_curve(pred, gt, catalog, 0, GRID4))


def test_seeded_random_tie_break_is_deterministic():
    pred, gt, conf, catalog = pattern_instance(
        "TETE" * 5, np.full(20, 0.5)
    )
    a = sparsification_curve(
        pred, gt, conf, catalog, 0, GRID4, tie_break="seeded_random", seed=1
    )
    b = sparsification_curve(
        pred, gt, conf, catalog, 0, GRID4, tie_break="seeded_random", seed=1
    )
    assert np.array_equal(a, b)
    seen = {
        sparsification_curve(
            pred, gt, conf, catalog, 0, GRID4, tie_break="seeded_random", seed=s
        ).tobytes()
        for s in range(8)
    }
    assert len(seen) > 1
    # negative seeds are masked to 64 bits, as EvalConfig.rng_seed is
    c = sparsification_curve(
        pred, gt, conf, catalog, 0, GRID4, tie_break="seeded_random", seed=-1
    )
    d = sparsification_curve(
        pred, gt, conf, catalog, 0, GRID4, tie_break="seeded_random", seed=2**64 - 1
    )
    assert np.array_equal(c, d)
    assert EvalConfig(rng_seed=-1).rng_seed == 2**64 - 1


def test_removal_direction_on_counts():
    # with TP > 0 and errors > 0, dropping a TP raises the error and
    # dropping an error lowers it
    for tp in range(1, 6):
        for err in range(1, 6):
            here = err / (tp + err)
            assert err / (tp - 1 + err) > here if tp > 1 else True
            assert (err - 1) / (tp + err - 1) < here


def test_global_ranking_domain_reaches_zero_denominator():
    # once every relevant point is removed, the error is defined as 0
    gt = LabelArray(np.array([0, 1, 1, 1, 1, 1, 1, 1]))
    pred = LabelArray(np.array([0, 1, 1, 1, 1, 1, 1, 1]))
    conf = ConfidenceVector(
        "max_softmax", np.array([0.1, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9])
    )
    spars = sparsification_curve(
        pred, gt, conf, CAT2, 0, FractionGrid(8), ranking_domain="global"
    )
    assert spars[0] == 0.0  # single TP, no errors
    assert (spars >= 0.0).all()


def test_curve_pair_validates_invariants():
    grid = FractionGrid(2)
    with pytest.raises(ValueError):
        CurvePair(0, grid, np.array([0.1, 0.1]), np.array([0.2, 0.1]), 2)
    with pytest.raises(ValueError):
        CurvePair(0, grid, np.array([0.5, 0.5]), np.array([0.1, 0.2]), 2)
    with pytest.raises(ValueError):
        CurvePair(0, grid, np.array([1.5, 0.5]), np.array([0.1, 0.1]), 2)


def test_per_class_ause_perfect_and_anti_ranked():
    # class 0 perfectly ranked (its errors sit below all of its TPs);
    # class 1 anti ranked (its errors are its most confident points)
    gt = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    pred = np.array([0, 0, 0, 1, 1, 1, 1, 1, 0, 0])
    conf = np.array([0.95, 0.9, 0.85, 0.75, 0.775, 0.65, 0.675, 0.7, 0.8, 0.825])
    rows = np.zeros((10, 2))
    rows[np.arange(10), pred] = conf
    rows[np.arange(10), 1 - pred] = 1.0 - conf
    probs = ProbabilityStack(rows[None])
    gt_arr = LabelArray(gt)
    pred_arr = LabelArray(pred)
    conf_vec = ConfidenceVector("max_softmax", conf)
    results = per_class_ause(
        probs, gt_arr, CAT2, "max_softmax", EvalConfig(grid_steps=7)
    )
    assert results[0].ause == 0.0
    assert results[0].relevant_count == 7

    grid = FractionGrid(7)
    pair1 = curve_pair(pred_arr, gt_arr, conf_vec, CAT2, 1, grid)
    assert results[1].ause == ause(pair1)
    assert results[1].ause > 0.0
    assert ause(pair1) == pytest.approx(
        brute_force_ause(pred_arr, gt_arr, conf_vec, CAT2, 1), abs=1e-12
    )
    # the anti ranking is pointwise maximal: no removal order beats it
    subset = relevant_subset(pred_arr, gt_arr, CAT2, 1).tolist()
    spars = sparsification_curve(
        pred_arr, gt_arr, conf_vec, CAT2, 1, FractionGrid(len(subset))
    )
    for perm in itertools.permutations(subset):
        perm_curve = naive_error_curve(gt, pred, 1, list(perm))
        assert (spars >= np.array(perm_curve) - 1e-12).all()


def test_per_class_ause_absent_class_undefined():
    gt = LabelArray(np.array([0, 0]))
    probs = ProbabilityStack(np.array([[[0.9, 0.1, 0.0], [0.8, 0.2, 0.0]]]))
    catalog = ClassCatalog(("a", "b", "c"))
    results = per_class_ause(probs, gt, catalog, "max_softmax")
    assert results[2].ause is None
    assert results[2].relevant_count == 0
    assert results[2].curves is None


def test_per_class_ause_deterministic():
    rng = np.random.default_rng(21)
    raw = rng.random((1, 300, 3)) + 1e-3
    probs = ProbabilityStack(raw / raw.sum(axis=2, keepdims=True))
    gt = LabelArray(rng.integers(0, 3, size=300))
    catalog = ClassCatalog(("a", "b", "c"))
    first = per_class_ause(probs, gt, catalog, "neg_entropy")
    second = per_class_ause(probs, gt, catalog, "neg_entropy")
    assert [r.ause for r in first] == [r.ause for r in second]


def test_per_class_ause_requires_single_sample():
    probs = ProbabilityStack(np.full((2, 2, 2), 0.5))
    with pytest.raises(ValueError):
        per_class_ause(probs, LabelArray(np.array([0, 1])), CAT2, "max_softmax")


@pytest.mark.parametrize("kind", ["float32", "uint16", "float64"])
@pytest.mark.parametrize("measure", ["max_softmax", "neg_entropy"])
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_per_class_ause_equals_the_intp_and_float64_layout(kind, measure, tie_break):
    # per_class_ause holds labels as the pooled split does and max-softmax as
    # float32 for float32 blocks; its values and curves are those of intp
    # predictions and float64 scores, as the confidence functions return them
    rng = np.random.default_rng(31)
    n, k = 3000, 5
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    # rows of a few levels each, so that scores tie often
    raw = np.round(rng.random((1, n, k)) * 8) + 1
    raw /= raw.sum(axis=2, keepdims=True)
    if kind == "uint16":
        probs = QuantizedStack(np.rint(raw * 65535).astype(np.uint16))
    else:
        probs = ProbabilityStack(raw.astype(kind))
    labels = rng.integers(0, k, size=n)
    labels[::9] = catalog.ignore_index
    gt = LabelArray(labels)
    config = EvalConfig(grid_steps=40, tie_break=tie_break, rng_seed=2)
    got = per_class_ause(probs, gt, catalog, measure, config)
    conf, pred = max_softmax_confidence(probs)
    if measure == "neg_entropy":
        conf = entropy_confidence(probs)
    assert pred.values.dtype == np.intp and conf.scores.dtype == np.float64
    want = class_curves_by_measure(pred, gt, {measure: conf}, catalog, config)
    for row, pairs in zip(got, want, strict=True):
        assert row.ause == ause(pairs[measure])
        for name in ("sparsification_error", "oracle_error"):
            mine, theirs = getattr(row.curves, name), getattr(pairs[measure], name)
            assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("measure, bound", [("max_softmax", 11), ("neg_entropy", 14)])
def test_per_class_ause_holds_the_pooled_layout(measure, bound):
    # above a float32 stack and int64 labels: one-byte predictions, the
    # measure's column (max-softmax as float32 from float32 blocks, entropy
    # as float64 and no max-softmax beside it), the engine's one-byte copy of
    # the labels and its ~3 B/pt; the scores are criterion 10's scenario
    n, k = 1 << 20, 19
    rng = np.random.default_rng(0)
    freq = (np.arange(k, dtype=np.float64) + 1.0) ** 2
    spec = ScenarioSpec(
        n=n,
        class_frequencies=tuple(freq / freq.sum()),
        per_class_accuracy=tuple(0.55 + 0.4 * rng.random(k)),
        seed=1,
        confidence_spread=0.2,
    )
    gt, probs = generate(spec)
    assert probs.data.dtype == np.float32 and gt.values.dtype == np.int64
    catalog = spec.catalog()
    # one-time costs of a first call are not the function's memory
    small = ProbabilityStack(probs.data[:, :999])
    per_class_ause(small, LabelArray(gt.values[:999]), catalog, measure)
    tracemalloc.start()
    try:
        per_class_ause(probs, gt, catalog, measure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= bound


def test_curve_inputs_are_checked():
    pred, gt, conf, catalog = hand_instance()
    short_conf = ConfidenceVector("max_softmax", conf.scores[:3])
    short_pred = LabelArray(pred.values[:3])
    with pytest.raises(DimensionMismatch):
        sparsification_curve(pred, gt, short_conf, catalog, 0, GRID4)
    with pytest.raises(DimensionMismatch):
        curve_pair(pred, gt, short_conf, catalog, 0, GRID4)
    with pytest.raises(DimensionMismatch):
        class_curves_by_measure(pred, gt, {"max_softmax": short_conf}, catalog, EvalConfig())
    with pytest.raises(DimensionMismatch):
        sparsification_curve(short_pred, gt, conf, catalog, 0, GRID4)
    with pytest.raises(DimensionMismatch):
        oracle_curve(short_pred, gt, catalog, 0, GRID4)
    with pytest.raises(DimensionMismatch):
        class_curves_by_measure(short_pred, gt, {"max_softmax": conf}, catalog, EvalConfig())
    with pytest.raises(ValueError, match="tie_break"):
        sparsification_curve(pred, gt, conf, catalog, 0, GRID4, tie_break="random")
    with pytest.raises(ValueError, match="tie_break"):
        curve_pair(pred, gt, conf, catalog, 0, GRID4, tie_break="random")
    with pytest.raises(ValueError, match="ranking_domain"):
        sparsification_curve(pred, gt, conf, catalog, 0, GRID4, ranking_domain="frame")
    with pytest.raises(ValueError, match="ranking_domain"):
        oracle_curve(pred, gt, catalog, 0, GRID4, ranking_domain="frame")



@pytest.mark.parametrize("ranking_domain", RANKING_DOMAINS)
def test_curves_reject_labels_outside_the_catalog(ranking_domain):
    # prediction 7 in a two-class catalog: the global domain used to rank it
    # as a point irrelevant to class 0; an ignored point's prediction is free
    pred = LabelArray(np.array([0, 7, 1, 0, 9]))
    gt = LabelArray(np.array([0, 1, 1, 1, 255]))
    conf = ConfidenceVector("max_softmax", np.array([0.9, 0.2, 0.8, 0.4, 0.5]))
    config = EvalConfig(ranking_domain=ranking_domain)
    ranking = dict(ranking_domain=ranking_domain)
    calls = [
        lambda: class_curves_by_measure(pred, gt, {"max_softmax": conf}, CAT2, config),
        lambda: curve_pair(pred, gt, conf, CAT2, 0, GRID4, **ranking),
        lambda: sparsification_curve(pred, gt, conf, CAT2, 0, GRID4, **ranking),
        lambda: oracle_curve(pred, gt, CAT2, 0, GRID4, **ranking),
    ]
    for call in calls:
        with pytest.raises(LabelOutOfRange, match="prediction label 7 is outside 0..1"):
            call()
    # the checks keep their order: options, pred/gt length, label range,
    # then confidence length
    with pytest.raises(ValueError, match="tie_break"):
        curve_pair(pred, gt, conf, CAT2, 0, GRID4, tie_break="random", **ranking)
    with pytest.raises(DimensionMismatch, match="predictions cover 4"):
        curve_pair(LabelArray(pred.values[:4]), gt, conf, CAT2, 0, GRID4, **ranking)
    short_conf = ConfidenceVector("max_softmax", conf.scores[:4])
    with pytest.raises(LabelOutOfRange):
        curve_pair(pred, gt, short_conf, CAT2, 0, GRID4, **ranking)
    fixed = LabelArray(np.array([0, 0, 1, 0, 9]))
    assert curve_pair(fixed, gt, conf, CAT2, 0, GRID4, **ranking).relevant_count == 3

# The per-class path the single engine replaced, kept as the reference for
# stable_index ties: scan the relevant subset (or take every non-ignored
# point), stable-sort that domain by confidence, and accumulate TP and error
# counts over the order. The oracle is sorted too (errors, then irrelevant
# points, then TPs).


def _reference_errors(tp, err, grid):
    removed = grid.removal_counts(tp.size)
    cum_tp = np.concatenate(([0], np.cumsum(tp, dtype=np.int64)))
    cum_err = np.concatenate(([0], np.cumsum(err, dtype=np.int64)))
    rem_tp = cum_tp[-1] - cum_tp[removed]
    rem_err = cum_err[-1] - cum_err[removed]
    denom = rem_tp + rem_err
    return np.where(denom > 0, rem_err / np.maximum(denom, 1), 0.0)


def reference_class_curves(pred, gt, confs, catalog, config):
    grid = FractionGrid(config.grid_steps)
    g, p = gt.values, pred.values
    kept = np.flatnonzero(g != catalog.ignore_index)
    # seeded_random: every kept point ranked by perm[argsort(scores[perm])]
    # with one permutation; rank[m][i] is kept point i's place in that order
    rank = {}
    if config.tie_break == "seeded_random":
        perm = np.random.default_rng(config.rng_seed).permutation(kept.size)
        for m, conf in confs.items():
            rank[m] = np.argsort(perm[np.argsort(conf.scores[kept][perm], kind="stable")])
    out = []
    for c in range(catalog.k):
        rel = relevant_subset(pred, gt, catalog, c)
        if rel.size == 0:
            out.append(None)
            continue
        domain = rel if config.ranking_domain == "subset" else kept
        dg, dp = g[domain], p[domain]
        relevant = (dg == c) | (dp == c)
        tp, err = relevant & (dg == dp), relevant & (dg != dp)
        oracle_order = np.argsort(np.where(err, 0, np.where(tp, 2, 1)), kind="stable")
        orac = _reference_errors(tp[oracle_order], err[oracle_order], grid)
        pairs = {}
        for m, conf in confs.items():
            if rank:
                order = np.argsort(rank[m][np.searchsorted(kept, domain)])
            else:
                order = np.argsort(conf.scores[domain], kind="stable")
            pairs[m] = (_reference_errors(tp[order], err[order], grid), orac, rel.size)
        out.append(pairs)
    return out


def assert_engine_equals_reference(pred, gt, confs, catalog, config):
    got = class_curves_by_measure(pred, gt, confs, catalog, config)
    want = reference_class_curves(pred, gt, confs, catalog, config)
    assert [c is None for c in got] == [c is None for c in want]
    for pairs, ref in zip(got, want):
        if pairs is None:
            continue
        assert list(pairs) == list(ref)
        for m, pair in pairs.items():
            spars, orac, relevant = ref[m]
            assert pair.sparsification_error.tobytes() == spars.tobytes()
            assert pair.oracle_error.tobytes() == orac.tobytes()
            assert pair.relevant_count == relevant
    return got


# few levels, both zeros, and a few free values: most scores tie
_scores = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def labeled_instances(draw):
    k = draw(st.integers(2, 6))
    n = draw(st.integers(1, 40))
    # class 0 may be left out entirely; 255 is the ignore label
    gt = draw(st.lists(st.integers(1, k - 1) | st.just(255), min_size=n, max_size=n))
    pred = draw(st.lists(st.integers(1, k - 1), min_size=n, max_size=n))
    confs = {
        m: ConfidenceVector(m, np.array(draw(st.lists(_scores, min_size=n, max_size=n))))
        for m in ("max_softmax", "neg_entropy")
    }
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    return LabelArray(np.array(pred)), LabelArray(np.array(gt)), confs, catalog


@settings(max_examples=200, deadline=None)
@given(
    instance=labeled_instances(),
    grid_steps=st.integers(2, 30),
    ranking_domain=st.sampled_from(RANKING_DOMAINS),
    tie_break=st.sampled_from(TIE_BREAKS),
    seed=st.integers(0, 3),
)
def test_engine_equals_per_class_reference(instance, grid_steps, ranking_domain, tie_break, seed):
    pred, gt, confs, catalog = instance
    config = EvalConfig(
        grid_steps=grid_steps, ranking_domain=ranking_domain, tie_break=tie_break, rng_seed=seed
    )
    got = assert_engine_equals_reference(pred, gt, confs, catalog, config)
    assert got[0] is None  # no point has label or prediction 0


@settings(max_examples=200, deadline=None)
@given(instance=labeled_instances())
def test_engine_equals_brute_force_on_small_subsets(instance):
    pred, gt, confs, catalog = instance
    for c in range(catalog.k):
        relevant = relevant_subset(pred, gt, catalog, c).size
        if not 2 <= relevant <= 20:
            continue
        config = EvalConfig(grid_steps=relevant)
        pairs = class_curves_by_measure(pred, gt, confs, catalog, config)[c]
        for m, pair in pairs.items():
            assert ause(pair) == pytest.approx(
                brute_force_ause(pred, gt, confs[m], catalog, c), abs=1e-12
            )


def scored_instance(columns, k=3, seed=0, ignored=0.1):
    """Labels for the score columns (max-softmax, then neg-entropy): k
    classes, uint16 labels above 255 classes, a share of ignored points."""
    n = len(columns[0])
    rng = np.random.default_rng(seed)
    ignore, dtype = (255, np.uint8) if k <= 255 else (65535, np.uint16)
    gt = rng.integers(0, k, size=n).astype(dtype)
    pred = np.where(rng.random(n) < 0.6, gt, rng.integers(0, k, size=n)).astype(dtype)
    gt[rng.random(n) < ignored] = ignore
    confs = {
        m: ConfidenceVector(m, np.asarray(col, dtype=np.float64))
        for m, col in zip(("max_softmax", "neg_entropy"), columns)
    }
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)), ignore_index=ignore)
    return LabelArray(pred), LabelArray(gt), confs, catalog


def assert_engine_equals_reference_everywhere(instance, grid_steps=7, rng_seed=5):
    for tie_break, ranking_domain in itertools.product(TIE_BREAKS, RANKING_DOMAINS):
        config = EvalConfig(
            grid_steps=grid_steps,
            tie_break=tie_break,
            rng_seed=rng_seed,
            ranking_domain=ranking_domain,
        )
        assert_engine_equals_reference(*instance, config)


def score_column(rng, n, mode, scale):
    """n scores in [0, 1]. "free": uniform; "levels": 1-4 values; "edges":
    half uniform, half exact edges j / 2^scale of value buckets, their
    neighbouring floats on either side, 0, -0.0 and 1; "spacing":
    neighbouring floats above a base, subnormals when the base is 0."""
    if mode == "free":
        return rng.random(n)
    if mode == "spacing":
        base = rng.choice([0.5, 0.25, 1.0 - 2.0**-20, 0.0])
        return base + rng.integers(0, 41, size=n) * np.spacing(base)
    edges = rng.integers(0, (1 << scale) + 1, size=4) / float(1 << scale)
    pool = np.concatenate(
        [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), [0.0, -0.0, 1.0]]
    )
    if mode == "levels":
        pool = np.concatenate([pool, rng.random(4)])
        pool = pool[rng.integers(0, pool.size, size=rng.integers(1, 5))]
        return pool[rng.integers(0, pool.size, size=n)]
    return np.where(rng.random(n) < 0.5, rng.random(n), pool[rng.integers(0, pool.size, size=n)])


def float32_column(rng, n, mode, scale, bins):
    """n float32 scores in [0, 1]. "free": uniform; "levels": 1-4 values;
    otherwise half uniform, half edges j / 2^scale of value buckets and
    j / bins of ECE bins, their float32 neighbours on either side, 0, -0.0
    and 1."""
    free = rng.random(n).astype(np.float32)
    if mode == "free":
        return free
    buckets = rng.integers(0, (1 << scale) + 1, size=4) / float(1 << scale)
    edges = np.concatenate([buckets, rng.integers(0, bins + 1, size=4) / bins]).astype(np.float32)
    below, above = np.nextafter(edges, np.float32(0)), np.nextafter(edges, np.float32(1))
    pool = np.concatenate([edges, below, above, np.float32([0, -0.0, 1])])
    if mode == "levels":
        pool = pool[rng.integers(0, pool.size, size=rng.integers(1, 5))]
        return pool[rng.integers(0, pool.size, size=n)]
    return np.where(rng.random(n) < 0.5, free, pool[rng.integers(0, pool.size, size=n)])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 8).map(lambda k: 300 if k == 8 else k),
    ignored=st.sampled_from([0.0, 0.05, 0.3]),
    modes=st.tuples(*[st.sampled_from(["free", "levels", "edges", "spacing"])] * 2),
    scale=st.integers(0, 13),
    grid_steps=st.integers(2, 100),
    ranking_domain=st.sampled_from(RANKING_DOMAINS),
    tie_break=st.sampled_from(TIE_BREAKS),
    rng_seed=st.integers(0, 3),
    gather=st.sampled_from([sparsification.GATHER_POINTS, 64]),
    float32=st.booleans(),
    bins=st.sampled_from([7, 15, 100]),
)
def test_engine_equals_reference_on_drawn_splits(
    seed, k, ignored, modes, scale, grid_steps, ranking_domain, tie_break, rng_seed, gather,
    float32, bins,
):
    # up to 3000 points (from the seed, so that sizes spread evenly), so the
    # counts span many value buckets and the cuts land on bucket edges,
    # inside exact ties and between neighbours; a small gather floor sends
    # most windows through splits and tie counts
    n = 1 + seed % 3000
    rng = np.random.default_rng(seed)
    if float32:
        columns = [float32_column(rng, n, mode, scale, bins) for mode in modes]
    else:
        columns = [score_column(rng, n, mode, scale) for mode in modes]
    pred, gt, confs, catalog = scored_instance(columns, k, seed, ignored)
    config = EvalConfig(
        grid_steps=grid_steps, ranking_domain=ranking_domain, tie_break=tie_break, rng_seed=rng_seed
    )
    with mock.patch.object(sparsification, "GATHER_POINTS", gather):
        wide = assert_engine_equals_reference(pred, gt, confs, catalog, config)
        if not float32:
            return
        # float32 scores, kept without a copy, have the curves, AUSE and
        # ECE of their float64 casts
        narrow = {m: ConfidenceVector(m, col) for m, col in zip(confs, columns)}
        assert all(narrow[m].scores is col for m, col in zip(confs, columns))
        thin = assert_engine_equals_reference(pred, gt, narrow, catalog, config)
    assert [c is None for c in thin] == [c is None for c in wide]
    for pairs, ref in zip(thin, wide):
        for m, pair in (pairs or {}).items():
            assert pair.sparsification_error.tobytes() == ref[m].sparsification_error.tobytes()
            assert ause(pair) == ause(ref[m])
    keep = gt.values != catalog.ignore_index
    if keep.any():
        correct = (pred.values == gt.values)[keep]
        for m in confs:
            assert binned_ece(narrow[m].scores[keep], correct, bins) == binned_ece(
                confs[m].scores[keep], correct, bins
            )


def assert_engine_ranks_column(arr):
    # the column ranks both measures, once as given and once reversed, over
    # labels of three classes with ignored points
    before = arr.tobytes()
    instance = scored_instance([arr, arr[::-1]], k=3, seed=arr.size)
    assert_engine_equals_reference_everywhere(instance, grid_steps=min(max(arr.size, 2), 50))
    # the scores, the sign bit of -0.0 included, are left as they were
    assert arr.tobytes() == before


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(_scores, min_size=1, max_size=60))
def test_engine_on_drawn_score_lists(scores):
    assert_engine_ranks_column(np.array(scores))


@settings(max_examples=200, deadline=None)
@given(
    levels=st.lists(
        st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0, width=32), min_size=1, max_size=5
    ),
    picks=st.lists(st.integers(0, 4), min_size=1, max_size=300),
)
def test_engine_on_float32_ties_and_signed_zeros(levels, picks):
    # a few float32-exact levels: nearly every score ties exactly
    assert_engine_ranks_column(np.array([levels[i % len(levels)] for i in picks]))


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.integers(0, 40), min_size=1, max_size=300),
    base=st.sampled_from([0.5, 0.25, 1.0 - 2.0**-20, 0.0]),
)
def test_engine_on_neighbouring_floats(steps, base):
    # distinct scores one or a few ulps apart, subnormals when the base is 0
    assert_engine_ranks_column(base + np.array(steps, dtype=np.float64) * np.spacing(base))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 7])
def test_engine_edge_shapes(n):
    rng = np.random.default_rng(n)
    # all equal, signed zeros, a few levels, free and float32 scores, and
    # neighbouring floats, over chunk edges of the counting passes
    columns = [
        np.full(n, 0.5),
        np.where(rng.random(n) < 0.5, -0.0, 0.0),
        rng.integers(0, 4, size=n) / 4.0,
        rng.random(n),
        rng.random(n).astype(np.float32).astype(np.float64),
        0.5 + rng.integers(0, 64, size=n) * 2.0**-53,
    ]
    for pair in zip(columns[::2], columns[1::2]):
        assert_engine_equals_reference_everywhere(scored_instance(pair, k=3, seed=n))


def tie_heavy_instance(seed=3, n=400, k=4):
    rng = np.random.default_rng(seed)
    gt = rng.integers(0, k, size=n)
    gt[rng.random(n) < 0.1] = 255
    pred = np.where(rng.random(n) < 0.6, np.clip(gt, 0, k - 1), rng.integers(0, k, size=n))
    confs = {
        "max_softmax": ConfidenceVector("max_softmax", rng.integers(0, 5, size=n) / 4.0),
        "neg_entropy": ConfidenceVector("neg_entropy", rng.integers(0, 3, size=n) / 2.0),
    }
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    return LabelArray(pred), LabelArray(gt), confs, catalog


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("ranking_domain", RANKING_DOMAINS)
def test_single_class_wrappers_match_whole_catalog(tie_break, ranking_domain):
    pred, gt, confs, catalog = tie_heavy_instance()
    config = EvalConfig(
        grid_steps=23, tie_break=tie_break, rng_seed=9, ranking_domain=ranking_domain
    )
    grid = FractionGrid(config.grid_steps)
    ranking = dict(tie_break=tie_break, seed=9, ranking_domain=ranking_domain)
    every = class_curves_by_measure(pred, gt, confs, catalog, config)
    for c, pairs in enumerate(every):
        orac = oracle_curve(pred, gt, catalog, c, grid, ranking_domain=ranking_domain)
        for m, pair in pairs.items():
            single = curve_pair(pred, gt, confs[m], catalog, c, grid, **ranking)
            spars = sparsification_curve(pred, gt, confs[m], catalog, c, grid, **ranking)
            assert single.sparsification_error.tobytes() == pair.sparsification_error.tobytes()
            assert spars.tobytes() == pair.sparsification_error.tobytes()
            assert single.oracle_error.tobytes() == pair.oracle_error.tobytes()
            assert orac.tobytes() == pair.oracle_error.tobytes()
            assert single.relevant_count == pair.relevant_count


def sized_instance(n, k, seed):
    """n points over k classes, with ties, ignored points, a class with no
    point (0) and a class with exactly one relevant point (1)."""
    rng = np.random.default_rng(seed)
    ignore = 255 if k <= 255 else 65535
    gt = rng.integers(2, k, size=n)
    pred = np.where(rng.random(n) < 0.6, gt, rng.integers(2, k, size=n))
    gt[rng.random(n) < 0.05] = ignore
    gt[n // 2], pred[n // 2] = 1, 2
    scores = rng.random(n)
    tied = rng.random(n) < 0.5
    scores[tied] = rng.integers(0, 4, size=tied.sum()) / 4.0
    confs = {
        "max_softmax": ConfidenceVector("max_softmax", scores),
        "neg_entropy": ConfidenceVector("neg_entropy", rng.integers(0, 9, size=n) / 8.0),
    }
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)), ignore_index=ignore)
    return LabelArray(pred), LabelArray(gt), confs, catalog


@pytest.mark.parametrize(
    "n, k",
    [
        (159, 5),
        (160, 5),
        (CHUNK_POINTS - 1, 19),
        (CHUNK_POINTS, 19),
        (CHUNK_POINTS + 1, 19),
        (3 * CHUNK_POINTS + 5, 19),
        ((1 << 16) + 7, 19),
        (4097, 300),
        (4801, 300),
    ],
)
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("ranking_domain", RANKING_DOMAINS)
def test_engine_equals_reference_across_bucket_and_chunk_edges(n, k, tie_break, ranking_domain):
    # 159 and 160 points of 5 classes take one and two value buckets
    pred, gt, confs, catalog = sized_instance(n, k, seed=n + k)
    for grid_steps in (7, 100):
        config = EvalConfig(
            grid_steps=grid_steps, tie_break=tie_break, rng_seed=4, ranking_domain=ranking_domain
        )
        got = assert_engine_equals_reference(pred, gt, confs, catalog, config)
        assert got[0] is None
        # grid steps beyond the one relevant point all cut before it
        assert got[1]["max_softmax"].relevant_count == 1


def test_engine_counts_tens_of_thousands_of_windows():
    # 300 classes of 10^5 points on a 100-step grid: some 30 000 cut
    # windows, whose (window, rank) keys pass 2^31; the reference ranks all
    # kept points once and reads each class off that order
    n, k = 10**5, 300
    rng = np.random.default_rng(30)
    pred, gt, confs, catalog = scored_instance([rng.random(n), rng.random(n)], k, 30, 0.05)
    got = class_curves_by_measure(pred, gt, confs, catalog, EvalConfig())
    kept = gt.values != catalog.ignore_index
    grid = FractionGrid(100)
    for m, conf in confs.items():
        order = np.argsort(conf.scores[kept], kind="stable")
        g, p = gt.values[kept][order], pred.values[kept][order]
        for c in range(k):
            relevant = (g == c) | (p == c)
            tp = (g == p)[relevant] & (g[relevant] == c)
            want = _reference_errors(tp, ~tp, grid)
            assert got[c][m].sparsification_error.tobytes() == want.tobytes()


@pytest.mark.parametrize("offset", [0, 24])
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("ranking_domain", RANKING_DOMAINS)
def test_engine_cuts_on_bucket_edges(offset, tie_break, ranking_domain):
    # 6400 points of 4 classes take 256 value buckets of 25 points each, in
    # point order; a 256-step grid cuts every global ranking on a bucket
    # edge, and class 1 has one relevant point per bucket at the same
    # offset, so every subset cut falls on an edge of that class too
    n, grid_steps = 6400, 256
    assert _buckets(4, n) == grid_steps
    rng = np.random.default_rng(offset)
    gt = rng.integers(2, 4, size=n)
    pred = np.where(rng.random(n) < 0.7, gt, rng.integers(2, 4, size=n))
    edges = np.arange(offset, n, n // grid_steps)
    gt[edges] = np.where(rng.random(edges.size) < 0.5, 1, gt[edges])
    pred[edges] = np.where(gt[edges] == 1, rng.integers(1, 3, size=edges.size), 1)
    scores = np.arange(n) / n
    confs = {m: ConfidenceVector(m, scores) for m in ("max_softmax", "neg_entropy")}
    catalog = ClassCatalog(("c0", "c1", "c2", "c3"))
    config = EvalConfig(
        grid_steps=grid_steps, tie_break=tie_break, rng_seed=2, ranking_domain=ranking_domain
    )
    got = assert_engine_equals_reference(LabelArray(pred), LabelArray(gt), confs, catalog, config)
    assert got[1]["max_softmax"].relevant_count == edges.size


@pytest.mark.parametrize(
    "scores, ignored", [("random", False), ("three levels", False), ("all equal", False),
                        ("random", True)]
)
def test_engine_memory_per_point(scores, ignored):
    # the count tables, the gathered members of the cut windows and chunk
    # temporaries: nothing the size of the split but the inputs. With
    # ignored points the engine also holds the keep mask, the kept labels,
    # cast to one byte each even from int64, and one measure's kept scores
    n, k = 1 << 20, 19
    rng = np.random.default_rng(8)
    gt = rng.integers(0, k, size=n).astype(np.int64 if ignored else np.uint8)
    pred = np.where(rng.random(n) < 0.7, gt, rng.integers(0, k, size=n)).astype(gt.dtype)
    if ignored:
        gt[rng.random(n) < 0.1] = 255
    column = {
        "random": lambda: rng.random(n).astype(np.float32).astype(np.float64),
        "three levels": lambda: rng.integers(0, 3, size=n) / 2.0,
        "all equal": lambda: np.full(n, 0.5),
    }[scores]
    confs = {m: ConfidenceVector(m, column()) for m in ("max_softmax", "neg_entropy")}
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    counts = confusion(LabelArray(pred), LabelArray(gt), catalog)
    # one-time costs of a first call (lazily imported numpy modules, say)
    # are not the engine's memory
    small = {m: ConfidenceVector(m, c.scores[:999]) for m, c in confs.items()}
    class_curves_by_measure(
        LabelArray(pred[:999]), LabelArray(gt[:999]), small, catalog, EvalConfig()
    )
    for ranking_domain in RANKING_DOMAINS:
        config = EvalConfig(ranking_domain=ranking_domain)
        tracemalloc.start()
        try:
            class_curves_by_measure(
                LabelArray(pred), LabelArray(gt), confs, catalog, config, _counts=counts
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 4 + ignored * (1 + 2 + 8)


def test_engine_copies_no_label_column_at_256_classes():
    # one byte holds every class index up to 256 classes, so the engine keeps
    # the pooled uint8 columns at 256 classes as at 255
    n = 1 << 21
    rng = np.random.default_rng(6)
    peaks = {}
    for k in (255, 256):
        gt = rng.integers(0, k, size=n).astype(np.uint8)
        pred = np.where(rng.random(n) < 0.7, gt, rng.integers(0, k, size=n)).astype(np.uint8)
        confs = {"max_softmax": ConfidenceVector("max_softmax", rng.random(n))}
        catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)), ignore_index=-1)
        counts = confusion(LabelArray(pred), LabelArray(gt), catalog)
        small = {"max_softmax": ConfidenceVector("max_softmax", confs["max_softmax"].scores[:999])}
        class_curves_by_measure(
            LabelArray(pred[:999]), LabelArray(gt[:999]), small, catalog, EvalConfig()
        )
        tracemalloc.start()
        try:
            class_curves_by_measure(
                LabelArray(pred), LabelArray(gt), confs, catalog, EvalConfig(), _counts=counts
            )
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[256] <= 1.1 * peaks[255]


def test_seeded_random_adds_only_the_permutation_to_the_engine_peak():
    # ranking scores[perm] builds neither a permuted copy of the scores nor
    # a second order array, so the shared 8 B/pt permutation is the only
    # full-length array that seeded_random adds
    n, k = 1 << 18, 19
    rng = np.random.default_rng(8)
    gt = rng.integers(0, k, size=n).astype(np.uint8)
    pred = np.where(rng.random(n) < 0.7, gt, rng.integers(0, k, size=n)).astype(np.uint8)
    confs = {
        m: ConfidenceVector(m, rng.random(n).astype(np.float32).astype(np.float64))
        for m in ("max_softmax", "neg_entropy")
    }
    catalog = ClassCatalog(tuple(f"c{i}" for i in range(k)))
    peaks = {}
    for tie_break in TIE_BREAKS:
        tracemalloc.start()
        try:
            class_curves_by_measure(
                LabelArray(pred), LabelArray(gt), confs, catalog, EvalConfig(tie_break=tie_break)
            )
            peaks[tie_break] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # 64 KiB for the generator and Python objects, 0.25 B/pt at this size
    assert peaks["seeded_random"] <= peaks["stable_index"] + 8 * n + (64 << 10)
