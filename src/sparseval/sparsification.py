"""Per-class sparsification and oracle curves over confidence rankings.

For a class c, only points whose ground truth or prediction equals c can
change IoU_c; that set is the class-relevant subset. Points are removed in
order of increasing confidence, and after each removal step the remaining
IoU_c error (1 - IoU_c) is recorded. The oracle curve removes the incorrect
points first, which is the best possible order, so the area between the two
curves measures how close the confidence ranking comes to ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confidence import confidence_for_measure
from .core import (
    ClassCatalog,
    ConfidenceVector,
    EvalConfig,
    LabelArray,
    ProbabilityStack,
    RANKING_DOMAINS,
    TIE_BREAKS,
    validate_inputs,
)
from .errors import DimensionMismatch, EmptySubset, SubsetTooLarge

BRUTE_FORCE_MAX_POINTS = 20


@dataclass(frozen=True)
class FractionGrid:
    """Removal fractions j / grid_steps for j = 0 .. grid_steps - 1."""

    grid_steps: int

    def __post_init__(self):
        if self.grid_steps < 1:
            raise ValueError("grid_steps must be positive")

    @property
    def steps(self) -> np.ndarray:
        return np.arange(self.grid_steps, dtype=np.float64) / self.grid_steps

    def removal_counts(self, n: int) -> np.ndarray:
        # floor(j/G * n) computed in exact integer arithmetic
        return (np.arange(self.grid_steps, dtype=np.int64) * n) // self.grid_steps


@dataclass(frozen=True)
class CurvePair:
    """Sparsification and oracle errors of one class on a shared grid."""

    class_index: int
    grid: FractionGrid
    sparsification_error: np.ndarray
    oracle_error: np.ndarray
    relevant_count: int

    def __post_init__(self):
        spars = np.asarray(self.sparsification_error, dtype=np.float64)
        orac = np.asarray(self.oracle_error, dtype=np.float64)
        if spars.shape != (self.grid.grid_steps,) or orac.shape != spars.shape:
            raise ValueError("curve arrays must match the fraction grid")
        for arr in (spars, orac):
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise ValueError("curve errors must lie in [0, 1]")
        if (orac > spars).any():
            raise ValueError("oracle error may never exceed the sparsification error")
        if (np.diff(orac) > 0).any():
            raise ValueError("oracle error must be non-increasing")
        object.__setattr__(self, "sparsification_error", spars)
        object.__setattr__(self, "oracle_error", orac)


@dataclass(frozen=True)
class ClassAuse:
    """Per-class outcome: area value, subset size, and the underlying curves."""

    class_index: int
    name: str
    ause: float | None
    relevant_count: int
    curves: CurvePair | None


def relevant_subset(
    pred: LabelArray, gt: LabelArray, catalog: ClassCatalog, class_index: int
) -> np.ndarray:
    """Indices whose ground truth or prediction equals the class, ignores excluded."""
    if len(pred) != len(gt):
        raise DimensionMismatch(
            f"predictions cover {len(pred)} points but labels cover {len(gt)}"
        )
    g = gt.values
    mask = (g != catalog.ignore_index) & ((g == class_index) | (pred.values == class_index))
    return np.flatnonzero(mask)


def _class_flags(
    pred: LabelArray, gt: LabelArray, catalog: ClassCatalog, class_index: int, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(is_tp, is_error) for class_index over the points listed in idx."""
    g = gt.values[idx]
    p = pred.values[idx]
    relevant = (g != catalog.ignore_index) & ((g == class_index) | (p == class_index))
    tp = relevant & (g == p)
    err = relevant & (g != p)
    return tp, err


def _errors_over_removals(
    tp: np.ndarray, err: np.ndarray, grid: FractionGrid
) -> np.ndarray:
    """Remaining-IoU error after removing each grid prefix of the given order."""
    removed = grid.removal_counts(tp.size)
    cum_tp = np.concatenate(([0], np.cumsum(tp, dtype=np.int64)))
    cum_err = np.concatenate(([0], np.cumsum(err, dtype=np.int64)))
    return _remaining_error(cum_tp[-1] - cum_tp[removed], cum_err[-1] - cum_err[removed])


def _remaining_error(rem_tp: np.ndarray, rem_err: np.ndarray) -> np.ndarray:
    """IoU error err / (tp + err) of the points left at each grid step."""
    denom = rem_tp + rem_err
    errors = np.zeros(denom.size, dtype=np.float64)
    live = denom > 0
    # err/(tp+err) rather than 1 - tp/(tp+err): one rounding, and rounding is
    # monotone, so oracle dominance holds exactly in floating point
    errors[live] = rem_err[live] / denom[live]
    return errors


def _ranking_indices(
    pred: LabelArray,
    gt: LabelArray,
    catalog: ClassCatalog,
    class_index: int,
    ranking_domain: str,
) -> np.ndarray:
    if ranking_domain not in RANKING_DOMAINS:
        raise ValueError(f"ranking_domain must be one of {RANKING_DOMAINS}")
    rel = relevant_subset(pred, gt, catalog, class_index)
    if rel.size == 0:
        raise EmptySubset(
            f"class {class_index} has no ground-truth or predicted points"
        )
    if ranking_domain == "subset":
        return rel
    return np.flatnonzero(gt.values != catalog.ignore_index)


def sparsification_curve(
    pred: LabelArray,
    gt: LabelArray,
    conf: ConfidenceVector,
    catalog: ClassCatalog,
    class_index: int,
    grid: FractionGrid,
    *,
    tie_break: str = "stable_index",
    seed: int = 0,
    ranking_domain: str = "subset",
) -> np.ndarray:
    """Error curve under the confidence ranking, lowest confidence removed first.

    Depends on the ranking only: any strictly increasing transform of the
    scores leaves the curve unchanged. Ties keep point-index order by
    default; "seeded_random" shuffles the ranked points before the stable
    sort so tie-induced bias can be measured.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    if len(conf) != len(gt):
        raise DimensionMismatch(
            f"confidence covers {len(conf)} points but labels cover {len(gt)}"
        )
    domain = _ranking_indices(pred, gt, catalog, class_index, ranking_domain)
    if tie_break == "seeded_random":
        rng = np.random.default_rng(seed)
        domain = domain[rng.permutation(domain.size)]
    order = domain[np.argsort(conf.scores[domain], kind="stable")]
    tp, err = _class_flags(pred, gt, catalog, class_index, order)
    return _errors_over_removals(tp, err, grid)


def oracle_curve(
    pred: LabelArray,
    gt: LabelArray,
    catalog: ClassCatalog,
    class_index: int,
    grid: FractionGrid,
    *,
    ranking_domain: str = "subset",
) -> np.ndarray:
    """Error curve under the best possible order: incorrect points first."""
    domain = _ranking_indices(pred, gt, catalog, class_index, ranking_domain)
    tp, err = _class_flags(pred, gt, catalog, class_index, domain)
    n, n_tp, n_err = domain.size, np.count_nonzero(tp), np.count_nonzero(err)
    removed = grid.removal_counts(n)
    # errors go first, then points irrelevant to the class, then true positives
    return _remaining_error(
        n_tp - np.maximum(0, removed - (n - n_tp)), n_err - np.minimum(removed, n_err)
    )


def curve_pair(
    pred: LabelArray,
    gt: LabelArray,
    conf: ConfidenceVector,
    catalog: ClassCatalog,
    class_index: int,
    grid: FractionGrid,
    *,
    tie_break: str = "stable_index",
    seed: int = 0,
    ranking_domain: str = "subset",
) -> CurvePair:
    """Both curves of one class over a shared grid."""
    spars = sparsification_curve(
        pred,
        gt,
        conf,
        catalog,
        class_index,
        grid,
        tie_break=tie_break,
        seed=seed,
        ranking_domain=ranking_domain,
    )
    orac = oracle_curve(
        pred, gt, catalog, class_index, grid, ranking_domain=ranking_domain
    )
    rel = relevant_subset(pred, gt, catalog, class_index)
    return CurvePair(class_index, grid, spars, orac, int(rel.size))


def ause(curves: CurvePair) -> float:
    """Mean gap between the sparsification and oracle curves; 0 is perfect."""
    return float(np.mean(curves.sparsification_error - curves.oracle_error))


def brute_force_ause(
    pred: LabelArray,
    gt: LabelArray,
    conf: ConfidenceVector,
    catalog: ClassCatalog,
    class_index: int,
) -> float:
    """Reference value from explicit single-point removals; test use only.

    Re-evaluates IoU_c from the raw labels after every removal instead of
    using cumulative counts, with one grid step per subset point. Kept
    deliberately naive and independent of the fast path.
    """
    g = [int(v) for v in gt.values]
    p = [int(v) for v in pred.values]
    s = [float(v) for v in conf.scores]
    if len(p) != len(g) or len(s) != len(g):
        raise DimensionMismatch("labels, predictions, and confidence must align")
    c = class_index
    subset = [
        i
        for i in range(len(g))
        if g[i] != catalog.ignore_index and (g[i] == c or p[i] == c)
    ]
    if not subset:
        raise EmptySubset(f"class {c} has no ground-truth or predicted points")
    if len(subset) > BRUTE_FORCE_MAX_POINTS:
        raise SubsetTooLarge(
            f"{len(subset)} relevant points exceed the brute-force cap of "
            f"{BRUTE_FORCE_MAX_POINTS}"
        )

    def iou_error(remaining: list[int]) -> float:
        tp = sum(1 for i in remaining if g[i] == c and p[i] == c)
        fp = sum(1 for i in remaining if p[i] == c and g[i] != c)
        fn = sum(1 for i in remaining if g[i] == c and p[i] != c)
        denom = tp + fp + fn
        return 0.0 if denom == 0 else 1.0 - tp / denom

    by_confidence = sorted(subset, key=lambda i: (s[i], i))
    by_oracle = sorted(subset, key=lambda i: (0 if g[i] != p[i] else 1, i))
    n = len(subset)
    spars = [iou_error(by_confidence[m:]) for m in range(n)]
    orac = [iou_error(by_oracle[m:]) for m in range(n)]
    return sum(a - b for a, b in zip(spars, orac)) / n


def class_curves_by_measure(
    pred: LabelArray,
    gt: LabelArray,
    confs: dict[str, ConfidenceVector],
    catalog: ClassCatalog,
    config: EvalConfig,
) -> list[dict[str, CurvePair] | None]:
    """CurvePairs for every catalog class under each supplied confidence.

    The oracle curve does not depend on the measure and is computed once per
    class. Classes with empty relevant subsets yield None.
    """
    grid = FractionGrid(config.grid_steps)
    out: list[dict[str, CurvePair] | None] = []
    for class_index in range(catalog.k):
        rel = relevant_subset(pred, gt, catalog, class_index)
        if rel.size == 0:
            out.append(None)
            continue
        orac = oracle_curve(
            pred,
            gt,
            catalog,
            class_index,
            grid,
            ranking_domain=config.ranking_domain,
        )
        pairs: dict[str, CurvePair] = {}
        for measure, conf in confs.items():
            spars = sparsification_curve(
                pred,
                gt,
                conf,
                catalog,
                class_index,
                grid,
                tie_break=config.tie_break,
                seed=config.rng_seed,
                ranking_domain=config.ranking_domain,
            )
            pairs[measure] = CurvePair(class_index, grid, spars, orac, int(rel.size))
        out.append(pairs)
    return out


def per_class_ause(
    probs: ProbabilityStack,
    gt: LabelArray,
    catalog: ClassCatalog,
    measure: str,
    config: EvalConfig | None = None,
) -> list[ClassAuse]:
    """Run the full chain per class: argmax, confidence, subset, curves, area."""
    config = config or EvalConfig()
    validate_inputs(probs, gt, catalog)
    if probs.samples != 1:
        raise ValueError("per_class_ause expects an aggregated stack (samples == 1)")
    conf, pred = confidence_for_measure(probs, measure)
    curves = class_curves_by_measure(pred, gt, {measure: conf}, catalog, config)
    results = []
    for class_index, name in enumerate(catalog.names):
        pairs = curves[class_index]
        if pairs is None:
            results.append(ClassAuse(class_index, name, None, 0, None))
        else:
            pair = pairs[measure]
            results.append(
                ClassAuse(class_index, name, ause(pair), pair.relevant_count, pair)
            )
    return results
