"""Per-class sparsification and oracle curves over confidence rankings.

For a class c, only points whose ground truth or prediction equals c can
change IoU_c; that set is the class-relevant subset. Points are removed in
order of increasing confidence, and after each removal step the remaining
IoU_c error (1 - IoU_c) is recorded. The oracle curve removes the incorrect
points first, which is the best possible order, so the area between the two
curves measures how close the confidence ranking comes to ground truth.

One engine computes every curve. It drops ignored points once and ranks
each confidence measure once, stably, over all remaining points, with one
sort of unique 64-bit keys. Scores lie in [0, 1], and such float64 values
order as their bit patterns, which stay below 2^62 but for the sign bit of
-0.0. A key holds bits 61 down to b - 2 of the pattern above a b-bit point
index, b = max(bit length of n - 1, 2), so exact ties keep index order with
no repair. Only distinct scores that share a key prefix (never float32-exact
ones while n <= 2^31) need a second, stable sort, of the runs of equal
prefixes where they are misranked. Each class then reads its relevant
points, already in ranking order, from the labels gathered into that
order: restricting the one order to a class is the same as sorting the
class on its own. The oracle curve is closed-form in the class's
true-positive and error counts, so it needs no sort.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .confidence import predictive_blocks, reduce_blocks
from .core import (
    ClassCatalog,
    ConfidenceVector,
    EvalConfig,
    LabelArray,
    MEASURES,
    ProbabilityStack,
    RANKING_DOMAINS,
    SEED_MASK,
    TIE_BREAKS,
    checked_blocks,
)
from .errors import DimensionMismatch, EmptySubset, SubsetTooLarge
from .segmetrics import confusion

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
    """Indices whose ground truth or prediction equals the class, ignores excluded.

    The labels are checked as ``confusion`` checks them.
    """
    confusion(pred, gt, catalog)
    g = gt.values
    mask = (g != catalog.ignore_index) & ((g == class_index) | (pred.values == class_index))
    return np.flatnonzero(mask)


def _errors_over_removals(tp: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """Remaining-IoU error after removing each count of ranked relevant points.

    ``tp`` flags the class's relevant points in ranking order (every other
    relevant point is an error); ``removed`` holds how many of them are gone
    at each grid step.
    """
    cum_tp = np.concatenate(([0], np.cumsum(tp, dtype=np.int64)))
    n_tp, removed_tp = cum_tp[-1], cum_tp[removed]
    return _remaining_error(n_tp - removed_tp, (tp.size - n_tp) - (removed - removed_tp))


def _remaining_error(rem_tp: np.ndarray, rem_err: np.ndarray) -> np.ndarray:
    """IoU error err / (tp + err) of the points left at each grid step."""
    denom = rem_tp + rem_err
    errors = np.zeros(denom.size, dtype=np.float64)
    live = denom > 0
    # err/(tp+err) rather than 1 - tp/(tp+err): one rounding, and rounding is
    # monotone, so oracle dominance holds exactly in floating point
    errors[live] = rem_err[live] / denom[live]
    return errors


def _oracle_error(n: int, n_tp: int, n_err: int, grid: FractionGrid) -> np.ndarray:
    """Error curve over a domain of n points when the best order removes them."""
    removed = grid.removal_counts(n)
    # errors go first, then points irrelevant to the class, then true positives
    return _remaining_error(
        n_tp - np.maximum(0, removed - (n - n_tp)), n_err - np.minimum(removed, n_err)
    )


# points per block when keys are numbered or neighbouring keys compared
_BLOCK = 1 << 16


def _stable_order(scores: np.ndarray) -> np.ndarray:
    """``np.argsort(scores, kind="stable")`` for scores in [0, 1], bit for bit.

    One sort of unique keys, bits 61 to b - 2 of the score's float64 pattern
    over a b-bit index, b = max(bit length of n - 1, 2), then a stable
    re-sort of each run of equal prefixes that it misranks.
    """
    n = scores.size
    b = max((n - 1).bit_length(), 2)
    keys = scores.astype(np.float64).view(np.uint64)  # a copy: scores stay as they are
    keys >>= np.uint64(b - 2)
    keys <<= np.uint64(b)  # shifts out the sign bit: -0.0 keys as +0.0
    for lo in range(0, n, _BLOCK):
        keys[lo : lo + _BLOCK] |= np.arange(lo, min(lo + _BLOCK, n), dtype=np.uint64)
    keys.sort()
    tie = np.zeros(n + 1, dtype=bool)  # tie[i]: positions i - 1 and i share a prefix
    for lo in range(1, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        np.less(keys[lo:hi] ^ keys[lo - 1 : hi - 1], np.uint64(1 << b), out=tie[lo:hi])
    order = np.bitwise_and(keys, np.uint64((1 << b) - 1), out=keys).view(np.int64)
    pos = np.flatnonzero(tie[:-1] | tie[1:])
    # scores rise from run to run, so every descent lies inside one run
    down = np.zeros(pos.size, dtype=bool)
    for lo in range(0, pos.size, _BLOCK):
        ranked = scores[order[pos[lo : lo + _BLOCK + 1]]]
        np.less(ranked[1:], ranked[:-1], out=down[lo + 1 : lo + _BLOCK + 1])
    if down.any():
        run = (~tie[pos]).astype(np.intp)
        np.cumsum(run, out=run)  # numbers the runs of equal prefixes
        bad = np.zeros(run[-1] + 1, dtype=bool)
        bad[run[down]] = True
        pos = pos[bad[run]]
        del run
        index = order[pos]
        order[pos] = index[np.argsort(scores[index], kind="stable")]
    return order


def _class_curves(
    pred: LabelArray,
    gt: LabelArray,
    confs: dict[str, ConfidenceVector],
    catalog: ClassCatalog,
    grid: FractionGrid,
    classes: Sequence[int],
    *,
    tie_break: str = "stable_index",
    seed: int = 0,
    ranking_domain: str = "subset",
) -> list[tuple[int, np.ndarray, dict[str, np.ndarray]] | None]:
    """(relevant count, oracle error, {measure: sparsification error}) per class.

    The single curve engine behind every public entry point; a class with
    no relevant point gives None. Labels are checked and each class counted
    by ``confusion``. Memory beyond the inputs stays near one 8-byte key per
    point, sorted in place into the ranking, plus a few one-byte columns, as
    each ranking is dropped once its labels are gathered.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    if ranking_domain not in RANKING_DOMAINS:
        raise ValueError(f"ranking_domain must be one of {RANKING_DOMAINS}")
    matrix = confusion(pred, gt, catalog)
    for conf in confs.values():
        if len(conf) != len(gt):
            raise DimensionMismatch(
                f"confidence covers {len(conf)} points but labels cover {len(gt)}"
            )
    n, tps = matrix.total, np.diag(matrix.counts)
    relevant = matrix.counts.sum(axis=0) + matrix.counts.sum(axis=1) - tps
    # (relevant points, true positives) per class; an index outside the
    # catalog has no points, since confusion admits no label outside it
    counts = [(int(relevant[c]), int(tps[c])) if 0 <= c < catalog.k else (0, 0) for c in classes]
    keep = None if n == len(gt) else gt.values != catalog.ignore_index
    # kept labels in the smallest type holding k - 1, as the pooled columns
    dtype = np.min_scalar_type(catalog.k - 1)
    g, p = (
        (a.values if keep is None else a.values[keep]).astype(dtype, copy=False)
        for a in (gt, pred)
    )
    perm = None
    if tie_break == "seeded_random":
        # one shuffle of the whole ranking domain, shared by every class and
        # measure; restricted to one class it is a uniform shuffle of that class
        perm = np.random.default_rng(int(seed) & SEED_MASK).permutation(n)
    spars = [{} for _ in counts]
    for measure, conf in confs.items():
        scores = conf.scores if keep is None else conf.scores[keep]
        order = _stable_order(scores) if perm is None else perm[_stable_order(scores[perm])]
        del scores
        ranked_g, ranked_p = g[order], p[order]
        del order
        for curves, c, (n_rel, _) in zip(spars, classes, counts):
            if n_rel == 0:
                continue
            # the class's relevant points, as positions in the ranking
            pos = np.flatnonzero((ranked_g == c) | (ranked_p == c))
            if ranking_domain == "subset":
                removed = grid.removal_counts(n_rel)
            else:
                # a cut after r ranked points removes the class points before r
                removed = np.searchsorted(pos, grid.removal_counts(n))
            curves[measure] = _errors_over_removals(ranked_g[pos] == ranked_p[pos], removed)
    out = []
    for curves, (n_rel, n_tp) in zip(spars, counts):
        if n_rel == 0:
            out.append(None)
            continue
        domain = n_rel if ranking_domain == "subset" else n
        out.append((n_rel, _oracle_error(domain, n_tp, n_rel - n_tp, grid), curves))
    return out


def _single_class(
    pred: LabelArray,
    gt: LabelArray,
    confs: dict[str, ConfidenceVector],
    catalog: ClassCatalog,
    class_index: int,
    grid: FractionGrid,
    **ranking,
) -> tuple[int, np.ndarray, dict[str, np.ndarray]]:
    """The engine's result for one class; EmptySubset if it has no points."""
    curves = _class_curves(pred, gt, confs, catalog, grid, (class_index,), **ranking)[0]
    if curves is None:
        raise EmptySubset(f"class {class_index} has no ground-truth or predicted points")
    return curves


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
    default. "seeded_random" shuffles all non-ignored points with one
    permutation drawn from ``seed`` (masked to 64 bits, as
    ``EvalConfig.rng_seed`` is) before the stable sort, so tie-induced bias
    can be measured; every class shares that permutation, which makes this
    curve equal to the one ``class_curves_by_measure`` gives the class.
    """
    ranking = dict(tie_break=tie_break, seed=seed, ranking_domain=ranking_domain)
    return curve_pair(pred, gt, conf, catalog, class_index, grid, **ranking).sparsification_error


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
    return _single_class(
        pred, gt, {}, catalog, class_index, grid, ranking_domain=ranking_domain
    )[1]


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
    ranking = dict(tie_break=tie_break, seed=seed, ranking_domain=ranking_domain)
    confs = {conf.measure: conf}
    relevant, orac, spars = _single_class(pred, gt, confs, catalog, class_index, grid, **ranking)
    return CurvePair(class_index, grid, spars[conf.measure], orac, relevant)


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

    Each measure is ranked once for all classes, and the oracle curve, which
    does not depend on the measure, once per class. Classes with empty
    relevant subsets yield None.
    """
    grid = FractionGrid(config.grid_steps)
    ranking = dict(
        tie_break=config.tie_break, seed=config.rng_seed, ranking_domain=config.ranking_domain
    )
    curves = _class_curves(pred, gt, confs, catalog, grid, range(catalog.k), **ranking)
    out: list[dict[str, CurvePair] | None] = []
    for class_index, found in enumerate(curves):
        if found is None:
            out.append(None)
            continue
        relevant, orac, spars = found
        out.append(
            {m: CurvePair(class_index, grid, s, orac, relevant) for m, s in spars.items()}
        )
    return out


def per_class_ause(
    probs: ProbabilityStack,
    gt: LabelArray,
    catalog: ClassCatalog,
    measure: str,
    config: EvalConfig | None = None,
) -> list[ClassAuse]:
    """Per-class AUSE of one aggregated stack under one confidence measure.

    The stack is checked and reduced block by block, as each frame of a
    split is, and every class is then read from the one curve engine.
    """
    config = config or EvalConfig()
    if measure not in MEASURES:
        raise ValueError(f"unknown confidence measure {measure!r}")
    if probs.samples != 1:
        raise ValueError("per_class_ause expects an aggregated stack (samples == 1)")
    blocks = checked_blocks(predictive_blocks(probs), probs.points, probs.classes, gt, catalog)
    pred, scores = reduce_blocks(blocks, probs.points, (measure,))
    conf = ConfidenceVector(measure, scores[measure])
    curves = class_curves_by_measure(LabelArray(pred), gt, {measure: conf}, catalog, config)
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
