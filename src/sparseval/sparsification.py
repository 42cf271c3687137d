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
prefixes where they are misranked.

Restricting the one order to a class is the same as sorting the class on
its own, and a curve needs only counts: at each grid cut, how many of the
class's relevant points and true positives the ranking has removed. So the
labels are gathered into ranking order once per measure, cut into
sub-blocks of a few hundred points, and counted per sub-block and class in
one pass; a running sum over the sub-blocks then gives each class's counts
at every sub-block edge. A cut is resolved from the counts before its
sub-block plus a scan of that one sub-block. The oracle curve is
closed-form in the class's true-positive and error counts, so it needs no
sort. The engine reads its ranking policy (tie order, seed, domain) from
an ``EvalConfig``, which the one-class entry points build from their
keywords, and returns the public ``CurvePair`` of each class and measure.
Curves need labels and scores only: reducing a probability stack to them
is the pipeline's work (``pipeline.per_class_ause``).
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    ClassCatalog,
    ConfidenceVector,
    EvalConfig,
    LabelArray,
    SCAN_POINTS,
    as_integer,
)
from .errors import DimensionMismatch, EmptySubset, SubsetTooLarge
from .segmetrics import ConfusionMatrix, confusion

BRUTE_FORCE_MAX_POINTS = 20

# ranked points counted per chunk of the engine's counting pass: a chunk's
# one intp bin index takes 64 KiB
COUNT_POINTS = 1 << 13


@dataclass(frozen=True)
class FractionGrid:
    """Removal fractions j / grid_steps for j = 0 .. grid_steps - 1."""

    grid_steps: int

    def __post_init__(self):
        object.__setattr__(self, "grid_steps", as_integer("grid_steps", self.grid_steps, 1))

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


def _remaining_error(rem_tp: np.ndarray, rem_err: np.ndarray) -> np.ndarray:
    """IoU error err / (tp + err) of the points left at each grid step."""
    denom = rem_tp + rem_err
    errors = np.zeros(denom.size, dtype=np.float64)
    live = denom > 0
    # err/(tp+err) rather than 1 - tp/(tp+err): one rounding, and rounding is
    # monotone, so oracle dominance holds exactly in floating point
    errors[live] = rem_err[live] / denom[live]
    return errors


def _totals(matrix: ConfusionMatrix, classes: Sequence[int]) -> list[tuple[int, int]]:
    """(relevant points, true positives) of each of ``classes`` in the
    confusion ``matrix``; an index outside the catalog, negative ones
    included, has no points, since confusion admits no label outside it."""
    tps = np.diag(matrix.counts)
    relevant = matrix.counts.sum(axis=0) + matrix.counts.sum(axis=1) - tps
    return [(int(relevant[c]), int(tps[c])) if 0 <= c < matrix.k else (0, 0) for c in classes]


def _oracle_error(
    n_rel: int, n_tp: int, n: int, grid: FractionGrid, ranking_domain: str
) -> np.ndarray:
    """Error curve of a class with ``n_rel`` relevant points, ``n_tp`` of
    them true positives, when the best order removes the points of its
    ranking domain: its relevant points, or all ``n`` kept points."""
    domain = n_rel if ranking_domain == "subset" else n
    removed, n_err = grid.removal_counts(domain), n_rel - n_tp
    # errors go first, then points irrelevant to the class, then true positives
    return _remaining_error(
        n_tp - np.maximum(0, removed - (domain - n_tp)), n_err - np.minimum(removed, n_err)
    )


def _stable_order(scores: np.ndarray, perm: np.ndarray | None = None) -> np.ndarray:
    """``np.argsort(scores, kind="stable")`` for scores in [0, 1], bit for bit.

    One sort of unique keys, bits 61 to b - 2 of the score's float64 pattern
    over a b-bit index, b = max(bit length of n - 1, 2), then a stable
    re-sort of each run of equal prefixes that it misranks.

    With a permutation ``perm`` of the points it returns
    ``perm[_stable_order(scores[perm])]``, ties in ``perm`` order, without
    a permuted copy of the scores or a second order array: the keys are
    filled from ``scores[perm]`` a chunk at a time, and the sorted indices
    are mapped through ``perm`` in place before any run is re-sorted. A
    re-sort is stable, so it keeps that order among equal scores.
    """
    n = scores.size
    b = max((n - 1).bit_length(), 2)
    if perm is None:
        keys = scores.astype(np.float64).view(np.uint64)  # a copy: scores stay as they are
    else:
        keys = np.empty(n, dtype=np.uint64)
        for lo in range(0, n, SCAN_POINTS):
            keys[lo : lo + SCAN_POINTS].view(np.float64)[:] = scores[perm[lo : lo + SCAN_POINTS]]
    keys >>= np.uint64(b - 2)
    keys <<= np.uint64(b)  # shifts out the sign bit: -0.0 keys as +0.0
    for lo in range(0, n, SCAN_POINTS):
        keys[lo : lo + SCAN_POINTS] |= np.arange(lo, min(lo + SCAN_POINTS, n), dtype=np.uint64)
    keys.sort()
    tie = np.zeros(n + 1, dtype=bool)  # tie[i]: positions i - 1 and i share a prefix
    for lo in range(1, n, SCAN_POINTS):
        hi = min(lo + SCAN_POINTS, n)
        np.less(keys[lo:hi] ^ keys[lo - 1 : hi - 1], np.uint64(1 << b), out=tie[lo:hi])
    order = np.bitwise_and(keys, np.uint64((1 << b) - 1), out=keys).view(np.int64)
    if perm is not None:
        for lo in range(0, n, SCAN_POINTS):
            order[lo : lo + SCAN_POINTS] = perm[order[lo : lo + SCAN_POINTS]]
    pos = np.flatnonzero(tie[:-1] | tie[1:])
    # scores rise from run to run, so every descent lies inside one run
    down = np.zeros(pos.size, dtype=bool)
    for lo in range(0, pos.size, SCAN_POINTS):
        ranked = scores[order[pos[lo : lo + SCAN_POINTS + 1]]]
        np.less(ranked[1:], ranked[:-1], out=down[lo + 1 : lo + SCAN_POINTS + 1])
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


def _sub_block(k: int) -> int:
    """Ranked points per sub-block for a k-class catalog: 2^8, or 8 times
    the power of two at or above k when that is more, so that the running
    counts (two int64 per class and sub-block) take at most 2 B per point."""
    return max(1 << 8, 8 << (k - 1).bit_length())


def _running_counts(g: np.ndarray, p: np.ndarray, k: int, width: int):
    """Running (relevant, true-positive) counts of each class over the runs
    of ``width`` points of the labels ``g``, ``p``.

    The length of ``g`` and ``p`` is a whole number of runs; the label k
    pads and is counted for no class. Row i of each (runs + 1, k) int64
    array counts the points of the first i runs. Per chunk of runs, the
    bin index ``run * (k + 1) + label`` is counted for the ground truth,
    the prediction and the true positives (the ground truth where it
    equals the prediction, else k); a class's relevant points are its
    ground-truth plus its predicted points less its true positives.
    """
    rows = g.size // width
    relevant = np.zeros((rows + 1, k), dtype=np.int64)
    hits = np.zeros((rows + 1, k), dtype=np.int64)
    step = max(COUNT_POINTS, width)
    # the first bin of each run of a chunk, and the bin of each point
    offset = np.arange(0, step // width * (k + 1), k + 1, dtype=np.intp)[:, None]
    index = np.empty((step // width, width), dtype=np.intp)
    missed = np.empty(step, dtype=bool)
    tp = np.empty(step, dtype=g.dtype)
    pad = np.array(k, dtype=g.dtype)
    for lo in range(0, g.size, step):
        gc, pc = g[lo : lo + step], p[lo : lo + step]
        size, runs, row = gc.size, gc.size // width, lo // width + 1
        # k where the labels differ, the label where they agree, as labels <= k
        np.not_equal(gc, pc, out=missed[:size])
        np.multiply(missed[:size], pad, out=tp[:size])
        np.maximum(tp[:size], gc, out=tp[:size])
        counts = []
        for labels in (gc, pc, tp[:size]):
            np.add(offset[:runs], labels.reshape(runs, width), out=index[:runs])
            counts.append(np.bincount(index[:runs].ravel(), minlength=runs * (k + 1)))
        n_g, n_p, n_tp = (c.reshape(runs, k + 1)[:, :k] for c in counts)
        hits[row : row + runs] = n_tp
        relevant[row : row + runs] = n_g + n_p - n_tp
    np.cumsum(relevant, axis=0, out=relevant)
    np.cumsum(hits, axis=0, out=hits)
    return relevant, hits


def _removals(
    ranked_g: np.ndarray,
    ranked_p: np.ndarray,
    n: int,
    k: int,
    grid: FractionGrid,
    classes: Sequence[int],
    totals: list[tuple[int, int]],
    ranking_domain: str,
) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """(removed relevant points, removed true positives) at each grid cut,
    per class; None for a class with no relevant point.

    ``ranked_g`` and ``ranked_p`` hold the n kept labels in ranking order,
    padded with k to a whole number of ``_sub_block(k)``-point sub-blocks;
    ``totals`` holds each class's (relevant points, true positives). One
    counting pass gives each class's running counts at every sub-block
    edge (``_running_counts``); a cut adds to the counts before its
    sub-block those of a prefix of it:

    * subset domain: the cut after a class's m-th relevant point lies in
      the sub-block where the class's running relevant count passes m (a
      ``searchsorted``); each sub-block that a cut of the class falls in
      is scanned once for the class's relevant points, whose running
      true-positive count gives every cut's prefix;
    * global domain: a cut after r ranked points takes the first
      r % width points of sub-block r // width, counted like whole
      sub-blocks, once for all classes.
    """
    width = _sub_block(k)
    seen, hits = _running_counts(ranked_g, ranked_p, k, width)
    runs_g, runs_p = ranked_g.reshape(-1, width), ranked_p.reshape(-1, width)
    if ranking_domain == "global":
        # a cut after r ranked points: the sub-blocks before r // width and
        # the first r % width points of the next, counted as a sub-block
        run, head = np.divmod(grid.removal_counts(n), width)
        cut_g, cut_p = runs_g[run], runs_p[run]
        past = np.arange(width) >= head[:, None]
        cut_g[past] = k
        cut_p[past] = k
        head_seen, head_hits = _running_counts(cut_g.ravel(), cut_p.ravel(), k, width)
        seen_at_cut = seen[run] + np.diff(head_seen, axis=0)
        hits_at_cut = hits[run] + np.diff(head_hits, axis=0)
    out = []
    for c, (n_rel, _) in zip(classes, totals):
        if n_rel == 0:
            out.append(None)
        elif ranking_domain == "global":
            out.append((seen_at_cut[:, c], hits_at_cut[:, c]))
        else:
            removed = grid.removal_counts(n_rel)
            # the sub-block holding the class's (removed + 1)-th relevant
            # point, whose first removed - seen[run, c] relevant points go
            run = np.searchsorted(seen[:, c], removed, side="right") - 1
            blocks, which = np.unique(run, return_inverse=True)
            # each such sub-block scanned once: tp[i] counts the true
            # positives among the first i of their relevant points
            cut_g, cut_p = runs_g[blocks].ravel(), runs_p[blocks].ravel()
            at = np.flatnonzero((cut_g == c) | (cut_p == c))
            tp = np.zeros(at.size + 1, dtype=np.int64)
            np.cumsum(cut_g[at] == cut_p[at], out=tp[1:])
            size = seen[blocks + 1, c] - seen[blocks, c]
            first = (np.cumsum(size) - size)[which]
            head = tp[first + (removed - seen[run, c])] - tp[first]
            out.append((removed, hits[run, c] + head))
    return out


def _class_curves(
    pred: LabelArray,
    gt: LabelArray,
    confs: dict[str, ConfidenceVector],
    catalog: ClassCatalog,
    grid: FractionGrid,
    classes: Sequence[int],
    config: EvalConfig,
    counts: ConfusionMatrix | None = None,
) -> list[dict[str, CurvePair] | None]:
    """{measure: CurvePair} per entry of ``classes``, None for a class with
    no relevant point: the single curve engine behind every public entry.

    The ranking policy is read from ``config`` (tie_break, rng_seed,
    ranking_domain), which checked it. Labels are checked and each class
    counted by ``confusion``, unless the caller hands in ``counts``, the
    confusion of these very labels, which it has checked. A class's oracle
    is closed-form in its counts, computed once for all its pairs.

    Per measure, the kept labels are gathered into ranking order and padded
    with the label k to a whole number of sub-blocks; ``_removals`` reads
    from them how many relevant points and true positives of each class
    every grid cut removes. Those counts are integers, so the floats
    ``_remaining_error`` makes of them do not depend on how they were
    counted. Memory beyond the inputs stays near one 8-byte key per point,
    sorted in place into the ranking, plus the two label columns (one byte
    per point each up to 255 classes), as each ranking is dropped once its
    labels are gathered. The running counts take at most 2 bytes per
    point, and every other temporary is the size of a chunk or of the
    sub-blocks the cuts fall in.
    """
    matrix = confusion(pred, gt, catalog) if counts is None else counts
    for conf in confs.values():
        if len(conf) != len(gt):
            raise DimensionMismatch(
                f"confidence covers {len(conf)} points but labels cover {len(gt)}"
            )
    n, k = matrix.total, catalog.k
    totals = _totals(matrix, classes)
    if not any(n_rel for n_rel, _ in totals):
        return [None] * len(totals)
    oracles = [
        None if n_rel == 0 else _oracle_error(n_rel, n_tp, n, grid, config.ranking_domain)
        for n_rel, n_tp in totals
    ]
    keep = None if n == len(gt) else gt.values != catalog.ignore_index
    # kept labels in the smallest type holding k, the padding label: the
    # type of the pooled columns up to 255 classes
    dtype = np.min_scalar_type(k)
    g, p = (
        (a.values if keep is None else a.values[keep]).astype(dtype, copy=False)
        for a in (gt, pred)
    )
    width = _sub_block(k)
    padded = -(-n // width) * width
    perm = None
    if config.tie_break == "seeded_random":
        # one shuffle of the whole ranking domain, shared by every class and
        # measure; restricted to one class it is a uniform shuffle of that class
        perm = np.random.default_rng(config.rng_seed).permutation(n)
    out = [None if n_rel == 0 else {} for n_rel, _ in totals]
    for measure, conf in confs.items():
        scores = conf.scores if keep is None else conf.scores[keep]
        order = _stable_order(scores, perm)
        del scores
        ranked_g, ranked_p = (np.empty(padded, dtype=dtype) for _ in range(2))
        for labels, ranked in ((g, ranked_g), (p, ranked_p)):
            # every index is valid; "clip" only spares the copy "raise" makes
            np.take(labels, order, out=ranked[:n], mode="clip")
            ranked[n:] = k
        del order
        removals = _removals(
            ranked_g, ranked_p, n, k, grid, classes, totals, config.ranking_domain
        )
        del ranked_g, ranked_p
        for c, pairs, orac, (n_rel, n_tp), cut in zip(classes, out, oracles, totals, removals):
            if cut is not None:
                removed, removed_tp = cut
                err = (n_rel - n_tp) - (removed - removed_tp)
                spars = _remaining_error(n_tp - removed_tp, err)
                pairs[measure] = CurvePair(c, grid, spars, orac, n_rel)
    return out


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
    return curve_pair(
        pred, gt, conf, catalog, class_index, grid,
        tie_break=tie_break, seed=seed, ranking_domain=ranking_domain,
    ).sparsification_error


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
    config = EvalConfig(ranking_domain=ranking_domain)
    matrix = confusion(pred, gt, catalog)
    (n_rel, n_tp), = _totals(matrix, (class_index,))
    if n_rel == 0:
        raise EmptySubset(f"class {class_index} has no ground-truth or predicted points")
    return _oracle_error(n_rel, n_tp, matrix.total, grid, config.ranking_domain)


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
    config = EvalConfig(tie_break=tie_break, rng_seed=seed, ranking_domain=ranking_domain)
    confs = {conf.measure: conf}
    pairs, = _class_curves(pred, gt, confs, catalog, grid, (class_index,), config)
    if pairs is None:
        raise EmptySubset(f"class {class_index} has no ground-truth or predicted points")
    return pairs[conf.measure]


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
    *,
    _counts: ConfusionMatrix | None = None,
) -> list[dict[str, CurvePair] | None]:
    """CurvePairs for every catalog class under each supplied confidence.

    Each measure is ranked once for all classes, and the oracle curve, which
    does not depend on the measure, once per class. Classes with empty
    relevant subsets yield None. ``_counts`` is the confusion of these very
    labels, checked by the caller, as ``evaluate_split`` and
    ``per_class_ause`` hold it already.
    """
    grid = FractionGrid(config.grid_steps)
    return _class_curves(pred, gt, confs, catalog, grid, range(catalog.k), config, _counts)
